"""Shared data model: embedding matrices, partitions, contingency tables.

Everything here is immutable after construction, so objects can be shared
freely across worker threads. Item alignment between partitions is always
by id, never by position.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    MismatchedItems,
    NonFiniteValue,
    ParseError,
)

BINARY_MAGIC = b"CSEM"
BINARY_VERSION = 1


def _readonly(a: np.ndarray, dtype=None) -> np.ndarray:
    # Copy so freezing never reaches back into a caller-owned array.
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense n x d matrix of document embeddings plus row identifiers."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionMismatch(f"expected 2-d values, got ndim={values.ndim}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        n, d = values.shape
        if n < 1 or d < 1:
            raise DimensionMismatch(f"matrix must be at least 1x1, got {n}x{d}")
        if len(self.ids) != n:
            raise DimensionMismatch(f"{len(self.ids)} ids for {n} rows")
        if len(set(self.ids)) != n:
            raise ParseError("duplicate row ids")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValue(int(bad[0]), int(bad[1]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def subset_columns(self, columns: Sequence[int]) -> "EmbeddingMatrix":
        """Restrict to the given columns, in the given order."""
        cols = [int(c) for c in columns]
        return EmbeddingMatrix(ids=self.ids, values=self.values[:, cols])

    def subset_rows(self, rows: Sequence[int]) -> "EmbeddingMatrix":
        """Restrict to the given rows, keeping their ids."""
        idx = [int(r) for r in rows]
        return EmbeddingMatrix(ids=tuple(self.ids[i] for i in idx), values=self.values[idx, :])


@dataclass(frozen=True)
class Partition:
    """Hard assignment of n items to clusters 0..k_declared-1.

    Empty clusters are permitted: ``k_declared`` counts requested components
    while :meth:`occupied_clusters` counts nonempty ones.
    """

    n_items: int
    k_declared: int
    labels: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        labels = _readonly(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        if labels.ndim != 1 or labels.shape[0] != self.n_items:
            raise DimensionMismatch("labels length must equal n_items")
        if len(self.ids) != self.n_items:
            raise DimensionMismatch("ids length must equal n_items")
        if self.n_items > 0 and (labels.min() < 0 or labels.max() >= self.k_declared):
            raise ValueError(f"labels must lie in [0, {self.k_declared})")

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k_declared)

    def occupied_clusters(self) -> int:
        return int((self.cluster_sizes() > 0).sum())

    def members(self, cluster: int) -> np.ndarray:
        """Row positions of the items assigned to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)


@dataclass(frozen=True)
class ContingencyTable:
    """Overlap counts between two aligned partitions."""

    counts: np.ndarray
    row_sums: np.ndarray = field(init=False)
    col_sums: np.ndarray = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        counts = _readonly(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise DimensionMismatch("counts must be 2-d")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_sums", _readonly(counts.sum(axis=1)))
        object.__setattr__(self, "col_sums", _readonly(counts.sum(axis=0)))
        object.__setattr__(self, "total", int(counts.sum()))

    def transposed(self) -> "ContingencyTable":
        return ContingencyTable(self.counts.T)


def build_contingency(a: Partition, b: Partition) -> ContingencyTable:
    """Count pairwise cluster overlaps between two partitions of the same items.

    The partitions must cover the same id set; if their orders differ, ``b``
    is realigned to ``a`` by id.

    Raises:
        MismatchedItems: if the id sets differ.
    """
    if a.ids != b.ids:
        if set(a.ids) != set(b.ids):
            raise MismatchedItems("partitions cover different id sets")
        pos = {item: i for i, item in enumerate(b.ids)}
        b_labels = b.labels[[pos[item] for item in a.ids]]
    else:
        b_labels = b.labels
    counts = np.zeros((a.k_declared, b.k_declared), dtype=np.int64)
    np.add.at(counts, (a.labels, b_labels), 1)
    return ContingencyTable(counts)


def intersect_partitions(a: Partition, b: Partition) -> tuple[Partition, Partition]:
    """Restrict both partitions to their shared ids, in ``a``'s order.

    Labels keep their original values; only the item sets shrink.

    Raises:
        EmptyIntersection: if no ids are shared.
    """
    b_pos = {item: i for i, item in enumerate(b.ids)}
    a_idx = [i for i, item in enumerate(a.ids) if item in b_pos]
    if not a_idx:
        raise EmptyIntersection("partitions share no ids")
    shared_ids = tuple(a.ids[i] for i in a_idx)
    b_idx = [b_pos[item] for item in shared_ids]
    a_out = Partition(len(a_idx), a.k_declared, a.labels[a_idx], shared_ids)
    b_out = Partition(len(b_idx), b.k_declared, b.labels[b_idx], shared_ids)
    return a_out, b_out


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_embeddings(path: str | Path, format: str = "csv") -> EmbeddingMatrix:
    """Load an embedding matrix from a CSV or binary file.

    CSV layout: optional header row, optional id column (detected when the
    header's first cell is "id" or, headerless, when the first field is not
    numeric). Missing ids are synthesized as "0".."n-1".

    Raises:
        ParseError: malformed row or empty file.
        NonFiniteValue: NaN/inf entry, with its (row, column) location in
            data coordinates.
        DimensionMismatch: ragged rows.
    """
    path = Path(path)
    if format == "csv":
        return _load_csv(path)
    if format == "bin":
        return _load_binary(path)
    raise ParseError(f"unknown embedding format: {format!r}")


def _load_csv(path: Path) -> EmbeddingMatrix:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([f.strip() for f in line.split(",")])
    if not rows:
        raise ParseError(f"{path}: empty file")

    first = rows[0]
    has_header = (len(first) > 1 and any(not _is_float(f) for f in first[1:])) or (
        len(first) == 1 and not _is_float(first[0])
    )
    if has_header:
        header, data_rows = first, rows[1:]
    else:
        header, data_rows = None, rows
    if not data_rows:
        raise ParseError(f"{path}: no data rows")

    if header is not None:
        has_ids = header[0].strip().lower() == "id"
    else:
        has_ids = not _is_float(data_rows[0][0])

    width = len(data_rows[0])
    ids: list[str] = []
    values = np.empty((len(data_rows), width - (1 if has_ids else 0)), dtype=np.float64)
    for r, fields in enumerate(data_rows):
        if len(fields) != width:
            raise DimensionMismatch(
                f"{path}: row {r} has {len(fields)} fields, expected {width}"
            )
        value_fields = fields[1:] if has_ids else fields
        ids.append(fields[0] if has_ids else str(r))
        for c, token in enumerate(value_fields):
            try:
                x = float(token)
            except ValueError:
                raise ParseError(f"{path}: row {r}, column {c}: not a number: {token!r}")
            if not np.isfinite(x):
                raise NonFiniteValue(r, c, f"{path}: non-finite value at row {r}, column {c}")
            values[r, c] = x
    return EmbeddingMatrix(ids=tuple(ids), values=values)


def _load_binary(path: Path) -> EmbeddingMatrix:
    raw = path.read_bytes()
    if len(raw) < 21 or raw[:4] != BINARY_MAGIC:
        raise ParseError(f"{path}: not a CSEM embedding file")
    version = raw[4]
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    n, d = struct.unpack_from("<QQ", raw, 5)
    offset = 21
    nbytes = n * d * 8
    if len(raw) < offset + nbytes:
        raise ParseError(f"{path}: truncated value block")
    values = np.frombuffer(raw, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    id_block = raw[offset + nbytes :].decode("utf-8")
    ids = id_block.split("\n") if id_block else []
    if len(ids) != n:
        raise ParseError(f"{path}: expected {n} ids, found {len(ids)}")
    for r in range(n):
        row = values[r]
        if not np.isfinite(row).all():
            c = int(np.flatnonzero(~np.isfinite(row))[0])
            raise NonFiniteValue(r, c, f"{path}: non-finite value at row {r}, column {c}")
    return EmbeddingMatrix(ids=tuple(ids), values=values.copy())


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path, format: str = "csv") -> None:
    """Write an embedding matrix in the CSV or binary file format.

    The binary format round-trips bit-exactly; the CSV format uses shortest
    round-tripping decimal representations.
    """
    path = Path(path)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cols = ",".join(f"e{c}" for c in range(matrix.d))
            fh.write(f"id,{cols}\n")
            for i, row_id in enumerate(matrix.ids):
                row = ",".join(repr(float(x)) for x in matrix.values[i])
                fh.write(f"{row_id},{row}\n")
    elif format == "bin":
        for row_id in matrix.ids:
            if "\n" in row_id:
                raise ParseError(f"id {row_id!r} contains a newline")
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<BQQ", BINARY_VERSION, matrix.n, matrix.d))
            fh.write(np.ascontiguousarray(matrix.values, dtype="<f8").tobytes())
            fh.write("\n".join(matrix.ids).encode("utf-8"))
    else:
        raise ParseError(f"unknown embedding format: {format!r}")


def save_partition(partition: Partition, path: str | Path) -> None:
    """Write a partition as an "id,label" CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,label\n")
        for item, label in zip(partition.ids, partition.labels):
            fh.write(f"{item},{int(label)}\n")


def load_partition(path: str | Path, k_declared: int | None = None) -> Partition:
    """Read an "id,label" CSV back into a Partition.

    ``k_declared`` defaults to max label + 1.
    """
    ids: list[str] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line or (line_no == 0 and line.lower() == "id,label"):
                continue
            parts = line.rsplit(",", 1)
            if len(parts) != 2:
                raise ParseError(f"{path}: malformed partition row: {line!r}")
            try:
                label = int(parts[1])
            except ValueError:
                raise ParseError(f"{path}: bad label in row: {line!r}")
            ids.append(parts[0])
            labels.append(label)
    if not ids:
        raise ParseError(f"{path}: empty partition file")
    k = k_declared if k_declared is not None else max(labels) + 1
    return Partition(len(ids), k, np.asarray(labels), tuple(ids))
