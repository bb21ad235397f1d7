"""Shared data model: embedding matrices, partitions, contingency tables, and text files.

Everything here is immutable after construction, so objects can be shared
freely across worker threads. Those holding arrays compare equal only to
themselves (``eq=False``), since array equality has no single truth value.
Item alignment between partitions is always by id, never by position.
Every text file is opened by ``_lines`` (read by ``read_text``, ``read_lines`` and
``read_csv_rows``) and written by ``write_text``; ``_check_ids`` holds every id to
one rule, and ``json_fits`` a JSON value to a field's type.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ClusterSweepError, DimensionMismatch, NonFiniteValue, ParseError

BINARY_MAGIC = b"CSEM"
BINARY_VERSION = 1

# The Python type of each scalar annotation; a JSON value needs it (an int passes as a float).
_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}


def _lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """A UTF-8 text file's lines, ends kept, a leading byte-order mark skipped.

    ``newline`` is ``open``'s: None reads CRLF and CR as LF, "" keeps them. Raises
    ParseError if the file is not UTF-8 text.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, CRLF and CR line endings read as LF."""
    return "".join(_lines(path))


def read_lines(path: str | Path) -> Iterator[str]:
    """A UTF-8 text file's lines without their "\\n", read as ``read_text`` reads the file.

    Lines end at "\\n" only (CRLF and CR read as LF), not where ``str.splitlines`` ends
    them: it also splits at characters such as U+2028, which an id may hold.
    """
    return (line.removesuffix("\n") for line in _lines(path))


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """The rows of a UTF-8 CSV file, as ``csv.reader`` splits them; line ends are its to read."""
    return list(csv.reader(_lines(path, newline="")))


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line endings, on every platform."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def scalar_type(annotation: str) -> type:
    """The Python type of a field annotation: its item type for a list, None dropped."""
    return _SCALARS[annotation.removesuffix(" | None").removeprefix("list[").removesuffix("]")]


def json_fits(value, annotation: str) -> bool:
    """Whether a JSON value has the type of a field annotation; a bool is not a number."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(json_fits(v, annotation[5:-1]) for v in value)
    if value is None:
        return annotation.endswith(" | None")
    want = scalar_type(annotation)
    json_types = (int, float) if want is float else want
    return isinstance(value, bool) == (want is bool) and isinstance(value, json_types)


def _readonly(a: np.ndarray, dtype=None) -> np.ndarray:
    # Copy so freezing never reaches back into a caller-owned array.
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Partition:
    """Hard assignment of n items to clusters 0..k_declared-1.

    Empty clusters are permitted: ``k_declared`` counts requested components
    while :meth:`occupied_clusters` counts nonempty ones.
    """

    k_declared: int
    labels: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        labels = _readonly(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        if labels.shape != (len(self.ids),):
            raise DimensionMismatch("labels length must equal ids length")
        if self.n_items > 0 and (labels.min() < 0 or labels.max() >= self.k_declared):
            raise ValueError(f"labels must lie in [0, {self.k_declared})")

    @property
    def n_items(self) -> int:
        return len(self.ids)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k_declared)

    def occupied_clusters(self) -> int:
        return int((self.cluster_sizes() > 0).sum())

    def members(self, cluster: int) -> np.ndarray:
        """Row positions of the items assigned to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)


@dataclass(frozen=True, eq=False)
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


def build_contingency(a: Partition, b: Partition) -> ContingencyTable:
    """Count pairwise cluster overlaps between two partitions of the same items.

    The partitions must cover the same id set; if their orders differ, ``b``
    is realigned to ``a`` by id.

    Raises:
        ClusterSweepError: if the id sets differ.
    """
    if a.ids != b.ids:
        if set(a.ids) != set(b.ids):
            raise ClusterSweepError("partitions cover different id sets")
        pos = {item: i for i, item in enumerate(b.ids)}
        b_labels = b.labels[[pos[item] for item in a.ids]]
    else:
        b_labels = b.labels
    cells = np.bincount(a.labels * b.k_declared + b_labels, minlength=a.k_declared * b.k_declared)
    return ContingencyTable(cells.reshape(a.k_declared, b.k_declared))


def _check_ids(ids: Sequence[str], path: Path) -> None:
    """Hold every id to the id rule of every file format, or raise ParseError.

    An id has no comma and no line break, and does not start or end with whitespace:
    CSV rows split at commas and line breaks, and a partition id read back must be
    the id written. No id repeats. The first fault in row order is raised.
    """
    seen = {}
    for row, row_id in enumerate(ids):
        if "," in row_id or "\n" in row_id or "\r" in row_id or row_id != row_id.strip():
            raise ParseError(
                f"{path}: row {row}: id {row_id!r} contains a comma or a line break, "
                "or starts or ends with whitespace"
            )
        if row_id in seen:
            raise ParseError(f"{path}: id {row_id!r} repeats in rows {seen[row_id]} and {row}")
        seen[row_id] = row


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_embeddings(path: str | Path, format: str = "csv") -> EmbeddingMatrix:
    """Load an embedding matrix from a CSV or binary file.

    CSV layout: optional header row (the first row, when its first cell is "id"
    or a later cell is not numeric), optional id column (detected when the
    header's first cell is "id" or, headerless, when the first field is not
    numeric). Missing ids are synthesized as "0".."n-1".

    Raises:
        ParseError: malformed row or empty file.
        NonFiniteValue: NaN/inf entry, with its (row, column) location in
            data coordinates.
        DimensionMismatch: ragged rows, or no value column.
    """
    path = Path(path)
    if format == "csv":
        return _load_csv(path)
    if format == "bin":
        return _load_binary(path)
    raise ParseError(f"unknown embedding format: {format!r}")


def _load_csv(path: Path) -> EmbeddingMatrix:
    # Fields keep their spaces: float() ignores them, and an id may not have them.
    lines = [line for line in read_lines(path) if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")

    first = lines[0].split(",")
    named_ids = first[0].strip().lower() == "id"
    has_header = named_ids or not all(map(_is_float, first[1:] if len(first) > 1 else first))
    data_lines = lines[1:] if has_header else lines
    if not data_lines:
        raise ParseError(f"{path}: no data rows")
    has_ids = named_ids if has_header else not _is_float(data_lines[0].partition(",")[0])

    width = data_lines[0].count(",") + 1
    if width == has_ids:
        raise DimensionMismatch(f"{path}: no value columns, only ids")
    for r, line in enumerate(data_lines):
        if line.count(",") + 1 != width:
            raise DimensionMismatch(
                f"{path}: row {r} has {line.count(',') + 1} fields, expected {width}"
            )
    ids = [line.partition(",")[0] if has_ids else str(r) for r, line in enumerate(data_lines)]
    if has_ids:
        _check_ids(ids, path)
    values = np.empty((len(data_lines), width - has_ids), dtype=np.float64)
    for r, line in enumerate(data_lines):
        fields = line.split(",")[has_ids:]
        # numpy converts each str with float()'s rules. A row it rejects, or
        # one holding a non-finite value, is converted again one token at a
        # time, to raise at its first fault or to store what float() reads.
        try:
            values[r] = fields
            if np.isfinite(values[r]).all():
                continue
        except ValueError:
            pass
        for c, token in enumerate(fields):
            try:
                values[r, c] = x = float(token)
            except ValueError:
                raise ParseError(f"{path}: row {r}, column {c}: not a number: {token!r}")
            if not math.isfinite(x):
                raise NonFiniteValue(r, c, f"{path}: non-finite value at row {r}, column {c}")
    del lines, data_lines  # before EmbeddingMatrix copies the values
    return EmbeddingMatrix(ids=tuple(ids), values=values)


def _load_binary(path: Path) -> EmbeddingMatrix:
    raw = path.read_bytes()
    if len(raw) < 21 or raw[:4] != BINARY_MAGIC:
        raise ParseError(f"{path}: not a CSEM embedding file")
    version = raw[4]
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    n, d = struct.unpack_from("<QQ", raw, 5)
    if d == 0:
        raise DimensionMismatch(f"{path}: no value columns (d = 0)")
    offset = 21
    nbytes = n * d * 8
    if len(raw) < offset + nbytes:
        raise ParseError(f"{path}: truncated value block")
    values = np.frombuffer(raw, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    try:
        id_block = raw[offset + nbytes :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: ids are not UTF-8 text: {exc}") from None
    ids = id_block.split("\n")
    if len(ids) != n:
        raise ParseError(f"{path}: expected {n} ids, found {len(ids)}")
    _check_ids(ids, path)
    if not np.isfinite(values).all():
        r, c = map(int, np.argwhere(~np.isfinite(values))[0])
        raise NonFiniteValue(r, c, f"{path}: non-finite value at row {r}, column {c}")
    return EmbeddingMatrix(ids=tuple(ids), values=values)


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path, format: str = "csv") -> None:
    """Write an embedding matrix in the CSV or binary file format.

    The binary format round-trips bit-exactly; the CSV format uses shortest
    round-tripping decimal representations.
    """
    path = Path(path)
    if format not in ("csv", "bin"):
        raise ParseError(f"unknown embedding format: {format!r}")
    _check_ids(matrix.ids, path)
    if format == "csv":
        cols = ",".join(f"e{c}" for c in range(matrix.d))
        write_text(path, f"id,{cols}\n" + "".join(
            f"{row_id}," + ",".join(map(repr, row)) + "\n"
            for row_id, row in zip(matrix.ids, matrix.values.tolist())))
    else:
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<BQQ", BINARY_VERSION, matrix.n, matrix.d))
            fh.write(np.ascontiguousarray(matrix.values, dtype="<f8").tobytes())
            fh.write("\n".join(matrix.ids).encode("utf-8"))


def save_partition(partition: Partition, path: str | Path) -> None:
    """Write a partition as an "id,label" CSV."""
    _check_ids(partition.ids, Path(path))
    write_text(path, "id,label\n" + "".join(
        f"{item},{label}\n" for item, label in zip(partition.ids, partition.labels.tolist())))


def load_partition(path: str | Path, k_declared: int) -> Partition:
    """Read an "id,label" CSV back into a Partition of ``k_declared`` clusters."""
    ids: list[str] = []
    labels: list[int] = []
    # The id is not stripped: _check_ids holds it.
    for line_no, line in enumerate(read_lines(path)):
        if not line or (line_no == 0 and line.lower() == "id,label"):
            continue
        # rpartition, not rsplit: no list per row.
        row_id, comma, label_text = line.rpartition(",")
        if not comma:
            raise ParseError(f"{path}: row {len(ids)}: not an id,label pair: {line!r}")
        try:
            label = int(label_text)
            if label_text != str(label):  # int() also takes " 3", "+3", "1_0" and "٣"
                raise ValueError
        except ValueError:
            raise ParseError(f"{path}: row {len(ids)}: bad label {label_text!r}") from None
        if not 0 <= label < k_declared:
            raise ParseError(f"{path}: row {len(ids)}: label {label} is not in [0, {k_declared})")
        ids.append(row_id)
        labels.append(label)
    if not ids:
        raise ParseError(f"{path}: empty partition file")
    _check_ids(ids, path)
    return Partition(k_declared, np.asarray(labels), tuple(ids))
