"""K-sweep driver: fit every resolution, compare consecutive ones, archive runs.

Each K is fitted independently with the same seed and config; no information
flows between resolutions. A run archive is a directory holding input.bin
(the sweep's input, in the binary embedding format), partition_K.csv and
model_K.json per resolution, and consecutive_metrics.json.
"""

from __future__ import annotations

import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from . import gmm
from .data import EmbeddingMatrix, Partition, _load_binary, build_contingency, load_partition
from .data import save_embeddings, save_partition, write_text
from .errors import ClusterSweepError, NumericFailure, ParseError
from .gmm import GmmConfig, MixtureModel
from .metrics import AmiReport, StabilityBreakdown, ami_from_table, stability_from_table


@dataclass(frozen=True)
class ConsecutiveComparison:
    """Metrics between the partition at k_current and the one at k_current - 1."""

    k_current: int
    k_previous: int
    ami: AmiReport
    stability: StabilityBreakdown


@dataclass(frozen=True)
class Archive:
    """What the stages after a sweep read: its partitions, fit settings (at k_min) and input."""

    k_min: int
    k_max: int
    partitions: dict[int, Partition]
    base: GmmConfig
    data: EmbeddingMatrix


@dataclass(frozen=True)
class SweepResult(Archive):
    """An Archive plus the sweep's models and the AMI and stability of every K against K - 1."""

    models: dict[int, MixtureModel]
    consecutive: tuple[ConsecutiveComparison, ...]


def run_sweep(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_min: int = 1,
    k_max: int = 20,
    jobs: int = 1,
) -> SweepResult:
    """Fit a GMM at every K in [k_min, k_max] and compare consecutive resolutions.

    Deterministic given (data, base, range); fits at different K may run in
    parallel, largest K first, and are joined by K.

    Raises:
        NumericFailure: if a fit ends with a non-finite log-likelihood.
        ClusterSweepError: fit errors, annotated with the failing K.
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"bad sweep range [{k_min}, {k_max}]")
    if data.n < k_max:
        raise ValueError(f"n={data.n} rows cannot support k_max={k_max}")

    ks = range(k_min, k_max + 1)
    fitted = _fit_each_k(data, base, ks, jobs)
    tables = {k: build_contingency(fitted[k][1], fitted[k - 1][1]) for k in ks[1:]}
    return SweepResult(
        k_min=k_min,
        k_max=k_max,
        partitions={k: fitted[k][1] for k in ks},
        base=replace(base, k=k_min),
        data=data,
        models={k: fitted[k][0] for k in ks},
        consecutive=tuple(ConsecutiveComparison(k, k - 1, ami_from_table(table),
                                                stability_from_table(table))
                          for k, table in tables.items()),
    )


def _fit_each_k(data: EmbeddingMatrix, config: GmmConfig, ks: Iterable[int], jobs: int,
                where: str = "", score: Callable[[int, Partition], float] | None = None) -> dict:
    """The one fit path of sweeps and refits: ``{k: (model, partition)}`` for each K of ``ks``.

    Fits run on ``jobs`` threads, largest (slowest) K first, and are joined by K; once one
    raises, no other starts. ``score(k, partition)``, if given, runs next to its fit and
    replaces the partition.
    Errors name the K, then ``where`` (" in seed_variation seed 5"; empty for a sweep);
    NumericFailure is raised at the lowest K whose final log-likelihood is not finite.
    """
    failed = threading.Event()  # set at the first error, before the caller sees it

    def fit_one(k: int) -> tuple[MixtureModel, Partition | float] | None:
        if failed.is_set():
            return None  # the run fails with an earlier K's error
        try:
            try:
                model, part = gmm.fit(data, replace(config, k=k))
            except ClusterSweepError as exc:
                exc.args = (f"while fitting K={k}{where}: {exc}",)
                raise
            return model, score(k, part) if score else part
        except Exception:
            failed.set()
            raise

    order = sorted(ks, reverse=True)
    gmm._pin_blas()  # before any worker thread starts
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        fitted = dict(zip(order, pool.map(fit_one, order)))
    for k in reversed(order):
        ll = fitted[k][0].final_log_likelihood
        if not math.isfinite(ll):
            raise NumericFailure(f"non-finite log-likelihood at K={k}{where}: {ll}")
    return fitted


def _k_files(root: Path, stem: str, suffix: str) -> list[tuple[int, Path]]:
    """(K, path) of every <stem>_<digits><suffix> file in root."""
    return [(int(m.group(1)), p) for p in root.glob(f"{stem}_*{suffix}")
            if (m := re.fullmatch(rf"{stem}_(\d+){re.escape(suffix)}", p.name))]


def write_archive(result: SweepResult, out_dir: str | Path) -> None:
    """Write a sweep archive; reruns with equal inputs produce identical bytes.

    Partition and model files of any K outside the sweep's range are deleted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, suffix in (("partition", ".csv"), ("model", ".json")):
        for k, path in _k_files(out, stem, suffix):
            if not result.k_min <= k <= result.k_max:
                path.unlink()
    save_embeddings(result.data, out / "input.bin", "bin")
    for k in range(result.k_min, result.k_max + 1):
        save_partition(result.partitions[k], out / f"partition_{k}.csv")
        gmm.save_model(result.models[k], replace(result.base, k=k), out / f"model_{k}.json")
    write_text(out / "consecutive_metrics.json",
               json.dumps([asdict(c) for c in result.consecutive], indent=2) + "\n")


def read_archive(path: str | Path) -> Archive:
    """Load a sweep archive back: its partitions, fit settings and input.

    The K range is the archive's own. Every K needs a model_K.json of that K; their
    fit settings must agree. input.bin must hold partition_<k_min>.csv's ids, in
    order, and every model's d. Raises ParseError if there are no partition
    files or no input.bin.
    """
    root = Path(path)
    ks = sorted(k for k, _ in _k_files(root, "partition", ".csv"))
    if not ks:
        raise ParseError(f"no sweep archive in {root}; run the sweep first")
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ParseError(f"{root}: partition files do not form a contiguous K range: {ks}")
    partitions = {k: load_partition(root / f"partition_{k}.csv", k_declared=k) for k in ks}
    ids = partitions[ks[0]].ids
    for k in ks[1:]:
        if set(partitions[k].ids) != set(ids):
            raise ParseError(f"{root}: partition_{k}.csv covers a different id set")
    bases, dims = set(), {}
    for k in ks:
        model, config = gmm.load_model(root / f"model_{k}.json")
        if model.k != k or config.k != k:
            raise ParseError(f"{root}: model_{k}.json holds K={model.k} (config k={config.k})")
        bases.add(replace(config, k=ks[0]))
        dims[k] = model.d
    if len(bases) > 1:
        raise ParseError(f"{root}: model files disagree on the fit settings")
    if not (root / "input.bin").exists():
        raise ParseError(f"{root}: the sweep archive has no input.bin; run the sweep again")
    data = _load_binary(root / "input.bin")
    if data.ids != ids:
        raise ParseError(f"{root / 'input.bin'}: ids differ from partition_{ks[0]}.csv's")
    for k, d in dims.items():
        if d != data.d:
            raise ParseError(f"{root / 'input.bin'}: d={data.d} where model_{k}.json has d={d}")
    return Archive(
        k_min=ks[0],
        k_max=ks[-1],
        partitions=partitions,
        base=bases.pop(),
        data=data,
    )
