"""K-sweep driver: fit every resolution, compare consecutive ones, archive runs.

Each K is fitted independently with the same seed and config; no information
flows between resolutions. A run archive is a directory holding config.json,
partition_K.csv and model_K.json per resolution, and consecutive_metrics.json.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import gmm
from .data import (
    ContingencyTable,
    EmbeddingMatrix,
    Partition,
    build_contingency,
    load_partition,
    save_partition,
)
from .errors import ClusterSweepError, MissingArchive, NumericFailure, OutOfRange, ParseError
from .gmm import GmmConfig, MixtureModel
from .metrics import AmiReport, StabilityBreakdown, ami_from_table, stability_from_table


@dataclass(frozen=True)
class ConsecutiveComparison:
    """Metrics between the partition at k_current and the one at k_current - 1."""

    k_current: int
    ami: AmiReport
    stability: StabilityBreakdown


@dataclass(frozen=True)
class SweepResult:
    """Partitions, models, consecutive metrics, and the fit settings (at k_min) of one sweep."""

    k_min: int
    k_max: int
    partitions: dict[int, Partition]
    models: dict[int, MixtureModel]
    consecutive: tuple[ConsecutiveComparison, ...]
    base: GmmConfig

    def comparison_at(self, k_current: int) -> ConsecutiveComparison:
        if not (self.k_min < k_current <= self.k_max):
            raise OutOfRange(f"no comparison at K={k_current}")
        return self.consecutive[k_current - self.k_min - 1]


def _consecutive_metrics(
    partitions: dict[int, Partition], k_min: int, k_max: int
) -> tuple[ConsecutiveComparison, ...]:
    out = []
    for k in range(k_min + 1, k_max + 1):
        table = build_contingency(partitions[k], partitions[k - 1])
        out.append(
            ConsecutiveComparison(
                k_current=k,
                ami=ami_from_table(table),
                stability=stability_from_table(table),
            )
        )
    return tuple(out)


def run_sweep(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_min: int = 1,
    k_max: int = 20,
    jobs: int = 1,
) -> SweepResult:
    """Fit a GMM at every K in [k_min, k_max] and compare consecutive resolutions.

    Deterministic given (data, base, range); fits at different K may run in
    parallel and are joined by K.

    Raises:
        NumericFailure: if a fit ends with a non-finite log-likelihood.
        ClusterSweepError: fit errors, annotated with the failing K.
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"bad sweep range [{k_min}, {k_max}]")
    if data.n < k_max:
        raise ValueError(f"n={data.n} rows cannot support k_max={k_max}")

    def fit_one(k: int) -> tuple[int, MixtureModel, Partition]:
        try:
            model, partition = gmm.fit(data, base.with_k(k))
        except ClusterSweepError as exc:
            exc.args = (f"while fitting K={k}: {exc}",)
            raise
        if not math.isfinite(model.final_log_likelihood):
            raise NumericFailure(
                f"non-finite log-likelihood at K={k}: {model.final_log_likelihood}"
            )
        return k, model, partition

    fitted = gmm._map_ordered(fit_one, range(k_min, k_max + 1), jobs)
    partitions = {k: part for k, _, part in fitted}
    models = {k: model for k, model, _ in fitted}
    return SweepResult(
        k_min=k_min,
        k_max=k_max,
        partitions=partitions,
        models=models,
        consecutive=_consecutive_metrics(partitions, k_min, k_max),
        base=base.with_k(k_min),
    )


def transition_counts(result: SweepResult, k: int) -> ContingencyTable:
    """Item flows from clusters at resolution k (rows) to k+1 (columns).

    Raises:
        OutOfRange: unless both k and k+1 lie inside the sweep range.
    """
    if not (result.k_min <= k and k + 1 <= result.k_max):
        raise OutOfRange(f"transition {k}->{k + 1} outside [{result.k_min}, {result.k_max}]")
    return build_contingency(result.partitions[k], result.partitions[k + 1])


def consecutive_to_json(result: SweepResult) -> list[dict]:
    return [
        {
            "k_current": c.k_current,
            "k_previous": c.k_current - 1,
            "ami": c.ami.to_json_dict(),
            "stability": c.stability.to_json_dict(),
        }
        for c in result.consecutive
    ]


def write_archive(
    result: SweepResult,
    out_dir: str | Path,
    run_config: dict | None = None,
) -> None:
    """Write a sweep archive; reruns with equal inputs produce identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_doc = run_config if run_config is not None else {
        "k_min": result.k_min,
        "k_max": result.k_max,
        "gmm": result.base.to_dict(),
    }
    with open(out / "config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_doc, fh, indent=2)
        fh.write("\n")
    for k in range(result.k_min, result.k_max + 1):
        save_partition(result.partitions[k], out / f"partition_{k}.csv")
        gmm.save_model(result.models[k], result.base.with_k(k), out / f"model_{k}.json")
    with open(out / "consecutive_metrics.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(consecutive_to_json(result), fh, indent=2)
        fh.write("\n")


def read_archive(path: str | Path) -> SweepResult:
    """Load a sweep archive back; consecutive metrics are recomputed exactly.

    The K range is the archive's own. Every K needs a model_K.json; their fit
    settings must agree. Raises MissingArchive if there are no partition files.
    """
    root = Path(path)
    ks = sorted(
        int(m.group(1))
        for p in root.glob("partition_*.csv")
        if (m := re.fullmatch(r"partition_(\d+)\.csv", p.name))
    )
    if not ks:
        raise MissingArchive(f"no sweep archive in {root}; run the sweep first")
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ParseError(f"{root}: partition files do not form a contiguous K range: {ks}")
    partitions = {k: load_partition(root / f"partition_{k}.csv", k_declared=k) for k in ks}
    ids = partitions[ks[0]].ids
    for k in ks[1:]:
        if set(partitions[k].ids) != set(ids):
            raise ParseError(f"{root}: partition_{k}.csv covers a different id set")
    models, bases = {}, set()
    for k in ks:
        models[k], config = gmm.load_model(root / f"model_{k}.json")
        bases.add(config.with_k(ks[0]))
    if len(bases) > 1:
        raise ParseError(f"{root}: model files disagree on the fit settings")
    return SweepResult(
        k_min=ks[0],
        k_max=ks[-1],
        partitions=partitions,
        models=models,
        consecutive=_consecutive_metrics(partitions, ks[0], ks[-1]),
        base=bases.pop(),
    )
