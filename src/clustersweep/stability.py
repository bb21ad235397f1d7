"""Single-resolution stability protocols: perturb, refit, compare by AMI.

Three perturbations are supported: refitting on a random subset of embedding
dimensions, refitting on a random subset of rows, and refitting with different
seeds. Each comparison is against a reference partition fitted once per K on
the unperturbed data. Repetition r draws its randomness from a generator
seeded by (master_seed, r), so curves reproduce bit-exactly and repetitions
are independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import gmm
from .data import EmbeddingMatrix, Partition, intersect_partitions
from .gmm import GmmConfig
from .metrics import ami

KINDS = ("dimension_subsample", "row_subsample", "seed_variation")


@dataclass(frozen=True)
class PerturbationSpec:
    """What to perturb and how often."""

    kind: str
    fraction: float = 0.8
    repetitions: int = 100
    seed_range: tuple[int, int] = (1, 100)
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown perturbation kind: {self.kind!r}")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must lie in (0, 1]")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed_range[1] < self.seed_range[0]:
            raise ValueError("empty seed_range")

    def seeds(self) -> range:
        return range(self.seed_range[0], self.seed_range[1] + 1)


@dataclass(frozen=True)
class StabilityCurve:
    """Mean and population-std AMI per K, plus the full repetition matrix."""

    kind: str
    k_values: tuple[int, ...]
    mean_ami: tuple[float, ...]
    std_ami: tuple[float, ...]
    per_rep: np.ndarray

    def __post_init__(self):
        if not (len(self.k_values) == len(self.mean_ami) == len(self.std_ami)):
            raise ValueError("k_values, mean_ami, std_ami must share a length")


def _run(
    kind: str,
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_range: tuple[int, int],
    spec: PerturbationSpec,
    references: dict[int, Partition] | None,
    jobs: int,
    reps: Iterable[int],
    perturb: Callable[[int], tuple[EmbeddingMatrix, GmmConfig]],
    compare: Callable[[Partition, Partition], float] | None = None,
) -> StabilityCurve:
    """The protocol of every kind: perturb, refit every K, score against the reference.

    ``perturb(r)`` gives the data and fit settings for each r in ``reps``.
    ``compare(partition, reference)`` scores a refit, by default the
    AMI of the two partitions. K=1 scores 1.0 by convention, unfitted.
    """
    if spec.kind != kind:
        raise ValueError(f"spec.kind must be {kind}, got {spec.kind!r}")
    ks = list(range(k_range[0], k_range[1] + 1))
    refs = dict(references) if references else {}
    for k in ks:
        if k > 1 and k not in refs:
            _, refs[k] = gmm.fit(data, base.with_k(k))

    def one_rep(r: int) -> list[float]:
        sub, config = perturb(r)
        row = []
        for k in ks:
            if k == 1:
                row.append(1.0)
                continue
            _, part = gmm.fit(sub, config.with_k(k))
            row.append(compare(part, refs[k]) if compare else ami(part, refs[k]).ami)
        return row

    per_rep = np.asarray(gmm._map_ordered(one_rep, reps, jobs), dtype=np.float64)
    return StabilityCurve(
        kind=kind,
        k_values=tuple(ks),
        mean_ami=tuple(float(x) for x in per_rep.mean(axis=0)),
        std_ami=tuple(float(x) for x in per_rep.std(axis=0)),
        per_rep=per_rep,
    )


def _subsample(spec: PerturbationSpec, r: int, n: int, size: int) -> np.ndarray:
    """Repetition r's draw of ``size`` distinct indices below n, ascending."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed, r)))
    return np.sort(rng.choice(n, size=size, replace=False))


def dimension_stability(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_range: tuple[int, int],
    spec: PerturbationSpec,
    references: dict[int, Partition] | None = None,
    jobs: int = 1,
) -> StabilityCurve:
    """AMI of fits on random dimension subsets against full-dimension fits.

    Each repetition draws floor(fraction * d) distinct columns (kept in
    original order), refits at every K, and compares against the reference
    partition at the same K. K=1 is 1.0 by convention.
    """
    n_cols = int(spec.fraction * data.d)
    if n_cols < 1:
        raise ValueError(f"fraction {spec.fraction} keeps no columns of d={data.d}")
    return _run(
        "dimension_subsample", data, base, k_range, spec, references, jobs,
        range(spec.repetitions),
        lambda r: (data.subset_columns(_subsample(spec, r, data.d, n_cols)), base),
    )


def row_stability(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_range: tuple[int, int],
    spec: PerturbationSpec,
    references: dict[int, Partition] | None = None,
    jobs: int = 1,
) -> StabilityCurve:
    """AMI of fits on random row subsets against the full-data fits.

    The subsample partition is compared with the reference restricted to the
    sampled ids, so both sides cover the same items.
    """
    n_rows = int(spec.fraction * data.n)
    if n_rows < k_range[1]:
        raise ValueError(f"fraction {spec.fraction} keeps {n_rows} rows < k_max={k_range[1]}")
    return _run(
        "row_subsample", data, base, k_range, spec, references, jobs, range(spec.repetitions),
        lambda r: (data.subset_rows(_subsample(spec, r, data.n, n_rows)), base),
        lambda part, ref: ami(*intersect_partitions(part, ref)).ami,
    )


def seed_stability(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_range: tuple[int, int],
    spec: PerturbationSpec,
    references: dict[int, Partition] | None = None,
    jobs: int = 1,
) -> StabilityCurve:
    """AMI of fits under alternative seeds against the base-seed fits."""
    return _run(
        "seed_variation", data, base, k_range, spec, references, jobs, spec.seeds(),
        lambda seed: (data, base.with_seed(seed)),
    )


def run_protocol(
    data: EmbeddingMatrix,
    base: GmmConfig,
    k_range: tuple[int, int],
    spec: PerturbationSpec,
    **kwargs,
) -> StabilityCurve:
    """Dispatch to the protocol named by ``spec.kind``."""
    fn = {
        "dimension_subsample": dimension_stability,
        "row_subsample": row_stability,
        "seed_variation": seed_stability,
    }[spec.kind]
    return fn(data, base, k_range, spec, **kwargs)


def write_curve_csv(curve: StabilityCurve, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,mean_ami,std_ami\n")
        for k, m, s in zip(curve.k_values, curve.mean_ami, curve.std_ami):
            fh.write(f"{k},{m!r},{s!r}\n")


def write_curve_reps_csv(curve: StabilityCurve, path: str | Path) -> None:
    """Wide per-repetition matrix: one row per repetition, one column per K."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rep," + ",".join(f"k{k}" for k in curve.k_values) + "\n")
        for r in range(curve.per_rep.shape[0]):
            fh.write(f"{r}," + ",".join(repr(float(x)) for x in curve.per_rep[r]) + "\n")


def write_curve_json(curve: StabilityCurve, path: str | Path) -> None:
    doc = {
        "kind": curve.kind,
        "k_values": list(curve.k_values),
        "mean_ami": list(curve.mean_ami),
        "std_ami": list(curve.std_ami),
        "per_rep": [[float(x) for x in row] for row in curve.per_rep],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_combined_csv(curves: list[StabilityCurve], path: str | Path) -> None:
    """One row per K with mean/std columns for each protocol, for plotting."""
    if not curves:
        raise ValueError("no curves to combine")
    ks = curves[0].k_values
    for c in curves[1:]:
        if c.k_values != ks:
            raise ValueError("curves cover different K ranges")
    header = "k" + "".join(f",{c.kind}_mean,{c.kind}_std" for c in curves)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, k in enumerate(ks):
            cells = "".join(f",{c.mean_ami[i]!r},{c.std_ami[i]!r}" for c in curves)
            fh.write(f"{k}{cells}\n")
