"""Single-resolution stability protocols: perturb, refit, compare by AMI.

Three perturbations are supported: refitting on a random subset of embedding
dimensions, refitting on a random subset of rows, and refitting with different
seeds. Each refit perturbs the sweep's own input (an archive's input.bin),
uses the sweep's fit settings and is compared with the sweep's partition at
the same K. Repetition r draws its randomness from a generator seeded by
(0, r), so curves reproduce bit-exactly and repetitions are independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import gmm
from .data import EmbeddingMatrix, Partition, _readonly, write_text
from .metrics import ami
from .pipeline import Archive, _fit_each_k

# Each kind and the token that names it on the command line and in its file names.
KINDS = {"dimension_subsample": "dimensions", "row_subsample": "rows", "seed_variation": "seeds"}


@dataclass(frozen=True)
class PerturbationSpec:
    """Every kind's settings: ``fraction`` subsamples ``reps`` times, or seeds seed_lo..seed_hi."""

    fraction: float = 0.8
    reps: int = 100
    seed_lo: int = 1
    seed_hi: int = 100

    def __post_init__(self):
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must lie in (0, 1]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed_lo < 0:
            raise ValueError(f"seed_lo must be >= 0, got {self.seed_lo}")
        if self.seed_hi < self.seed_lo:
            raise ValueError(f"seed_hi ({self.seed_hi}) < seed_lo ({self.seed_lo})")


@dataclass(frozen=True, eq=False)
class StabilityCurve:
    """AMI per repetition (rows) and K (columns), with its column mean and population std."""

    kind: str
    k_values: tuple[int, ...]
    per_rep: np.ndarray
    mean_ami: tuple[float, ...] = field(init=False)
    std_ami: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "per_rep", _readonly(self.per_rep, dtype=np.float64))
        object.__setattr__(self, "mean_ami", tuple(float(x) for x in self.per_rep.mean(axis=0)))
        object.__setattr__(self, "std_ami", tuple(float(x) for x in self.per_rep.std(axis=0)))


def _run(
    kind: str,
    sweep: Archive,
    spec: PerturbationSpec,
    jobs: int,
    reps: Iterable[int],
    perturb: Callable[[int, int], tuple[EmbeddingMatrix, gmm.GmmConfig]],
    compare: Callable[[Partition, Partition], float] = lambda part, ref: ami(part, ref).ami,
) -> StabilityCurve:
    """The protocol of every kind: perturb the sweep's input, refit every K, score.

    ``perturb(r, size)`` gives the data and fit settings for each r in ``reps``,
    drawn once per repetition; ``size`` is ``_draw_size``'s. ``compare(partition,
    reference)`` scores a refit against the sweep's partition at its K, by
    default by their AMI. K=1 scores 1.0 by convention, unfitted; the other K
    go through ``_fit_each_k``.
    """
    size = _draw_size(KINDS[kind], spec, sweep)
    ks = range(sweep.k_min, sweep.k_max + 1)
    fit_ks = [k for k in ks if k > 1]
    rep = "seed" if kind == "seed_variation" else "repetition"
    rows = []
    for r in reps:
        sub, config = perturb(r, size)
        fitted = _fit_each_k(sub, config, fit_ks, jobs, f" in {kind} {rep} {r}",
                             lambda k, part: compare(part, sweep.partitions[k]))
        rows.append([fitted[k][1] if k in fitted else 1.0 for k in ks])
    return StabilityCurve(kind, tuple(ks), np.asarray(rows, dtype=np.float64))


def _subsample(r: int, n: int, size: int) -> np.ndarray:
    """Repetition r's draw of ``size`` distinct indices below n, ascending."""
    rng = np.random.default_rng(np.random.SeedSequence((0, r)))
    return np.sort(rng.choice(n, size=size, replace=False))


def _draw_size(token: str, spec: PerturbationSpec, sweep: Archive) -> int:
    """The columns (token "dimensions") or rows a draw keeps; too few raise ValueError."""
    data = sweep.data
    size = int(spec.fraction * (data.d if token == "dimensions" else data.n))
    if token == "dimensions" and size < 1:
        raise ValueError(f"fraction {spec.fraction} keeps no columns of d={data.d}")
    if token == "rows" and size < sweep.k_max:
        raise ValueError(f"fraction {spec.fraction} keeps {size} rows < k_max={sweep.k_max}")
    return size


def dimension_stability(sweep: Archive, spec: PerturbationSpec, jobs: int = 1) -> StabilityCurve:
    """AMI of fits on random dimension subsets against the sweep's full-dimension fits.

    Each repetition draws floor(fraction * d) distinct columns (kept in
    original order), refits at every K of the sweep, and compares against the
    sweep's partition at the same K. K=1 is 1.0 by convention.
    """
    return _run(
        "dimension_subsample", sweep, spec, jobs, range(spec.reps),
        lambda r, n_cols: (sweep.data.subset_columns(_subsample(r, sweep.data.d, n_cols)),
                           sweep.base),
    )


def row_stability(sweep: Archive, spec: PerturbationSpec, jobs: int = 1) -> StabilityCurve:
    """AMI of fits on random row subsets against the sweep's full-data fits.

    The subsample partition is compared with the sweep's partition restricted
    to the sampled ids, found by id, so both sides cover the same items.
    """

    def compare(part: Partition, ref: Partition) -> float:
        pos = {item: i for i, item in enumerate(ref.ids)}
        rows = [pos[item] for item in part.ids]
        return ami(part, Partition(ref.k_declared, ref.labels[rows], part.ids)).ami

    return _run(
        "row_subsample", sweep, spec, jobs, range(spec.reps),
        lambda r, n_rows: (sweep.data.subset_rows(_subsample(r, sweep.data.n, n_rows)),
                           sweep.base),
        compare,
    )


def seed_stability(sweep: Archive, spec: PerturbationSpec, jobs: int = 1) -> StabilityCurve:
    """AMI of fits under alternative seeds against the sweep's base-seed fits."""
    return _run(
        "seed_variation", sweep, spec, jobs, range(spec.seed_lo, spec.seed_hi + 1),
        lambda seed, _: (sweep.data, replace(sweep.base, seed=seed)),
    )


def run_protocol(
    token: str, sweep: Archive, spec: PerturbationSpec, jobs: int = 1
) -> StabilityCurve:
    """Run the protocol that ``token``, a --kinds token (dimensions, rows or seeds), names."""
    protocols = {"dimensions": dimension_stability, "rows": row_stability, "seeds": seed_stability}
    if token not in protocols:
        raise ValueError(f"unknown stability kind: {token!r}")
    return protocols[token](sweep, spec, jobs)


def write_curve(curve: StabilityCurve, out_dir: str | Path) -> None:
    """Write a curve's three files into ``out_dir``, named stability_<token> by its kind.

    The .csv holds k,mean_ami,std_ami rows; the _reps.csv holds per_rep, one
    row per repetition and one column per K; the .json holds the whole curve.
    """
    per_rep = curve.per_rep.tolist()
    doc = {"kind": curve.kind, "k_values": list(curve.k_values), "mean_ami": list(curve.mean_ami),
           "std_ami": list(curve.std_ami), "per_rep": per_rep}
    files = {
        ".csv": "k,mean_ami,std_ami\n" + "".join(
            f"{k},{m!r},{s!r}\n" for k, m, s in zip(curve.k_values, curve.mean_ami, curve.std_ami)),
        "_reps.csv": "rep," + ",".join(f"k{k}" for k in curve.k_values) + "\n" + "".join(
            f"{r}," + ",".join(map(repr, row)) + "\n" for r, row in enumerate(per_rep)),
        ".json": json.dumps(doc, indent=2) + "\n",
    }
    for suffix, text in files.items():
        write_text(Path(out_dir, f"stability_{KINDS[curve.kind]}{suffix}"), text)


def write_combined_csv(curves: list[StabilityCurve], path: str | Path) -> None:
    """One row per K with mean/std columns for each protocol, for plotting."""
    if not curves:
        raise ValueError("no curves to combine")
    ks = curves[0].k_values
    for c in curves[1:]:
        if c.k_values != ks:
            raise ValueError("curves cover different K ranges")
    header = "k" + "".join(f",{c.kind}_mean,{c.kind}_std" for c in curves)
    write_text(path, header + "\n" + "".join(
        f"{k}" + "".join(f",{c.mean_ami[i]!r},{c.std_ami[i]!r}" for c in curves) + "\n"
        for i, k in enumerate(ks)))
