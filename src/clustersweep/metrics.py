"""Partition-comparison measures: entropy, MI, expected MI, AMI, proportional stability.

All information measures use natural logarithms. Per-cell contributions are
accumulated in sorted order so that every metric is invariant under cluster
relabeling and AMI is bit-identical under argument swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import ContingencyTable, Partition, build_contingency


@dataclass(frozen=True)
class AmiReport:
    """Mutual-information comparison of two partitions, chance-corrected."""

    mi: float
    emi: float
    entropy_u: float
    entropy_v: float
    ami: float


@dataclass(frozen=True)
class ClusterStability:
    """Largest-parent overlap for one cluster of the current partition."""

    cluster: int
    size: int
    best_parent: int
    overlap: int
    ratio: float


@dataclass(frozen=True)
class StabilityBreakdown:
    """Per-cluster parent overlaps plus their average."""

    per_cluster: tuple[ClusterStability, ...]
    average: float


def _sorted_sum(terms: np.ndarray) -> float:
    # Fixed summation order regardless of the order terms were produced in.
    return float(np.sort(terms, kind="stable").sum()) if terms.size else 0.0


def _entropy_from_sizes(sizes: np.ndarray, total: int) -> float:
    sizes = sizes[sizes > 0]
    if sizes.size <= 1:
        return 0.0
    p = sizes / float(total)
    return max(0.0, _sorted_sum(-(p * np.log(p))))


def entropy(p: Partition) -> float:
    """Shannon entropy (nats) of a partition's cluster-size distribution."""
    return _entropy_from_sizes(p.cluster_sizes(), p.n_items)


def mutual_information(t: ContingencyTable) -> float:
    """MI (nats) of the joint distribution counts/total; zero cells contribute 0."""
    n = float(t.total)
    rows, cols = np.nonzero(t.counts)
    if rows.size == 0:
        return 0.0
    nij = t.counts[rows, cols].astype(np.float64)
    a = t.row_sums[rows].astype(np.float64)
    b = t.col_sums[cols].astype(np.float64)
    terms = (nij / n) * np.log((n * nij) / (a * b))
    return max(0.0, _sorted_sum(terms))


# The Stirling-series coefficients of cephes ``lgam`` (scipy's ``gammaln``)
# for 13 <= x < 1000, highest power first, and log(sqrt(2 pi)).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _log_gamma(x: int) -> float:
    """log Gamma(x) at an integer x >= 1, bit for bit as cephes ``lgam`` computes it.

    Below 13 it is the log of the exact product (x - 1)!; above, the Stirling
    series, whose tail becomes a fixed three-term polynomial from 1000 on and
    is dropped past 1e8. ``math.log`` is the C library's log, which cephes
    calls too.
    """
    if x < 13:
        return math.log(math.factorial(x - 1))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    return q + poly / x


# One CLI process meets two n at most: the input's and its row subsample's.
@lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """A read-only array whose entry m is log(m!), for m = 0..n."""
    table = np.array([_log_gamma(m + 1) for m in range(n + 1)])
    table.setflags(write=False)
    return table


def expected_mutual_information(t: ContingencyTable) -> float:
    """Expected MI under random label assignment with fixed marginals.

    Exact hypergeometric-model sum (no Monte Carlo): for every marginal pair
    (a, b) the overlap count ranges over its feasible support and each value
    is weighted by its hypergeometric probability, computed via log-factorials.
    Equals the average MI over all total! equally likely item relabelings of
    one side.

    The terms of one row size ``a`` are computed in one pass over all column
    sizes; each pair's terms are summed on their own, then the pair totals in
    sorted order, so the value is that of a loop over the pairs.
    """
    n = t.total
    if n < 1:
        return 0.0
    lf = _log_factorials(n)
    b = t.col_sums[t.col_sums > 0].astype(np.int64)
    cell_totals = []
    for a in (int(x) for x in t.row_sums if x > 0):
        start = np.maximum(1, a + b - n)
        length = np.minimum(a, b) - start + 1  # >= 1, as 0 < a, b <= n
        ends = np.cumsum(length)
        offsets = ends - length
        # Pair p owns entries offsets[p]:ends[p] of every array below.
        pair = np.repeat(np.arange(b.size), length)
        nij = start[pair] + (np.arange(ends[-1]) - offsets[pair])
        bp = b[pair]
        # Pairwise (a, b)-symmetric groupings keep the value bit-identical
        # under transposition of the table.
        base = ((lf[a] + lf[b]) + (lf[n - a] + lf[n - b]) - lf[n])[pair]
        log_pmf = base - lf[nij] - (lf[a - nij] + lf[bp - nij]) - lf[n - a - bp + nij]
        nij_f = nij.astype(np.float64)
        terms = (nij_f / n) * np.log((n * nij_f) / (a * bp).astype(np.float64)) * np.exp(log_pmf)
        cell_totals += [terms[o:e].sum() for o, e in zip(offsets.tolist(), ends.tolist())]
    return _sorted_sum(np.asarray(cell_totals, dtype=np.float64))


def _is_one_to_one(t: ContingencyTable) -> bool:
    # True iff the two partitions are identical up to cluster relabeling:
    # every occupied row and column holds exactly one nonzero cell.
    nonzero = int((t.counts > 0).sum())
    return nonzero == int((t.row_sums > 0).sum()) == int((t.col_sums > 0).sum())


def ami_from_table(t: ContingencyTable) -> AmiReport:
    """AMI from a precomputed contingency table; see :func:`ami`."""
    h_u = _entropy_from_sizes(t.row_sums, t.total)
    h_v = _entropy_from_sizes(t.col_sums, t.total)
    mi = mutual_information(t)
    emi = expected_mutual_information(t)
    if _is_one_to_one(t):
        # Identical partition structure, two trivial clusterings included; 1.0
        # exactly rather than (mi - emi) / (h - emi) with its last-bit noise.
        value = 1.0
    elif h_u == 0.0 or h_v == 0.0:
        value = 0.0
    elif (denominator := (h_u + h_v) / 2.0 - emi) <= 0.0:
        # Chance agreement saturates the normalizer; only reachable through
        # floating-point noise since identical structure is handled above.
        value = 1.0 if mi - emi > 0.0 else 0.0
    else:
        value = (mi - emi) / denominator
    return AmiReport(mi=mi, emi=emi, entropy_u=h_u, entropy_v=h_v, ami=value)


def ami(a: Partition, b: Partition) -> AmiReport:
    """Adjusted mutual information between two aligned partitions.

    AMI = (MI - EMI) / (mean(H(U), H(V)) - EMI). Symmetric in its arguments.
    Conventions: 1.0 when both partitions are trivial (zero entropy) or when
    they are identical up to relabeling; 0.0 when exactly one is trivial.

    Raises:
        ClusterSweepError: if the partitions cover different id sets.
    """
    return ami_from_table(build_contingency(a, b))


def proportional_stability(current: Partition, previous: Partition) -> StabilityBreakdown:
    """Fraction of each current cluster inherited from its largest previous cluster.

    For every occupied cluster of ``current``, the ratio is its biggest
    overlap with any single cluster of ``previous`` divided by its size. The
    average is unweighted over occupied clusters. Ties in the largest overlap
    report the lowest-index parent. Not symmetric in its arguments.

    Raises:
        ClusterSweepError: if the partitions cover different id sets.
    """
    return stability_from_table(build_contingency(current, previous))


def stability_from_table(t: ContingencyTable) -> StabilityBreakdown:
    """Proportional stability from a current-vs-previous contingency table."""
    per_cluster = []
    for k in range(t.counts.shape[0]):
        size = int(t.row_sums[k])
        if size == 0:
            continue
        best_parent = int(np.argmax(t.counts[k]))
        overlap = int(t.counts[k, best_parent])
        per_cluster.append(
            ClusterStability(
                cluster=k,
                size=size,
                best_parent=best_parent,
                overlap=overlap,
                ratio=overlap / size,
            )
        )
    average = sum(c.ratio for c in per_cluster) / len(per_cluster)
    return StabilityBreakdown(per_cluster=tuple(per_cluster), average=average)
