"""Partition-comparison measures: entropy, MI, expected MI, AMI, proportional stability.

All information measures use natural logarithms. Per-cell contributions are
accumulated in sorted order so that every metric is invariant under cluster
relabeling and AMI is bit-identical under argument swap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ContingencyTable, Partition, build_contingency


@dataclass(frozen=True)
class AmiReport:
    """Mutual-information comparison of two partitions, chance-corrected."""

    mi: float
    emi: float
    h_u: float
    h_v: float
    ami: float

    def to_json_dict(self) -> dict:
        return {
            "mi": self.mi,
            "emi": self.emi,
            "entropy_u": self.h_u,
            "entropy_v": self.h_v,
            "ami": self.ami,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "per_cluster": [
                {
                    "cluster": c.cluster,
                    "size": c.size,
                    "best_parent": c.best_parent,
                    "overlap": c.overlap,
                    "ratio": c.ratio,
                }
                for c in self.per_cluster
            ],
            "average": self.average,
        }


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


def expected_mutual_information(t: ContingencyTable) -> float:
    """Expected MI under random label assignment with fixed marginals.

    Exact hypergeometric-model sum (no Monte Carlo): for every marginal pair
    (a, b) the overlap count ranges over its feasible support and each value
    is weighted by its hypergeometric probability, computed via log-factorials.
    Equals the average MI over all total! equally likely item relabelings of
    one side.
    """
    # Imported here, so that only a process that computes an EMI pays for scipy.
    from scipy.special import gammaln

    n = t.total
    if n < 1:
        return 0.0
    # gln[x + 1] == log(x!)
    gln = gammaln(np.arange(n + 2, dtype=np.float64))
    log_n = np.log(float(n))
    a_sizes = [int(x) for x in t.row_sums if x > 0]
    b_sizes = [int(x) for x in t.col_sums if x > 0]
    cell_totals = []
    for a in a_sizes:
        for b in b_sizes:
            start = max(1, a + b - n)
            end = min(a, b)
            if end < start:
                continue
            nij = np.arange(start, end + 1, dtype=np.int64)
            # Pairwise (a, b)-symmetric groupings keep the value bit-identical
            # under transposition of the table.
            base = (gln[a + 1] + gln[b + 1]) + (gln[n - a + 1] + gln[n - b + 1]) - gln[n + 1]
            log_pmf = (
                base
                - gln[nij + 1]
                - (gln[a - nij + 1] + gln[b - nij + 1])
                - gln[n - a - b + nij + 1]
            )
            nij_f = nij.astype(np.float64)
            terms = (nij_f / n) * np.log((n * nij_f) / float(a * b)) * np.exp(log_pmf)
            cell_totals.append(terms.sum())
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
    if h_u == 0.0 and h_v == 0.0:
        # Two trivial clusterings agree perfectly.
        return AmiReport(mi=mi, emi=emi, h_u=h_u, h_v=h_v, ami=1.0)
    if h_u == 0.0 or h_v == 0.0:
        return AmiReport(mi=mi, emi=emi, h_u=h_u, h_v=h_v, ami=0.0)
    if _is_one_to_one(t):
        # Identical partition structure; return 1.0 exactly rather than
        # (mi - emi) / (h - emi) with its last-bit noise.
        return AmiReport(mi=mi, emi=emi, h_u=h_u, h_v=h_v, ami=1.0)
    normalizer = (h_u + h_v) / 2.0
    numerator = mi - emi
    denominator = normalizer - emi
    if denominator <= 0.0:
        # Chance agreement saturates the normalizer; only reachable through
        # floating-point noise since identical structure is handled above.
        value = 1.0 if numerator > 0.0 else 0.0
    else:
        value = numerator / denominator
    return AmiReport(mi=mi, emi=emi, h_u=h_u, h_v=h_v, ami=value)


def ami(a: Partition, b: Partition) -> AmiReport:
    """Adjusted mutual information between two aligned partitions.

    AMI = (MI - EMI) / (mean(H(U), H(V)) - EMI). Symmetric in its arguments.
    Conventions: 1.0 when both partitions are trivial (zero entropy) or when
    they are identical up to relabeling; 0.0 when exactly one is trivial.

    Raises:
        MismatchedItems: if the partitions cover different id sets.
    """
    return ami_from_table(build_contingency(a, b))


def proportional_stability(current: Partition, previous: Partition) -> StabilityBreakdown:
    """Fraction of each current cluster inherited from its largest previous cluster.

    For every occupied cluster of ``current``, the ratio is its biggest
    overlap with any single cluster of ``previous`` divided by its size. The
    average is unweighted over occupied clusters. Ties in the largest overlap
    report the lowest-index parent. Not symmetric in its arguments.

    Raises:
        MismatchedItems: if the partitions cover different id sets.
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
