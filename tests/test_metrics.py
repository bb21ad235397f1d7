import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from clustersweep.data import ContingencyTable, build_contingency
from clustersweep.errors import ClusterSweepError
from clustersweep.metrics import (
    _log_factorials,
    _log_gamma,
    _sorted_sum,
    ami,
    entropy,
    expected_mutual_information,
    mutual_information,
    proportional_stability,
)

from conftest import make_partition


def mi_scalar(counts):
    """Term-by-term scalar MI, independent of the library's vectorized path."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] > 0:
                total += (counts[i, j] / n) * math.log(
                    n * counts[i, j] / (a[i] * b[j])
                )
    return total


def emi_permutation(u_labels, v_labels):
    """Average MI over every permutation of one side's item labels.

    Enumerates distinct label arrangements instead of raw permutations: each
    arrangement corresponds to the same number of permutations, so the
    unweighted mean over arrangements equals the mean over all n! orderings.
    """
    from sympy.utilities.iterables import multiset_permutations

    u = np.asarray(u_labels)
    ku = int(u.max()) + 1
    kv = int(max(v_labels)) + 1
    values = []
    for arrangement in multiset_permutations(list(v_labels)):
        counts = np.zeros((ku, kv), dtype=int)
        for ui, vi in zip(u, arrangement):
            counts[ui, vi] += 1
        values.append(mi_scalar(counts))
    return float(np.mean(values))


class TestEntropy:
    def test_single_cluster(self):
        assert entropy(make_partition([0, 0, 0], k=1)) == 0.0

    def test_uniform_two(self):
        assert entropy(make_partition([0, 0, 1, 1])) == pytest.approx(math.log(2), abs=1e-12)

    def test_three_one_split(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert entropy(make_partition([0, 0, 0, 1])) == pytest.approx(expected, abs=1e-12)

    def test_empty_clusters_ignored(self):
        with_empty = make_partition([0, 0, 2, 2], k=3)
        dense = make_partition([0, 0, 1, 1])
        assert entropy(with_empty) == entropy(dense)


class TestMutualInformation:
    def test_identical_equals_entropy(self):
        p = make_partition([0, 0, 1, 1, 2])
        t = build_contingency(p, p)
        assert mutual_information(t) == pytest.approx(entropy(p), abs=1e-12)

    def test_independent_marginals(self):
        # Counts proportional to the outer product of the marginals.
        t = ContingencyTable(np.array([[2, 4], [1, 2]]))
        assert mutual_information(t) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_oracle(self):
        counts = [[2, 0], [1, 1]]
        t = ContingencyTable(np.array(counts))
        assert mutual_information(t) == pytest.approx(mi_scalar(counts), abs=1e-12)

    def test_bounded_by_min_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            a = make_partition(rng.integers(0, 4, n), k=4)
            b = make_partition(rng.integers(0, 5, n), k=5)
            t = build_contingency(a, b)
            assert mutual_information(t) <= min(entropy(a), entropy(b)) + 1e-9


class TestExpectedMutualInformation:
    def test_single_cluster_side_is_zero(self):
        a = make_partition([0, 0, 0, 0], k=1)
        b = make_partition([0, 1, 0, 1])
        assert expected_mutual_information(build_contingency(a, b)) == 0.0

    def test_permutation_oracle_2x2(self):
        u = [0, 0, 1, 1]
        v = [0, 1, 0, 1]
        t = build_contingency(make_partition(u), make_partition(v))
        assert expected_mutual_information(t) == pytest.approx(
            emi_permutation(u, v), abs=1e-9
        )

    def test_permutation_oracle_n6(self):
        u = [0, 0, 0, 1, 1, 1]
        v = [0, 0, 1, 1, 2, 2]
        t = build_contingency(make_partition(u), make_partition(v))
        assert expected_mutual_information(t) == pytest.approx(
            emi_permutation(u, v), abs=1e-9
        )

    def test_random_small_partitions(self):
        # n capped at 6 to keep the factorial oracle quick; the acceptance
        # suite pushes the same check to n=8 with a vectorized oracle.
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            u = rng.integers(0, int(rng.integers(1, n + 1)), n)
            v = rng.integers(0, int(rng.integers(1, n + 1)), n)
            t = build_contingency(
                make_partition(u, k=int(u.max()) + 1), make_partition(v, k=int(v.max()) + 1)
            )
            assert expected_mutual_information(t) == pytest.approx(
                emi_permutation(u, v), abs=1e-9
            )


def emi_per_pair(t):
    """The EMI as a loop over marginal pairs with scipy's gammaln: the reference bits."""
    n = t.total
    if n < 1:
        return 0.0
    gln = gammaln(np.arange(n + 2, dtype=np.float64))
    cell_totals = []
    for a in [int(x) for x in t.row_sums if x > 0]:
        for b in [int(x) for x in t.col_sums if x > 0]:
            nij = np.arange(max(1, a + b - n), min(a, b) + 1, dtype=np.int64)
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


TABLES = st.integers(1, 7).flatmap(lambda rows: st.integers(1, 7).flatmap(
    lambda cols: st.lists(st.lists(st.integers(0, 60), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows)))


class TestEmiBits:
    """The batched EMI carries the bits of the per-pair loop over scipy's gammaln."""

    def test_log_factorials_match_gammaln(self):
        table = _log_factorials(200_000)
        assert np.array_equal(table[:200_001], gammaln(np.arange(1, 200_002, dtype=np.float64)))

    @pytest.mark.parametrize("x", [1, 2, 12, 13, 999, 1000, 1001, 10**8, 10**8 + 1])
    def test_log_gamma_at_branch_edges(self, x):
        assert _log_gamma(x) == gammaln(float(x))

    @settings(max_examples=300, deadline=None)
    @given(counts=TABLES)
    @example(counts=[[1]])  # n = 1
    @example(counts=[[7]])
    @example(counts=[[0, 1], [0, 0]])  # n = 1, empty rows and columns
    @example(counts=[[0, 0, 0], [4, 0, 2], [0, 0, 0]])
    @example(counts=[[0, 4, 0], [3, 0, 0], [0, 0, 2]])  # one-to-one
    @example(counts=[[5, 1], [1, 0]])  # a + b - n > 1
    def test_batched_emi_matches_per_pair_loop(self, counts):
        t = ContingencyTable(np.array(counts, dtype=np.int64))
        assert expected_mutual_information(t) == emi_per_pair(t)

    def test_batched_emi_matches_per_pair_loop_on_large_tables(self):
        # Pair supports of hundreds of terms, summed in more than one block.
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows, cols = rng.integers(2, 21, size=2)
            n = int(rng.integers(500, 5000))
            counts = rng.multinomial(n, rng.dirichlet(np.full(rows * cols, 0.5)))
            t = ContingencyTable(counts.reshape(rows, cols))
            assert expected_mutual_information(t) == emi_per_pair(t)


class TestAmi:
    def test_identical_nontrivial(self):
        p = make_partition([0, 0, 1, 1, 2, 2])
        assert ami(p, p).ami == 1.0

    def test_identical_up_to_relabeling(self):
        p = make_partition([0, 0, 1, 1, 2])
        q = make_partition([2, 2, 0, 0, 1])
        assert ami(p, q).ami == 1.0

    def test_one_trivial_side(self):
        a = make_partition([0, 0, 1, 1])
        b = make_partition([0, 0, 0, 0], k=1)
        assert ami(a, b).ami == 0.0

    def test_both_trivial(self):
        a = make_partition([0, 0, 0], k=1)
        b = make_partition([0, 0, 0], k=1)
        assert ami(a, b).ami == 1.0

    def test_composed_oracle_3x3(self):
        rng = np.random.default_rng(11)
        u = rng.integers(0, 3, 10)
        v = rng.integers(0, 3, 10)
        a, b = make_partition(u, k=3), make_partition(v, k=3)
        report = ami(a, b)
        mi = mi_scalar(build_contingency(a, b).counts)
        emi = emi_permutation(u, v)
        h_u, h_v = entropy(a), entropy(b)
        expected = (mi - emi) / ((h_u + h_v) / 2.0 - emi)
        assert report.ami == pytest.approx(expected, abs=1e-9)
        assert report.mi == pytest.approx(mi, abs=1e-12)
        assert report.emi == pytest.approx(emi, abs=1e-9)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = make_partition(rng.integers(0, int(rng.integers(1, 6)), n), k=6)
            b = make_partition(rng.integers(0, int(rng.integers(1, 6)), n), k=6)
            assert ami(a, b).ami == ami(b, a).ami

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        u = rng.integers(0, 4, 30)
        v = rng.integers(0, 3, 30)
        a, b = make_partition(u, k=4), make_partition(v, k=3)
        base = ami(a, b)
        relabel = np.array([2, 0, 3, 1])
        a2 = make_partition(relabel[u], k=4)
        assert ami(a2, b).ami == base.ami
        assert ami(a2, b).mi == base.mi
        assert ami(a2, b).emi == base.emi

    def test_chance_correction_near_zero(self):
        rng = np.random.default_rng(19)
        values = [
            ami(
                make_partition(rng.integers(0, 3, 50), k=3),
                make_partition(rng.integers(0, 3, 50), k=3),
            ).ami
            for _ in range(1000)
        ]
        assert abs(float(np.mean(values))) <= 0.02

    def test_mismatched_items(self):
        a = make_partition([0, 1], ids=("a", "b"))
        b = make_partition([0, 1], ids=("a", "c"))
        with pytest.raises(ClusterSweepError, match="partitions cover different id sets"):
            ami(a, b)

    def test_json_field_names(self):
        report = ami(make_partition([0, 1, 0]), make_partition([0, 0, 1]))
        assert set(asdict(report)) == {"mi", "emi", "entropy_u", "entropy_v", "ami"}


class TestProportionalStability:
    def test_single_previous_cluster(self):
        cur = make_partition([0, 0, 1, 1])
        prev = make_partition([0, 0, 0, 0], k=1)
        sb = proportional_stability(cur, prev)
        assert [c.ratio for c in sb.per_cluster] == [1.0, 1.0]
        assert sb.average == 1.0

    def test_identity(self):
        p = make_partition([0, 1, 2, 0, 1, 2])
        assert proportional_stability(p, p).average == 1.0

    def test_hand_enumeration(self):
        # Current cluster 0 (4 items) splits 3/1 across previous clusters;
        # current cluster 1 (2 items) has a single parent.
        cur = make_partition([0, 0, 0, 0, 1, 1])
        prev = make_partition([0, 0, 0, 1, 1, 1])
        sb = proportional_stability(cur, prev)
        assert [c.ratio for c in sb.per_cluster] == [0.75, 1.0]
        assert sb.average == 0.875
        assert sb.per_cluster[0].best_parent == 0
        assert sb.per_cluster[0].overlap == 3

    def test_not_symmetric(self):
        cur = make_partition([0, 0, 0, 0, 1, 1])
        prev = make_partition([0, 0, 0, 1, 1, 1])
        forward = proportional_stability(cur, prev).average
        backward = proportional_stability(prev, cur).average
        assert forward == 0.875
        assert backward != forward

    def test_ratios_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            cur = make_partition(rng.integers(0, 5, n), k=5)
            prev = make_partition(rng.integers(0, 4, n), k=4)
            sb = proportional_stability(cur, prev)
            for c in sb.per_cluster:
                assert 0.0 < c.ratio <= 1.0

    def test_tie_reports_lowest_parent(self):
        cur = make_partition([0, 0], k=1)
        prev = make_partition([0, 1])
        sb = proportional_stability(cur, prev)
        assert sb.per_cluster[0].best_parent == 0

    def test_empty_current_clusters_skipped(self):
        cur = make_partition([0, 0, 2, 2], k=3)
        prev = make_partition([0, 1, 0, 1])
        sb = proportional_stability(cur, prev)
        assert [c.cluster for c in sb.per_cluster] == [0, 2]

    def test_json_field_names(self):
        sb = proportional_stability(make_partition([0, 1]), make_partition([0, 0], k=1))
        assert set(asdict(sb)) == {"per_cluster", "average"}
