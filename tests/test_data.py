import numpy as np
import pytest

from clustersweep.data import (
    EmbeddingMatrix,
    build_contingency,
    intersect_partitions,
    load_embeddings,
    load_partition,
    save_embeddings,
    save_partition,
)
from clustersweep.errors import (
    DimensionMismatch,
    EmptyIntersection,
    MismatchedItems,
    NonFiniteValue,
    ParseError,
)

from conftest import make_matrix, make_partition


class TestEmbeddingMatrix:
    def test_basic_shape(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.n == 3 and m.d == 2

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue) as exc:
            make_matrix([[1.0, np.nan]])
        assert exc.value.row == 0 and exc.value.col == 1

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ParseError):
            EmbeddingMatrix(("a", "a"), np.ones((2, 2)))

    def test_values_are_immutable(self):
        m = make_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_construction_copies_caller_array(self):
        x = np.ones((2, 2))
        make_matrix(x)
        x[0, 0] = 5.0  # caller's array must stay writable

    def test_subset_columns_keeps_given_order(self):
        m = make_matrix(np.arange(12.0).reshape(3, 4))
        sub = m.subset_columns([3, 1])
        assert np.array_equal(sub.values, m.values[:, [3, 1]])
        assert sub.ids == m.ids

    def test_subset_rows_keeps_ids(self):
        m = make_matrix(np.arange(8.0).reshape(4, 2), ids=("a", "b", "c", "d"))
        sub = m.subset_rows([2, 0])
        assert sub.ids == ("c", "a")


class TestBuildContingency:
    def test_identical_partitions(self):
        a = make_partition([0, 0, 1, 1])
        t = build_contingency(a, a)
        assert t.counts.tolist() == [[2, 0], [0, 2]]
        assert t.total == 4

    def test_single_cluster_row_marginal(self):
        a = make_partition([0, 0, 0, 0], k=1)
        b = make_partition([0, 1, 0, 1])
        t = build_contingency(a, b)
        assert t.counts.tolist() == [[2, 2]]
        assert t.total == 4

    def test_hand_enumerated_pairs(self):
        a = make_partition([0, 0, 1, 1, 2])
        b = make_partition([0, 1, 1, 0, 0])
        t = build_contingency(a, b)
        assert t.counts.tolist() == [[1, 1], [1, 1], [1, 0]]

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = make_partition(rng.integers(0, 4, n), k=4)
            b = make_partition(rng.integers(0, 3, n), k=3)
            t_ab = build_contingency(a, b)
            t_ba = build_contingency(b, a)
            assert np.array_equal(t_ab.counts.T, t_ba.counts)

    def test_self_contingency_is_diagonal(self):
        rng = np.random.default_rng(1)
        a = make_partition(rng.integers(0, 5, 30), k=5)
        t = build_contingency(a, a)
        off_diag = t.counts - np.diag(np.diag(t.counts))
        assert not off_diag.any()
        assert np.array_equal(np.diag(t.counts), a.cluster_sizes())

    def test_realigns_by_id(self):
        a = make_partition([0, 1, 2], ids=("x", "y", "z"))
        b = make_partition([2, 1, 0], ids=("z", "y", "x"))
        t = build_contingency(a, b)
        assert np.array_equal(np.diag(t.counts), [1, 1, 1])

    def test_mismatched_ids(self):
        a = make_partition([0, 1], ids=("a", "b"))
        b = make_partition([0, 1], ids=("a", "c"))
        with pytest.raises(MismatchedItems):
            build_contingency(a, b)

    def test_marginals_consistent(self):
        a = make_partition([0, 0, 1, 2, 2, 2], k=4)  # cluster 3 empty
        b = make_partition([1, 1, 0, 0, 1, 1])
        t = build_contingency(a, b)
        assert t.row_sums.tolist() == [2, 1, 3, 0]
        assert t.col_sums.tolist() == [2, 4]
        assert t.total == 6


class TestIntersectPartitions:
    def test_identical_ids_unchanged(self):
        a = make_partition([0, 1, 0, 1, 0], ids="abcde")
        b = make_partition([1, 1, 0, 0, 1], ids="abcde")
        ra, rb = intersect_partitions(a, b)
        assert ra.ids == rb.ids == tuple("abcde")
        assert np.array_equal(ra.labels, a.labels)

    def test_subset(self):
        a = make_partition([0, 1, 0, 1, 0], ids="abcde")
        b = make_partition([1, 0, 1], ids="bcd")
        ra, rb = intersect_partitions(a, b)
        assert ra.ids == rb.ids == ("b", "c", "d")
        assert ra.labels.tolist() == [1, 0, 1]
        assert rb.labels.tolist() == [1, 0, 1]

    def test_disjoint_ids(self):
        a = make_partition([0, 1], ids=("a", "b"))
        b = make_partition([0, 1], ids=("c", "d"))
        with pytest.raises(EmptyIntersection):
            intersect_partitions(a, b)


class TestEmbeddingIO:
    def test_csv_with_header_and_ids(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("id,e0,e1\nr0,1.5,2.5\nr1,3.5,4.5\nr2,5.5,6.5\n")
        m = load_embeddings(p, "csv")
        assert m.n == 3 and m.d == 2
        assert m.ids == ("r0", "r1", "r2")
        assert m.values[1, 0] == 3.5

    def test_csv_headerless_no_ids(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        m = load_embeddings(p, "csv")
        assert m.ids == ("0", "1")

    def test_csv_headerless_with_ids(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        m = load_embeddings(p, "csv")
        assert m.ids == ("a", "b") and m.d == 2

    def test_nan_reports_location(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("id,e0,e1\nr0,1.0,2.0\nr1,nan,4.0\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_embeddings(p, "csv")
        assert exc.value.row == 1 and exc.value.col == 0

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1.0,2.0,3.0,4.0\n1.0,2.0,3.0,4.0,5.0\n")
        with pytest.raises(DimensionMismatch):
            load_embeddings(p, "csv")

    def test_malformed_value(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("id,e0\nr0,1.0\nr1,oops\n")
        with pytest.raises(ParseError):
            load_embeddings(p, "csv")

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        m = make_matrix(rng.normal(size=(5, 3)), ids=("u", "v", "w", "x", "y"))
        save_embeddings(m, tmp_path / "m.csv", "csv")
        back = load_embeddings(tmp_path / "m.csv", "csv")
        assert back.ids == m.ids
        assert np.max(np.abs(back.values - m.values)) < 1e-12

    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        m = make_matrix(rng.normal(size=(7, 4)), ids=tuple(f"id{i}" for i in range(7)))
        save_embeddings(m, tmp_path / "m.bin", "bin")
        back = load_embeddings(tmp_path / "m.bin", "bin")
        assert back.ids == m.ids
        assert np.array_equal(back.values, m.values)

    def test_binary_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ParseError):
            load_embeddings(p, "bin")


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        part = make_partition([0, 2, 1, 2], k=3, ids=("a", "b", "c", "d"))
        save_partition(part, tmp_path / "p.csv")
        back = load_partition(tmp_path / "p.csv", k_declared=3)
        assert back.ids == part.ids
        assert np.array_equal(back.labels, part.labels)
        assert back.k_declared == 3

    def test_file_format(self, tmp_path):
        part = make_partition([0, 1], ids=("a", "b"))
        save_partition(part, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text() == "id,label\na,0\nb,1\n"
