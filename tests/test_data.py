import copy
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersweep.data import (
    ContingencyTable,
    EmbeddingMatrix,
    build_contingency,
    load_embeddings,
    load_partition,
    save_embeddings,
    save_partition,
)
from clustersweep.errors import ClusterSweepError, DimensionMismatch, NonFiniteValue, ParseError
from clustersweep.gmm import MixtureModel
from clustersweep.stability import StabilityCurve

from conftest import make_matrix, make_partition, write_binary_unchecked


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


class TestPartition:
    @pytest.mark.parametrize("labels, ids", [([0, 1, 1], "ab"), ([0, 1], "abc"), ([[0, 1]], "ab")],
                             ids=["more-labels", "more-ids", "2-d-labels"])
    def test_labels_and_ids_must_have_one_length(self, labels, ids):
        with pytest.raises(DimensionMismatch, match="labels length must equal ids length"):
            make_partition(labels, k=2, ids=ids)

    def test_n_items_counts_the_ids(self):
        assert make_partition([0, 1, 1], ids="abc").n_items == 3


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
        with pytest.raises(ClusterSweepError, match="partitions cover different id sets"):
            build_contingency(a, b)

    def test_marginals_consistent(self):
        a = make_partition([0, 0, 1, 2, 2, 2], k=4)  # cluster 3 empty
        b = make_partition([1, 1, 0, 0, 1, 1])
        t = build_contingency(a, b)
        assert t.row_sums.tolist() == [2, 1, 3, 0]
        assert t.col_sums.tolist() == [2, 4]
        assert t.total == 6


class TestEmbeddingIO:
    def test_csv_with_header_and_ids(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("id,e0,e1\nr0,1.5,2.5\nr1,3.5,4.5\nr2,5.5,6.5\n")
        m = load_embeddings(p, "csv")
        assert m.n == 3 and m.d == 2
        assert m.ids == ("r0", "r1", "r2")
        assert m.values[1, 0] == 3.5

    @pytest.mark.parametrize("header", ["id,0,1", " ID ,0,1"])
    def test_csv_header_starting_with_id_is_a_header(self, tmp_path, header):
        # pandas writes integer column names under to_csv(index_label="id").
        p = tmp_path / "e.csv"
        p.write_text(f"{header}\nr0,1.5,2.5\nr1,3.5,4.5\n")
        m = load_embeddings(p, "csv")
        assert m.ids == ("r0", "r1")
        assert m.values.tolist() == [[1.5, 2.5], [3.5, 4.5]]

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

    def test_binary_reports_the_first_non_finite_value_and_its_location(self, tmp_path):
        p = tmp_path / "e.bin"
        write_binary_unchecked(p, [[1.0, 2.0], [np.nan, 4.0], [np.inf, 5.0]], ["r0", "r1", "r2"])
        with pytest.raises(NonFiniteValue, match=re.escape(f"{p}: non-finite value at row 1, "
                                                           "column 0")) as exc:
            load_embeddings(p, "bin")
        assert exc.value.row == 1 and exc.value.col == 0

    def test_binary_reports_a_bad_id_before_a_non_finite_value(self, tmp_path):
        write_binary_unchecked(tmp_path / "e.bin", [[np.inf], [1.0], [2.0]], ["a", "b", "a"])
        with pytest.raises(ParseError, match="id 'a' repeats in rows 0 and 2"):
            load_embeddings(tmp_path / "e.bin", "bin")

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

    def test_csv_load_peaks_below_three_times_the_file_size(self, tmp_path):
        # No row's fields outlive that row: a list of every row's field strings
        # peaks above 5x.
        rng = np.random.default_rng(11)
        save_embeddings(make_matrix(rng.normal(size=(2000, 64))), tmp_path / "m.csv", "csv")
        size = (tmp_path / "m.csv").stat().st_size
        tracemalloc.start()
        try:
            load_embeddings(tmp_path / "m.csv", "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size, f"peak {peak / size:.2f}x the file's {size} bytes"

    def test_csv_load_lets_go_of_its_lines_before_the_matrix_is_copied(self, tmp_path):
        # The whole text and its lines held at once peak at 2.05x; the lines read
        # one at a time but kept while EmbeddingMatrix copies the values, at 2.0x.
        rng = np.random.default_rng(11)
        save_embeddings(make_matrix(rng.normal(size=(2000, 64))), tmp_path / "m.csv", "csv")
        size = (tmp_path / "m.csv").stat().st_size
        tracemalloc.start()
        try:
            load_embeddings(tmp_path / "m.csv", "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * size, f"peak {peak / size:.2f}x the file's {size} bytes"

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        rng = np.random.default_rng(12)
        save_embeddings(make_matrix(rng.normal(size=(6, 3))), tmp_path / "lf.csv", "csv")
        lf = (tmp_path / "lf.csv").read_bytes()
        (tmp_path / "crlf.csv").write_bytes(lf.replace(b"\n", b"\r\n"))
        a = load_embeddings(tmp_path / "lf.csv", "csv")
        b = load_embeddings(tmp_path / "crlf.csv", "csv")
        assert b.ids == a.ids and b.values.tobytes() == a.values.tobytes()

    @pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb"])
    def test_csv_rejects_ids_it_cannot_read_back(self, tmp_path, bad_id):
        m = make_matrix(np.ones((2, 2)), ids=(bad_id, "c"))
        with pytest.raises(ParseError):
            save_embeddings(m, tmp_path / "m.csv", "csv")
        assert not (tmp_path / "m.csv").exists()

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


def _follows_id_rule(row_id: str) -> bool:
    return not any(ch in row_id for ch in ",\r\n") and row_id == row_id.strip()


GOOD_IDS = st.lists(
    st.text(max_size=6).filter(_follows_id_rule), min_size=1, max_size=6, unique=True
)
BAD_IDS = st.one_of(
    st.builds(lambda a, sep, b: a + sep + b, st.text(max_size=3), st.sampled_from(",\r\n"),
              st.text(max_size=3)),
    st.builds(lambda core, ws, lead: ws + core if lead else core + ws, st.text(max_size=3),
              st.sampled_from([" ", "\t", "\x0b", "\x85", "\xa0", "\u2028"]), st.booleans()),
)


class TestIdRule:
    @settings(max_examples=60, deadline=None)
    @given(ids=GOOD_IDS)
    def test_ids_round_trip_through_every_file(self, ids):
        m = make_matrix(np.arange(2.0 * len(ids)).reshape(-1, 2), ids=ids)
        part = make_partition(np.arange(len(ids)) % 2, k=2, ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("bin", "csv"):
                save_embeddings(m, Path(tmp) / f"m.{fmt}", fmt)
                back = load_embeddings(Path(tmp) / f"m.{fmt}", fmt)
                assert back.ids == m.ids and np.array_equal(back.values, m.values)
            save_partition(part, Path(tmp) / "partition_2.csv")
            assert load_partition(Path(tmp) / "partition_2.csv", k_declared=2).ids == m.ids

    @settings(max_examples=60, deadline=None)
    @given(ids=GOOD_IDS, bad=BAD_IDS, data=st.data())
    def test_ids_breaking_the_rule_are_rejected(self, ids, bad, data):
        ids = [i for i in ids if i != bad]
        row = data.draw(st.integers(0, len(ids)), label="row")
        ids.insert(row, bad)
        values = np.zeros((len(ids), 2))
        m = make_matrix(values, ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("bin", "csv"):
                with pytest.raises(ParseError, match=f"row {row}: id"):
                    save_embeddings(m, Path(tmp) / f"m.{fmt}", fmt)
                assert not (Path(tmp) / f"m.{fmt}").exists()
            write_binary_unchecked(Path(tmp) / "m.bin", values, ids)
            # A line break inside an id splits the binary id block itself.
            expected = "expected .* ids" if "\n" in bad else f"row {row}: id"
            with pytest.raises(ParseError, match=expected):
                load_embeddings(Path(tmp) / "m.bin", "bin")
            path = Path(tmp) / "partition_1.csv"
            with pytest.raises(ParseError, match=f"row {row}: id"):
                save_partition(make_partition(np.zeros(len(ids), dtype=int), k=1, ids=ids), path)
            assert not path.exists()
            # A line break inside an id splits the partition row itself.
            if not any(ch in bad for ch in "\r\n"):
                path.write_text("id,label\n" + "".join(f"{i},0\n" for i in ids),
                                encoding="utf-8", newline="\n")
                with pytest.raises(ParseError, match=f"row {row}: id"):
                    load_partition(path, k_declared=1)

    @pytest.mark.parametrize("row_id", [" a", "a ", "\ta"])
    def test_csv_reader_rejects_surrounding_whitespace(self, tmp_path, row_id):
        # Stripping it would silently change the id that partition files carry.
        (tmp_path / "e.csv").write_text(f"id,e0\nb,1.0\n{row_id},2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"row 1: id {row_id!r}")):
            load_embeddings(tmp_path / "e.csv", "csv")

    @pytest.mark.parametrize("row, row_id", [(" a,0", " a"), ("b ,1", "b ")])
    def test_partition_reader_rejects_surrounding_whitespace(self, tmp_path, row, row_id):
        # Stripping the line would read ' a' as 'a', and 'b ' would pass unchecked.
        path = tmp_path / "partition_2.csv"
        path.write_text(f"id,label\nc,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}: row 1: id {row_id!r}")):
            load_partition(path, k_declared=2)

    @pytest.mark.parametrize("fmt", ["csv", "bin", "partition"])
    def test_repeated_id_names_the_file_the_id_and_both_rows(self, tmp_path, fmt):
        (tmp_path / "e.csv").write_text("id,e0\nx,1.0\ny,2.0\nx,3.0\n", encoding="utf-8")
        write_binary_unchecked(tmp_path / "e.bin", np.zeros((3, 1)), ["x", "y", "x"])
        (tmp_path / "e.partition").write_text("id,label\nx,0\ny,1\nx,0\n", encoding="utf-8")
        path = tmp_path / f"e.{fmt}"
        with pytest.raises(ParseError, match=re.escape(f"{path}: id 'x' repeats in rows 0 and 2")):
            if fmt == "partition":
                load_partition(path, k_declared=2)
            else:
                load_embeddings(path, fmt)

    def test_ids_that_are_not_utf8_are_a_parse_error(self, tmp_path):
        write_binary_unchecked(tmp_path / "e.bin", np.zeros((1, 1)), [])
        (tmp_path / "e.bin").write_bytes((tmp_path / "e.bin").read_bytes() + b"\xff")
        (tmp_path / "e.csv").write_bytes(b"id,e0\n\xff,1.0\n")
        for fmt in ("bin", "csv"):
            with pytest.raises(ParseError, match="UTF-8"):
                load_embeddings(tmp_path / f"e.{fmt}", fmt)

    def test_csv_values_may_carry_spaces(self, tmp_path):
        (tmp_path / "e.csv").write_text("id, e0, e1\na, 1.0, 2.0 \n", encoding="utf-8")
        m = load_embeddings(tmp_path / "e.csv", "csv")
        assert m.ids == ("a",) and m.values.tolist() == [[1.0, 2.0]]


TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda a, b: f"{a}_{b}", st.integers(0, 999), st.integers(0, 999)),
    st.builds(lambda a, b: f"{a}_{b}.5e-3", st.integers(1, 9), st.integers(0, 99)),
)


class TestCsvValues:
    """The CSV reader converts a whole row at once; each value is float() of its token."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(
        lambda d: st.lists(st.lists(TOKENS, min_size=d, max_size=d), min_size=1, max_size=5)),
        pad=st.sampled_from(["", " ", "  ", "\t"]), has_ids=st.booleans())
    def test_values_are_bit_identical_to_float_of_each_token(self, rows, pad, has_ids):
        header = ",".join(["id"] * has_ids + [f"e{c}" for c in range(len(rows[0]))])
        lines = [header] + [
            ",".join([f"r{r}"] * has_ids + [pad + token + pad for token in tokens])
            for r, tokens in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            m = load_embeddings(path, "csv")
        expected = np.array([[float(t) for t in tokens] for tokens in rows], dtype=np.float64)
        assert m.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", ["oops", "", " ", "0x10", "1__5", "1.0.0"])
    @pytest.mark.parametrize("row, col", [(0, 0), (2, 1), (3, 2)])
    def test_bad_token_is_named_by_row_and_column(self, tmp_path, token, row, col):
        values = [["1.5", "2.5", "3.5"] for _ in range(4)]
        values[3][2] = "nan"  # a later fault, which must not be the one reported
        values[row][col] = token
        lines = ["id,e0,e1,e2"] + [f"r{r}," + ",".join(v) for r, v in enumerate(values)]
        (tmp_path / "e.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"row {row}, column {col}: not a number"):
            load_embeddings(tmp_path / "e.csv", "csv")

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", " NaN ", "1e400"])
    def test_non_finite_token_is_named_by_row_and_column(self, tmp_path, token):
        lines = ["id,e0,e1,e2", "a,1,2,3", "b,4,5,6", f"c,7,8,{token}", "d,oops,1,1"]
        (tmp_path / "e.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(NonFiniteValue) as exc:
            load_embeddings(tmp_path / "e.csv", "csv")
        assert (exc.value.row, exc.value.col) == (2, 2)


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        part = make_partition([0, 2, 1, 2], k=3, ids=("a", "b", "c", "d"))
        save_partition(part, tmp_path / "p.csv")
        back = load_partition(tmp_path / "p.csv", k_declared=3)
        assert back.ids == part.ids
        assert np.array_equal(back.labels, part.labels)
        assert back.k_declared == 3

    @pytest.mark.parametrize("label", ["3", "-1"])
    def test_label_outside_k_names_the_file_and_the_row(self, tmp_path, label):
        path = tmp_path / "p.csv"
        path.write_text(f"id,label\na,0\nb,{label}\nc,2\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: row 1: label {label} is not in "
                                                       "[0, 3)")):
            load_partition(path, k_declared=3)

    # Spellings int() reads as a label in [0, 11) but save_partition never writes.
    @pytest.mark.parametrize("label", ["1_0", " 3", "+2", "٣", "02", "-0"])
    def test_label_not_written_by_save_partition_names_the_file_and_the_row(self, tmp_path, label):
        path = tmp_path / "p.csv"
        path.write_text(f"id,label\na,0\nb,{label}\nc,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}: row 1: bad label {label!r}")):
            load_partition(path, k_declared=11)

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        (tmp_path / "p.csv").write_bytes(b"id,label\r\na,0\r\nb,2\r\n")
        back = load_partition(tmp_path / "p.csv", k_declared=3)
        assert back.ids == ("a", "b") and back.labels.tolist() == [0, 2]

    def test_file_format(self, tmp_path):
        part = make_partition([0, 1], ids=("a", "b"))
        save_partition(part, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text() == "id,label\na,0\nb,1\n"


# One of each frozen dataclass that holds arrays.
ARRAY_HOLDERS = {
    "EmbeddingMatrix": lambda: make_matrix([[1.0, 2.0], [3.0, 4.0]]),
    "Partition": lambda: make_partition([0, 1, 1]),
    "ContingencyTable": lambda: ContingencyTable([[1, 0], [2, 3]]),
    "MixtureModel": lambda: MixtureModel(
        k=2, weights=[0.5, 0.5], means=[[0.0], [1.0]], variances=[[1.0], [1.0]]
    ),
    "StabilityCurve": lambda: StabilityCurve(
        kind="row_subsample", k_values=(1, 2), per_rep=np.array([[1.0, 0.4], [1.0, 0.6]]),
    ),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_equality_is_identity_and_never_raises(make):
    x = make()
    assert x == x
    assert x != copy.deepcopy(x)
    assert hash(x) == hash(x)
