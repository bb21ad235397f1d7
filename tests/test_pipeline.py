import json

import numpy as np
import pytest

import clustersweep.gmm
from clustersweep.errors import ClusterSweepError, NumericFailure, OutOfRange, ParseError
from clustersweep.gmm import GmmConfig
from clustersweep.metrics import ami, stability_from_table
from clustersweep.pipeline import (
    read_archive,
    run_sweep,
    transition_counts,
    write_archive,
)

from conftest import axis_centers, make_blobs, make_partition


@pytest.fixture(scope="module")
def three_blob_sweep():
    data, truth = make_blobs(axis_centers(3, 16, 15.0), n_per=100, sigma=1.0, seed=21)
    return data, truth, run_sweep(data, GmmConfig(k=1), 1, 4)


class TestRunSweep:
    def test_single_k(self):
        data, _ = make_blobs([[0.0, 0.0]], n_per=30, sigma=1.0, seed=1)
        result = run_sweep(data, GmmConfig(k=1), 1, 1)
        assert set(result.partitions) == {1}
        assert result.consecutive == ()

    def test_k1_to_k2_stability_is_one(self, three_blob_sweep):
        _, _, result = three_blob_sweep
        assert result.comparison_at(2).stability.average == 1.0

    def test_recovers_generating_labels(self, three_blob_sweep):
        data, truth, result = three_blob_sweep
        truth_part = make_partition(truth, k=3, ids=data.ids)
        assert ami(result.partitions[3], truth_part).ami == 1.0

    def test_reproducible(self, three_blob_sweep):
        data, _, result = three_blob_sweep
        again = run_sweep(data, GmmConfig(k=1), 1, 4)
        for k in range(1, 5):
            assert np.array_equal(result.partitions[k].labels, again.partitions[k].labels)

    def test_parallel_matches_serial(self, three_blob_sweep):
        data, _, result = three_blob_sweep
        parallel = run_sweep(data, GmmConfig(k=1), 1, 4, jobs=3)
        for k in range(1, 5):
            assert np.array_equal(result.partitions[k].labels, parallel.partitions[k].labels)

    def test_bad_range(self):
        data, _ = make_blobs([[0.0]], n_per=10, seed=2)
        with pytest.raises(ValueError):
            run_sweep(data, GmmConfig(k=1), 3, 2)

    def test_fit_error_annotated_with_k(self, monkeypatch):
        data, _ = make_blobs([[0.0, 0.0]], n_per=20, sigma=1.0, seed=3)
        real_fit = clustersweep.gmm.fit

        def exploding_fit(d, config, iteration_hook=None):
            if config.k == 2:
                raise ClusterSweepError("synthetic failure")
            return real_fit(d, config, iteration_hook)

        monkeypatch.setattr("clustersweep.pipeline.gmm.fit", exploding_fit)
        with pytest.raises(ClusterSweepError, match="K=2"):
            run_sweep(data, GmmConfig(k=1), 1, 3)

    def test_non_finite_ll_raises(self, monkeypatch):
        data, _ = make_blobs([[0.0, 0.0]], n_per=20, sigma=1.0, seed=4)
        real_fit = clustersweep.gmm.fit

        def poisoned_fit(d, config, iteration_hook=None):
            model, part = real_fit(d, config, iteration_hook)
            bad = clustersweep.gmm.MixtureModel(
                k=model.k, weights=model.weights, means=model.means,
                variances=model.variances, converged=model.converged,
                n_iter=model.n_iter, final_log_likelihood=float("nan"),
            )
            return bad, part

        monkeypatch.setattr("clustersweep.pipeline.gmm.fit", poisoned_fit)
        with pytest.raises(NumericFailure, match="K=1"):
            run_sweep(data, GmmConfig(k=1), 1, 2)


class TestTransitionCounts:
    def test_k1_row_equals_k2_sizes(self, three_blob_sweep):
        _, _, result = three_blob_sweep
        t = transition_counts(result, 1)
        assert t.counts.shape[0] == 1
        assert np.array_equal(t.counts[0], result.partitions[2].cluster_sizes())

    def test_conservation(self, three_blob_sweep):
        data, _, result = three_blob_sweep
        for k in range(1, 4):
            t = transition_counts(result, k)
            assert t.total == data.n
            assert np.array_equal(t.row_sums, result.partitions[k].cluster_sizes())
            assert np.array_equal(t.col_sums, result.partitions[k + 1].cluster_sizes())

    def test_single_split_per_resolution(self, three_blob_sweep):
        _, _, result = three_blob_sweep
        t = transition_counts(result, 3)
        rows_with_two_children = int(((t.counts > 0).sum(axis=1) == 2).sum())
        rows_with_one_child = int(((t.counts > 0).sum(axis=1) == 1).sum())
        assert rows_with_two_children == 1
        assert rows_with_one_child == 2

    def test_out_of_range(self, three_blob_sweep):
        _, _, result = three_blob_sweep
        with pytest.raises(OutOfRange):
            transition_counts(result, 4)
        with pytest.raises(OutOfRange):
            transition_counts(result, 0)

    def test_stored_stability_matches_recompute(self, three_blob_sweep):
        _, _, result = three_blob_sweep
        for k in range(1, 4):
            recomputed = stability_from_table(transition_counts(result, k).transposed())
            assert recomputed == result.comparison_at(k + 1).stability


class TestArchive:
    def test_round_trip(self, three_blob_sweep, tmp_path):
        data, _, result = three_blob_sweep
        write_archive(result, tmp_path / "arch")
        back = read_archive(tmp_path / "arch")
        assert back.k_min == 1 and back.k_max == 4
        for k in range(1, 5):
            assert np.array_equal(back.partitions[k].labels, result.partitions[k].labels)
            assert back.partitions[k].ids == result.partitions[k].ids
            assert np.array_equal(back.models[k].means, result.models[k].means)
        assert back.consecutive == result.consecutive
        assert back.base == result.base == GmmConfig(k=1)

    def test_expected_files(self, three_blob_sweep, tmp_path):
        _, _, result = three_blob_sweep
        write_archive(result, tmp_path / "arch")
        names = {p.name for p in (tmp_path / "arch").iterdir()}
        expected = {"config.json", "consecutive_metrics.json"}
        expected |= {f"partition_{k}.csv" for k in range(1, 5)}
        expected |= {f"model_{k}.json" for k in range(1, 5)}
        assert names == expected

    def test_model_files_must_agree_on_fit_settings(self, three_blob_sweep, tmp_path):
        _, _, result = three_blob_sweep
        write_archive(result, tmp_path / "arch")
        path = tmp_path / "arch" / "model_2.json"
        path.write_text(path.read_text().replace('"seed": 0', '"seed": 5'))
        with pytest.raises(ParseError, match="disagree"):
            read_archive(tmp_path / "arch")

    def test_consecutive_metrics_schema(self, three_blob_sweep, tmp_path):
        _, _, result = three_blob_sweep
        write_archive(result, tmp_path / "arch")
        doc = json.loads((tmp_path / "arch" / "consecutive_metrics.json").read_text())
        assert [entry["k_current"] for entry in doc] == [2, 3, 4]
        first = doc[0]
        assert set(first["ami"]) == {"mi", "emi", "entropy_u", "entropy_v", "ami"}
        assert set(first["stability"]) == {"per_cluster", "average"}
        assert first["stability"]["average"] == 1.0
