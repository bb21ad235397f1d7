import json

import numpy as np
import pytest

import clustersweep.gmm
from clustersweep.gmm import GmmConfig
from clustersweep.stability import (
    PerturbationSpec,
    dimension_stability,
    row_stability,
    run_protocol,
    seed_stability,
    write_combined_csv,
    write_curve_csv,
    write_curve_json,
    write_curve_reps_csv,
)

from conftest import make_blobs, spread_centers

BASE = GmmConfig(k=1)

# One spec per kind that perturbs, and one control per kind that must score
# exactly 1.0: fraction=1.0 for the subsample kinds, the base seed for seeds.
PERTURBED = [
    PerturbationSpec(kind="dimension_subsample", fraction=0.6, repetitions=4),
    PerturbationSpec(kind="row_subsample", fraction=0.6, repetitions=4),
    PerturbationSpec(kind="seed_variation", seed_range=(1, 4)),
]
CONTROLS = [
    PerturbationSpec(kind="dimension_subsample", fraction=1.0, repetitions=3),
    PerturbationSpec(kind="row_subsample", fraction=1.0, repetitions=3),
    PerturbationSpec(kind="seed_variation", seed_range=(0, 0)),
]


@pytest.fixture(scope="module")
def small_blobs():
    return make_blobs(spread_centers(3, 12, 15.0), n_per=60, sigma=1.0, seed=31)[0]


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(kind="bogus")
        with pytest.raises(ValueError):
            PerturbationSpec(kind="row_subsample", fraction=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec(kind="seed_variation", seed_range=(5, 2))

    def test_kind_checked_by_protocol(self, small_blobs):
        spec = PerturbationSpec(kind="row_subsample")
        with pytest.raises(ValueError):
            dimension_stability(small_blobs, BASE, (1, 2), spec)


class TestAllKinds:
    @pytest.mark.parametrize("spec", CONTROLS, ids=lambda spec: spec.kind)
    def test_control_is_exactly_one(self, small_blobs, spec):
        curve = run_protocol(small_blobs, BASE, (1, 5), spec)
        assert curve.mean_ami == (1.0,) * 5
        assert curve.std_ami == (0.0,) * 5
        assert curve.per_rep.shape == (1 if spec.kind == "seed_variation" else 3, 5)

    @pytest.mark.parametrize("spec", PERTURBED, ids=lambda spec: spec.kind)
    def test_jobs_do_not_change_results(self, small_blobs, spec):
        # Above K=3 the three blobs split differently per repetition, so
        # repetitions joined out of order would show.
        serial = run_protocol(small_blobs, BASE, (1, 5), spec)
        threaded = run_protocol(small_blobs, BASE, (1, 5), spec, jobs=4)
        assert np.array_equal(serial.per_rep, threaded.per_rep)


class TestDimensionStability:
    def test_k1_is_one_for_every_repetition(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.5, repetitions=4)
        curve = dimension_stability(small_blobs, BASE, (1, 2), spec)
        assert (curve.per_rep[:, 0] == 1.0).all()

    def test_separated_blobs_stay_recoverable(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.8, repetitions=6)
        curve = dimension_stability(small_blobs, BASE, (3, 3), spec)
        assert curve.mean_ami[0] >= 0.95

    def test_deterministic_per_rep(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.6, repetitions=3)
        c1 = dimension_stability(small_blobs, BASE, (1, 3), spec)
        c2 = dimension_stability(small_blobs, BASE, (1, 3), spec)
        assert np.array_equal(c1.per_rep, c2.per_rep)

    def test_fraction_too_small(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.01, repetitions=1)
        with pytest.raises(ValueError):
            dimension_stability(small_blobs, BASE, (1, 2), spec)


class TestRowStability:
    def test_separated_blobs(self, small_blobs):
        spec = PerturbationSpec(kind="row_subsample", fraction=0.8, repetitions=6)
        curve = row_stability(small_blobs, BASE, (3, 3), spec)
        assert curve.mean_ami[0] >= 0.95

    def test_fraction_below_k(self, small_blobs):
        spec = PerturbationSpec(kind="row_subsample", fraction=0.02, repetitions=1)
        with pytest.raises(ValueError):
            row_stability(small_blobs, BASE, (1, 5), spec)


class TestSeedStability:
    def test_k1_always_one(self, small_blobs):
        spec = PerturbationSpec(kind="seed_variation", seed_range=(1, 5))
        curve = seed_stability(small_blobs, BASE, (1, 1), spec)
        assert (curve.per_rep == 1.0).all()

    def test_separated_blobs_seed_insensitive(self, small_blobs):
        spec = PerturbationSpec(kind="seed_variation", seed_range=(1, 10))
        curve = seed_stability(small_blobs, BASE, (3, 3), spec)
        assert curve.mean_ami[0] >= 0.99

    def test_repetition_count_follows_seed_range(self, small_blobs):
        spec = PerturbationSpec(kind="seed_variation", seed_range=(1, 7))
        curve = seed_stability(small_blobs, BASE, (2, 3), spec)
        assert curve.per_rep.shape == (7, 2)


class TestReferencesAndAggregation:
    def test_references_fitted_once_per_k(self, small_blobs, monkeypatch):
        calls = []
        real_fit = clustersweep.gmm.fit

        def counting_fit(data, config, iteration_hook=None):
            calls.append(config.k)
            return real_fit(data, config, iteration_hook)

        monkeypatch.setattr("clustersweep.stability.gmm.fit", counting_fit)
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.8, repetitions=3)
        dimension_stability(small_blobs, BASE, (1, 3), spec)
        # K=1 never fits; references once for K=2,3; then 3 reps x 2 Ks.
        assert sorted(calls) == sorted([2, 3] + [2, 3] * 3)

    def test_precomputed_references_skip_fits(self, small_blobs, monkeypatch):
        from clustersweep.pipeline import run_sweep

        result = run_sweep(small_blobs, BASE, 1, 3)
        calls = []
        real_fit = clustersweep.gmm.fit

        def counting_fit(data, config, iteration_hook=None):
            calls.append(config.k)
            return real_fit(data, config, iteration_hook)

        monkeypatch.setattr("clustersweep.stability.gmm.fit", counting_fit)
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.8, repetitions=2)
        dimension_stability(
            small_blobs, BASE, (1, 3), spec, references=dict(result.partitions)
        )
        assert sorted(calls) == [2, 2, 3, 3]

    def test_population_std(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.5, repetitions=1)
        curve = dimension_stability(small_blobs, BASE, (1, 3), spec)
        assert curve.std_ami == (0.0, 0.0, 0.0)

    def test_ami_values_in_bounds(self, small_blobs):
        spec = PerturbationSpec(kind="dimension_subsample", fraction=0.3, repetitions=5)
        curve = dimension_stability(small_blobs, BASE, (1, 4), spec)
        assert (curve.per_rep >= -1.0).all() and (curve.per_rep <= 1.0 + 1e-9).all()
        assert all(0.0 <= m <= 1.0 + 1e-9 for m in curve.mean_ami)

    def test_run_protocol_dispatch(self, small_blobs):
        spec = PerturbationSpec(kind="seed_variation", seed_range=(1, 2))
        curve = run_protocol(small_blobs, BASE, (1, 2), spec)
        assert curve.kind == "seed_variation"


class TestCurveExport:
    def _curve(self, small_blobs):
        spec = PerturbationSpec(kind="seed_variation", seed_range=(1, 3))
        return seed_stability(small_blobs, BASE, (1, 3), spec)

    def test_csv(self, small_blobs, tmp_path):
        curve = self._curve(small_blobs)
        write_curve_csv(curve, tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "k,mean_ami,std_ami"
        assert len(lines) == 4
        k, mean, std = lines[1].split(",")
        assert int(k) == 1 and float(mean) == 1.0 and float(std) == 0.0

    def test_reps_csv(self, small_blobs, tmp_path):
        curve = self._curve(small_blobs)
        write_curve_reps_csv(curve, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "rep,k1,k2,k3"
        assert len(lines) == 4

    def test_json_mirror(self, small_blobs, tmp_path):
        curve = self._curve(small_blobs)
        write_curve_json(curve, tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["kind"] == "seed_variation"
        assert doc["k_values"] == [1, 2, 3]
        assert doc["mean_ami"] == list(curve.mean_ami)
        assert len(doc["per_rep"]) == 3

    def test_combined_csv(self, small_blobs, tmp_path):
        spec_d = PerturbationSpec(kind="dimension_subsample", fraction=0.8, repetitions=2)
        spec_s = PerturbationSpec(kind="seed_variation", seed_range=(1, 2))
        curves = [
            dimension_stability(small_blobs, BASE, (1, 2), spec_d),
            seed_stability(small_blobs, BASE, (1, 2), spec_s),
        ]
        write_combined_csv(curves, tmp_path / "combined.csv")
        lines = (tmp_path / "combined.csv").read_text().splitlines()
        assert lines[0] == (
            "k,dimension_subsample_mean,dimension_subsample_std,"
            "seed_variation_mean,seed_variation_std"
        )
        assert len(lines) == 3
