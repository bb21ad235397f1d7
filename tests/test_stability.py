import json
import re
from dataclasses import replace

import numpy as np
import pytest

import clustersweep.gmm
from clustersweep import stability
from clustersweep.errors import ClusterSweepError, NumericFailure
from clustersweep.gmm import GmmConfig
from clustersweep.pipeline import run_sweep
from clustersweep.stability import (
    PerturbationSpec,
    dimension_stability,
    row_stability,
    run_protocol,
    seed_stability,
    write_combined_csv,
    write_curve,
)

from conftest import failing_fit, make_blobs, spread_centers

BASE = GmmConfig(k=1)

# One spec that perturbs every kind, and one control under which every kind
# must score exactly 1.0: fraction=1.0 for the subsample kinds, the base seed for seeds.
PERTURBED = PerturbationSpec(fraction=0.6, reps=4, seed_lo=1, seed_hi=4)
CONTROL = PerturbationSpec(fraction=1.0, reps=3, seed_lo=0, seed_hi=0)
ALL_KINDS = pytest.mark.parametrize("kind", list(stability.KINDS))


@pytest.fixture(scope="module")
def small_blobs():
    return make_blobs(spread_centers(3, 12, 15.0), n_per=60, sigma=1.0, seed=31)[0]


@pytest.fixture(scope="module")
def sweep(small_blobs):
    """``sweep(lo, hi)``: the sweep of small_blobs over K=lo..hi, fitted once per range."""
    sweeps = {}

    def over(lo, hi):
        if (lo, hi) not in sweeps:
            sweeps[lo, hi] = run_sweep(small_blobs, BASE, lo, hi)
        return sweeps[lo, hi]

    return over


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(fraction=0.0)
        with pytest.raises(ValueError, match=re.escape("seed_hi (2) < seed_lo (5)")):
            PerturbationSpec(seed_lo=5, seed_hi=2)
        with pytest.raises(ValueError, match="seed_lo must be >= 0, got -1"):
            PerturbationSpec(seed_lo=-1, seed_hi=0)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            PerturbationSpec(reps=0)

    def test_kind_checked_by_protocol(self, sweep):
        # The kind is the protocol called: a token run_protocol does not know is named.
        with pytest.raises(ValueError, match="unknown stability kind: 'bogus'"):
            run_protocol("bogus", sweep(1, 2), PerturbationSpec())


class TestAllKinds:
    @ALL_KINDS
    def test_control_is_exactly_one(self, sweep, kind):
        curve = run_protocol(stability.KINDS[kind], sweep(1, 5), CONTROL)
        assert curve.kind == kind
        assert curve.mean_ami == (1.0,) * 5
        assert curve.std_ami == (0.0,) * 5
        assert curve.per_rep.shape == (1 if kind == "seed_variation" else 3, 5)

    @ALL_KINDS
    def test_jobs_do_not_change_results(self, sweep, kind, monkeypatch):
        # Above K=3 the three blobs split differently per repetition, so
        # repetitions or Ks joined out of order would show.
        draws = []
        spec, token = PERTURBED, stability.KINDS[kind]
        if kind == "seed_variation":
            reps = list(range(spec.seed_lo, spec.seed_hi + 1))
            monkeypatch.setattr(stability, "replace",
                                lambda base, seed: draws.append(seed) or replace(base, seed=seed))
        else:
            reps = list(range(spec.reps))
            subsample = stability._subsample
            monkeypatch.setattr(stability, "_subsample",
                                lambda r, *a: draws.append(r) or subsample(r, *a))
        for k_range in ((1, 5), (3, 5)):
            serial = run_protocol(token, sweep(*k_range), spec)
            threaded = run_protocol(token, sweep(*k_range), spec, jobs=3)
            assert np.array_equal(serial.per_rep, threaded.per_rep)
            assert serial.per_rep.shape == (len(reps), k_range[1] - k_range[0] + 1)
        # Each repetition is drawn once, not once per K.
        assert draws == reps * 4

    @pytest.mark.parametrize("failure, error, message", [
        ("nan", NumericFailure, "non-finite log-likelihood at K=3 in {where}: nan"),
        ("raise", ClusterSweepError, "while fitting K=3 in {where}: synthetic failure"),
    ], ids=["nan", "raise"])
    @ALL_KINDS
    def test_failed_refit_names_kind_repetition_and_k(
        self, sweep, kind, failure, error, message, monkeypatch
    ):
        reference = sweep(1, 5)
        monkeypatch.setattr("clustersweep.stability.gmm.fit", failing_fit(failure, k=3))
        rep = "seed 1" if kind == "seed_variation" else "repetition 0"
        with pytest.raises(error, match=re.escape(message.format(where=f"{kind} {rep}"))):
            run_protocol(stability.KINDS[kind], reference, PERTURBED, jobs=2)


class TestDimensionStability:
    def test_k1_is_one_for_every_repetition(self, sweep):
        spec = PerturbationSpec(fraction=0.5, reps=4)
        curve = dimension_stability(sweep(1, 2), spec)
        assert (curve.per_rep[:, 0] == 1.0).all()

    def test_separated_blobs_stay_recoverable(self, sweep):
        spec = PerturbationSpec(fraction=0.8, reps=6)
        curve = dimension_stability(sweep(3, 3), spec)
        assert curve.mean_ami[0] >= 0.95

    def test_deterministic_per_rep(self, sweep):
        spec = PerturbationSpec(fraction=0.6, reps=3)
        c1 = dimension_stability(sweep(1, 3), spec)
        c2 = dimension_stability(sweep(1, 3), spec)
        assert np.array_equal(c1.per_rep, c2.per_rep)

    def test_fraction_too_small(self, sweep):
        spec = PerturbationSpec(fraction=0.01, reps=1)
        with pytest.raises(ValueError):
            dimension_stability(sweep(1, 2), spec)


class TestRowStability:
    def test_separated_blobs(self, sweep):
        spec = PerturbationSpec(fraction=0.8, reps=6)
        curve = row_stability(sweep(3, 3), spec)
        assert curve.mean_ami[0] >= 0.95

    def test_fraction_below_k(self, sweep):
        spec = PerturbationSpec(fraction=0.02, reps=1)
        with pytest.raises(ValueError):
            row_stability(sweep(1, 5), spec)


class TestSeedStability:
    def test_k1_always_one(self, sweep):
        spec = PerturbationSpec(seed_lo=1, seed_hi=5)
        curve = seed_stability(sweep(1, 1), spec)
        assert (curve.per_rep == 1.0).all()

    def test_separated_blobs_seed_insensitive(self, sweep):
        spec = PerturbationSpec(seed_lo=1, seed_hi=10)
        curve = seed_stability(sweep(3, 3), spec)
        assert curve.mean_ami[0] >= 0.99

    def test_repetition_count_follows_seed_range(self, sweep):
        spec = PerturbationSpec(seed_lo=1, seed_hi=7)
        curve = seed_stability(sweep(2, 3), spec)
        assert curve.per_rep.shape == (7, 2)


class TestReferencesAndAggregation:
    def test_precomputed_references_skip_fits(self, small_blobs, monkeypatch):
        result = run_sweep(small_blobs, BASE, 1, 3)
        calls = []
        real_fit = clustersweep.gmm.fit

        def counting_fit(data, config, iteration_hook=None):
            calls.append(config.k)
            return real_fit(data, config, iteration_hook)

        monkeypatch.setattr("clustersweep.stability.gmm.fit", counting_fit)
        spec = PerturbationSpec(fraction=0.8, reps=2)
        dimension_stability(result, spec)
        # The sweep holds the references: only the refits run, 2 reps x K=2,3.
        assert sorted(calls) == [2, 2, 3, 3]

    def test_population_std(self, sweep):
        spec = PerturbationSpec(fraction=0.5, reps=1)
        curve = dimension_stability(sweep(1, 3), spec)
        assert curve.std_ami == (0.0, 0.0, 0.0)

    def test_per_rep_is_read_only(self, sweep):
        # A write to per_rep would leave mean_ami and std_ami describing other values.
        spec = PerturbationSpec(seed_lo=1, seed_hi=2)
        curve = seed_stability(sweep(1, 2), spec)
        with pytest.raises(ValueError, match="read-only"):
            curve.per_rep[0, 0] = 0.5

    def test_ami_values_in_bounds(self, sweep):
        spec = PerturbationSpec(fraction=0.3, reps=5)
        curve = dimension_stability(sweep(1, 4), spec)
        assert (curve.per_rep >= -1.0).all() and (curve.per_rep <= 1.0 + 1e-9).all()
        assert all(0.0 <= m <= 1.0 + 1e-9 for m in curve.mean_ami)

    def test_run_protocol_dispatch(self, sweep):
        spec = PerturbationSpec(seed_lo=1, seed_hi=2)
        curve = run_protocol("seeds", sweep(1, 2), spec)
        assert curve.kind == "seed_variation"


class TestCurveExport:
    def _curve(self, sweep):
        spec = PerturbationSpec(seed_lo=1, seed_hi=3)
        return seed_stability(sweep(1, 3), spec)

    def test_csv(self, sweep, tmp_path):
        curve = self._curve(sweep)
        write_curve(curve, tmp_path)
        lines = (tmp_path / "stability_seeds.csv").read_text().splitlines()
        assert lines[0] == "k,mean_ami,std_ami"
        assert len(lines) == 4
        k, mean, std = lines[1].split(",")
        assert int(k) == 1 and float(mean) == 1.0 and float(std) == 0.0

    def test_reps_csv(self, sweep, tmp_path):
        curve = self._curve(sweep)
        write_curve(curve, tmp_path)
        lines = (tmp_path / "stability_seeds_reps.csv").read_text().splitlines()
        assert lines[0] == "rep,k1,k2,k3"
        assert len(lines) == 4

    def test_json_mirror(self, sweep, tmp_path):
        curve = self._curve(sweep)
        write_curve(curve, tmp_path)
        doc = json.loads((tmp_path / "stability_seeds.json").read_text())
        assert doc["kind"] == "seed_variation"
        assert doc["k_values"] == [1, 2, 3]
        assert doc["mean_ami"] == list(curve.mean_ami)
        assert len(doc["per_rep"]) == 3

    @ALL_KINDS
    def test_three_files_agree_with_per_rep(self, sweep, tmp_path, kind):
        curve = run_protocol(stability.KINDS[kind], sweep(1, 4), PERTURBED)
        write_curve(curve, tmp_path)
        stem = tmp_path / f"stability_{stability.KINDS[kind]}"
        doc = json.loads(stem.with_suffix(".json").read_text())
        rows = [line.split(",") for line in stem.with_suffix(".csv").read_text().splitlines()[1:]]
        assert [int(k) for k, _, _ in rows] == doc["k_values"] == list(curve.k_values)
        assert [float(m) for _, m, _ in rows] == doc["mean_ami"]
        assert [float(s) for _, _, s in rows] == doc["std_ami"]
        reps = [line.split(",")[1:] for line in
                (tmp_path / f"{stem.name}_reps.csv").read_text().splitlines()[1:]]
        assert [[float(x) for x in row] for row in reps] == doc["per_rep"]
        assert any(doc["std_ami"])  # the repetitions differ, so the columns have a spread
        per_rep = np.asarray(doc["per_rep"], dtype=np.float64)
        assert per_rep.tobytes() == curve.per_rep.tobytes()
        assert np.asarray(doc["mean_ami"]).tobytes() == per_rep.mean(axis=0).tobytes()
        assert np.asarray(doc["std_ami"]).tobytes() == per_rep.std(axis=0).tobytes()

    def test_combined_csv(self, sweep, tmp_path):
        spec_d = PerturbationSpec(fraction=0.8, reps=2)
        spec_s = PerturbationSpec(seed_lo=1, seed_hi=2)
        curves = [
            dimension_stability(sweep(1, 2), spec_d),
            seed_stability(sweep(1, 2), spec_s),
        ]
        write_combined_csv(curves, tmp_path / "combined.csv")
        lines = (tmp_path / "combined.csv").read_text().splitlines()
        assert lines[0] == (
            "k,dimension_subsample_mean,dimension_subsample_std,"
            "seed_variation_mean,seed_variation_std"
        )
        assert len(lines) == 3
