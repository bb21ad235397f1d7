import copy
import ctypes
import gc
import itertools
import json
import math
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from clustersweep.data import EmbeddingMatrix
from clustersweep.errors import DimensionMismatch, ParseError
import clustersweep.gmm
from clustersweep.gmm import (
    GmmConfig,
    MixtureModel,
    _blas_thread_setter,
    _kmeans_plus_plus,
    _logsumexp_rows,
    _pin_blas,
    _plans,
    _seeding_plan,
    e_step,
    fit,
    load_model,
    m_step,
    save_model,
)
from clustersweep.metrics import ami

from conftest import make_blobs, make_matrix, make_partition, spread_centers


class TestEStep:
    def test_single_component_is_certain(self):
        model = MixtureModel(k=1, weights=[1.0], means=[[0.0, 0.0]], variances=[[1.0, 1.0]])
        data = make_matrix([[5.0, -3.0], [0.1, 0.2]])
        resp, _ = e_step(model, data)
        assert (resp == 1.0).all()

    def test_equidistant_symmetry(self):
        model = MixtureModel(
            k=2, weights=[0.5, 0.5], means=[[-1.0], [1.0]], variances=[[1.0], [1.0]]
        )
        resp, _ = e_step(model, make_matrix([[0.0]]))
        assert resp[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert resp[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_scalar_oracle(self):
        # pi=(0.3, 0.7), means (0, 1), unit variances, x=0.
        model = MixtureModel(
            k=2, weights=[0.3, 0.7], means=[[0.0], [1.0]], variances=[[1.0], [1.0]]
        )
        resp, ll = e_step(model, make_matrix([[0.0]]))
        n0 = 0.3 * math.exp(-0.0) / math.sqrt(2 * math.pi)
        n1 = 0.7 * math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert resp[0, 0] == pytest.approx(n0 / (n0 + n1), abs=1e-12)
        assert ll == pytest.approx(math.log(n0 + n1), abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = MixtureModel(
            k=3,
            weights=[0.2, 0.5, 0.3],
            means=rng.normal(size=(3, 4)),
            variances=np.abs(rng.normal(size=(3, 4))) + 0.1,
        )
        resp, _ = e_step(model, make_matrix(rng.normal(size=(50, 4))))
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        model = MixtureModel(k=1, weights=[1.0], means=[[0.0]], variances=[[1.0]])
        with pytest.raises(DimensionMismatch):
            e_step(model, make_matrix([[1.0, 2.0]]))


class TestMStep:
    def test_all_mass_on_one_component(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        data = make_matrix(X)
        resp = np.zeros((20, 2))
        resp[:, 0] = 1.0
        # Component 1 is starved; component 0 carries everything.
        model = m_step(resp, data, reg_covar=1e-6)
        assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-12)
        assert np.allclose(model.variances[0], X.var(axis=0) + 1e-6, atol=1e-9)

    def test_uniform_responsibilities(self):
        rng = np.random.default_rng(2)
        data = make_matrix(rng.normal(size=(12, 2)))
        resp = np.full((12, 3), 1.0 / 3.0)
        model = m_step(resp, data, reg_covar=1e-6)
        assert np.allclose(model.weights, 1.0 / 3.0, atol=1e-12)
        for j in (1, 2):
            assert np.allclose(model.means[j], model.means[0], atol=1e-12)
            assert np.allclose(model.variances[j], model.variances[0], atol=1e-12)

    def test_hand_weighted_updates(self):
        # 4 points in 1-d with hand-set responsibilities for 2 components.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        resp = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        model = m_step(resp, make_matrix(X), reg_covar=1e-6)
        for j in range(2):
            mass = resp[:, j].sum()
            mean = float((resp[:, j] * X[:, 0]).sum() / mass)
            var = float((resp[:, j] * (X[:, 0] - mean) ** 2).sum() / mass) + 1e-6
            assert model.weights[j] == pytest.approx(mass / 4.0, abs=1e-12)
            assert model.means[j, 0] == pytest.approx(mean, abs=1e-12)
            assert model.variances[j, 0] == pytest.approx(var, abs=1e-10)

    def test_starved_component_reseeded(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        X[7] = [40.0, 40.0]  # lone far-out point has the lowest mixture density
        data = make_matrix(X)
        resp = np.zeros((30, 2))
        resp[:, 0] = 1.0
        model = m_step(resp, data, reg_covar=1e-6)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.weights[1] > 0
        assert np.allclose(model.means[1], X[7], atol=1e-12)
        assert np.allclose(model.variances[1], np.maximum(X.var(axis=0), 1e-6), atol=1e-12)


class TestFit:
    def test_k1_single_cluster_column_means(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        model, part = fit(make_matrix(X), GmmConfig(k=1))
        assert part.occupied_clusters() == 1
        assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-9)

    def test_two_blob_recovery(self):
        data, truth = make_blobs([[-10.0], [10.0]], n_per=50, sigma=0.1, seed=8)
        _, part = fit(data, GmmConfig(k=2))
        assert ami(part, make_partition(truth, k=2, ids=data.ids)).ami == 1.0

    def test_determinism(self, four_blob_data):
        data, _ = four_blob_data
        _, p1 = fit(data, GmmConfig(k=4))
        _, p2 = fit(data, GmmConfig(k=4))
        assert np.array_equal(p1.labels, p2.labels)

    def test_different_seeds_may_differ_but_are_valid(self):
        rng = np.random.default_rng(6)
        data = make_matrix(rng.normal(size=(60, 4)))
        for seed in (0, 1, 2):
            model, part = fit(data, GmmConfig(k=3, seed=seed))
            assert part.labels.shape == (60,)
            assert (model.variances >= 1e-6).all()

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(7)
        data = make_matrix(rng.normal(size=(100, 5)))
        lls = []
        # A tight tol keeps EM iterating long after the k-means start.
        fit(data, GmmConfig(k=3, tol=1e-9), iteration_hook=lambda it, ll, resp: lls.append(ll))
        diffs = np.diff(lls)
        floors = -1e-7 * np.abs(np.asarray(lls[:-1]))
        assert (diffs >= floors).all()

    def test_responsibilities_rows_sum_to_one_each_iteration(self):
        rng = np.random.default_rng(8)
        data = make_matrix(rng.normal(size=(80, 3)))

        def hook(it, ll, resp):
            assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)

        fit(data, GmmConfig(k=4), iteration_hook=hook)

    @pytest.mark.parametrize("config, converged", [
        (GmmConfig(k=3), True),
        (GmmConfig(k=3, max_iter=1), False),
        (GmmConfig(k=3, tol=1e-12, max_iter=7), False),
    ], ids=["converged", "max_iter_1", "capped_at_7"])
    def test_hook_sees_every_e_step_and_the_final_log_likelihood(self, config, converged):
        rng = np.random.default_rng(9)
        data = make_matrix(rng.normal(size=(90, 3)))
        calls = []

        def hook(it, ll, resp):
            calls.append((it, ll))
            assert not resp.flags.writeable  # it is the array the next M-step reads

        model, _ = fit(data, config, iteration_hook=hook)
        assert model.converged is converged
        assert [it for it, _ in calls] == list(range(1, model.n_iter + 2))
        assert calls[-1][1] == model.final_log_likelihood

    def test_variance_floor(self):
        # Duplicated points force zero within-component variance.
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 10, axis=0)
        model, _ = fit(make_matrix(X), GmmConfig(k=2, reg_covar=1e-4))
        assert (model.variances >= 1e-4).all()

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="n=2 rows cannot support k=3 components"):
            fit(make_matrix([[1.0], [2.0]]), GmmConfig(k=3))

    def test_convergence_flags(self):
        rng = np.random.default_rng(10)
        data = make_matrix(rng.normal(size=(50, 2)))
        model, _ = fit(data, GmmConfig(k=2))
        assert model.converged
        assert 1 <= model.n_iter <= 2000
        capped, _ = fit(data, GmmConfig(k=2, max_iter=1))
        assert capped.n_iter == 1


def _kmeans_plus_plus_reference(X, k, rng):
    """Greedy k-means++ scoring each candidate with its own exact pass."""
    n = X.shape[0]
    n_trials = 2 + int(math.log(k))
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.integers(n))]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total > 0:
            candidates = rng.choice(n, size=n_trials, p=closest_sq / total)
        else:
            candidates = rng.integers(n, size=n_trials)
        best_idx, best_closest, best_potential = -1, None, np.inf
        for idx in candidates:
            trial_closest = np.minimum(closest_sq, np.sum((X - X[int(idx)]) ** 2, axis=1))
            potential = trial_closest.sum()
            if potential < best_potential:
                best_idx, best_closest, best_potential = int(idx), trial_closest, potential
        centers[j] = X[best_idx]
        closest_sq = best_closest
    return centers


def _degenerate_inputs():
    rng = np.random.default_rng(123)
    return {
        "duplicate_rows": np.repeat(rng.normal(size=(6, 5)), 3, axis=0),
        "constant_rows": np.full((12, 5), 2.5),
        "one_dimension": rng.normal(size=(20, 1)),
        "few_rows": rng.normal(size=(6, 4)),
        "offset_1e6": rng.normal(size=(16, 6)) + 1e6,
        "integer_grid": np.array([[i, j] for i in range(4) for j in range(4)], dtype=float),
    }


def _n_trials(k):
    return 2 + int(math.log(k))


def _fit_rng(seed):
    """The generator a fit seeds from: the first child of its seed."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


class TestSeeding:
    @pytest.mark.parametrize("name", sorted(_degenerate_inputs()))
    def test_matches_per_candidate_reference(self, name):
        # Near-ties ranked by the matrix product are rescored exactly, so every
        # center, and every later draw, is the per-candidate loop's.
        X = _degenerate_inputs()[name]
        for seed in range(40):
            for k in range(1, X.shape[0] + 1):
                steps = _kmeans_plus_plus(X, _n_trials(k), np.random.default_rng(seed))
                got = X[list(itertools.islice(steps, k))]
                want = _kmeans_plus_plus_reference(X, k, np.random.default_rng(seed))
                assert np.array_equal(got, want), (name, seed, k)


class TestSeedingPlan:
    """Every K of one n_trials group seeds from one plan per (data, seed)."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize("name", sorted(_degenerate_inputs()))
    def test_prefix_matches_per_k_seeding(self, name, order):
        # Duplicate rows, all-equal rows (no distance left to draw by), k up to n.
        X = _degenerate_inputs()[name]
        ks = range(1, min(20, X.shape[0]) + 1)
        for seed in range(5):
            data = make_matrix(X)
            for k in (ks if order == "ascending" else reversed(ks)):
                got = X[_seeding_plan(data, seed, _n_trials(k)).first(k)]
                want = _kmeans_plus_plus_reference(X, k, _fit_rng(seed))
                assert np.array_equal(got, want), (name, seed, k)

    def test_fit_starts_from_the_per_k_seeding(self, monkeypatch):
        X = np.random.default_rng(7).normal(size=(40, 3))
        data = make_matrix(X)
        starts = {}
        lloyd = clustersweep.gmm._lloyd_labels

        def recording_lloyd(X, centers):
            starts[centers.shape[0]] = centers.copy()
            return lloyd(X, centers)

        monkeypatch.setattr(clustersweep.gmm, "_lloyd_labels", recording_lloyd)
        for k in range(12, 0, -1):
            fit(data, GmmConfig(k=k, seed=4, max_iter=1))
        for k, centers in starts.items():
            assert np.array_equal(centers, _kmeans_plus_plus_reference(X, k, _fit_rng(4))), k

    def test_threads_sharing_plans_get_the_per_k_seeding(self):
        X = np.random.default_rng(6).normal(size=(60, 4))
        data = make_matrix(X)
        ks = [k for k in range(20, 0, -1) for _ in range(3)]
        got = {}

        def worker(offset):
            for k in ks[offset::8]:
                got[offset, k] = X[_seeding_plan(data, 2, _n_trials(k)).first(k)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == len(ks)
        for (_, k), centers in got.items():
            assert np.array_equal(centers, _kmeans_plus_plus_reference(X, k, _fit_rng(2))), k

    def test_model_bytes_do_not_depend_on_fit_order(self, tmp_path):
        data, _ = make_blobs(spread_centers(5, 16, 6.0), n_per=40, sigma=1.0, seed=9)
        ks = range(1, 13)
        config = GmmConfig(k=1, seed=3)

        def model_bytes(label, fits):
            out = {}
            for k, (model, _) in fits:
                path = tmp_path / f"{label}_{k}.json"
                save_model(model, replace(config, k=k), path)
                out[k] = path.read_bytes()
            return out

        def fresh():
            return EmbeddingMatrix(data.ids, data.values)

        # A new data object per K: each fit seeds from a plan of its own.
        cold = model_bytes("cold", [(k, fit(fresh(), replace(config, k=k))) for k in ks])
        runs = {}
        for label, order in (("ascending", ks), ("descending", ks[::-1])):
            same = fresh()
            runs[label] = model_bytes(label, [(k, fit(same, replace(config, k=k))) for k in order])
        same = fresh()
        with ThreadPoolExecutor(2) as pool:
            fits = list(pool.map(lambda k: fit(same, replace(config, k=k)), ks[::-1]))
        runs["jobs=2"] = model_bytes("jobs2", zip(ks[::-1], fits))
        warm = fresh()
        for n_trials in {_n_trials(k) for k in ks}:
            _seeding_plan(warm, config.seed, n_trials).first(20)
        runs["warm"] = model_bytes("warm", [(k, fit(warm, replace(config, k=k))) for k in ks])
        for label, got in runs.items():
            assert got == cold, label

    def test_fitted_data_pickles_copies_and_compares_as_before(self):
        data = make_matrix(np.random.default_rng(4).normal(size=(30, 3)))
        pickled = pickle.dumps(data)
        for k in (1, 3, 8):
            fit(data, GmmConfig(k=k))
        assert pickle.dumps(data) == pickled
        assert vars(data).keys() == {"ids", "values"}
        copied = copy.deepcopy(data)
        assert vars(copied).keys() == {"ids", "values"}
        assert copied.ids == data.ids and np.array_equal(copied.values, data.values)
        # Equality is identity, so a fitted matrix and its copies stay distinct memo keys.
        assert data == data and copied != data
        assert copy.deepcopy(data) not in _plans

    def test_a_new_seed_drops_the_older_seeds_plans(self):
        data = make_matrix(np.random.default_rng(5).normal(size=(30, 3)))
        fit(data, GmmConfig(k=3, seed=0))
        fit(data, GmmConfig(k=8, seed=0))
        seed, plans = _plans[data]
        assert seed == 0 and sorted(plans) == [3, 4]
        fit(data, GmmConfig(k=3, seed=1))
        seed, plans = _plans[data]
        assert seed == 1 and sorted(plans) == [3]
        plan = weakref.ref(plans[3])
        del data, plans
        gc.collect()
        assert plan() is None


class TestLogSumExp:
    @pytest.mark.parametrize(
        "shape", [(600, 20), (1200, 20), (600, 3), (50, 1)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_bit_identical_to_scipy(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        a = rng.normal(scale=50.0, size=shape)
        if shape[1] > 2:
            a[:, 2] = -np.inf  # a component of weight 0
            a[::3, 0] = a[::3].max(axis=1)  # tied maxima
        got = _logsumexp_rows(a)
        assert np.array_equal(got.view(np.int64), logsumexp(a, axis=1).view(np.int64))

    def test_infinite_rows(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [3.0, 3.0]])
        assert np.array_equal(_logsumexp_rows(a), logsumexp(a, axis=1))


class TestBlasPin:
    def test_pin_blas_holds_numpys_openblas_at_one_thread(self, four_blob_data):
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        if not libs:
            pytest.skip("this numpy ships no OpenBLAS of its own")
        setter = _blas_thread_setter()
        assert setter is not None
        getter = getattr(ctypes.CDLL(str(libs[0])), setter.__name__.replace("_set_", "_get_"))
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(2)
        _pin_blas.cache_clear()
        try:
            fit(four_blob_data[0], GmmConfig(k=2))
            assert getter() == 1
        finally:
            _pin_blas.cache_clear()
            _pin_blas()

    def test_unpinned_blas_fits_the_same_and_says_so_once(self, four_blob_data, monkeypatch,
                                                          capsys):
        data, _ = four_blob_data
        _, expected = fit(data, GmmConfig(k=4))
        monkeypatch.setattr(clustersweep.gmm, "_blas_thread_setter", lambda: None)
        _pin_blas.cache_clear()
        try:
            parts = [fit(data, GmmConfig(k=4))[1] for _ in range(2)]
        finally:
            _pin_blas.cache_clear()
        assert all(np.array_equal(p.labels, expected.labels) for p in parts)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "unpinned" in lines[0]


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureModel(k=2, weights=[0.5, 0.6], means=[[0.0], [1.0]], variances=[[1.0], [1.0]])

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            MixtureModel(k=1, weights=[1.0], means=[[0.0]], variances=[[0.0]])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GmmConfig(k=0)
        with pytest.raises(ValueError):
            GmmConfig(k=1, tol=0.0)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                GmmConfig(k=1, tol=bad)
            with pytest.raises(ValueError):
                GmmConfig(k=1, reg_covar=bad)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            GmmConfig(k=1, seed=-1)


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 3.0, -7.0, 1e300, 0.1]


class TestModelSerialization:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_float_reads_back_bit_for_bit(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        scale = 10.0 ** rng.integers(-300, 300, size=(k, d))
        means = rng.normal(size=(k, d)) * scale
        variances = rng.uniform(0.5, 2.0, size=(k, d)) * scale
        weights = rng.dirichlet(np.ones(k))
        for _ in range(int(rng.integers(0, 2 * k))):
            r, c = int(rng.integers(k)), int(rng.integers(d))
            means[r, c] = SPECIAL_VALUES[int(rng.integers(len(SPECIAL_VALUES)))]
            variances[r, c] = rng.choice([math.nan, math.inf, 5e-324, 4.0])
        if seed % 2:
            weights = np.zeros(k)
            weights[0] = 1.0
            weights[1:] = -0.0
        model = MixtureModel(k=k, weights=weights, means=means, variances=variances,
                             converged=bool(seed % 2), n_iter=seed,
                             final_log_likelihood=SPECIAL_VALUES[seed])
        config = GmmConfig(k=k, seed=seed)
        save_model(model, config, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        back, back_config = load_model(tmp_path / "m.json")
        assert back_config == config
        for name in ("weights", "means", "variances"):
            # tobytes, not array_equal: NaN and the sign of zero must survive too.
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()
        assert np.float64(back.final_log_likelihood).tobytes() == np.float64(
            model.final_log_likelihood).tobytes()
        assert (back.k, back.n_iter, back.converged) == (k, seed, bool(seed % 2))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = make_matrix(rng.normal(size=(40, 3)))
        config = GmmConfig(k=2, seed=7)
        model, _ = fit(data, config)
        save_model(model, config, tmp_path / "m.json")
        back, back_config = load_model(tmp_path / "m.json")
        assert back_config == config
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)
        assert back.final_log_likelihood == model.final_log_likelihood
        assert back.n_iter == model.n_iter and back.converged == model.converged

    @pytest.mark.parametrize("field, value", [
        ("weights", None), ("k", "three"), ("means", [[0.5, 1.0]]),
        ("config.tol", None), ("config.seed", "7"), ("config.n_init", True), ("config", [1]),
        ("config.n_init", 5), ("config.init_method", "random-responsibility"),
        ("config.covariance", "full"), ("config.reg_covar", math.inf),
        # Retired fields are unknown fields, whatever their value.
        ("config.covariance", "diag"), ("config.n_init", 1), ("config.init_method", "kmeans"),
        # Top-level fields are type-checked, not coerced: a bool is not a number.
        ("k", 1.0), ("k", True), ("n_iter", "7"), ("n_iter", 1.5), ("converged", "no"),
        ("converged", 1), ("final_log_likelihood", "-1.0"), ("final_log_likelihood", False),
    ])
    def test_missing_or_ill_typed_field_is_parse_error(self, tmp_path, field, value):
        model = MixtureModel(
            k=1, weights=[1.0], means=[[0.5]], variances=[[2.0]],
            converged=True, n_iter=1, final_log_likelihood=-1.0,
        )
        save_model(model, GmmConfig(k=1), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        *nested, key = field.split(".")
        target = doc["config"] if nested else doc
        if value is None:
            del target[key]
        else:
            target[key] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="m.json"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_likelihood_round_trips(self, tmp_path, value):
        # A default MixtureModel has final_log_likelihood=nan.
        model = MixtureModel(
            k=1, weights=[1.0], means=[[0.5]], variances=[[2.0]], final_log_likelihood=value
        )
        save_model(model, GmmConfig(k=1), tmp_path / "m.json")
        back, _ = load_model(tmp_path / "m.json")
        assert repr(back.final_log_likelihood) == repr(value)

    def test_numpy_scalar_fields_are_written(self, tmp_path):
        model = MixtureModel(
            k=np.int64(1), weights=[1.0], means=[[0.5]], variances=[[2.0]],
            converged=np.bool_(True), n_iter=np.int64(4), final_log_likelihood=np.float32(-1.5),
        )
        save_model(model, GmmConfig(k=1), tmp_path / "m.json")
        back, _ = load_model(tmp_path / "m.json")
        assert (back.k, back.converged, back.n_iter, back.final_log_likelihood) == (1, True, 4, -1.5)
