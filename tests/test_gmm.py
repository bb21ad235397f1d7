import json
import math

import numpy as np
import pytest

from clustersweep.errors import DimensionMismatch, InsufficientData, ParseError
from clustersweep.gmm import (
    GmmConfig,
    MixtureModel,
    e_step,
    fit,
    load_model,
    log_density_diag,
    m_step,
    predict,
    save_model,
)
from clustersweep.metrics import ami

from conftest import make_blobs, make_matrix, make_partition


class TestLogDensityDiag:
    def test_standard_normal_peak(self):
        assert log_density_diag([0.0], [0.0], [1.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_deviation(self):
        assert log_density_diag([1.0], [0.0], [1.0]) == pytest.approx(
            -0.9189385332046727 - 0.5, abs=1e-7
        )

    def test_direct_formula_2d(self):
        x, mu, var = [1.0, 2.0], [0.0, 0.0], [1.0, 4.0]
        expected = sum(
            -0.5 * (math.log(2 * math.pi * v) + (xi - mi) ** 2 / v)
            for xi, mi, v in zip(x, mu, var)
        )
        assert log_density_diag(x, mu, var) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_density_diag([1.0, 2.0], [0.0], [1.0])


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

    def test_variance_floor(self):
        # Duplicated points force zero within-component variance.
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 10, axis=0)
        model, _ = fit(make_matrix(X), GmmConfig(k=2, reg_covar=1e-4))
        assert (model.variances >= 1e-4).all()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit(make_matrix([[1.0], [2.0]]), GmmConfig(k=3))

    def test_convergence_flags(self):
        rng = np.random.default_rng(10)
        data = make_matrix(rng.normal(size=(50, 2)))
        model, _ = fit(data, GmmConfig(k=2))
        assert model.converged
        assert 1 <= model.n_iter <= 2000
        capped, _ = fit(data, GmmConfig(k=2, max_iter=1))
        assert capped.n_iter == 1


class TestPredict:
    def test_matches_fit_labels(self, four_blob_data):
        data, _ = four_blob_data
        model, part = fit(data, GmmConfig(k=4))
        assert np.array_equal(predict(model, data).labels, part.labels)

    def test_k1_all_zero(self):
        model = MixtureModel(k=1, weights=[1.0], means=[[0.0]], variances=[[1.0]])
        part = predict(model, make_matrix([[1.0], [2.0], [3.0]]))
        assert (part.labels == 0).all()

    def test_point_at_component_mean(self):
        model = MixtureModel(
            k=2,
            weights=[0.5, 0.5],
            means=[[0.0, 0.0], [50.0, 50.0]],
            variances=[[1.0, 1.0], [1.0, 1.0]],
        )
        part = predict(model, make_matrix([[50.0, 50.0], [0.0, 0.0]]))
        assert part.labels.tolist() == [1, 0]

    def test_dimension_mismatch(self):
        model = MixtureModel(k=1, weights=[1.0], means=[[0.0]], variances=[[1.0]])
        with pytest.raises(DimensionMismatch):
            predict(model, make_matrix([[1.0, 2.0]]))


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


class TestModelSerialization:
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

    def test_seventeen_significant_digits(self, tmp_path):
        model = MixtureModel(
            k=1, weights=[1.0], means=[[0.1]], variances=[[1.0]],
            converged=True, n_iter=1, final_log_likelihood=-1.0,
        )
        save_model(model, GmmConfig(k=1), tmp_path / "m.json")
        assert "0.10000000000000001" in (tmp_path / "m.json").read_text()

    def test_reads_files_with_covariance_entry(self, tmp_path):
        """Model files carrying retired fields at their one reproducible value still load."""
        model = MixtureModel(
            k=1, weights=[1.0], means=[[0.5]], variances=[[2.0]],
            converged=True, n_iter=1, final_log_likelihood=-1.0,
        )
        save_model(model, GmmConfig(k=1, seed=7), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["config"] = {"k": 1, "covariance": "diag", **doc["config"],
                         "n_init": 1, "init_method": "kmeans"}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        back, back_config = load_model(tmp_path / "m.json")
        assert back_config == GmmConfig(k=1, seed=7)
        assert np.array_equal(back.means, model.means)

    @pytest.mark.parametrize("field, value", [
        ("weights", None), ("k", "three"), ("means", [[0.5, 1.0]]),
        ("config.tol", None), ("config.seed", "7"), ("config.n_init", True), ("config", [1]),
        ("config.n_init", 5), ("config.init_method", "random-responsibility"),
        ("config.covariance", "full"), ("config.reg_covar", math.inf),
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
