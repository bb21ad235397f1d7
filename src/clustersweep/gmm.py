"""Diagonal-covariance Gaussian mixture fitting by expectation-maximization.

All density math runs in log space with log-sum-exp normalization; at a few
hundred embedding dimensions, linear-space densities underflow. Fits are pure
functions of (data, config): the same seed and data reproduce bit-identical
partitions. Responsibilities are plain (n, k) float arrays whose rows sum to 1.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from scipy.special import logsumexp

from .data import EmbeddingMatrix, Partition
from .errors import DimensionMismatch, InsufficientData, ParseError

LOG_2PI = math.log(2.0 * math.pi)

# A component whose responsibility mass drops below this fraction of n is
# considered starved and gets reseeded.
STARVATION_FRACTION = 1e-10

IterationHook = Callable[[int, float, np.ndarray], None]

# JSON types per GmmConfig field type; save_model prints a whole float as an int.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}

# Fields older model files carry, with the one value this version fits with.
_RETIRED = {"covariance": "diag", "n_init": 1, "init_method": "kmeans"}


@dataclass(frozen=True)
class GmmConfig:
    """Fit settings; defaults match a K-sweep run (seed 0, 2000 iterations)."""

    k: int
    max_iter: int = 2000
    tol: float = 1e-3
    reg_covar: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # Written so that NaN fails too.
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if not 0 < self.reg_covar < math.inf:
            raise ValueError(f"reg_covar must be finite and > 0, got {self.reg_covar!r}")

    def with_k(self, k: int) -> "GmmConfig":
        return GmmConfig(**{**asdict(self), "k": k})

    def with_seed(self, seed: int) -> "GmmConfig":
        return GmmConfig(**{**asdict(self), "seed": seed})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GmmConfig":
        """Inverse of :meth:`to_dict` that checks each field's JSON type.

        Accepts the entries of retired fields that older files carry, at the
        one value this version fits with. Raises TypeError on a missing,
        unknown or ill-typed field, and on any other value of a retired one.
        """
        d = dict(d)
        for key, only in _RETIRED.items():
            if key in d:
                value = d.pop(key)
                if (type(value), value) != (type(only), only):
                    raise TypeError(f"config field {key!r} is {value!r}; "
                                    f"only a fit with {only!r} can be reproduced")
        for f in fields(cls):
            value = d.get(f.name)
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
                raise TypeError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        return cls(**d)


@dataclass(frozen=True)
class MixtureModel:
    """Fitted diagonal-covariance mixture: weights, means, per-dimension variances."""

    k: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    converged: bool = False
    n_iter: int = 0
    final_log_likelihood: float = float("nan")

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            arr = np.array(getattr(self, name), dtype=np.float64, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.weights.shape != (self.k,):
            raise DimensionMismatch("weights must have shape (k,)")
        if self.means.ndim != 2 or self.means.shape[0] != self.k:
            raise DimensionMismatch("means must have shape (k, d)")
        if self.variances.shape != self.means.shape:
            raise DimensionMismatch("variances must match means shape")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if (self.weights < -1e-12).any() or (self.weights > 1.0 + 1e-12).any():
            raise ValueError("weights must lie in [0, 1]")
        if (self.variances <= 0).any():
            raise ValueError("variances must be positive")

    @property
    def d(self) -> int:
        return self.means.shape[1]


def log_density_diag(x: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """log N(x | mean, diag(variance)) for a single d-vector, in log space."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if not (x.shape == mean.shape == variance.shape):
        raise DimensionMismatch("x, mean, variance must share one shape")
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * variance) + (x - mean) ** 2 / variance))


def _log_gaussian_matrix(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(n, k) matrix of log N(x_i | mu_j, diag(sigma2_j))."""
    d = X.shape[1]
    prec = 1.0 / variances
    log_det = np.sum(np.log(variances), axis=1)
    quad = (
        (X * X) @ prec.T
        - 2.0 * (X @ (means * prec).T)
        + np.sum(means * means * prec, axis=1)
    )
    return -0.5 * (d * LOG_2PI + log_det + quad)


def _log_resp_and_norm(
    weights: np.ndarray, means: np.ndarray, variances: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        weighted = _log_gaussian_matrix(X, means, variances) + np.log(weights)
    log_norm = logsumexp(weighted, axis=1)
    return weighted - log_norm[:, None], log_norm


def e_step(model: MixtureModel, data: EmbeddingMatrix) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and the total log-likelihood of the data.

    Raises:
        DimensionMismatch: if the model and data dimensions differ.
    """
    if model.d != data.d:
        raise DimensionMismatch(f"model d={model.d}, data d={data.d}")
    log_resp, log_norm = _log_resp_and_norm(
        model.weights, model.means, model.variances, data.values
    )
    return np.exp(log_resp), float(log_norm.sum())


def _m_step_core(
    resp: np.ndarray,
    X: np.ndarray,
    reg_covar: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood parameter updates, with starved-component reseeding."""
    n, k = resp.shape
    mass = resp.sum(axis=0)
    starved = mass < STARVATION_FRACTION * n
    safe = np.where(starved, 1.0, mass)
    means = (resp.T @ X) / safe[:, None]
    avg_sq = (resp.T @ (X * X)) / safe[:, None]
    variances = avg_sq - means * means + reg_covar
    # The subtraction can dip a hair below the floor; clamp back.
    variances = np.maximum(variances, reg_covar)
    weights = mass / n

    if starved.any():
        # Reseed each starved component at a distinct point with the lowest
        # density under the updated surviving components; give it the
        # reg_covar-floored global variance and weight 1/n.
        alive = ~starved
        _, log_norm = _log_resp_and_norm(
            weights[alive] / weights[alive].sum(), means[alive], variances[alive], X
        )
        order = np.argsort(log_norm, kind="stable")
        global_var = np.maximum(X.var(axis=0), reg_covar)
        for slot, j in enumerate(np.flatnonzero(starved)):
            means[j] = X[order[slot % n]]
            variances[j] = global_var
            weights[j] = 1.0 / n
        weights = weights / weights.sum()
    return weights, means, variances


def m_step(resp: np.ndarray, data: EmbeddingMatrix, reg_covar: float) -> MixtureModel:
    """One maximization step from row-stochastic responsibilities."""
    resp = np.asarray(resp, dtype=np.float64)
    if resp.shape[0] != data.n:
        raise DimensionMismatch("responsibilities rows must match data rows")
    weights, means, variances = _m_step_core(resp, data.values, reg_covar)
    return MixtureModel(k=resp.shape[1], weights=weights, means=means, variances=variances)


def _kmeans_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: sample several candidates per step, keep the best."""
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


def _lloyd_labels(X: np.ndarray, centers: np.ndarray, max_rounds: int = 10) -> np.ndarray:
    n, k = X.shape[0], centers.shape[0]
    x_sq = np.sum(X * X, axis=1)
    labels = None
    for _ in range(max_rounds):
        d_sq = x_sq[:, None] - 2.0 * (X @ centers.T) + np.sum(centers * centers, axis=1)
        new_labels = np.argmin(d_sq, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        assigned = d_sq[np.arange(n), labels]
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # Relocate each empty cluster onto a distinct far-out point.
            far = np.argsort(-assigned, kind="stable")
            for slot, j in enumerate(empties):
                centers[j] = X[far[slot % n]]
                labels[far[slot % n]] = j
            counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j]:
                centers[j] = X[labels == j].mean(axis=0)
    return labels


def _initialize(
    X: np.ndarray, config: GmmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeding plus Lloyd rounds, turned into a first M step."""
    n = X.shape[0]
    labels = _lloyd_labels(X, _kmeans_plus_plus(X, config.k, rng))
    resp = np.zeros((n, config.k), dtype=np.float64)
    resp[np.arange(n), labels] = 1.0
    return _m_step_core(resp, X, config.reg_covar)


def fit(
    data: EmbeddingMatrix,
    config: GmmConfig,
    iteration_hook: IterationHook | None = None,
) -> tuple[MixtureModel, Partition]:
    """Fit the mixture by EM and return the model plus the hard partition.

    Alternates E and M steps until the mean per-item log-likelihood changes
    by less than ``tol`` or ``max_iter`` is hit. Items are assigned to their
    argmax-responsibility component, ties going to the lowest index.

    ``iteration_hook(iteration, total_log_likelihood, responsibilities)`` is
    called at every E-step evaluation, including the final one after the
    last M step.

    Raises:
        InsufficientData: if data.n < config.k.
    """
    X = data.values
    n = X.shape[0]
    if n < config.k:
        raise InsufficientData(f"n={n} rows cannot support k={config.k} components")

    # The first child of the seed, as older versions drew one child per
    # initialization: default_rng(seed) itself would change every partition.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    weights, means, variances = _initialize(X, config, rng)
    mean_ll = -np.inf
    converged = False
    n_iter = 0
    for n_iter in range(1, config.max_iter + 1):
        prev_mean_ll = mean_ll
        log_resp, log_norm = _log_resp_and_norm(weights, means, variances, X)
        if iteration_hook is not None:
            iteration_hook(n_iter, float(log_norm.sum()), np.exp(log_resp))
        weights, means, variances = _m_step_core(np.exp(log_resp), X, config.reg_covar)
        mean_ll = float(log_norm.mean())
        if abs(mean_ll - prev_mean_ll) < config.tol:
            converged = True
            break
    log_resp, log_norm = _log_resp_and_norm(weights, means, variances, X)
    if iteration_hook is not None:
        iteration_hook(n_iter + 1, float(log_norm.sum()), np.exp(log_resp))
    model = MixtureModel(
        k=config.k,
        weights=weights,
        means=means,
        variances=variances,
        converged=converged,
        n_iter=n_iter,
        final_log_likelihood=float(log_norm.sum()),
    )
    labels = np.argmax(log_resp, axis=1)
    return model, Partition(n_items=n, k_declared=config.k, labels=labels, ids=data.ids)


def _map_ordered(fn: Callable, items: Iterable, jobs: int) -> list:
    """The executor for independent fits: ``[fn(x) for x in items]``, threaded if jobs > 1."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def predict(model: MixtureModel, data: EmbeddingMatrix) -> Partition:
    """Assign items to their argmax-responsibility component (lowest index on ties)."""
    resp, _ = e_step(model, data)
    labels = np.argmax(resp, axis=1)
    return Partition(n_items=data.n, k_declared=model.k, labels=labels, ids=data.ids)


def _json_render(obj) -> str:
    # json.dump cannot be told to print floats at 17 significant digits.
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # json.loads reads NaN, Infinity and -Infinity back.
        return format(float(obj), ".17g") if math.isfinite(obj) else json.dumps(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_render(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_render(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def save_model(model: MixtureModel, config: GmmConfig, path: str | Path) -> None:
    """Write a fitted model as JSON with floats at 17 significant digits."""
    doc = {
        "k": model.k,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "config": config.to_dict(),
        "final_log_likelihood": model.final_log_likelihood,
        "n_iter": model.n_iter,
        "converged": model.converged,
    }
    Path(path).write_text(_json_render(doc) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[MixtureModel, GmmConfig]:
    """Read a model JSON written by :func:`save_model`.

    Raises:
        ParseError: if the file is not JSON or a field is missing or ill-typed.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        model = MixtureModel(
            k=int(doc["k"]),
            weights=np.asarray(doc["weights"], dtype=np.float64),
            means=np.asarray(doc["means"], dtype=np.float64),
            variances=np.asarray(doc["variances"], dtype=np.float64),
            converged=bool(doc["converged"]),
            n_iter=int(doc["n_iter"]),
            final_log_likelihood=float(doc["final_log_likelihood"]),
        )
        return model, GmmConfig.from_dict(doc["config"])
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"{path}: invalid model JSON: {exc!r}") from exc
