"""Diagonal-covariance Gaussian mixture fitting by expectation-maximization.

All density math runs in log space with log-sum-exp normalization; at a few
hundred embedding dimensions, linear-space densities underflow. Fits are pure
functions of (data, config): the same seed and data reproduce bit-identical
partitions. Responsibilities are plain (n, k) float arrays whose rows sum to 1.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import sys
import threading
import weakref
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .data import EmbeddingMatrix, Partition, _readonly, json_fits, read_text, write_text
from .errors import DimensionMismatch, ParseError

LOG_2PI = math.log(2.0 * math.pi)

# A component whose responsibility mass drops below this fraction of n is
# considered starved and gets reseeded.
STARVATION_FRACTION = 1e-10

# Lloyd rounds at most, after k-means++ seeding.
LLOYD_ROUNDS = 10

IterationHook = Callable[[int, float, np.ndarray], None]

# Thread-count setters of the OpenBLAS builds that numpy wheels ship: numpy 2's
# scipy-openblas, numpy 1's 64-bit-integer build, and a plain build.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Written so that NaN fails too.
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if not 0 < self.reg_covar < math.inf:
            raise ValueError(f"reg_covar must be finite and > 0, got {self.reg_covar!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "GmmConfig":
        """Inverse of ``dataclasses.asdict`` that checks each field's JSON type.

        Raises TypeError on a missing, unknown or ill-typed field, by ``json_fits``.
        """
        if not isinstance(d, dict):
            raise TypeError(f"config must be a JSON object, got {d!r}")
        for f in fields(cls):
            value = d.get(f.name)
            if not json_fits(value, f.type):
                raise TypeError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        return cls(**d)


@dataclass(frozen=True, eq=False)
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
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype=np.float64))
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


def _log_gaussian_matrix(
    X: np.ndarray, X2: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """(n, k) matrix of log N(x_i | mu_j, diag(sigma2_j)); ``X2`` is ``X * X``."""
    d = X.shape[1]
    prec = 1.0 / variances
    log_det = np.sum(np.log(variances), axis=1)
    quad = (
        X2 @ prec.T
        - 2.0 * (X @ (means * prec).T)
        + np.sum(means * means * prec, axis=1)
    )
    return -0.5 * (d * LOG_2PI + log_det + quad)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))``, bit for bit as scipy.special.logsumexp computes it.

    The row maximum's entries are taken out of the shifted sum ``s`` of the
    other entries and come back as ``log(m)``, m being how often the maximum
    occurs, so that a dominant term keeps its precision:
    ``log1p(s / m) + log(m) + max``.
    """
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = np.count_nonzero(is_max, axis=1)
    # A row of -inf shifts to NaN; it is masked out and its result is -inf.
    with np.errstate(invalid="ignore"):
        shifted = np.exp(a - a_max)
    np.copyto(shifted, 0.0, where=is_max)
    return np.log1p(shifted.sum(axis=1) / m) + np.log(m) + a_max[:, 0]


def _log_resp_and_norm(
    weights: np.ndarray, means: np.ndarray, variances: np.ndarray, X: np.ndarray, X2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        weighted = _log_gaussian_matrix(X, X2, means, variances) + np.log(weights)
    log_norm = _logsumexp_rows(weighted)
    return weighted - log_norm[:, None], log_norm


def e_step(model: MixtureModel, data: EmbeddingMatrix) -> tuple[np.ndarray, float]:
    """Posterior responsibilities and the total log-likelihood of the data.

    Raises:
        DimensionMismatch: if the model and data dimensions differ.
    """
    if model.d != data.d:
        raise DimensionMismatch(f"model d={model.d}, data d={data.d}")
    X = data.values
    log_resp, log_norm = _log_resp_and_norm(model.weights, model.means, model.variances, X, X * X)
    return np.exp(log_resp), float(log_norm.sum())


def _m_step_core(
    resp: np.ndarray,
    X: np.ndarray,
    X2: np.ndarray,
    reg_covar: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood parameter updates, with starved-component reseeding.

    ``X2`` is ``X * X``, made once per fit.
    """
    n, k = resp.shape
    mass = resp.sum(axis=0)
    starved = mass < STARVATION_FRACTION * n
    safe = np.where(starved, 1.0, mass)
    means = (resp.T @ X) / safe[:, None]
    avg_sq = (resp.T @ X2) / safe[:, None]
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
            weights[alive] / weights[alive].sum(), means[alive], variances[alive], X, X2
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
    X = data.values
    weights, means, variances = _m_step_core(resp, X, X * X, reg_covar)
    return MixtureModel(k=resp.shape[1], weights=weights, means=means, variances=variances)


def _kmeans_plus_plus(X: np.ndarray, n_trials: int, rng: np.random.Generator) -> Iterator[int]:
    """Greedy k-means++ (Arthur & Vassilvitskii 2007): the row index of each next center.

    Each step draws ``n_trials`` candidates with probability proportional to
    the squared distance to the closest center and keeps the first one whose
    potential, the sum of those distances once it is added, is lowest. A step
    draws from ``rng`` only when its center is asked for, so the first k
    centers are those of seeding k, whatever k is asked for later.

    One matrix product ranks all candidates, as in scikit-learn's batched
    ``_kmeans_plusplus``. Candidates within its rounding bound of the lowest
    are rescored with the exact ``sum((X - c) ** 2)`` pass, and the kept
    center's distances come from that pass, so the centers and every later
    draw are those of scoring each candidate exactly.
    """
    n, d = X.shape
    x_sq = np.sum(X * X, axis=1)
    # |product potential - exact potential| <= bound[c]: per entry the two
    # forms differ by at most 2 (d + 2) eps (|x_i|^2 + |x_c|^2), and the two
    # length-n pairwise sums add at most 2 (16 + log2 n) eps of that total.
    bound_scale = 2 * (d + 18 + math.log2(n)) * np.finfo(np.float64).eps
    x_sq_total = float(x_sq.sum())

    def sq_dist(idx: int) -> np.ndarray:
        return np.sum((X - X[idx]) ** 2, axis=1)

    best = int(rng.integers(n))
    yield best
    closest_sq = sq_dist(best)
    while True:
        total = closest_sq.sum()
        if total > 0:
            candidates = rng.choice(n, size=n_trials, p=closest_sq / total)
        else:
            candidates = rng.integers(n, size=n_trials)
        dist_sq = x_sq[candidates][:, None] - 2.0 * (X[candidates] @ X.T) + x_sq
        potential = np.minimum(closest_sq, dist_sq).sum(axis=1)
        bound = bound_scale * (x_sq_total + n * x_sq[candidates])
        lowest = np.argmin(potential)
        contenders = candidates[potential - potential[lowest] <= bound + bound[lowest]]
        best = int(contenders[0])
        if np.unique(contenders).size > 1:
            exact = [np.minimum(closest_sq, sq_dist(idx)).sum() for idx in contenders]
            best = int(contenders[np.argmin(exact)])  # the first minimum in draw order
        yield best
        closest_sq = np.minimum(closest_sq, sq_dist(best))


# data -> (seed, {n_trials: (k-means++ steps, rows drawn so far)}): the seedings
# of the last seed fitted on each live EmbeddingMatrix. Kept beside the data,
# not on it, so that what the data pickles and copies to does not change.
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_plans_lock = threading.Lock()


def _seeding_rows(data: EmbeddingMatrix, seed: int, n_trials: int, k: int) -> list[int]:
    """Row indices of the first k centers k-means++ draws for one (data, seed, n_trials).

    ``n_trials = 2 + int(log k)`` is the same for k = 1-2, 3-7, 8-20, ...,
    and nothing else draws from a fit's generator, so every k of one group
    takes the first k centers of one seeding, drawn as far as asked. One lock
    guards the memo and every seeding's extension.
    """
    with _plans_lock:
        entry = _plans.get(data)
        if entry is None or entry[0] != seed:
            entry = _plans[data] = (seed, {})
        if n_trials not in entry[1]:
            # The first child of the seed, as older versions drew one child per
            # initialization: default_rng(seed) itself would change every partition.
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            entry[1][n_trials] = (_kmeans_plus_plus(data.values, n_trials, rng), [])
        steps, rows = entry[1][n_trials]
        while len(rows) < k:
            rows.append(next(steps))
        return rows[:k]


def _lloyd_labels(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    n, k = X.shape[0], centers.shape[0]
    x_sq = np.sum(X * X, axis=1)
    labels = None
    for _ in range(LLOYD_ROUNDS):
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
    last M step. It receives the responsibilities that the next M-step
    reads, read-only.

    Raises:
        ValueError: if data.n < config.k.
    """
    X = data.values
    n = X.shape[0]
    if n < config.k:
        raise ValueError(f"n={n} rows cannot support k={config.k} components")
    _pin_blas()

    # One start: k-means++ seeding plus Lloyd rounds, turned into a first M step.
    # Lloyd moves the centers in place: X[rows] is a copy of the seeding's rows.
    rows = _seeding_rows(data, config.seed, 2 + int(math.log(config.k)), config.k)
    labels = _lloyd_labels(X, X[rows])
    # X * X for every E- and M-step, made after seeding so that it never adds
    # to seeding's own n x d temporaries.
    X2 = X * X
    resp = np.zeros((n, config.k), dtype=np.float64)
    resp[np.arange(n), labels] = 1.0
    mean_ll, converged = -np.inf, False
    # Pass i runs M-step i, from Lloyd's labels at i = 0, then E-step i + 1.
    for n_iter in range(config.max_iter + 1):
        weights, means, variances = _m_step_core(resp, X, X2, config.reg_covar)
        log_resp, log_norm = _log_resp_and_norm(weights, means, variances, X, X2)
        resp = np.exp(log_resp)
        resp.setflags(write=False)
        if iteration_hook is not None:
            iteration_hook(n_iter + 1, float(log_norm.sum()), resp)
        if converged or n_iter == config.max_iter:
            break
        prev_mean_ll, mean_ll = mean_ll, float(log_norm.mean())
        converged = abs(mean_ll - prev_mean_ll) < config.tol
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
    return model, Partition(k_declared=config.k, labels=labels, ids=data.ids)


def _blas_thread_setter() -> Callable[[int], None] | None:
    """The thread-count setter of the OpenBLAS that numpy loaded, or None if none is found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


@functools.cache
def _pin_blas() -> None:
    """Hold BLAS at one thread per process, once.

    A fit's floats then do not depend on the BLAS thread count, and ``jobs``
    fit threads do not each start BLAS threads of their own. The fit path
    calls this, not the import, so library users keep their BLAS settings
    until they fit.
    """
    setter = _blas_thread_setter()
    if setter is None:
        print("clustersweep: no OpenBLAS thread setter found; BLAS runs unpinned, "
              "so model files may depend on its thread count", file=sys.stderr)
    else:
        setter(1)


def save_model(model: MixtureModel, config: GmmConfig, path: str | Path) -> None:
    """Write a fitted model as one line of JSON whose floats read back bit for bit."""
    doc = {"k": int(model.k), "weights": model.weights.tolist(), "means": model.means.tolist(),
           "variances": model.variances.tolist(), "config": asdict(config),
           "final_log_likelihood": float(model.final_log_likelihood),
           "n_iter": int(model.n_iter), "converged": bool(model.converged)}
    write_text(path, json.dumps(doc) + "\n")


def load_model(path: str | Path) -> tuple[MixtureModel, GmmConfig]:
    """Read a model JSON written by :func:`save_model`.

    Raises:
        ParseError: if the file is not JSON or a field is missing or ill-typed.
    """
    try:
        doc = json.loads(read_text(path))
        for f in fields(MixtureModel):
            if f.type != "np.ndarray" and not json_fits(doc[f.name], f.type):
                raise TypeError(f"field {f.name!r} must be {f.type}, got {doc[f.name]!r}")
        model = MixtureModel(
            k=doc["k"],
            weights=np.asarray(doc["weights"], dtype=np.float64),
            means=np.asarray(doc["means"], dtype=np.float64),
            variances=np.asarray(doc["variances"], dtype=np.float64),
            converged=doc["converged"],
            n_iter=doc["n_iter"],
            final_log_likelihood=float(doc["final_log_likelihood"]),
        )
        return model, GmmConfig.from_dict(doc["config"])
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"{path}: invalid model JSON: {exc!r}") from exc
