import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from clustersweep import gmm
from clustersweep.data import BINARY_MAGIC, BINARY_VERSION, EmbeddingMatrix, Partition
from clustersweep.errors import ClusterSweepError


def make_partition(labels, k=None, ids=None) -> Partition:
    labels = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(labels.max()) + 1 if labels.size else 1
    if ids is None:
        ids = tuple(str(i) for i in range(len(labels)))
    return Partition(k, labels, tuple(ids))


def make_matrix(values, ids=None) -> EmbeddingMatrix:
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = tuple(str(i) for i in range(values.shape[0]))
    return EmbeddingMatrix(tuple(ids), values)


def write_binary_unchecked(path, values, ids) -> None:
    """The binary embedding layout, written without the writer's id check."""
    values = np.asarray(values, dtype="<f8")
    path.write_bytes(
        BINARY_MAGIC + struct.pack("<BQQ", BINARY_VERSION, *values.shape)
        + values.tobytes() + "\n".join(ids).encode("utf-8")
    )


def failing_fit(failure: str, k: int):
    """A stand-in for ``gmm.fit`` that fails at ``k``: by raising a ClusterSweepError
    ("raise"), or by ending with a NaN log-likelihood ("nan"). Other K fit as usual."""
    real_fit = gmm.fit

    def fit(data, config, iteration_hook=None):
        if config.k == k and failure == "raise":
            raise ClusterSweepError("synthetic failure")
        model, part = real_fit(data, config, iteration_hook)
        if config.k == k:
            model = gmm.MixtureModel(
                k=model.k, weights=model.weights, means=model.means, variances=model.variances,
                converged=model.converged, n_iter=model.n_iter, final_log_likelihood=float("nan"),
            )
        return model, part

    return fit


def make_blobs(centers, n_per, sigma=1.0, seed=0):
    """Gaussian blobs around the given centers, with generating labels."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    xs, labels = [], []
    for i, c in enumerate(centers):
        xs.append(rng.normal(c, sigma, size=(n_per, centers.shape[1])))
        labels.extend([i] * n_per)
    X = np.vstack(xs)
    ids = tuple(str(i) for i in range(X.shape[0]))
    return EmbeddingMatrix(ids, X), np.asarray(labels, dtype=np.int64)


def axis_centers(n_blobs, d, sep):
    """Blob centers at sep along distinct axes; pairwise distance sep * sqrt(2)."""
    centers = np.zeros((n_blobs, d))
    for i in range(n_blobs):
        centers[i, i] = sep
    return centers


def spread_centers(n_blobs, d, sep, seed=1234):
    """Orthonormal center directions scaled to sep; pairwise distance sep * sqrt(2).

    Unlike axis-aligned centers, the separation is spread over every
    dimension, so subsampling columns shrinks it smoothly instead of
    collapsing blobs.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, n_blobs)))
    return q.T[:n_blobs] * sep


def nested_centers(d=8, super_sep=30.0, sub_sep=4.0):
    """Two super-blobs on axis 0, each split into two sub-blobs on axis 1."""
    centers = []
    for base in (-super_sep, super_sep):
        for sub in (-sub_sep, sub_sep):
            c = np.zeros(d)
            c[0] = base
            c[1] = sub
            centers.append(c)
    return np.asarray(centers)


def _unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def embedding_mixture(n, d, seed, n_topics=4, n_sub=4):
    """Unit-norm, embedding-like mixture of n_topics topics of n_sub subtopics each.

    Subtopic directions sit around topic directions that share a common
    component, with anisotropic noise. Returns the matrix and each item's
    subtopic label; subtopic s belongs to topic s // n_sub.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 384)))
    common = _unit(rng.normal(size=d))
    topics = _unit(rng.normal(size=(n_topics, d)) + 1.5 * common)
    k = n_topics * n_sub
    subs = _unit(np.repeat(topics, n_sub, axis=0) + 0.35 * _unit(rng.normal(size=(k, d))))
    labels = rng.choice(k, size=n, p=rng.dirichlet(np.full(k, 4.0)))
    scale = 0.075 * rng.lognormal(0.0, 0.5, size=d)
    values = _unit(subs[labels] + rng.normal(size=(n, d)) * scale)
    return make_matrix(values), labels


@pytest.fixture(scope="session")
def four_blob_data():
    """4 well-separated blobs: n=2000, d=64, pairwise center distance ~28 sigma."""
    return make_blobs(spread_centers(4, 64, 20.0), n_per=500, sigma=1.0, seed=42)


@pytest.fixture(scope="session")
def nested_blob_data():
    """2 super-blobs each holding 2 sub-blobs; n=1000, d=8."""
    return make_blobs(nested_centers(), n_per=250, sigma=1.0, seed=3)


@pytest.fixture()
def http_stub(monkeypatch):
    """A naming service on 127.0.0.1 that answers each POST with a scripted reply.

    ``stub.replies`` lists (status, body) pairs: the n-th POST gets the n-th,
    and the last repeats; status None leaves the request unanswered until the
    test ends. ``stub.posts`` collects the JSON payloads, ``stub.url`` is the
    endpoint.
    """
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    stub = SimpleNamespace(replies=[(200, b'{"name": "Stub"}')], posts=[])
    lock = threading.Lock()
    release = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                stub.posts.append(payload)
                status, body = stub.replies[min(len(stub.posts), len(stub.replies)) - 1]
            if status is None:
                release.wait(30)
                return
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    stub.url = f"http://127.0.0.1:{server.server_address[1]}/name"
    try:
        yield stub
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
