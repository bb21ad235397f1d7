"""Seeded workload inputs and the CLI stages of the protocol.

Inputs are pure functions of (workload, seed, smoke): the same arguments give
the same bytes. They are written with the benchmark's own writers, following
the file formats in the README, so the input digests do not depend on the
program under test.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

K_MAX = 20
SMOKE_K_MAX = 5
STAGES = ("sweep", "stability", "sankey", "name")

# Stability at reduced repetitions: one subsample per kind, and the seed
# range [base, base + 1] so that repetition 0 is the self-seed control.
STABILITY_REPS = 1
BASE_SEED = 0
SEED_REPS = 2


def fits_per_iteration(k_max: int) -> int:
    """EM fits in one sweep plus one stability run (K=1 refits are skipped)."""
    return k_max + (k_max - 1) * (2 * STABILITY_REPS + SEED_REPS)


@dataclass
class Inputs:
    """Files handed to the program, plus what the benchmark keeps to check them."""

    n: int
    k_max: int
    files: dict[str, Path]
    ids: list[str]
    truth: np.ndarray  # generating labels
    k_true: int
    matrix: np.ndarray  # n x d values, for the kernel timings
    digests: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str
    jobs: int
    # Lowest AMI of the partition at the generating K against the generating
    # labels that counts as correct. Over seeds 1..40 the lowest value was
    # 0.471 on embed-384 (overlapping parts) and 0.936 on blobs-128, where
    # greedy k-means++ merges two blobs at K=8 on some seeds.
    truth_floor: float


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("embed-384", fmt="csv", jobs=1, truth_floor=0.4),
        Workload("blobs-128", fmt="bin", jobs=2, truth_floor=0.9),
    )
}

# --- vocabulary for generated texts ------------------------------------------

_SYLLABLES = [
    "ba", "ko", "ri", "ta", "ne", "lu", "mi", "so", "da", "pe", "vo", "zi",
    "gra", "sten", "mar", "qui", "lo", "fen", "dor", "chi",
]
_FILLER = ["the", "and", "of", "my", "a", "in", "for", "all", "about", "with"]
_PUNCT = ["", "", ",", ".", "!", "#"]


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        parts = rng.choice(len(_SYLLABLES), size=int(rng.integers(2, 4)))
        words.add("".join(_SYLLABLES[p] for p in parts))
    return sorted(words)


def make_texts(labels: np.ndarray, seed: int) -> list[str]:
    """Short bio-like texts: topic words of the item's group plus fillers."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    n_groups = int(labels.max()) + 1
    vocab = _vocabulary(rng, 8 * n_groups + 40)
    topic = rng.permutation(len(vocab))[: 6 * n_groups].reshape(n_groups, 6)
    common = vocab[-40:]
    texts = []
    for g in labels:
        n_topic = int(rng.integers(2, 5))
        words = [vocab[i] for i in rng.choice(topic[g], size=n_topic)]
        words.append(common[int(rng.integers(len(common)))])
        words.append(_FILLER[int(rng.integers(len(_FILLER)))])
        order = rng.permutation(len(words))
        texts.append(" ".join(words[i] + _PUNCT[int(rng.integers(len(_PUNCT)))] for i in order))
    return texts


# --- generators --------------------------------------------------------------


def _unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def embedding_mixture(n: int, d: int, seed: int, n_topics: int = 4, n_sub: int = 4):
    """Unit-normalized, embedding-like, overlapping mixture of n_topics*n_sub parts.

    Sub-topic directions sit around topic directions that share a common
    component (as real embeddings do), with anisotropic noise; clusters
    overlap, so EM runs tens of iterations at high K.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 384)))
    common = _unit(rng.normal(size=d))
    topics = _unit(rng.normal(size=(n_topics, d)) + 1.5 * common)
    k = n_topics * n_sub
    subs = _unit(np.repeat(topics, n_sub, axis=0) + 0.35 * _unit(rng.normal(size=(k, d))))
    weights = rng.dirichlet(np.full(k, 4.0))
    labels = rng.choice(k, size=n, p=weights)
    scale = 0.075 * rng.lognormal(0.0, 0.5, size=d)
    values = _unit(subs[labels] + rng.normal(size=(n, d)) * scale)
    return values, labels, k


def separated_blobs(n_per: int, d: int, seed: int, n_blobs: int = 8, sep: float = 14.0):
    """Acceptance criterion 9's recipe: blobs at sep along orthonormal directions."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 128)))
    q, _ = np.linalg.qr(rng.normal(size=(d, n_blobs)))
    centers = q.T[:n_blobs] * sep
    labels = np.repeat(np.arange(n_blobs), n_per)
    values = centers[labels] + rng.normal(size=(labels.size, d))
    return values, labels, n_blobs


# --- writers -----------------------------------------------------------------


def write_csv_embeddings(path: Path, ids: list[str], values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id," + ",".join(f"e{c}" for c in range(values.shape[1])) + "\n")
        for item, row in zip(ids, values.tolist()):
            fh.write(item + "," + ",".join(map(repr, row)) + "\n")


def write_bin_embeddings(path: Path, ids: list[str], values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"CSEM" + struct.pack("<BQQ", 1, *values.shape))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        fh.write("\n".join(ids).encode("utf-8"))


def write_texts(path: Path, ids: list[str], texts: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "text"])
        writer.writerows(zip(ids, texts))


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def generate(workload: Workload, seed: int, root: Path, smoke: bool) -> Inputs:
    """Write the workload's input files under ``root``; nothing here is timed."""
    root.mkdir(parents=True, exist_ok=True)
    k_max = SMOKE_K_MAX if smoke else K_MAX
    if workload.name == "embed-384":
        values, truth, k_true = (
            embedding_mixture(120, 16, seed, n_topics=2, n_sub=2) if smoke
            else embedding_mixture(600, 384, seed)
        )
    else:
        values, truth, k_true = (
            separated_blobs(20, 8, seed, n_blobs=4) if smoke else separated_blobs(150, 128, seed)
        )
    n = values.shape[0]
    ids = [f"doc{i:05d}" for i in range(n)]
    emb = root / f"embeddings.{workload.fmt}"
    if workload.fmt == "csv":
        write_csv_embeddings(emb, ids, values)
    else:
        write_bin_embeddings(emb, ids, values)
    texts = root / "texts.csv"
    write_texts(texts, ids, make_texts(truth, seed))
    inputs = Inputs(
        n=n, k_max=k_max, files={"embeddings": emb, "texts": texts}, ids=ids,
        truth=truth, k_true=k_true, matrix=values,
    )
    inputs.digests = {"embeddings": file_digest(emb), "texts": file_digest(texts)}
    return inputs


def stage_args(workload: Workload, stage: str, inputs: Inputs, archive: Path) -> list[str]:
    """CLI arguments for one stage, as a user would type them."""
    common = ["--out", str(archive), "--k-min", "1", "--k-max", str(inputs.k_max)]
    if stage == "sweep":
        return ["sweep", "--input", str(inputs.files["embeddings"]), "--format", workload.fmt,
                "--seed", str(BASE_SEED), "--jobs", str(workload.jobs), *common]
    if stage == "stability":
        return ["stability", "--kinds", "dimensions", "rows", "seeds",
                "--reps", str(STABILITY_REPS), "--seed-lo", str(BASE_SEED),
                "--seed-hi", str(BASE_SEED + SEED_REPS - 1), "--jobs", str(workload.jobs), *common]
    if stage == "sankey":
        return ["sankey", "--threshold", "0.5%", *common]
    if stage == "name":
        return ["name", "--texts", str(inputs.files["texts"]), "--fallback", *common]
    raise ValueError(f"unknown stage {stage!r}")
