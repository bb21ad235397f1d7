"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from clustersweep.cli import main
from clustersweep.data import Partition, build_contingency, save_embeddings
from clustersweep.gmm import GmmConfig, fit
from clustersweep.metrics import ami, expected_mutual_information, proportional_stability
from clustersweep.naming import FallbackBackend, ClusterProfile, build_prompt, name_clusters, profile_cluster
from clustersweep.pipeline import run_sweep, transition_counts
from clustersweep.sankey import build_graph, export_html, export_json, load_graph
from clustersweep.stability import (
    PerturbationSpec,
    dimension_stability,
    row_stability,
    seed_stability,
)

from conftest import make_blobs, make_partition, spread_centers


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


# --- independent oracles -----------------------------------------------------


def contingency_scalar(u, v, ku, kv):
    counts = np.zeros((ku, kv), dtype=np.int64)
    for ui, vi in zip(u, v):
        counts[ui, vi] += 1
    return counts


def mi_scalar(counts):
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] > 0:
                total += (counts[i, j] / n) * math.log(n * counts[i, j] / (a[i] * b[j]))
    return total


def entropy_scalar(labels):
    _, sizes = np.unique(labels, return_counts=True)
    n = len(labels)
    return -sum((s / n) * math.log(s / n) for s in sizes)


def emi_permutation_vectorized(u, v, ku, kv):
    """Mean MI over all n! item orderings of one labeling, enumerated outright."""
    n = len(u)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    joint = u[None, :] * kv + v[perms]
    counts = (joint[:, :, None] == np.arange(ku * kv)).sum(axis=1)
    a = np.bincount(u, minlength=ku).astype(float)
    b = np.bincount(v, minlength=kv).astype(float)
    ab = np.outer(a, b).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, (counts / n) * np.log(n * counts / ab), 0.0)
    return float(terms.sum(axis=1).mean())


def ami_oracle(u, v, ku, kv, emi):
    """AMI assembled from independently computed MI, entropies, and EMI."""
    mi = mi_scalar(contingency_scalar(u, v, ku, kv))
    h_u, h_v = entropy_scalar(u), entropy_scalar(v)
    if h_u == 0.0 and h_v == 0.0:
        return 1.0
    if h_u == 0.0 or h_v == 0.0:
        return 0.0
    pairs = set(zip(u.tolist(), v.tolist()))
    if len(pairs) == len(set(u.tolist())) == len(set(v.tolist())):
        return 1.0  # identical up to relabeling
    denominator = 0.5 * (h_u + h_v) - emi
    if denominator <= 0.0:
        return 1.0 if mi - emi > 0.0 else 0.0
    return (mi - emi) / denominator


# --- shared synthetic datasets ----------------------------------------------


@pytest.fixture(scope="module")
def four_blobs():
    # Pairwise center distance 20 * sqrt(2) ~ 28 sigma (>= 10 sigma required).
    return make_blobs(spread_centers(4, 64, 20.0), n_per=500, sigma=1.0, seed=42)


@pytest.fixture(scope="module")
def nested_blobs():
    centers = []
    for base in (-30.0, 30.0):
        for sub in (-4.0, 4.0):
            c = np.zeros(8)
            c[0] = base
            c[1] = sub
            centers.append(c)
    return make_blobs(np.asarray(centers), n_per=250, sigma=1.0, seed=3)


def test_criterion_01_emi_ami_oracle_equivalence():
    with criterion(1, "EMI/AMI match exhaustive permutation oracles (200 pairs, n<=8, <30s)"):
        rng = np.random.default_rng(101)
        start = time.time()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            ku = int(rng.integers(1, n + 1))
            kv = int(rng.integers(1, n + 1))
            u = rng.integers(0, ku, n)
            v = rng.integers(0, kv, n)
            a = make_partition(u, k=ku)
            b = make_partition(v, k=kv)
            emi_brute = emi_permutation_vectorized(u, v, ku, kv)
            emi_impl = expected_mutual_information(build_contingency(a, b))
            assert abs(emi_impl - emi_brute) <= 1e-9
            assert abs(ami(a, b).ami - ami_oracle(u, v, ku, kv, emi_brute)) <= 1e-9
        elapsed = time.time() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_em_correctness():
    with criterion(2, "EM: monotone LL, row-stochastic responsibilities, variance floor (50 datasets, <60s)"):
        rng = np.random.default_rng(202)
        start = time.time()
        for trial in range(50):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(1, 17))
            k = int(rng.integers(1, 6))
            scale = float(rng.uniform(0.5, 3.0))
            X = rng.normal(scale=scale, size=(n, d)) + rng.uniform(-2, 2, size=d)
            from conftest import make_matrix

            data = make_matrix(X)
            # Every other trial runs to a tight tol, for long EM runs after the start.
            tol = 1e-3 if trial % 2 == 0 else 1e-9
            reg = 1e-6
            lls = []

            def hook(it, ll, resp):
                lls.append(ll)
                assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)

            model, _ = fit(data, GmmConfig(k=k, seed=trial, tol=tol, reg_covar=reg),
                           iteration_hook=hook)
            diffs = np.diff(lls)
            floors = -1e-7 * np.abs(np.asarray(lls[:-1]))
            assert (diffs >= floors).all(), f"LL decreased in trial {trial}"
            assert (model.variances >= reg).all()
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_separated_recovery(four_blobs):
    with criterion(3, "4 separated blobs at K=4 recover generating labels with AMI exactly 1.0"):
        data, truth = four_blobs
        _, part = fit(data, GmmConfig(k=4))
        truth_part = make_partition(truth, k=4, ids=data.ids)
        assert ami(part, truth_part).ami == 1.0


def test_criterion_04_single_level_stability_protocols(four_blobs):
    with criterion(4, "three protocols: mean AMI >= 0.95 at K=4; controls exactly 1.0 (<10min)"):
        data, _ = four_blobs
        base = GmmConfig(k=1)
        k_range = (1, 6)
        k4 = k_range[1] - k_range[0] + 1 - 3  # index of K=4 in k_values
        start = time.time()

        dim = dimension_stability(
            data, base, k_range,
            PerturbationSpec(kind="dimension_subsample", fraction=0.8, repetitions=25),
        )
        rows = row_stability(
            data, base, k_range,
            PerturbationSpec(kind="row_subsample", fraction=0.8, repetitions=25),
        )
        seeds = seed_stability(
            data, base, k_range,
            PerturbationSpec(kind="seed_variation", seed_range=(1, 25)),
        )
        assert dim.k_values[k4] == 4
        assert dim.mean_ami[k4] >= 0.95, f"dimension protocol: {dim.mean_ami[k4]}"
        assert rows.mean_ami[k4] >= 0.95, f"row protocol: {rows.mean_ami[k4]}"
        assert seeds.mean_ami[k4] >= 0.95, f"seed protocol: {seeds.mean_ami[k4]}"

        dim_control = dimension_stability(
            data, base, k_range,
            PerturbationSpec(kind="dimension_subsample", fraction=1.0, repetitions=3),
        )
        row_control = row_stability(
            data, base, k_range,
            PerturbationSpec(kind="row_subsample", fraction=1.0, repetitions=3),
        )
        seed_control = seed_stability(
            data, base, k_range,
            PerturbationSpec(kind="seed_variation", seed_range=(0, 0)),
        )
        for control in (dim_control, row_control, seed_control):
            assert all(m == 1.0 for m in control.mean_ami)
            assert (control.per_rep == 1.0).all()

        elapsed = time.time() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_05_multi_level_stability(nested_blobs):
    with criterion(5, "K=1->2 stability exactly 1.0; nested sweep splits cleanly (>=0.9)"):
        data, _ = nested_blobs
        result = run_sweep(data, GmmConfig(k=1), 1, 4)
        # Forced by the definition: a sole previous cluster is every child's parent.
        assert result.comparison_at(2).stability.average == 1.0
        for comparison in result.consecutive:
            assert comparison.stability.average >= 0.9, (
                f"K={comparison.k_current}: {comparison.stability.average}"
            )
        for k in range(1, 4):
            t = transition_counts(result, k)
            col_sums = t.counts.sum(axis=0)
            for j in np.flatnonzero(col_sums):
                dominant = t.counts[:, j].max() / col_sums[j]
                assert dominant >= 0.9, f"child {j} at K={k + 1}: {dominant}"


def test_criterion_06_sankey_integrity(nested_blobs, tmp_path):
    with criterion(6, "sankey: conservation at t=0, monotone filtering, lossless JSON, offline HTML"):
        data, _ = nested_blobs
        result = run_sweep(data, GmmConfig(k=1), 1, 4)

        g0 = build_graph(result, threshold=0)
        for node in g0.nodes:
            if node.k > g0.k_min:
                inflow = sum(e.flow for e in g0.edges if e.target == node.id)
                assert inflow == node.size
            if node.k < g0.k_max:
                outflow = sum(e.flow for e in g0.edges if e.source == node.id)
                assert outflow == node.size

        previous = None
        for t in range(0, data.n + 2, 50):
            edges = {(e.source, e.target) for e in build_graph(result, threshold=t).edges}
            if previous is not None:
                assert edges <= previous
            previous = edges

        g = build_graph(result, threshold=120)
        export_json(g, tmp_path / "graph.json")
        assert load_graph(tmp_path / "graph.json") == g

        export_html(g, tmp_path / "graph.html")
        doc = (tmp_path / "graph.html").read_text().lower()
        for marker in ("http://", "https://", "src=", "href=", "url(", "@import"):
            assert marker not in doc


def test_criterion_07_sweep_determinism(tmp_path):
    with criterion(7, "two cmd_sweep runs produce byte-identical partitions and metrics"):
        data, _ = make_blobs(spread_centers(3, 16, 16.0), n_per=80, sigma=1.0, seed=77)
        save_embeddings(data, tmp_path / "emb.csv", "csv")
        args = ["sweep", "--input", str(tmp_path / "emb.csv"), "--k-min", "1", "--k-max", "6"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for k in range(1, 7):
            assert (tmp_path / "a" / f"partition_{k}.csv").read_bytes() == (
                tmp_path / "b" / f"partition_{k}.csv"
            ).read_bytes()
        assert (tmp_path / "a" / "consecutive_metrics.json").read_bytes() == (
            tmp_path / "b" / "consecutive_metrics.json"
        ).read_bytes()


def test_criterion_08_metric_bounds_batch():
    with criterion(8, "1000 random pairs (n=200): AMI bounds, ratio bounds, bit-exact symmetry"):
        rng = np.random.default_rng(808)
        n = 200
        for _ in range(1000):
            ku = int(rng.integers(1, 9))
            kv = int(rng.integers(1, 9))
            a = make_partition(rng.integers(0, ku, n), k=ku)
            b = make_partition(rng.integers(0, kv, n), k=kv)
            forward = ami(a, b)
            assert forward.ami <= 1.0 + 1e-9
            assert forward.ami == ami(b, a).ami
            breakdown = proportional_stability(a, b)
            for c in breakdown.per_cluster:
                assert 0.0 < c.ratio <= 1.0


def test_criterion_09_scale_check():
    with criterion(9, "sweep K=1..20 on n=5000, d=128 finishes in < 15 minutes"):
        data, _ = make_blobs(spread_centers(8, 128, 14.0), n_per=625, sigma=1.0, seed=11)
        start = time.time()
        result = run_sweep(data, GmmConfig(k=1), 1, 20)
        elapsed = time.time() - start
        assert len(result.partitions) == 20
        assert len(result.consecutive) == 19
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_10_naming_pipeline_offline(nested_blobs):
    with criterion(10, "offline naming: deterministic, unique per resolution, golden prompt, suffixes"):
        data, truth = nested_blobs
        result = run_sweep(data, GmmConfig(k=1), 1, 4)
        themes = ["maga patriot usa", "vegan yoga peace", "crypto trader moon", "football fan club"]
        texts = [f"loving {themes[truth[i]]} daily" for i in range(data.n)]

        all_assignments = []
        for k in range(1, 5):
            partition = result.partitions[k]
            sizes = partition.cluster_sizes()
            profiles = [
                profile_cluster(texts, partition, k, c, seed=0)
                for c in range(k) if sizes[c] > 0
            ]
            first = name_clusters(profiles, FallbackBackend())
            second = name_clusters(profiles, FallbackBackend())
            assert first == second  # deterministic
            unique_names = [a.unique_name for a in first]
            assert len(set(unique_names)) == len(unique_names)  # unique per resolution
            all_assignments.extend(first)
        assert len(all_assignments) == sum(
            result.partitions[k].occupied_clusters() for k in range(1, 5)
        )

        golden_profile = ClusterProfile(
            k=2, cluster=1,
            top_words=(("maga", 4), ("patriot", 3), ("usa", 2)),
            sample_texts=("Proud American.", "Patriot and father."),
        )
        golden = (
            "Create a name for the following cluster of Twitter bios. "
            "It has the following top 10 most frequent words:\n"
            "maga, patriot, usa\n"
            "And this is a random sample of Twitter bios from the cluster:\n"
            "1. Proud American.\n"
            "2. Patriot and father."
        )
        assert build_prompt(golden_profile) == golden

        class DuplicatingStub:
            kind = "external"

            def generate(self, profile, prompt):
                return "Patriots"

        profiles = [
            ClusterProfile(k=3, cluster=c, top_words=(("w", 1),), sample_texts=("t",))
            for c in range(3)
        ]
        stubbed = name_clusters(profiles, DuplicatingStub())
        assert [a.unique_name for a in stubbed] == ["Patriots", "Patriots 2", "Patriots 3"]
