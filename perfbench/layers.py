"""Per-layer metrics from the spans of traced iterations, plus gmm kernel figures.

A layer is a module of src/clustersweep; a span's layer is the first part of
its name. Times are summed over the spans of one protocol iteration, then
the run reports the median over its traced iterations.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as W

# Notes printed beside a per-layer metric; names and units are declared in
# BENCHMARK.json. "computed" marks figures derived from array shapes, not
# measured.
LABELS = {
    "gmm.fits": "sample count of the fit_ms percentiles",
    "gmm.init_s": "fit entry to first iteration_hook: seeding, Lloyd, first M- and E-step",
    "gmm.e_step_ms": "public e_step at the workload's n x d, K=20",
    "gmm.m_step_ms": "public m_step at the workload's n x d, K=20",
    "gmm.e_step_gflop": "computed",
    "gmm.m_step_gflop": "computed",
    "gmm.em_iter_gflop": "computed",
    "gmm.e_step_mb": "computed bytes moved, no cache reuse",
    "gmm.m_step_mb": "computed bytes moved, no cache reuse",
    "gmm.e_step_gflops": "computed flops over measured time",
    "stability.self_s": "not covered by fit, AMI, subset or intersect spans",
    "stability.busy_ratio": "summed fit time over stage wall time",
    "stage.startup_s": "stage wall time outside cli.main, summed over stages",
    "trace.overhead_s": "median of traced minus preceding untraced protocol_s",
    "trace.overhead_frac": "median of that difference over the untraced protocol_s",
}

LAYERS = ("data", "gmm", "metrics", "pipeline", "stability", "sankey", "naming")
KERNEL_K = 20


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(res: dict, inputs: W.Inputs) -> dict[str, float]:
    """Per-layer figures of one traced iteration."""
    spans = res["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = tracing.self_times(spans)

    def dur(s):
        return (s["end"] - s["start"]) / 1e9

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        # Outermost spans only, so ami -> ami_from_table is not counted twice.
        return sum(dur(s) for s in named(*names)
                   if by_id.get(s["parent"], {}).get("name") not in names)

    def self_of(pred):
        return sum(selfs[s["id"]] for s in spans if pred(s)) / 1e9

    m: dict[str, float] = {}
    loads = named("data.load_embeddings")
    m["data.load_embeddings_s"] = total("data.load_embeddings")
    emb_mb = inputs.files["embeddings"].stat().st_size / 1e6
    m["data.parse_mb_per_s"] = _ratio(emb_mb * len(loads), m["data.load_embeddings_s"])
    m["data.load_partition_s"] = total("data.load_partition")
    m["data.save_partition_s"] = total("data.save_partition")
    m["data.contingency_s"] = total("data.build_contingency")
    m["data.contingency_calls"] = len(named("data.build_contingency"))
    m["data.subset_s"] = total("data.EmbeddingMatrix.subset_columns",
                               "data.EmbeddingMatrix.subset_rows")
    m["data.intersect_s"] = total("data.intersect_partitions")

    fits = [s for s in named("gmm.fit") if "n_iter" in s.get("attrs", {})]  # completed
    fit_ms = sorted(dur(s) * 1e3 for s in fits)
    m["gmm.fits"] = len(fits)
    m["gmm.fit_s"] = sum(fit_ms) / 1e3
    m["gmm.fit_ms.p50"] = float(np.percentile(fit_ms, 50)) if fits else 0.0
    m["gmm.fit_ms.p90"] = float(np.percentile(fit_ms, 90)) if fits else 0.0
    m["gmm.init_s"] = sum((s["attrs"]["first_hook"] - s["start"]) / 1e9 for s in fits)
    m["gmm.em_s"] = m["gmm.fit_s"] - m["gmm.init_s"]
    m["gmm.em_iters"] = sum(s["attrs"]["n_iter"] for s in fits)
    m["gmm.em_iter_ms"] = _ratio(m["gmm.em_s"] * 1e3, m["gmm.em_iters"])
    m["gmm.nonconverged"] = sum(not s["attrs"]["converged"] for s in fits)
    m["gmm.save_model_s"] = total("gmm.save_model")

    m["metrics.ami_calls"] = len(named("metrics.ami_from_table"))
    m["metrics.ami_s"] = total("metrics.ami", "metrics.ami_from_table")
    m["metrics.emi_s"] = total("metrics.expected_mutual_information")

    m["pipeline.run_sweep_s"] = total("pipeline.run_sweep")
    m["pipeline.write_archive_s"] = total("pipeline.write_archive")
    m["pipeline.read_archive_s"] = total("pipeline.read_archive")
    archive = res["archive"]
    written = [*archive.glob("partition_*.csv"), *archive.glob("model_*.json"),
               archive / "config.json", archive / "consecutive_metrics.json"]
    m["pipeline.archive_mb"] = sum(p.stat().st_size for p in written if p.exists()) / 1e6

    m["stability.dimension_subsample_s"] = total("stability.dimension_stability")
    m["stability.row_subsample_s"] = total("stability.row_stability")
    m["stability.seed_variation_s"] = total("stability.seed_stability")
    stab_wall = res["stages"].get("stability", 0.0)
    stab_fits = sum(dur(s) for s in fits if s["id"].startswith("stability."))
    m["stability.busy_ratio"] = _ratio(stab_fits, stab_wall)

    m["sankey.build_graph_s"] = total("sankey.build_graph")
    m["sankey.export_json_s"] = total("sankey.export_json")
    m["sankey.export_html_s"] = total("sankey.export_html")
    html = archive / "graph.html"
    m["sankey.html_kb"] = html.stat().st_size / 1024 if html.exists() else 0.0

    m["naming.profile_s"] = total("naming.profile_cluster")
    m["naming.profile_calls"] = len(named("naming.profile_cluster"))
    m["naming.texts_per_s"] = _ratio(res["calls"].get("naming.tokenize", 0),
                                     m["naming.profile_s"])
    m["naming.name_clusters_s"] = total("naming.name_clusters")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(lambda s, p=layer + ".": s["name"].startswith(p))
    for stage in ("sweep", "stability", "sankey", "name"):
        m[f"cli.self_s.{stage}"] = self_of(
            lambda s, p=stage + ".": s["name"].startswith("cli.") and s["id"].startswith(p))
    m["stage.startup_s"] = self_of(lambda s: s["name"].startswith("stage."))
    m["trace.spans"] = len(spans)
    return m


def kernel_counts(n: int, d: int, k: int) -> dict[str, float]:
    """Flops and bytes of gmm's public e_step and m_step, counted from the code.

    Every numpy operation is taken to read its operands and write its result
    once (8-byte floats, no cache reuse); the two GEMMs per step dominate.
    """
    nd, nk, kd = n * d, n * k, k * d
    e_flop = 4 * nd * k + nd + 13 * nk + 3 * n + 7 * kd
    # X*X (3nd), two GEMMs (2nd + 2kd + 2nk), about 25 n x k passes for the
    # quadratic form, log-sum-exp, normalization and exp.
    e_bytes = 8 * (5 * nd + 27 * nk + 10 * kd + 4 * n)
    m_flop = 4 * nd * k + nd + nk + 6 * kd
    # mass (nk), resp.T @ X and resp.T @ (X*X) (2nk + 2nd + 2kd), X*X (3nd).
    m_bytes = 8 * (3 * nk + 5 * nd + 14 * kd)
    return {
        "gmm.e_step_gflop": e_flop / 1e9,
        "gmm.m_step_gflop": m_flop / 1e9,
        "gmm.em_iter_gflop": (e_flop + m_flop) / 1e9,
        "gmm.e_step_mb": e_bytes / 1e6,
        "gmm.m_step_mb": m_bytes / 1e6,
    }


def kernel_timings(values: np.ndarray, repeats: int = 7) -> dict[str, float]:
    """Median wall time of the public e_step and m_step at K=20 on the workload's data."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from clustersweep import gmm
    from clustersweep.data import EmbeddingMatrix

    data = EmbeddingMatrix(tuple(str(i) for i in range(values.shape[0])), values)
    rng = np.random.default_rng(0)
    resp = rng.dirichlet(np.ones(KERNEL_K), size=data.n)
    model = gmm.m_step(resp, data, 1e-6)
    e_times, m_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        gmm.e_step(model, data)
        t1 = time.perf_counter()
        gmm.m_step(resp, data, 1e-6)
        t2 = time.perf_counter()
        e_times.append(t1 - t0)
        m_times.append(t2 - t1)
    return {"gmm.e_step_ms": statistics.median(e_times) * 1e3,
            "gmm.m_step_ms": statistics.median(m_times) * 1e3}


def summarize(iterations: list[dict], inputs: W.Inputs) -> dict[str, float]:
    """Median per-layer figures over traced iterations, kernel figures and overhead.

    Traced iterations alternate with untraced ones, starting untraced. The
    overhead is the median over pairs of a traced iteration and the untraced
    one just before it, so that slow drift of the machine's speed
    cancels within each pair.
    """
    traced = [r for r in iterations if r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    n, d = inputs.matrix.shape
    out.update(kernel_counts(n, d, KERNEL_K))
    out.update(kernel_timings(inputs.matrix))
    out["gmm.e_step_gflops"] = _ratio(out["gmm.e_step_gflop"], out["gmm.e_step_ms"] / 1e3)
    pairs = [(iterations[i - 1]["protocol_s"], r["protocol_s"])
             for i, r in enumerate(iterations) if r["traced"]]
    out["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    out["trace.overhead_frac"] = statistics.median((t - u) / u for u, t in pairs)
    return out
