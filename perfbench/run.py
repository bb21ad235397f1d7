"""Benchmark of the clustersweep protocol, driven through the CLI as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. Inputs are generated from the seed
and written before the clock starts; then the workload's CLI stages run in
order, as fresh processes, for protocol iterations filling about S seconds
(at least two, so repeated outputs can be compared). Every iteration's
outputs are checked.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
alternates untraced iterations with traced ones, in which each stage runs
under traced_cli.py, and reports the per-layer metrics plus the tracing
overhead. The last line of stdout is one JSON object: correct, attempted,
failed and metrics. --smoke shrinks every input to a few hundred items.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import layers
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# A run must end within 180 s: no iteration starts that would end after
# RUN_LIMIT_S, and any process still running at HARD_LIMIT_S is killed.
RUN_LIMIT_S = 150
HARD_LIMIT_S = 170
MIN_ITERATIONS = 2
# Cold starts measured before each untraced iteration, so that setup_s, their
# median, samples the machine over the whole run rather than one moment.
SETUP_PER_ITERATION = 2

# Metric names and units declared in BENCHMARK.json: the end-to-end ones
# (--trace 0) carry a bound, the per-layer ones (--trace 1) do not.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# Printed and recorded only: single stages are too noisy run to run to carry
# a bound (sankey and name are mostly interpreter start-up), and truth_ami
# is a quality figure fixed by the seed.
PRINTED_ONLY = {
    "sankey_s": "s",
    "name_s": "s",
    "sweep_s": "s",
    "stability_s": "s",
    "fits_per_s": "1/s",
    "truth_ami": "1",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd: list[str], env: dict, log: Path,
                deadline: float) -> tuple[int, float, float, int, int]:
    """Run to completion or until the monotonic ``deadline``.

    Returns (exit code, wall s, peak RSS MB, start ns, end ns).
    """
    with open(log, "wb") as out:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = time.monotonic_ns()
    return proc.returncode, (end - start) / 1e9, usage.ru_maxrss / 1024.0, start, end


def measure_setup(env: dict, work: Path, deadline: float) -> list[float]:
    """Cold start every stage pays: a fresh interpreter reaching `import clustersweep`."""
    times = []
    for i in range(SETUP_PER_ITERATION):
        rc, wall, *_ = run_process(
            [sys.executable, "-c", "import clustersweep"], env, work / f"setup{i}.log", deadline
        )
        if rc != 0:
            raise RuntimeError(f"`import clustersweep` failed; see {work / f'setup{i}.log'}")
        times.append(wall)
    return times


def run_iteration(wl, inputs, work: Path, it: int, traced: bool, seed: int, env: dict,
                  deadline: float) -> dict:
    """One pass of the workload's stages; returns stage times and, if traced, spans."""
    archive = work / f"archive{it}"
    run_id = f"{wl.name}-s{seed}-i{it}"
    result = {"traced": traced, "archive": archive, "stages": {}, "rss_mb": {}, "rc": [],
              "spans": [], "calls": {}}
    first = None
    for stage in W.STAGES:
        args = W.stage_args(wl, stage, inputs, archive)
        if traced:
            spans_file = work / f"spans-{it}-{stage}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), run_id, stage,
                   *args]
        else:
            cmd = [sys.executable, "-m", "clustersweep.cli", *args]
        rc, wall, rss, start, end = run_process(cmd, env, work / f"{stage}-{it}.log", deadline)
        first = first if first is not None else start
        result["stages"][stage] = wall
        result["rss_mb"][stage] = rss
        result["rc"].append([stage, rc])
        if traced:
            result["spans"].append({"id": stage, "name": f"stage.{stage}", "parent": "protocol",
                                    "run": run_id, "thread": 0, "start": start, "end": end})
            if spans_file.exists():
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                result["spans"].extend(doc["spans"])
                for name, count in doc["calls"].items():
                    result["calls"][name] = result["calls"].get(name, 0) + count
    result["protocol_s"] = (end - first) / 1e9
    if traced:
        result["spans"].append({"id": "protocol", "name": "protocol", "parent": None,
                                "run": run_id, "thread": 0, "start": first, "end": end})
    return result


def median_stage(iterations: list[dict], stage: str) -> float:
    return statistics.median(r["stages"][stage] for r in iterations)


def end_to_end(inputs, untraced: list[dict], setup: list[float], checker) -> dict:
    m = {
        "protocol_s": statistics.median(r["protocol_s"] for r in untraced),
        "sankey_s": median_stage(untraced, "sankey"),
        "name_s": median_stage(untraced, "name"),
        "peak_rss_mb": max(max(r["rss_mb"].values()) for r in untraced),
        "sweep_s": median_stage(untraced, "sweep"),
        "stability_s": median_stage(untraced, "stability"),
    }
    if setup:
        m["setup_s"] = statistics.median(setup)
    m["fits_per_s"] = W.fits_per_iteration(inputs.k_max) / (m["sweep_s"] + m["stability_s"])
    m["truth_ami"] = checker.truth_ami if checker.truth_ami is not None else float("nan")
    return m


def load_baseline_digest(workload: str, seed: int) -> str | None:
    path = HERE / "BASELINE.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get("digests", {}).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    # Turn SIGTERM into SystemExit so that `finally` blocks kill and reap children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "clustersweep" / "cli.py").is_file():
        print(f"error: no clustersweep sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload]
    env_info = environment()
    env = child_env()
    tag = f"{wl.name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = W.generate(wl, args.seed, work / "inputs", args.smoke)
        setup: list[float] = []
        checker = checks.Checker(inputs, wl.truth_floor)

        iterations: list[dict] = []
        run_start = time.monotonic()
        deadline = run_start + args.seconds
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            t0 = time.monotonic()
            if not args.trace:
                setup += measure_setup(env, work, hard_deadline)
            res = run_iteration(wl, inputs, work, len(iterations), traced, args.seed, env,
                                hard_deadline)
            checker.check_iteration(res)
            if traced:
                res["layers"] = layers.layer_metrics(res, inputs)
                for bad in tracing.nesting_violations(res["spans"]):
                    checker.fail(f"span nesting: {bad}")
                negative = [i for i, t in tracing.self_times(res["spans"]).items() if t < 0]
                checker.expect(not negative, f"negative self times: {negative[:5]}")
            res.pop("archive")
            iterations.append(res)
            last = time.monotonic() - t0
            now = time.monotonic()
            # Stop where the next iteration would end more than half of one
            # past the deadline, so a run measures about --seconds on average.
            if (len(iterations) >= MIN_ITERATIONS and now + last / 2 > deadline) or (
                now + last > started + RUN_LIMIT_S
            ):
                break
        measured_s = time.monotonic() - run_start
        checker.check_digests()

        untraced = [r for r in iterations if not r["traced"]]
        traced_runs = [r for r in iterations if r["traced"]]
        e2e = end_to_end(inputs, untraced, setup, checker) if untraced else {}
        per_layer = layers.summarize(iterations, inputs) if traced_runs else {}
        spans = [s for r in traced_runs for s in r["spans"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    baseline = None if args.smoke else load_baseline_digest(wl.name, args.seed)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "measured_s": measured_s, "environment": env_info,
        "input_digests": inputs.digests, "output_digest": checker.digest,
        "baseline_digest": baseline, "setup_runs_s": setup,
        "iterations": [{k: v for k, v in r.items() if k not in ("spans", "calls")}
                       for r in iterations],
        "end_to_end": e2e, "per_layer": per_layer,
        "attempted": checker.attempted, "failed": checker.failed, "failures": checker.failures,
    }
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} (traced {len(traced_runs)}) measured={measured_s:.1f}s")
    print("environment " + json.dumps(env_info))
    print("inputs " + json.dumps(inputs.digests))
    agree = "repeats agree" if checker.digests_agree else "REPEATS DISAGREE"
    vs_base = ("" if baseline is None else
               " baseline=" + ("match" if baseline == checker.digest else "DIFFERS"))
    print(f"partition digest {checker.digest} ({agree}){vs_base}")
    units = {**END_TO_END, **PRINTED_ONLY}
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>14.6f} {units[name]}")
    if per_layer:
        for name, unit in PER_LAYER.items():
            note = f"  ({layers.LABELS[name]})" if name in layers.LABELS else ""
            print(f"  {name:<34} {per_layer[name]:>14.6f} {unit}{note}")
    failed_frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':<34} {failed_frac:>14.6f} 1  ({checker.failed} of {checker.attempted})")
    for failure in checker.failures:
        print(f"FAILED: {failure}")

    declared, source = (END_TO_END, e2e) if args.trace == 0 else (PER_LAYER, per_layer)
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
