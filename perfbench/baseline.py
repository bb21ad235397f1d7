"""Run every workload over a range of seeds and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --traced-seeds 1-3

Each run is `perfbench/run.py` as the benchmark command runs it. For every
end-to-end metric the script reports each set's median and quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json, and
whether a later set's median is worse than the first set's by more than the
bound. Repeated runs of one seed must give the same output digest. Traced
runs give the per-layer medians and the tracing overhead. The summary is
written to perfbench/BASELINE.json (or --out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return {"result": result, "record": record}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "clustersweep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--traced-seeds", default="1-3")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    doc = {"src_digest": src_digest(), "run_seconds": args.seconds, "seeds": args.seeds,
           "sets": args.sets, "workloads": {}, "digests": {}, "input_digests": {}}
    ok = True
    for wl in args.workloads:
        sets, digests, inputs = [], {}, {}
        for set_no in range(args.sets):
            runs = []
            for seed in seed_range(args.seeds):
                out = run_once(wl, seed, 0, args.seconds)
                rec = out["record"]
                doc.setdefault("environment", rec["environment"])
                ok &= out["result"]["correct"]
                digests.setdefault(str(seed), set()).add(rec["output_digest"])
                inputs[str(seed)] = rec["input_digests"]
                runs.append({**rec["end_to_end"], "failed_frac": rec["failed"] / rec["attempted"],
                             "loadavg_start": rec["environment"]["loadavg_start"][0]})
                print(f"{wl} set {set_no + 1} seed {seed}: protocol_s "
                      f"{rec['end_to_end']['protocol_s']:.3f} digest {rec['output_digest']}",
                      flush=True)
            sets.append({name: summary([r[name] for r in runs]) for name in runs[0]})
        agree = {seed: len(d) == 1 for seed, d in digests.items()}
        ok &= all(agree.values())
        doc["digests"][wl] = {seed: sorted(d)[0] for seed, d in digests.items()}
        doc["input_digests"][wl] = inputs

        traced = [run_once(wl, seed, 1, args.seconds)["record"]
                  for seed in seed_range(args.traced_seeds)]
        per_layer = {name: summary([r["per_layer"][name] for r in traced])
                     for name in traced[0]["per_layer"]} if traced else {}
        doc["workloads"][wl] = {"end_to_end": sets, "per_layer": per_layer,
                                "digests_repeat": all(agree.values())}

        print(f"\n{wl}: metric, per-set median [q1, q3], spread vs bound")
        for name in sets[0]:
            cells = "  ".join(f"{s[name]['median']:.4f} [{s[name]['q1']:.4f}, {s[name]['q3']:.4f}]"
                              for s in sets)
            verdict = ""
            if name in bounds:
                b = bounds[name]
                spreads = [s[name]["spread"] for s in sets]
                drift = [s[name]["median"] / sets[0][name]["median"] - 1 for s in sets[1:]]
                within = all(d <= b for d in drift) and all(x <= b for x in spreads)
                ok &= within
                verdict = (f"spread {max(spreads):.3f} (bound {b}, third {b / 3:.3f}) "
                           f"drift {max(drift, default=0.0):+.3f} {'ok' if within else 'OUT'}")
            print(f"  {name:<14} {cells}  {verdict}")
        if per_layer:
            ov = per_layer["trace.overhead_frac"]
            print(f"  tracing overhead: {ov['median']:+.3f} of protocol_s "
                  f"[{ov['q1']:+.3f}, {ov['q3']:+.3f}] over {ov['n']} traced runs")
        print(f"  output digests repeat for every seed: {all(agree.values())}\n", flush=True)

    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}; {'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
