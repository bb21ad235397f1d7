"""Self-test of the benchmark in smoke mode (tiny inputs, about a minute in all).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = DECLARED["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return

    spans_file = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-smoke.spans.jsonl"
    runs = defaultdict(list)
    for line in spans_file.read_text(encoding="utf-8").splitlines():
        span = json.loads(line)
        runs[span["run"]].append(span)
    assert runs
    for spans in runs.values():
        assert tracing.nesting_violations(spans) == []
        assert min(tracing.self_times(spans).values()) >= 0
        names = {s["name"] for s in spans}
        assert {"protocol", "cli.main", "pipeline.read_archive", "gmm.fit",
                "stability.run_protocol", "data.load_embeddings"} <= names


def test_wrong_output_counts_as_failure(tmp_path):
    wl = W.WORKLOADS["blobs-128"]
    inputs = W.generate(wl, SEED, tmp_path / "inputs", smoke=True)
    archive = tmp_path / "archive"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for stage in W.STAGES:
        subprocess.run([sys.executable, "-m", "clustersweep.cli",
                        *W.stage_args(wl, stage, inputs, archive)],
                       env=env, check=True, capture_output=True, timeout=120)
    res = {"archive": archive, "rc": [[stage, 0] for stage in W.STAGES]}
    checker = checks.Checker(inputs, wl.truth_floor)
    checker.check_iteration(res)
    assert checker.failed == 0, checker.failures

    names = archive / "names.csv"
    names.write_text("".join(names.read_text().splitlines(keepends=True)[:-1]))
    checker.check_iteration(res)
    assert checker.failed == 1 and "names.csv" in checker.failures[0]

    # A partition that still covers every id and cluster, but ignores the data.
    k = inputs.k_true
    part = archive / f"partition_{k}.csv"
    part.write_text("id,label\n" + "".join(f"{item},{i % k}\n"
                                           for i, item in enumerate(inputs.ids)))
    checker = checks.Checker(inputs, wl.truth_floor)
    checker.check_iteration(res)
    assert any("AMI" in f for f in checker.failures), checker.failures


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("blobs-128", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_adjusted_mutual_info_conventions():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert checks.adjusted_mutual_info(a, np.array([2, 2, 0, 0, 1, 1])) == 1.0
    assert checks.adjusted_mutual_info(a, np.array([0, 1, 0, 1, 0, 1])) < 1e-12
