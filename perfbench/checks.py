"""Output checks made after every protocol iteration.

Each check counts as one attempt; a stage that exits non-zero or an output
that breaks an invariant counts as one failure. The checks read the
program's output files and use the benchmark's own arithmetic, never the
program's, so a fast wrong answer shows as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import workloads as W


def read_partition(path: Path) -> tuple[list[str], np.ndarray]:
    ids, labels = [], []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "id,label":
            raise ValueError(f"{path.name}: bad header")
        for line in fh:
            item, label = line.rstrip("\n").rsplit(",", 1)
            ids.append(item)
            labels.append(int(label))
    return ids, np.asarray(labels, dtype=np.int64)


def _entropy(sizes: np.ndarray, n: int) -> float:
    p = sizes[sizes > 0] / n
    return float(-(p * np.log(p)).sum())


def adjusted_mutual_info(a: np.ndarray, b: np.ndarray) -> float:
    """AMI with the arithmetic-mean normalizer and the exact hypergeometric EMI.

    Identical partitions (up to relabeling) give exactly 1.0, the README's
    convention.
    """
    n = a.size
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    if (table > 0).sum() == rows.size == cols.size:
        return 1.0
    h_a, h_b = _entropy(rows, n), _entropy(cols, n)
    nz = table[table > 0]
    ri, ci = np.nonzero(table)
    mi = float((nz / n * np.log(n * nz / (rows[ri] * cols[ci]))).sum())
    lf = gammaln(np.arange(n + 2, dtype=np.float64))  # lf[x + 1] = log(x!)
    emi = 0.0
    for x in rows:
        for y in cols:
            nij = np.arange(max(1, x + y - n), min(x, y) + 1)
            if nij.size == 0:
                continue
            log_p = (lf[x + 1] + lf[y + 1] + lf[n - x + 1] + lf[n - y + 1] - lf[n + 1]
                     - lf[nij + 1] - lf[x - nij + 1] - lf[y - nij + 1] - lf[n - x - y + nij + 1])
            emi += float((nij / n * np.log(n * nij / (x * y)) * np.exp(log_p)).sum())
    return (mi - emi) / ((h_a + h_b) / 2.0 - emi)


class Checker:
    """Counts attempted and failed checks over a run's iterations."""

    def __init__(self, inputs: W.Inputs, truth_floor: float):
        self.inputs = inputs
        self.truth_floor = truth_floor
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.truth_ami: float | None = None
        self.digests: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.expect(False, message)

    def check_iteration(self, res: dict) -> None:
        archive: Path = res["archive"]
        for stage, rc in res["rc"]:
            self.expect(rc == 0, f"stage {stage} exited with {rc}")
        try:
            occupied = self._partitions(archive)
            self._stability(archive)
            self._sankey(archive, occupied)
            self._names(archive, occupied)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        try:
            self.digests.append(
                W.file_digest(*(archive / f"partition_{k}.csv" for k in self._ks())))
        except OSError:
            self.digests.append("missing")

    def check_digests(self) -> None:
        self.expect(self.digests_agree,
                    f"repeated iterations disagree on the partitions: {self.digests}")

    @property
    def digests_agree(self) -> bool:
        return len(set(self.digests)) == 1

    @property
    def digest(self) -> str:
        return self.digests[0] if self.digests else "none"

    def _ks(self) -> range:
        return range(1, self.inputs.k_max + 1)

    def _partitions(self, archive: Path) -> dict[int, set[int]]:
        occupied = {}
        id_set = set(self.inputs.ids)
        for k in self._ks():
            ids, labels = read_partition(archive / f"partition_{k}.csv")
            ok = (len(ids) == self.inputs.n and set(ids) == id_set
                  and labels.min() >= 0 and labels.max() < k)
            self.expect(ok, f"partition_{k}.csv does not cover the input ids with labels < {k}")
            occupied[k] = set(np.unique(labels).tolist())
            if k == self.inputs.k_true:
                order = {item: i for i, item in enumerate(self.inputs.ids)}
                truth = self.inputs.truth[[order[i] for i in ids]]
                value = adjusted_mutual_info(labels, truth)
                self.expect(value >= self.truth_floor,
                            f"partition_{k}.csv: AMI {value:.4f} against the generating "
                            f"labels is below {self.truth_floor}")
                if self.truth_ami is None:
                    self.truth_ami = value
        return occupied

    def _stability(self, archive: Path) -> None:
        ks = list(self._ks())
        reps = {"dimensions": W.STABILITY_REPS, "rows": W.STABILITY_REPS, "seeds": W.SEED_REPS}
        for token, n_reps in reps.items():
            doc = json.loads((archive / f"stability_{token}.json").read_text(encoding="utf-8"))
            per_rep = doc["per_rep"]
            ok = (doc["k_values"] == ks and len(per_rep) == n_reps
                  and all(len(row) == len(ks) and row[0] == 1.0 for row in per_rep)
                  and all(math.isfinite(x) and x <= 1.0 + 1e-9 for row in per_rep for x in row))
            self.expect(ok, f"stability_{token}.json: malformed curve")
            for suffix in (".csv", "_reps.csv"):
                self.expect((archive / f"stability_{token}{suffix}").is_file(),
                            f"stability_{token}{suffix} missing")
        # Repetition 0 refits with the base seed on the unperturbed data.
        seeds = json.loads((archive / "stability_seeds.json").read_text(encoding="utf-8"))
        self.expect(all(x == 1.0 for x in seeds["per_rep"][0]),
                    f"self-seed control is not exactly 1.0: {seeds['per_rep'][0]}")
        combined = (archive / "stability_combined.csv").read_text(encoding="utf-8")
        self.expect(len(combined.splitlines()) == len(ks) + 1, "stability_combined.csv rows")

    def _sankey(self, archive: Path, occupied: dict[int, set[int]]) -> None:
        graph = json.loads((archive / "graph.json").read_text(encoding="utf-8"))
        n = self.inputs.n
        node_k = {}
        sizes: dict[int, int] = {}
        clusters: dict[int, set[int]] = {}
        for node in graph["nodes"]:
            node_k[node["id"]] = node["k"]
            sizes[node["k"]] = sizes.get(node["k"], 0) + node["size"]
            clusters.setdefault(node["k"], set()).add(node["cluster"])
        self.expect(clusters == occupied, "graph nodes differ from the occupied clusters")
        self.expect(all(sizes[k] == n for k in occupied), "graph node sizes do not sum to n")
        flow = {k: 0 for k in list(occupied)[:-1]}
        for edge in graph["edges"]:
            flow[node_k[edge["source"]]] += edge["flow"]
        dropped = {d["k"]: d["items"] for d in graph["dropped_flow"]}
        conserved = all(flow[k] + dropped.get(k, -1) == n for k in flow)
        self.expect(conserved, f"sankey flow not conserved: edges {flow}, dropped {dropped}")
        html = (archive / "graph.html").read_text(encoding="utf-8")
        self.expect('id="graph-data"' in html and "<svg" in html, "graph.html incomplete")

    def _names(self, archive: Path, occupied: dict[int, set[int]]) -> None:
        with open(archive / "names.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        self.expect(rows[0] == ["k", "cluster", "raw_name", "unique_name", "backend"],
                    "names.csv header")
        rows = rows[1:]
        pairs = [(int(r[0]), int(r[1])) for r in rows]
        expected = {(k, c) for k, cs in occupied.items() for c in cs}
        self.expect(len(pairs) == len(expected) and set(pairs) == expected,
                    f"names.csv has {len(pairs)} rows for {len(expected)} occupied clusters")
        unique = {(r[0], r[3]) for r in rows}
        self.expect(len(unique) == len(rows), "duplicate unique_name within a resolution")
        self.expect(all(r[4] == "fallback" and r[3] for r in rows), "names.csv backend or name")
