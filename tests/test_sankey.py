import json
import re

import numpy as np
import pytest

import clustersweep.metrics
import clustersweep.sankey
from clustersweep.data import build_contingency
from clustersweep.errors import ClusterSweepError
from clustersweep.gmm import GmmConfig
from clustersweep.metrics import proportional_stability
from clustersweep.pipeline import run_sweep
from clustersweep.sankey import (
    RAMP_DARK,
    RAMP_LIGHT,
    build_graph,
    export_html,
    export_json,
    stability_color,
)

from conftest import make_blobs, spread_centers


@pytest.fixture(scope="module")
def blob_sweep():
    data, _ = make_blobs(spread_centers(4, 16, 18.0), n_per=100, sigma=1.0, seed=51)
    return data, run_sweep(data, GmmConfig(k=1), 1, 4)


def incoming(graph, node):
    return [e for e in graph["edges"] if e["target"] == node["id"]]


def outgoing(graph, node):
    return [e for e in graph["edges"] if e["source"] == node["id"]]


def source_k(graph, edge):
    return next(n["k"] for n in graph["nodes"] if n["id"] == edge["source"])


class TestBuildGraph:
    def test_threshold_zero_conserves_flow(self, blob_sweep):
        data, result = blob_sweep
        g = build_graph(result, threshold=0)
        for node in g["nodes"]:
            if node["k"] > result.k_min:
                assert sum(e["flow"] for e in incoming(g, node)) == node["size"]
            if node["k"] < result.k_max:
                assert sum(e["flow"] for e in outgoing(g, node)) == node["size"]
        assert all(d["items"] == 0 for d in g["dropped_flow"])

    def test_one_table_per_transition_gives_each_node_its_parentage(
        self, blob_sweep, monkeypatch
    ):
        _, result = blob_sweep
        calls = []
        real = clustersweep.sankey.build_contingency
        for module in (clustersweep.sankey, clustersweep.metrics):
            monkeypatch.setattr(module, "build_contingency",
                                lambda a, b: calls.append(1) or real(a, b))
        g = build_graph(result, threshold=0)
        assert len(calls) == result.k_max - result.k_min
        for node in g["nodes"]:
            if node["k"] > result.k_min:
                ratios = proportional_stability(result.partitions[node["k"]],
                                                result.partitions[node["k"] - 1]).per_cluster
                assert node["stability"] == {c.cluster: c.ratio for c in ratios}[node["cluster"]]

    def test_threshold_above_n_drops_everything(self, blob_sweep):
        data, result = blob_sweep
        g = build_graph(result, threshold=data.n + 1)
        assert g["edges"] == []
        assert all(d["items"] == data.n for d in g["dropped_flow"])

    def test_blob_sweep_is_a_clean_split_tree(self, blob_sweep):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        for k in range(1, 4):
            transition_edges = [e for e in g["edges"] if source_k(g, e) == k]
            # k clusters pass through, one splits in two: k+1 edges.
            assert len(transition_edges) == k + 1

    def test_edges_are_the_nonzero_cells_at_or_above_threshold_in_table_order(self, blob_sweep):
        _, result = blob_sweep
        for threshold in (0, 30):
            expected = []
            for k in range(result.k_min, result.k_max):
                counts = build_contingency(result.partitions[k], result.partitions[k + 1]).counts
                for i in range(counts.shape[0]):
                    for j in range(counts.shape[1]):
                        if counts[i, j] and counts[i, j] >= threshold:
                            expected.append({"source": f"K{k}-C{i}", "target": f"K{k + 1}-C{j}",
                                             "flow": int(counts[i, j])})
            assert build_graph(result, threshold=threshold)["edges"] == expected

    def test_conservation_with_dropped_accounting(self, blob_sweep):
        data, result = blob_sweep
        g = build_graph(result, threshold=30)
        dropped = {d["k"]: d["items"] for d in g["dropped_flow"]}
        for k in range(result.k_min, result.k_max):
            retained = sum(e["flow"] for e in g["edges"] if source_k(g, e) == k)
            assert retained + dropped[k] == data.n

    def test_monotone_filtering(self, blob_sweep):
        _, result = blob_sweep
        previous = None
        for threshold in (0, 10, 50, 120, 400):
            edges = {
                (e["source"], e["target"]): e["flow"]
                for e in build_graph(result, threshold=threshold)["edges"]
            }
            if previous is not None:
                assert set(edges) <= set(previous)
            previous = edges

    def test_node_stability_matches_metrics(self, blob_sweep):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        for node in g["nodes"]:
            if node["k"] == result.k_min:
                assert node["stability"] == 1.0
            else:
                comparison = result.consecutive[node["k"] - result.k_min - 1]
                per_cluster = {cs.cluster: cs.ratio for cs in comparison.stability.per_cluster}
                assert node["stability"] == per_cluster[node["cluster"]]

    def test_node_count_and_order(self, blob_sweep):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        expected = sum(result.partitions[k].occupied_clusters() for k in range(1, 5))
        assert len(g["nodes"]) == expected
        for k in range(result.k_min, result.k_max + 1):
            sizes = [n["size"] for n in g["nodes"] if n["k"] == k]
            assert sizes == sorted(sizes, reverse=True)

    def test_default_and_custom_labels(self, blob_sweep):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        assert {n["label"] for n in g["nodes"] if n["k"] == 1} == {"K1-C0"}
        named = build_graph(result, names={(1, 0): "Everything"}, threshold=0)
        assert {n["label"] for n in named["nodes"] if n["k"] == 1} == {"Everything"}

    def test_needs_two_resolutions(self):
        data, _ = make_blobs([[0.0, 0.0]], n_per=20, sigma=1.0, seed=5)
        result = run_sweep(data, GmmConfig(k=1), 1, 1)
        with pytest.raises(ClusterSweepError, match="needs at least two resolutions"):
            build_graph(result, threshold=0)


class TestJsonExport:
    def test_round_trip(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        g = build_graph(result, threshold=25)
        export_json(g, tmp_path / "g.json")
        assert json.loads((tmp_path / "g.json").read_text()) == g

    def test_schema(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        export_json(g, tmp_path / "g.json")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["version"] == 1
        assert doc["threshold"] == 0
        assert set(doc["nodes"][0]) == {"id", "k", "cluster", "label", "size", "stability"}
        assert set(doc["edges"][0]) == {"source", "target", "flow"}
        assert set(doc["dropped_flow"][0]) == {"k", "items"}
        assert doc["nodes"][0]["id"] == f"K{doc['nodes'][0]['k']}-C{doc['nodes'][0]['cluster']}"

    def test_empty_edges_still_valid(self, blob_sweep, tmp_path):
        data, result = blob_sweep
        g = build_graph(result, threshold=data.n + 1)
        export_json(g, tmp_path / "g.json")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["edges"] == []
        assert doc == g


class TestColors:
    def test_endpoints(self):
        assert stability_color(1.0) == "#{:02x}{:02x}{:02x}".format(*RAMP_LIGHT)
        assert stability_color(0.0) == "#{:02x}{:02x}{:02x}".format(*RAMP_DARK)

    def test_deterministic(self):
        assert stability_color(0.37) == stability_color(0.37)

    def test_monotone_lightness(self):
        def lum(color):
            return sum(int(color[i : i + 2], 16) for i in (1, 3, 5))

        values = [lum(stability_color(t)) for t in np.linspace(0, 1, 11)]
        assert values == sorted(values)


class TestHtmlExport:
    def test_self_contained(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        export_html(build_graph(result, threshold=0), tmp_path / "g.html")
        doc = (tmp_path / "g.html").read_text().lower()
        for marker in ("http://", "https://", "src=", "href=", "url(", "@import"):
            assert marker not in doc

    def test_embeds_graph_json(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        export_html(g, tmp_path / "g.html")
        doc = (tmp_path / "g.html").read_text()
        payload = re.search(
            r'<script type="application/json" id="graph-data">\s*(.*?)\s*</script>',
            doc,
            re.S,
        ).group(1)
        embedded = json.loads(payload)
        assert embedded == g
        assert len(embedded["nodes"]) == len(g["nodes"])
        assert len(embedded["edges"]) == len(g["edges"])

    def test_labels_cannot_open_or_close_the_data_block(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        labels = {(1, 0): "</script>", (2, 0): "fans <!--<script>", (2, 1): "<3"}
        g = build_graph(result, names=labels, threshold=0)
        export_html(g, tmp_path / "g.html")
        doc = (tmp_path / "g.html").read_text()
        tag = '<script type="application/json" id="graph-data">'
        payload = doc.split(tag, 1)[1].split("</script>", 1)[0]
        assert "<" not in payload
        assert json.loads(payload) == g
        assert {n["label"] for n in g["nodes"]} >= set(labels.values())

    def test_full_stability_nodes_use_light_endpoint(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        export_html(g, tmp_path / "g.html")
        doc = (tmp_path / "g.html").read_text()
        light = "#{:02x}{:02x}{:02x}".format(*RAMP_LIGHT)
        for node in g["nodes"]:
            if node["stability"] == 1.0:
                rect = re.search(rf'<rect[^>]*data-id="{node["id"]}"[^>]*>', doc)
                assert f'fill="{light}"' in rect.group(0)

    def test_ribbon_thickness_proportional_to_flow(self, blob_sweep, tmp_path):
        _, result = blob_sweep
        g = build_graph(result, threshold=0)
        export_html(g, tmp_path / "g.html")
        doc = (tmp_path / "g.html").read_text()
        pattern = re.compile(
            r'<path class="flow" d="M [\d.]+,([\d.]+) C [^"]* ([\d.]+),([\d.]+) '
            r'L \2,([\d.]+) [^"]*" [^>]*data-flow="(\d+)"'
        )
        ratios = []
        for m in pattern.finditer(doc):
            sy0, ty0, ty1, flow = float(m.group(1)), float(m.group(3)), float(m.group(4)), int(m.group(5))
            thickness = ty1 - ty0
            ratios.append((flow, thickness))
        assert len(ratios) == len(g["edges"])
        scale = max(t / f for f, t in ratios)
        for flow, thickness in ratios:
            assert abs(thickness - scale * flow) <= 1.0  # within one pixel
