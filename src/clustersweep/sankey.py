"""Multi-resolution transition graph: build, filter, and export as JSON or HTML.

Nodes are (resolution, cluster) pairs sized by membership and colored by their
proportional-stability ratio (dark = mixed parentage, light = single parent).
Edges carry item flows between consecutive resolutions; flows below the
threshold are removed but tallied per transition, so conservation stays
checkable. The HTML export is one self-contained document: an inline SVG laid
out here plus the graph JSON embedded alongside it, with no external fetches.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path

from .data import build_contingency
from .errors import InsufficientResolutions, ParseError
from .pipeline import SweepResult

# Stability color ramp endpoints (dark blue -> light yellow).
RAMP_DARK = (0, 32, 76)
RAMP_LIGHT = (255, 234, 70)

# Default canvas geometry for the HTML rendering.
CANVAS_W = 960
CANVAS_H = 600
MARGIN_TOP = 40
MARGIN_LEFT = 60
MARGIN_RIGHT = 130
NODE_W = 14
NODE_PAD = 8


def node_id(k: int, cluster: int) -> str:
    return f"K{k}-C{cluster}"


@dataclass(frozen=True)
class SankeyNode:
    k: int
    cluster: int
    label: str
    size: int
    stability: float

    @property
    def id(self) -> str:
        return node_id(self.k, self.cluster)


@dataclass(frozen=True)
class SankeyEdge:
    source_k: int
    source_cluster: int
    target_cluster: int
    flow: int

    @property
    def source(self) -> str:
        return node_id(self.source_k, self.source_cluster)

    @property
    def target(self) -> str:
        return node_id(self.source_k + 1, self.target_cluster)


@dataclass(frozen=True)
class SankeyGraph:
    k_min: int
    k_max: int
    nodes: tuple[SankeyNode, ...]
    edges: tuple[SankeyEdge, ...]
    filter_threshold: int
    dropped_flow: tuple[tuple[int, int], ...]  # (k, items dropped on k -> k+1)

    def node(self, k: int, cluster: int) -> SankeyNode:
        for n in self.nodes:
            if n.k == k and n.cluster == cluster:
                return n
        raise KeyError(node_id(k, cluster))

    def dropped_at(self, k: int) -> int:
        for kk, items in self.dropped_flow:
            if kk == k:
                return items
        raise KeyError(k)


def build_graph(
    result: SweepResult,
    names: dict[tuple[int, int], str] | None = None,
    threshold: int = 150,
) -> SankeyGraph:
    """Assemble the transition graph from a sweep, dropping sub-threshold flows.

    Node stability is the per-cluster proportional-stability ratio against
    resolution k-1 (1.0 at the first resolution). Labels fall back to
    "K{k}-C{cluster}" when no name map entry exists. Nodes are ordered by
    descending size then cluster index within each resolution.

    Raises:
        InsufficientResolutions: if the sweep spans fewer than 2 resolutions.
    """
    if result.k_max - result.k_min < 1:
        raise InsufficientResolutions("a transition graph needs at least two resolutions")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    names = names or {}

    nodes = []
    for k in range(result.k_min, result.k_max + 1):
        sizes = result.partitions[k].cluster_sizes()
        if k == result.k_min:
            ratios = {c: 1.0 for c in range(len(sizes))}
        else:
            ratios = {
                cs.cluster: cs.ratio
                for cs in result.comparison_at(k).stability.per_cluster
            }
        occupied = [c for c in range(len(sizes)) if sizes[c] > 0]
        for c in sorted(occupied, key=lambda c: (-int(sizes[c]), c)):
            nodes.append(
                SankeyNode(
                    k=k,
                    cluster=c,
                    label=names.get((k, c), node_id(k, c)),
                    size=int(sizes[c]),
                    stability=float(ratios[c]),
                )
            )

    edges = []
    dropped = []
    for k in range(result.k_min, result.k_max):
        table = build_contingency(result.partitions[k], result.partitions[k + 1])
        removed = 0
        for i in range(table.counts.shape[0]):
            for j in range(table.counts.shape[1]):
                flow = int(table.counts[i, j])
                if flow == 0:
                    continue
                if flow >= threshold:
                    edges.append(
                        SankeyEdge(source_k=k, source_cluster=i, target_cluster=j, flow=flow)
                    )
                else:
                    removed += flow
        dropped.append((k, removed))

    return SankeyGraph(
        k_min=result.k_min,
        k_max=result.k_max,
        nodes=tuple(nodes),
        edges=tuple(edges),
        filter_threshold=threshold,
        dropped_flow=tuple(dropped),
    )


def graph_to_json_dict(g: SankeyGraph) -> dict:
    return {
        "version": 1,
        "threshold": g.filter_threshold,
        "nodes": [
            {
                "id": n.id,
                "k": n.k,
                "cluster": n.cluster,
                "label": n.label,
                "size": n.size,
                "stability": n.stability,
            }
            for n in g.nodes
        ],
        "edges": [
            {"source": e.source, "target": e.target, "flow": e.flow} for e in g.edges
        ],
        "dropped_flow": [{"k": k, "items": items} for k, items in g.dropped_flow],
    }


def export_json(g: SankeyGraph, path: str | Path) -> None:
    """Write the graph JSON with stable key ordering; round-trips losslessly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(graph_to_json_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path: str | Path) -> SankeyGraph:
    """Read a graph written by :func:`export_json`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid graph JSON: {exc}") from exc
    if doc.get("version") != 1:
        raise ParseError(f"{path}: unsupported graph version {doc.get('version')!r}")
    nodes = tuple(
        SankeyNode(
            k=int(n["k"]),
            cluster=int(n["cluster"]),
            label=str(n["label"]),
            size=int(n["size"]),
            stability=float(n["stability"]),
        )
        for n in doc["nodes"]
    )
    by_id = {n.id: n for n in nodes}
    edges = tuple(
        SankeyEdge(
            source_k=by_id[e["source"]].k,
            source_cluster=by_id[e["source"]].cluster,
            target_cluster=by_id[e["target"]].cluster,
            flow=int(e["flow"]),
        )
        for e in doc["edges"]
    )
    ks = [n.k for n in nodes]
    return SankeyGraph(
        k_min=min(ks),
        k_max=max(ks),
        nodes=nodes,
        edges=edges,
        filter_threshold=int(doc["threshold"]),
        dropped_flow=tuple((int(d["k"]), int(d["items"])) for d in doc["dropped_flow"]),
    )


def stability_color(stability: float) -> str:
    """Hex fill for a stability value; 0 = dark end, 1 = light end of the ramp."""
    t = min(1.0, max(0.0, stability))
    rgb = (round(lo + (hi - lo) * t) for lo, hi in zip(RAMP_DARK, RAMP_LIGHT))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _layout(g: SankeyGraph) -> tuple[dict[str, dict], float, dict[int, float]]:
    """Node rectangles, the shared items-to-pixels scale and each column's x by K."""
    columns = {k: [n for n in g.nodes if n.k == k] for k in range(g.k_min, g.k_max + 1)}
    total = sum(n.size for n in columns[g.k_min])
    drawable = CANVAS_H - 2 * MARGIN_TOP
    max_count = max(len(ns) for ns in columns.values())
    pad = NODE_PAD
    if max_count > 1 and (max_count - 1) * pad > 0.5 * drawable:
        pad = 0.5 * drawable / (max_count - 1)
    px = (drawable - (max_count - 1) * pad) / total

    n_cols = len(columns)
    inner = CANVAS_W - MARGIN_LEFT - MARGIN_RIGHT - NODE_W
    xs = {
        k: MARGIN_LEFT + (inner * col / (n_cols - 1) if n_cols > 1 else 0.0)
        for col, k in enumerate(columns)
    }
    boxes: dict[str, dict] = {}
    for k, x in xs.items():
        col_nodes = columns[k]
        col_height = sum(n.size for n in col_nodes) * px + (len(col_nodes) - 1) * pad
        y = MARGIN_TOP + (drawable - col_height) / 2.0
        for n in col_nodes:
            h = n.size * px
            boxes[n.id] = {"node": n, "x": x, "y": y, "h": h}
            y += h + pad
    return boxes, px, xs


def render_svg(g: SankeyGraph) -> str:
    """Static SVG: stacked node rectangles per resolution, ribbons sized by flow."""
    boxes, px, xs = _layout(g)
    # No xmlns attribute: the SVG is inlined into HTML, where the parser
    # namespaces it implicitly, and the document must carry no URLs at all.
    parts = [
        f'<svg width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="0 0 {CANVAS_W} {CANVAS_H}" role="img">'
    ]

    # Ribbons first so nodes draw on top. Slice offsets walk down each node
    # edge in target/source vertical order to limit crossings.
    out_cursor = {nid: b["y"] for nid, b in boxes.items()}
    in_cursor = {nid: b["y"] for nid, b in boxes.items()}
    edges = sorted(
        g.edges,
        key=lambda e: (e.source_k, boxes[e.source]["y"], boxes[e.target]["y"], e.target_cluster),
    )
    for e in edges:
        sb, tb = boxes[e.source], boxes[e.target]
        h = e.flow * px
        sx = sb["x"] + NODE_W
        tx = tb["x"]
        sy = out_cursor[e.source]
        ty = in_cursor[e.target]
        out_cursor[e.source] = sy + h
        in_cursor[e.target] = ty + h
        mx = (sx + tx) / 2.0
        d = (
            f"M {sx:.2f},{sy:.2f} "
            f"C {mx:.2f},{sy:.2f} {mx:.2f},{ty:.2f} {tx:.2f},{ty:.2f} "
            f"L {tx:.2f},{ty + h:.2f} "
            f"C {mx:.2f},{ty + h:.2f} {mx:.2f},{sy + h:.2f} {sx:.2f},{sy + h:.2f} Z"
        )
        color = stability_color(tb["node"].stability)
        parts.append(
            f'<path class="flow" d="{d}" fill="{color}" fill-opacity="0.40" '
            f'data-flow="{e.flow}" data-source="{e.source}" data-target="{e.target}">'
            f"<title>{html.escape(e.source)} → {html.escape(e.target)}: {e.flow}</title></path>"
        )

    for nid, b in boxes.items():
        n = b["node"]
        parts.append(
            f'<rect class="node" x="{b["x"]:.2f}" y="{b["y"]:.2f}" width="{NODE_W}" '
            f'height="{max(b["h"], 0.5):.2f}" fill="{stability_color(n.stability)}" '
            f'stroke="#333333" stroke-width="0.5" data-id="{n.id}" data-size="{n.size}">'
            f"<title>{html.escape(n.label)} (size {n.size}, stability {n.stability:.3f})</title></rect>"
        )
        if n.k < g.k_max:
            tx, anchor = b["x"] + NODE_W + 4, "start"
        else:
            tx, anchor = b["x"] - 4, "end"
        ty = b["y"] + max(b["h"], 0.5) / 2.0 + 3.5
        parts.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" text-anchor="{anchor}" font-size="10">'
            f"{html.escape(n.label)}</text>"
        )

    for k, x in xs.items():
        parts.append(
            f'<text x="{x + NODE_W / 2.0:.2f}" y="{MARGIN_TOP - 12}" text-anchor="middle" '
            f'font-size="12" font-weight="bold">K={k}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<title>Cluster transitions</title>
<style>
body {{ font-family: sans-serif; margin: 24px; color: #222; }}
svg {{ display: block; }}
svg text {{ font-family: sans-serif; }}
.flow:hover {{ fill-opacity: 0.7; }}
footer {{ font-size: 12px; color: #666; margin-top: 8px; }}
</style>
</head>
<body>
<h1>Cluster transitions across resolutions</h1>
<p>Node height is cluster size; ribbon thickness is the number of items moving
between clusters at consecutive resolutions. Lighter nodes inherited most of
their members from a single cluster one resolution earlier; darker nodes mix
several. Flows below {threshold} items are omitted (per-transition totals in
the embedded data).</p>
{svg}
<footer>Edge filter threshold: {threshold} items.</footer>
<script type="application/json" id="graph-data">
{graph_json}
</script>
</body>
</html>
"""


def export_html(g: SankeyGraph, path: str | Path) -> None:
    """Write one self-contained HTML document: inline SVG plus embedded JSON."""
    graph_json = json.dumps(graph_to_json_dict(g), indent=2, ensure_ascii=True)
    # "</" must not appear inside the inline script block.
    graph_json = graph_json.replace("</", "<\\/")
    doc = _HTML_TEMPLATE.format(
        threshold=g.filter_threshold, svg=render_svg(g), graph_json=graph_json
    )
    Path(path).write_text(doc, encoding="utf-8", newline="\n")
