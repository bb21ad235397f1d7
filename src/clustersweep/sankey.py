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
from pathlib import Path

import numpy as np

from .data import ContingencyTable, build_contingency, write_text
from .errors import ClusterSweepError
from .metrics import stability_from_table
from .pipeline import Archive

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


def build_graph(
    result: Archive,
    names: dict[tuple[int, int], str] | None = None,
    threshold: int = 150,
) -> dict:
    """The transition graph of a sweep as its graph.json document, sub-threshold flows dropped.

    The document holds ``version``, ``threshold``, ``nodes`` (id "K{k}-C{cluster}",
    k, cluster, label, size, stability), ``edges`` (source and target ids, flow)
    and ``dropped_flow`` (k, items on k -> k+1 below the threshold). Node
    stability is the per-cluster proportional-stability ratio against
    resolution k-1 (1.0 at the first resolution). Labels fall back to the id
    when no name map entry exists. Nodes are ordered by ascending k, then by
    descending size and cluster index within each resolution.

    Raises:
        ClusterSweepError: if the sweep spans fewer than 2 resolutions.
    """
    if result.k_max - result.k_min < 1:
        raise ClusterSweepError("a transition graph needs at least two resolutions")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    names = names or {}
    # tables[k] counts the items of each (cluster at k, cluster at k+1): the
    # edges out of k, and transposed, the parentage of the clusters at k+1.
    tables = {
        k: build_contingency(result.partitions[k], result.partitions[k + 1])
        for k in range(result.k_min, result.k_max)
    }

    nodes = []
    for k in range(result.k_min, result.k_max + 1):
        sizes = result.partitions[k].cluster_sizes()
        if k == result.k_min:
            ratios = {c: 1.0 for c in range(len(sizes))}
        else:
            stability = stability_from_table(ContingencyTable(tables[k - 1].counts.T))
            ratios = {cs.cluster: cs.ratio for cs in stability.per_cluster}
        occupied = [c for c in range(len(sizes)) if sizes[c] > 0]
        for c in sorted(occupied, key=lambda c: (-int(sizes[c]), c)):
            nodes.append({
                "id": f"K{k}-C{c}", "k": k, "cluster": c,
                "label": names.get((k, c), f"K{k}-C{c}"),
                "size": int(sizes[c]), "stability": float(ratios[c]),
            })

    edges, dropped = [], []
    for k, table in tables.items():
        kept = table.counts >= max(threshold, 1)  # a zero flow is no edge, even at 0
        edges += [
            {"source": f"K{k}-C{i}", "target": f"K{k + 1}-C{j}", "flow": int(table.counts[i, j])}
            for i, j in zip(*np.nonzero(kept))
        ]
        dropped.append({"k": k, "items": int(table.counts[~kept].sum())})
    return {"version": 1, "threshold": threshold, "nodes": nodes, "edges": edges,
            "dropped_flow": dropped}


def export_json(g: dict, path: str | Path) -> None:
    """Write the graph document with stable key ordering."""
    write_text(path, json.dumps(g, indent=2) + "\n")


def stability_color(stability: float) -> str:
    """Hex fill for a stability value; 0 = dark end, 1 = light end of the ramp."""
    t = min(1.0, max(0.0, stability))
    rgb = (round(lo + (hi - lo) * t) for lo, hi in zip(RAMP_DARK, RAMP_LIGHT))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _layout(g: dict) -> tuple[dict[str, dict], float, dict[int, float]]:
    """Boxes by node id (the node plus its x, y, h), the items-to-pixels scale, each column's x."""
    columns: dict[int, list[dict]] = {}  # nodes come in ascending K
    for n in g["nodes"]:
        columns.setdefault(n["k"], []).append(n)
    total = sum(n["size"] for n in next(iter(columns.values())))
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
        col_height = sum(n["size"] for n in col_nodes) * px + (len(col_nodes) - 1) * pad
        y = MARGIN_TOP + (drawable - col_height) / 2.0
        for n in col_nodes:
            h = n["size"] * px
            boxes[n["id"]] = {**n, "x": x, "y": y, "h": h}
            y += h + pad
    return boxes, px, xs


def render_svg(g: dict) -> str:
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
    in_cursor = dict(out_cursor)

    def order(e: dict) -> tuple:
        sb, tb = boxes[e["source"]], boxes[e["target"]]
        return sb["k"], sb["y"], tb["y"], tb["cluster"]

    for e in sorted(g["edges"], key=order):
        source, target, flow = e["source"], e["target"], e["flow"]
        sb, tb = boxes[source], boxes[target]
        h = flow * px
        sx = sb["x"] + NODE_W
        tx = tb["x"]
        sy = out_cursor[source]
        ty = in_cursor[target]
        out_cursor[source] = sy + h
        in_cursor[target] = ty + h
        mx = (sx + tx) / 2.0
        d = (
            f"M {sx:.2f},{sy:.2f} "
            f"C {mx:.2f},{sy:.2f} {mx:.2f},{ty:.2f} {tx:.2f},{ty:.2f} "
            f"L {tx:.2f},{ty + h:.2f} "
            f"C {mx:.2f},{ty + h:.2f} {mx:.2f},{sy + h:.2f} {sx:.2f},{sy + h:.2f} Z"
        )
        parts.append(
            f'<path class="flow" d="{d}" fill="{stability_color(tb["stability"])}" '
            f'fill-opacity="0.40" data-flow="{flow}" data-source="{source}" data-target="{target}">'
            f"<title>{html.escape(source)} → {html.escape(target)}: {flow}</title></path>"
        )

    k_last = max(xs)
    for b in boxes.values():
        label = html.escape(b["label"])
        parts.append(
            f'<rect class="node" x="{b["x"]:.2f}" y="{b["y"]:.2f}" width="{NODE_W}" '
            f'height="{max(b["h"], 0.5):.2f}" fill="{stability_color(b["stability"])}" '
            f'stroke="#333333" stroke-width="0.5" data-id="{b["id"]}" data-size="{b["size"]}">'
            f'<title>{label} (size {b["size"]}, stability {b["stability"]:.3f})</title></rect>'
        )
        if b["k"] < k_last:
            tx, anchor = b["x"] + NODE_W + 4, "start"
        else:
            tx, anchor = b["x"] - 4, "end"
        ty = b["y"] + max(b["h"], 0.5) / 2.0 + 3.5
        parts.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" text-anchor="{anchor}" font-size="10">'
            f"{label}</text>"
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


def export_html(g: dict, path: str | Path) -> None:
    """Write one self-contained HTML document: inline SVG plus the embedded graph document."""
    # No "<" in the script block, so no "</script" or "<!--" can end or re-nest it;
    # "\\u003c" is JSON for the same character.
    graph_json = json.dumps(g, indent=2, ensure_ascii=True).replace("<", "\\u003c")
    doc = _HTML_TEMPLATE.format(
        threshold=g["threshold"], svg=render_svg(g), graph_json=graph_json
    )
    write_text(path, doc)
