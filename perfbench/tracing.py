"""Spans recorded from outside the program, by wrapping clustersweep's public API.

`Tracer.install()` replaces every public function and public method of the
package's modules with a wrapper that records a span (name, start, end,
parent, run id). Modules import helpers by name (``from .data import
build_contingency``), so each name is patched wherever it is bound, not only
in its home module. Spans stay in memory until `dump`.

Times are `time.monotonic_ns()`, a system-wide clock on Linux, so spans from
the benchmark process and from the stage processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path

MODULES = ("data", "gmm", "metrics", "pipeline", "stability", "sankey", "naming", "cli")

# Called once per text and resolution, or once per node lookup: counted, not
# spanned, so that tracing stays cheap as archives grow.
COUNTED_ONLY = frozenset({"naming.tokenize", "sankey.node_id"})


class Tracer:
    """In-memory span recorder for one stage process."""

    def __init__(self, run: str, stage: str, parent: str | None):
        self.run = run
        self.stage = stage
        self.root_parent = parent
        self.spans: list[dict] = []
        self.calls: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[str]) -> str | None:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to the span its submitter is
        # blocked in (the pool's owner waits inside it for every result).
        main = self._main_stack
        return main[-1] if main else self.root_parent

    def call(self, name: str, fn, args, kwargs, attrs=None):
        stack = self._stack()
        span_id = f"{self.stage}.{next(self._ids)}"
        span = {"id": span_id, "name": name, "parent": self._parent(stack), "run": self.run,
                "thread": threading.get_ident()}
        stack.append(span_id)
        span["start"] = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic_ns()
            stack.pop()
            if attrs:
                span["attrs"] = attrs
            self.spans.append(span)

    def wrap(self, name: str, fn):
        if name in COUNTED_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if name == "gmm.fit":
            return self._wrap_fit(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_fit(self, fn):
        """gmm.fit with an iteration hook: init ends at the first hook call."""

        @functools.wraps(fn)
        def traced_fit(data, config, iteration_hook=None):
            attrs: dict = {"n": data.n, "d": data.d, "k": config.k}

            def hook(iteration, log_likelihood, resp):
                attrs.setdefault("first_hook", time.monotonic_ns())
                if iteration_hook is not None:
                    iteration_hook(iteration, log_likelihood, resp)

            model, partition = self.call("gmm.fit", fn, (data, config, hook), {}, attrs)
            attrs["n_iter"] = model.n_iter
            attrs["converged"] = model.converged
            return model, partition

        return traced_fit

    def install(self) -> None:
        """Patch every public function and method of the package, everywhere it is bound."""
        mods = {m: importlib.import_module(f"clustersweep.{m}") for m in MODULES}
        pkg = importlib.import_module("clustersweep")
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for mod in (*mods.values(), pkg):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not inspect.isclass(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path: Path) -> None:
        doc = {"spans": self.spans, "calls": dict(self.calls)}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


# --- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the part of it that its children cover (ns).

    Children of one span may run concurrently (worker threads), so their
    coverage is the union of their intervals, clipped to the parent.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None:
            interval = (max(s["start"], p["start"]), min(s["end"], p["end"]))
            if interval[0] < interval[1]:
                children.setdefault(p["id"], []).append(interval)
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def nesting_violations(spans: list[dict]) -> list[str]:
    """Spans that start before or end after their parent, or name a missing parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if s["end"] < s["start"]:
            bad.append(f"{s['id']} ({s['name']}) ends before it starts")
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            bad.append(f"{s['id']} ({s['name']}) has missing parent {s['parent']}")
        elif s["start"] < p["start"] or s["end"] > p["end"]:
            bad.append(f"{s['id']} ({s['name']}) lies outside parent {p['id']} ({p['name']})")
    return bad
