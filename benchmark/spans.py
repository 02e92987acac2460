"""Spans around the public functions of tcfree's modules, recorded from
outside the program.

`Tracer.install` rebinds each traced function, in every tcfree module that
imported it and in module-level dispatch tables such as the CLI's map of
recognizers, to a wrapper that records (name, start, end, parent, request)
in memory. `per_layer` folds the spans of one pass into the per-layer
metrics; `dump` writes the spans out when the run ends. `tree_figures`
gives the figures of decomposition trees, which the run takes from untraced
calls.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# Traced functions as <module>.<function>; find_small_obstruction is timed
# per kind and the three chordal leaf solvers together.
TRACED = (
    "io.parse_graph",
    "cli.main",
    "decomposition.build_tree",
    "decomposition.atom_masks",
    "decomposition.solve_mwc",
    "decomposition.solve_mwss",
    "decomposition.solve_coloring",
    "classes.recognize_gut",
    "classes.recognize_gu",
    "classes.recognize_gt",
    "classes.recognize_gutcap",
    "classes.recognize_bu_h",
    "classes.mwc_mwss_gu",
    "classes.color_gu",
    "classes.mwc_gt",
    "classes.mwss_gt",
    "classes.mwc_mwss_gutcap",
    "classes.color_gutcap",
    "detectors.find_small_obstruction",
    "detectors.find_cap",
    "detectors.find_long_hole",
    "rings.recognize_ring",
    "rings.recognize_hyperhole",
    "chordal.is_chordal",
    "chordal.chordal_mwc",
    "chordal.chordal_mwss",
    "chordal.chordal_color",
    "graphs.anticomponents",
    "graphs.true_twin_partition",
    "graphs.induced_subgraph",
)

SMALL_OBSTRUCTIONS = {"K23": "K23", "C6Bar": "C6BAR", "W54": "W54"}


def _metric_of(span_name: str) -> str:
    if span_name.startswith("chordal.chordal_"):
        return "chordal.leaf_solve"
    return span_name


def _timed_metrics() -> list[str]:
    """Names of the span-time metrics: one per traced function, the three
    chordal leaf solvers together and the small obstructions per kind."""
    names: list[str] = []
    for name in TRACED:
        if name == "detectors.find_small_obstruction":
            names += [f"{name}.{kind}" for kind in SMALL_OBSTRUCTIONS.values()]
        elif _metric_of(name) not in names:
            names.append(_metric_of(name))
    return names


# Per-layer metrics: span-time totals ("ms") and call counts ("calls") of the
# traced functions, then derived figures: from the spans (cli.overhead.ms,
# trace.spans), from untraced calls after the traced pass (decomposition.*,
# classes.solve_over_build_tree) and from the two passes' times
# per request (trace.overhead_pct).
TIMED = _timed_metrics()
DERIVED = {
    "cli.overhead.ms": "ms",
    "decomposition.atoms": "count",
    "decomposition.cutset_vertices": "count",
    "decomposition.maximal_leaf_ratio": "ratio",
    "classes.solve_over_build_tree": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "detectors.find_small_obstruction":
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                span_name = f"{name}.{SMALL_OBSTRUCTIONS.get(kind, kind)}"
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [span_name, perf_counter(), 0.0, parent, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "tcfree") -> None:
        modules = [m for k, m in sys.modules.items() if (k == package or k.startswith(package + ".")) and m]
        for name in TRACED:
            mod, attr = name.split(".")
            original = getattr(sys.modules[f"{package}.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, value))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict) and original in value.values():
                        for k, v in list(value.items()):
                            if v is original:
                                self._installed.append((value, k, v))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._installed.clear()

    def per_layer(self) -> dict[str, float]:
        """Totals over the recorded pass. A span nested in a span of the same
        metric is counted as a call but not timed twice."""
        ms = {name: 0.0 for name in TIMED}
        calls = {name: 0 for name in TIMED}
        child_ms = [0.0] * len(self.spans)
        open_metrics: list[set] = []
        for name, start, end, parent, _ in self.spans:
            metric = _metric_of(name)
            duration = (end - start) * 1000
            if parent >= 0:
                child_ms[parent] += duration
            ancestors = open_metrics[parent] if parent >= 0 else frozenset()
            open_metrics.append(ancestors | {metric})
            calls[metric] += 1
            if metric not in ancestors:
                ms[metric] += duration
        overhead = sum(
            (end - start) * 1000 - child_ms[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "cli.main"
        )
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.ms"] = ms[name]
            out[f"{name}.calls"] = calls[name]
        out["cli.overhead.ms"] = overhead
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: Path, labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        path.write_text(json.dumps({"requests": labels, "spans": spans}) + "\n")


def tree_figures(trees) -> dict[str, float]:
    """Leaves, cutset vertices and the share of leaves contained in no other
    leaf, over decomposition trees."""
    leaves = maximal = cut_vertices = 0
    for tree in trees:
        masks = [sum(1 << v for v in nd.vertices) for nd in tree.leaves()]
        leaves += len(masks)
        maximal += sum(1 for a in masks if not any(a != b and a & b == a for b in masks))
        cut_vertices += sum(len(nd.cutset) for nd in tree.nodes if nd.cutset is not None)
    return {
        "decomposition.atoms": leaves,
        "decomposition.cutset_vertices": cut_vertices,
        "decomposition.maximal_leaf_ratio": maximal / leaves,
    }
