"""Timing spans around the package's functions, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
``eulertrail`` module namespace (and the package root) that binds the
original object; the two ``Digraph`` methods are replaced on the class.
A wrapper pushes a span on an in-memory stack, so each span knows its
parent, and folds it into per-function and per-edge totals when it ends.
``remove`` puts the originals back.  Self time is a span's duration minus
the durations of the wrapped spans directly inside it.
"""

from __future__ import annotations

import sys
import time

# module -> wrapped functions; a dotted name is a method wrapped on its class
LAYERS = {
    "digraph": ("parse_json", "Digraph.induced", "Digraph.remove_arcs", "is_semicomplete"),
    "connectivity": (
        "is_strong",
        "strong_components",
        "cut_arcs",
        "arc_connectivity",
        "arc_connectivity_certificate",
        "arc_disjoint_paths",
    ),
    "decomposition": ("nice_decomposition", "natural_backward_ordering", "ignored_sets"),
    "hamilton": (
        "hamiltonian_cycle",
        "hamiltonian_path_between",
        "path_within",
        "cycle_covering_complement",
    ),
    "_flow": ("max_flow", "circulation_with_cut"),
    "trails": ("spanning_trail", "validate_trail", "validate_eulerian_subdigraph"),
    "factor": ("spanning_eulerian_avoiding", "eulerian_factor", "merge_all"),
    "classify": ("classify_containment", "classify_unavoidable", "taxonomy_labels"),
    "oracle": ("enumerate_spanning_eulerian", "oracle_eulerian_factor", "find_trail_oracle"),
    "cli": ("main",),
}

# metric names start with a letter, so the private flow module reports as "flow"
PREFIX = {module: module.lstrip("_") for module in LAYERS}

SPANS = [f"{PREFIX[m]}.{f}" for m, fs in LAYERS.items() for f in fs]


class Tracer:
    """Per-function calls, total and self time, gathered from one traced run."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self.some = dict.fromkeys(SPANS, 0)
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._open = dict.fromkeys(SPANS, 0)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = self._open[name] == 0
            self._open[name] += 1
            span = [name, clock(), 0.0]
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                took = clock() - span[1]
                stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                if outer:
                    self.total[name] += took
                self.self_time[name] += took - span[2]
                if result is not None:
                    self.some[name] += 1
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += took
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += took

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "eulertrail" or key.startswith("eulertrail."))
        ]
        for module, attrs in LAYERS.items():
            home = sys.modules.get(f"eulertrail.{module}")
            for attr in attrs:
                name = f"{PREFIX[module]}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    original = vars(cls).get(meth) if cls is not None else None
                    if original is not None:
                        self._patch(cls, meth, self._wrap(name, original), original)
                    continue
                original = getattr(home, attr, None)
                if original is None:  # gone from the package: reported as never called
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper, original)

    def _patch(self, owner, key: str, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-function and per-module figures under their metric names."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for module in LAYERS:
            prefix = PREFIX[module] + "."
            out[f"{PREFIX[module]}.self_s"] = sum(
                t for n, t in self.self_time.items() if n.startswith(prefix)
            )
        merges = self.calls["factor.merge_all"]
        out["factor.merge_all.success_ratio"] = (
            self.some["factor.merge_all"] / merges if merges else 0.0
        )
        return out

    def span_tree(self) -> list[dict]:
        """Per (parent, child) edge: calls and total time, heaviest first."""
        rows = [
            {"parent": p or None, "span": c, "calls": n, "total_s": t}
            for (p, c), (n, t) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["total_s"])
