"""Trace calls into ghostgraph from outside the library.

``Tracer.install`` replaces each listed function in every loaded
``ghostgraph.*`` namespace that binds it (``classify`` holds its own
binding of ``canonical_code``, for example) and wraps iteration over
``GhostGroup.elements``.  A spanned call records (id, parent, op, name,
start, end) in memory; self time is a span's duration minus the time its
child calls cover.  Hot leaves and the elements generator are timed and
counted without a span, since a span per call would distort their
parents.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPANNED = [
    ("graphs", "canonical_code"),
    ("graphs", "enumerate_base_graphs"),
    ("graphs", "separating_edges"),
    ("graphs", "contract_edges"),
    ("graphs", "spanning_tree"),
    ("graphs", "fundamental_circuits"),
    ("cochains", "cut_basis"),
    ("cochains", "boundary"),
    ("decorated", "genus_labeling"),
    ("decorated", "gamma0"),
    ("decorated", "contract_decorated"),
    ("decorated", "gamma_p"),
    ("ghosts", "minimal_age_report"),
    ("ghosts", "ghost_group"),
    ("ghosts", "reduced_core"),
    ("ghosts", "vine_witness"),
    ("ghosts", "alpha_beta"),
    ("classify", "classify_junior"),
    ("classify", "scan_graph"),
    ("classify", "decoration_code"),
    ("cli", "build_report"),
]
COUNTED = [("cochains", "circuit_sum")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # counts read from returned values
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._next_id = 1
        # frames are [span id, time covered by child calls]; the bottom
        # frame collects time outside any request
        self._stack: list[list] = [[0, 0.0]]
        self._patches: list[tuple] = []

    # -- requests ---------------------------------------------------------

    def request(self, op: int, fn, *args):
        """Run fn(*args) as the root span of request ``op``."""
        self.op = op
        return self._spanned("op", fn)(*args)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, on_return=None):
        stats = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                self.spans.append((span_id, parent[0], self.op, name, start, end))
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, name, fn):
        stats = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration

        return functools.update_wrapper(wrapper, fn)

    def _elements(self, fn):
        name = "ghosts.GhostGroup.elements"
        stats = self.stats[name]
        counts = self.counts
        stack = self._stack

        def elements(group, *args, **kwargs):
            stats[0] += 1
            it = fn(group, *args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - start
                    stack[-1][1] += duration
                    stats[1] += duration
                    stats[2] += duration
                counts[name + ".yielded"] += 1
                yield item

        return functools.update_wrapper(elements, fn)

    def _on_scan(self, scan):
        n = int(scan.decorations.shape[0])
        self.counts["classify.scan_graph.decorations"] += n
        self.counts["classify.scan_graph.junior"] += int(scan.junior.sum())

    def _on_classes(self, classes):
        self.counts["classify.classify_junior.classes"] += len(classes)

    def _on_base_graphs(self, graphs):
        self.counts["graphs.enumerate_base_graphs.graphs"] += len(graphs)

    # -- install ----------------------------------------------------------

    def install(self):
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "ghostgraph" or name.startswith("ghostgraph."))
        ]
        hooks = {
            "scan_graph": self._on_scan,
            "classify_junior": self._on_classes,
            "enumerate_base_graphs": self._on_base_graphs,
        }
        wrappers = []
        for mod, fname in SPANNED:
            fn = getattr(sys.modules["ghostgraph." + mod], fname)
            wrappers.append((fn, self._spanned(f"{mod}.{fname}", fn, hooks.get(fname))))
        for mod, fname in COUNTED:
            fn = getattr(sys.modules["ghostgraph." + mod], fname)
            wrappers.append((fn, self._counted(f"{mod}.{fname}", fn)))
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers}
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((m, attr, value))
                    setattr(m, attr, hit[1])
        group_cls = sys.modules["ghostgraph.ghosts"].GhostGroup
        original = group_cls.__dict__["elements"]
        self._patches.append((group_cls, "elements", original))
        group_cls.elements = self._elements(original)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
        }


def merge(into: dict, summary: dict):
    """Add one tracer summary to another (counts and per-name stats)."""
    for name, (calls, total, self_s) in summary["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    for name, n in summary["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n


def write_spans(out, spans, origin: float, op: int | None = None, id_offset: int = 0):
    """Write spans as JSON lines [id, parent, op, name, start, end], with
    times in seconds from ``origin``; parent 0 marks a request's root."""
    for span_id, parent, span_op, name, start, end in spans:
        record = [
            span_id + id_offset,
            parent + id_offset if parent else 0,
            span_op if op is None else op,
            name,
            start - origin,
            end - origin,
        ]
        out.write(json.dumps(record) + "\n")
