"""Spans around calls into gcdlcm's public functions, and the per-layer
metrics derived from them.

The benchmark opens a span around each call it makes itself. Calls the
package makes internally (``solve`` calling ``reduce_instance`` calling
``compute_basis``, ...) are caught by probes: while installed, a probe
rebinds every name under which a ``gcdlcm`` module holds the public
function to a wrapper that records a span. No file of the package
changes, and uninstalling restores the original bindings.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any

# (span name, module, function, counts taken from the call's argument and result)
PROBED: tuple[tuple[str, str, str, Callable[[Any, Any], dict]], ...] = (
    ("solver.solve", "gcdlcm.solver", "solve", lambda arg, r: {}),
    (
        "solver.reduce_instance",
        "gcdlcm.solver",
        "reduce_instance",
        lambda arg, r: {"universe_size": r[0].cover.universe_size, "num_sets": len(r[0].cover.sets)},
    ),
    (
        "basis.compute_basis",
        "gcdlcm.basis",
        "compute_basis",
        lambda arg, r: {"entries": len(r.basis), "matrix_cells": len(r.source) * len(r.basis)},
    ),
    ("setcover.exact_cover", "gcdlcm.setcover", "exact_cover", lambda arg, r: {"size": r.size}),
    ("setcover.greedy_cover", "gcdlcm.setcover", "greedy_cover", lambda arg, r: {"size": r.size}),
    (
        "circulant.prune_links",
        "gcdlcm.circulant",
        "prune_links",
        lambda arg, r: {"links_removed": len(arg.links) - len(r)},
    ),
    ("circulant.is_connected_bfs", "gcdlcm.circulant", "is_connected_bfs", lambda arg, r: {}),
)

# One span: (id, parent id or None, name, start, end, counts).
Span = tuple[str, "str | None", str, float, float, dict]


class Tracer:
    """Spans of the current request, kept in memory."""

    def __init__(self, origin: str):
        self.origin = origin
        self.spans: list[Span] = []
        self.last_arg: dict[str, Any] = {}
        self._stack: list[str] = []
        self._next = 0

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new request."""
        spans, self.spans, self.last_arg = self.spans, [], {}
        return spans

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        sid = f"{self.origin}{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, counts if counts is not None else {}))

    def record(self, name: str, start: float, end: float) -> None:
        """A root span timed by the caller."""
        self.spans.append((f"{self.origin}{self._next}", None, name, start, end, {}))
        self._next += 1


class Probes:
    """Install and remove the probe wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self._bindings: list[tuple[object, str, object, object]] = []
        for name, module, func, counts in PROBED:
            original = getattr(sys.modules[module], func)
            wrapper = _wrap(tracer, name, original, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or (mod_name != "gcdlcm" and not mod_name.startswith("gcdlcm.")):
                    continue
                for attr, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)


def _wrap(tracer: Tracer, name: str, fn, counts):
    def probe(arg, *args, **kwargs):
        found: dict = {}
        with tracer.span(name, found):
            result = fn(arg, *args, **kwargs)
        found.update(counts(arg, result))
        tracer.last_arg[name] = arg
        return result

    return probe


# name in BENCHMARK.json -> unit
LAYER_METRICS = {
    "basis.compute_s": "s",
    "basis.entries": "count",
    "basis.matrix_cells": "count",
    "reductions.self_s": "s",
    "reductions.universe_size": "count",
    "reductions.num_sets": "count",
    "setcover.greedy_s": "s",
    "setcover.exact_s": "s",
    "setcover.search_s": "s",
    "setcover.optimum": "count",
    "setcover.greedy_gap": "count",
    "solver.self_s": "s",
    "circulant.prune_s": "s",
    "circulant.links_removed": "count",
    "circulant.bfs_s": "s",
    "jsonio.parse_s": "s",
    "jsonio.emit_s": "s",
    "jsonio.bytes_out": "B",
    "cli.process_s": "s",
    "cli.self_s": "s",
}


def request_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one request's spans.

    A layer's self time is its span's duration minus the durations of its
    child spans. ``setcover.greedy_cover`` runs once more on the cover the
    exact search received, outside the request, so that ``search_s`` =
    exact minus greedy is the search beyond the greedy upper bound.
    """
    dur: dict[str, float] = {}
    child: dict[str, float] = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        dur[sid] = end - start
        if parent is not None:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for sid, _, name, _, _, found in spans:
        total[name] += dur[sid]
        selft[name] += dur[sid] - child[sid]
        for key, value in found.items():
            counts[f"{name}.{key}"] += value
    out = {
        "basis.compute_s": total["basis.compute_basis"],
        "basis.entries": counts["basis.compute_basis.entries"],
        "basis.matrix_cells": counts["basis.compute_basis.matrix_cells"],
        "reductions.self_s": selft["solver.reduce_instance"],
        "reductions.universe_size": counts["solver.reduce_instance.universe_size"],
        "reductions.num_sets": counts["solver.reduce_instance.num_sets"],
        "setcover.greedy_s": total["setcover.greedy_cover"],
        "setcover.exact_s": total["setcover.exact_cover"],
        "setcover.search_s": total["setcover.exact_cover"] - total["setcover.greedy_cover"],
        "setcover.optimum": counts["setcover.exact_cover.size"],
        "setcover.greedy_gap": counts["setcover.greedy_cover.size"] - counts["setcover.exact_cover.size"],
        "solver.self_s": selft["solver.solve"],
        "circulant.prune_s": total["circulant.prune_links"],
        "circulant.links_removed": counts["circulant.prune_links.links_removed"],
        "circulant.bfs_s": total["circulant.is_connected_bfs"],
        "jsonio.parse_s": total["jsonio.parse"],
        "jsonio.emit_s": total["jsonio.emit"],
        "jsonio.bytes_out": counts["jsonio.emit.bytes_out"],
        "cli.process_s": total["cli.process"],
        "cli.self_s": total["cli.process"] - total["cli.replay"],
    }
    return out
