"""Aggregated spans for the traced benchmark run.

Only the traced run builds a `Tracer`.  It wraps the benchmark's own calls
into the library; untraced runs call the library directly.  Spans are kept in
memory, aggregated per name (calls, busy time, self time, exact counts and
per-call (size, seconds) pairs), and written once when the run ends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional

# measure(args, result) -> (size for the scaling fit or None, exact counts)
Measure = Callable[[tuple, Any], tuple[Optional[int], dict[str, int]]]


@dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    sized: list[tuple[int, float]] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._child_s: list[float] = []  # time covered by children, per open span

    def wrap(self, name: str, fn: Callable, measure: Optional[Measure] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        open_children = self._child_s
        clock = time.perf_counter

        def traced(*args):
            open_children.append(0.0)
            start = clock()
            try:
                out = fn(*args)
            finally:
                took = clock() - start
                span.calls += 1
                span.busy_s += took
                span.self_s += took - open_children.pop()
                if open_children:
                    open_children[-1] += took
            if measure is not None:
                size, counts = measure(args, out)
                if size is not None:
                    span.sized.append((size, took))
                for key, value in counts.items():
                    span.counts[key] = span.counts.get(key, 0) + value
            return out

        return traced


def measures(mods: SimpleNamespace) -> dict[str, Measure]:
    """Exact counts and fit sizes per span, read from arguments and results."""

    def hull_blocks(args: tuple, out: int) -> tuple[int, dict[str, int]]:
        lo, hi = mods.gf2hom.minimal_hull(args[0])
        return hi - lo + 1, {"hull_blocks_sum": hi - lo + 1}

    return {
        "shark.phi": lambda args, out: (
            args[0].ones[-1] if args[0].ones else 0,
            {"window_len_sum": len(out.images)},
        ),
        "shark.witness_factorization": lambda args, out: (None, {"letters_sum": out.cost}),
        "shark.word_ball": lambda args, out: (None, {"states_sum": len(out)}),
        "shark.word_length_oracle": lambda args, out: (None, {"decided": int(out is not None)}),
        "gf2hom.GradedAut.compose": lambda args, out: (
            max(args[0].n_blocks, args[1].n_blocks),
            {},
        ),
        "gf2hom.homology_norm": hull_blocks,
    }


def traced_ops(entry_points: dict[str, tuple[str, Callable]], tracer: Tracer, mods: SimpleNamespace) -> SimpleNamespace:
    """The entry points, each wrapped in a span named `layer.function`."""
    table = measures(mods)
    return SimpleNamespace(
        **{attr: tracer.wrap(name, fn, table.get(name)) for attr, (name, fn) in entry_points.items()}
    )


def scaling_exponent(sized: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size), over the
    fastest call at each size; 0.0 without two distinct sizes."""
    fastest: dict[int, float] = {}
    for size, took in sized:
        if size > 0 and took > 0:
            fastest[size] = min(took, fastest.get(size, math.inf))
    if len(fastest) < 2:
        return 0.0
    points = [(math.log(size), math.log(took)) for size, took in fastest.items()]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den
