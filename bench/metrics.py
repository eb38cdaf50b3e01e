"""The benchmark's arithmetic: failure charging, the tail percentile, and
self time from trace spans.  Pure functions, so the tests can feed them
synthetic data."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def charged_s(elapsed_s: float, status: str, deadline_s: float) -> float:
    """Time an operation counts for in totals and percentiles.

    A completed operation counts its own time.  A failed one never counts
    less than the deadline: one stopped at the deadline counts the time it
    ran (the deadline plus the time to stop it), and one that failed before
    its deadline counts the deadline on top of the time it used.  A fix that
    turns a fast failure into a real result therefore reads as a gain.
    """
    if status == "ok" or status == "deadline":
        return elapsed_s
    return deadline_s + elapsed_s


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample count).  With N samples sorted
    ascending, the value is the one at rank N - beyond (1-based), which is
    the (100 * (N - beyond) / N)th percentile.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def median(values: list[float]) -> float:
    return statistics.median(values)


def self_times(spans: list[tuple[str, int, int, int]]) -> dict[str, float]:
    """Seconds each span name spent outside its child spans.

    A span is (name, start_ns, end_ns, parent index or -1); spans nest, so a
    span's children cover exactly the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
    return out


def outermost_calls(spans: list[tuple[str, int, int, int]]) -> dict[str, int]:
    """Calls per span name that were not made from inside a span of the same name."""
    out: dict[str, int] = {}
    for name, _, _, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] = out.get(name, 0) + 1
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
