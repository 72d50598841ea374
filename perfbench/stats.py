"""Arithmetic the benchmark reports with: percentiles, self time, lateness.

Kept free of sockets and processes so ``perfbench/tests`` can check it
directly.
"""

from __future__ import annotations

import math

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values, q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule (``0 < q <= 100``)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[rank - 1])


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= MIN_BEYOND:
            return q
    return None


def summarize(values) -> dict:
    """Median and tail of ``values`` with the sample count.

    The tail is the highest ladder percentile that has at least ten
    samples beyond it; ``tail_q`` says which one it is.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    out = {"n": n, "p50": None, "tail": None, "tail_q": None}
    if n == 0:
        return out
    out["p50"] = nearest_rank(ordered, 50.0)
    q = supported_percentile(n)
    if q is not None:
        out["tail_q"] = q
        out["tail"] = nearest_rank(ordered, q)
    return out


def covered_ns(start: int, end: int, children) -> int:
    """Nanoseconds of ``[start, end)`` covered by the union of the
    ``(child_start, child_end)`` intervals, each clipped to the parent."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    covered = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(start, end, parent) -> np.ndarray:
    """Per-span self time: its duration minus the part of it that its
    child spans cover (children may overlap each other)."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    result = end - start
    children: dict[int, list] = {}
    for child in np.nonzero(parent >= 0)[0].tolist():
        children.setdefault(int(parent[child]), []).append(
            (int(start[child]), int(end[child]))
        )
    for index, spans in children.items():
        result[index] -= covered_ns(int(start[index]), int(end[index]), spans)
    return result


class OpenLoopLog:
    """Per-request times of one open-loop phase.

    Latency runs from the request's *scheduled* send time, not the time
    the generator got round to sending it, so a stalled generator or
    server is charged to every request it delayed.
    """

    def __init__(self, scheduled):
        self.scheduled = np.asarray(scheduled, dtype=float)
        n = len(self.scheduled)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)

    def on_send(self, index: int, now: float) -> None:
        self.sent[index] = now

    def on_done(self, index: int, now: float) -> None:
        self.done[index] = now

    def latencies(self, mask=None) -> np.ndarray:
        """Seconds from schedule to completion of completed requests."""
        ok = ~np.isnan(self.done)
        if mask is not None:
            ok &= mask
        return self.done[ok] - self.scheduled[ok]

    def late_max(self) -> float:
        """Largest delay between a scheduled and an actual send (s)."""
        sent = ~np.isnan(self.sent)
        if not sent.any():
            return 0.0
        return float(np.max(self.sent[sent] - self.scheduled[sent]))
