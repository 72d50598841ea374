"""Tests for the retrain stall figures the report derives from a phase.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from report import _stalled_reads  # noqa: E402
from stats import OpenLoopLog  # noqa: E402
from workloads import OBSERVE, PREDICT, Requests  # noqa: E402


class _Phase:
    def __init__(self, scheduled, done, kinds):
        kinds = np.asarray(kinds, dtype=np.int8)
        self.requests = Requests(kinds, np.zeros(len(kinds)),
                                 np.zeros(len(kinds)), None, [])
        # The retrain is the last request: sent at 1.0 s, answered at 2.0 s.
        self.retrain_index = len(kinds)
        self.log = OpenLoopLog(list(scheduled) + [1.0])
        for index, (at, end) in enumerate(zip(scheduled, done)):
            self.log.on_send(index, at)
            self.log.on_done(index, end)
        self.log.on_send(self.retrain_index, 1.0)
        self.log.on_done(self.retrain_index, 2.0)


def test_blocked_reads_wait_out_the_retrain():
    # Reads at 1.02-1.08 s are answered just after the retrain ends; the
    # read before it and the one after the 100 ms window do not count.
    phase = _Phase([0.9, 1.02, 1.05, 1.08, 1.2],
                   [0.91, 2.002, 2.004, 2.006, 2.01],
                   [PREDICT] * 5)
    latency, share = _stalled_reads(phase)
    assert latency["n"] == share["n"] == 3
    assert latency["p50"] == pytest.approx(2.004 - 1.05)
    assert share["p50"] == pytest.approx((2.004 - 1.05) / (2.0 - 1.05))


def test_reads_served_beside_the_retrain_have_small_shares():
    phase = _Phase([1.02, 1.05, 1.08], [1.025, 1.055, 1.085], [PREDICT] * 3)
    latency, share = _stalled_reads(phase)
    assert latency["p50"] == pytest.approx(0.005)
    assert share["p50"] == pytest.approx(0.005 / (2.0 - 1.05))


def test_writes_are_left_out():
    phase = _Phase([1.02, 1.05], [2.001, 2.002], [OBSERVE, PREDICT])
    latency, _share = _stalled_reads(phase)
    assert latency["n"] == 1
