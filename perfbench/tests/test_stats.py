"""Tests for the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    TAIL_LADDER,
    OpenLoopLog,
    covered_ns,
    nearest_rank,
    self_times,
    summarize,
    supported_percentile,
)


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert supported_percentile(1000) == 99.0
        assert supported_percentile(999) == 98.0

    def test_falls_back_to_highest_supported(self):
        assert supported_percentile(500) == 98.0
        assert supported_percentile(200) == 95.0
        assert supported_percentile(100) == 90.0
        assert supported_percentile(20) == 50.0
        assert supported_percentile(19) is None

    def test_never_above_p99(self):
        assert TAIL_LADDER[0] == 99.0
        assert supported_percentile(1_000_000) == 99.0

    def test_at_least_ten_samples_beyond(self):
        for n in range(20, 3000, 7):
            q = supported_percentile(n)
            rank = int(np.ceil(q / 100 * n))
            assert n - rank >= 10

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 99) == 99
        assert nearest_rank(values, 100) == 100
        assert nearest_rank([7.0], 99) == 7.0

    def test_summary_reports_count_and_percentile(self):
        values = np.arange(1, 1001, dtype=float)
        summary = summarize(values)
        assert summary["n"] == 1000
        assert summary["p50"] == 500.0
        assert summary["tail_q"] == 99.0
        assert summary["tail"] == 990.0

    def test_small_sample_reports_lower_percentile(self):
        summary = summarize(np.arange(1, 201, dtype=float))
        assert summary["tail_q"] == 95.0
        assert summary["tail"] == 190.0

    def test_too_few_samples_for_any_tail(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["n"] == 3 and summary["p50"] == 2.0
        assert summary["tail"] is None


class TestSelfTime:
    def test_no_children(self):
        assert self_times([0], [100], [-1]).tolist() == [100]

    def test_disjoint_children(self):
        result = self_times([0, 10, 50], [100, 20, 70], [-1, 0, 0])
        assert result.tolist() == [70, 10, 20]

    def test_overlapping_children_are_counted_once(self):
        # Children [10, 40) and [30, 60) cover [10, 60): 50 ns, not 60.
        result = self_times([0, 10, 30], [100, 40, 60], [-1, 0, 0])
        assert result[0] == 50

    def test_nested_child_inside_another(self):
        result = self_times([0, 10, 20], [100, 60, 30], [-1, 0, 0])
        assert result[0] == 50

    def test_child_clipped_to_parent(self):
        assert covered_ns(0, 100, [(90, 150), (-20, 5)]) == 15

    def test_grandchildren_only_reduce_their_parent(self):
        result = self_times([0, 10, 20], [100, 50, 30], [-1, 0, 1])
        assert result.tolist() == [60, 30, 10]


class TestScheduledLatency:
    def test_latency_counts_from_the_schedule(self):
        log = OpenLoopLog([0.0, 1.0, 2.0])
        for index, (sent, done) in enumerate([(0.0, 0.1), (1.0, 1.1), (2.0, 2.1)]):
            log.on_send(index, sent)
            log.on_done(index, done)
        assert np.allclose(log.latencies(), [0.1, 0.1, 0.1])
        assert log.late_max() == 0.0

    def test_late_generator_is_charged_to_the_request(self):
        # The generator stalled: request 1 went out 0.5 s after its slot
        # and was answered 0.1 s later. Its latency is 0.6 s, not 0.1 s.
        log = OpenLoopLog([0.0, 1.0])
        log.on_send(0, 0.0)
        log.on_done(0, 0.1)
        log.on_send(1, 1.5)
        log.on_done(1, 1.6)
        assert np.allclose(log.latencies(), [0.1, 0.6])
        assert log.late_max() == pytest.approx(0.5)

    def test_unanswered_requests_are_left_out(self):
        log = OpenLoopLog([0.0, 1.0])
        log.on_send(0, 0.0)
        log.on_send(1, 1.0)
        log.on_done(1, 1.2)
        assert np.allclose(log.latencies(), [0.2])

    def test_mask_selects_requests(self):
        log = OpenLoopLog([0.0, 1.0])
        for index in range(2):
            log.on_send(index, float(index))
            log.on_done(index, index + 0.25 * (index + 1))
        assert np.allclose(log.latencies(np.array([False, True])), [0.5])
