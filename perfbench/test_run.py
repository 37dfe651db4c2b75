"""Tests of the benchmark's statistics.  Run: python3 -m pytest perfbench/test_run.py"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import PROBE_REF_S, TAIL_BEYOND_PER_PASS, host_scaled, tail  # noqa: E402


def test_tail_leaves_the_asked_number_beyond():
    for n in range(11, 1000):
        value, pct = tail(list(range(n)), 10)
        assert n - 1 - value == 10
        assert pct == 100.0 * (n - 10) / n


def test_tail_percentile_does_not_depend_on_the_pass_count():
    # 28 fast requests and 3 slow ones, like the tower-sparse list
    costs = [0.1] * 28 + [1.0, 2.0, 4.0]
    for passes in range(1, 8):
        value, pct = tail(costs * passes, TAIL_BEYOND_PER_PASS * passes)
        assert value == 0.1
        assert abs(pct - 100.0 * (1 - 5 / 31)) < 1e-9


def test_tail_of_few_values_is_the_smallest():
    assert tail([3.0, 1.0, 2.0], 10) == (1.0, 100.0 / 3)


def test_host_scaled_cancels_a_uniform_slowdown():
    # a host twice as slow doubles both the request time and the probe time
    for kind, ref in PROBE_REF_S.items():
        assert abs(host_scaled(3.0, [ref] * 4, kind) - 3.0) < 1e-12
        assert abs(host_scaled(6.0, [2 * ref] * 4, kind) - 3.0) < 1e-12
        assert abs(host_scaled(1.0, [ref, 3 * ref], kind) - 0.5) < 1e-12
