"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench/test_tracer.py"""

from __future__ import annotations

import os
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def fake_library():
    """adw.kern defines leaf/depth; adw.user imports leaf by name and calls it."""
    kern = types.ModuleType("adw.kern")

    def leaf():
        busy(0.002)

    def depth(k):
        busy(0.001)
        return kern.depth(k - 1) if k else 0

    for fn in (leaf, depth):
        fn.__module__ = kern.__name__
        setattr(kern, fn.__name__, fn)
    user = types.ModuleType("adw.user")
    user.leaf = kern.leaf

    class Engine:
        def run(self):
            busy(0.003)
            user.leaf()
            user.leaf()
            kern.depth(2)

    Engine.__module__ = user.__name__
    Engine.__qualname__ = "Engine"
    user.Engine = Engine
    return kern, user


def test_self_times_sum_to_root_duration():
    kern, user = fake_library()
    tracer = Tracer(is_span=lambda key: key == "user.Engine.run")
    tracer.install([kern, user])
    try:
        tracer.root("r0", lambda: (busy(0.002), user.Engine().run()))
    finally:
        tracer.restore()
    root = next(s for s in tracer.spans if s[3] == "request")
    duration = root[5] - root[4]
    total_self = sum(v[2] for v in tracer.stats.values())
    assert abs(total_self - duration) < 1e-6
    run = next(s for s in tracer.spans if s[3] == "user.Engine.run")
    assert run[1] == root[0] and run[2] == "r0"
    assert tracer.stats["user.Engine.run"][2] >= 0.003
    assert tracer.stats["request"][2] >= 0.002


def test_aliases_are_wrapped_and_restored():
    kern, user = fake_library()
    original = kern.leaf
    tracer = Tracer()
    tracer.install([kern, user])
    assert user.leaf is kern.leaf and user.leaf is not original
    user.Engine().run()
    tracer.restore()
    assert kern.leaf is original and user.leaf is original
    assert tracer.stats["kern.leaf"][0] == 2
    assert tracer.stats["user.Engine.run"][0] == 1


def test_recursion_counts_inclusive_time_once():
    kern, user = fake_library()
    tracer = Tracer()
    tracer.install([kern, user])
    try:
        t0 = time.perf_counter()
        kern.depth(3)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    calls, incl, self_s = tracer.stats["kern.depth"]
    assert calls == 4
    assert incl <= wall and abs(incl - self_s) < 1e-6


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
