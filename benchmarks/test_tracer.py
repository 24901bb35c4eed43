"""Tests of the benchmark's tracer on a synthetic package.

Run with ``python3 -m pytest benchmarks/test_tracer.py``.
"""

import sys
import types

import pytest

from tracer import Tracer

PKG = "fakepkg"


class ScriptedClock:
    """Returns the given instants, one per call."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


@pytest.fixture
def fakepkg():
    """fakepkg.low defines inner; fakepkg.high defines outer and copies inner."""
    pkg = types.ModuleType(PKG)
    low = types.ModuleType(f"{PKG}.low")
    high = types.ModuleType(f"{PKG}.high")

    def inner(x):
        return x + 1

    def outer(x):
        return high.inner(x) + high.inner(x)

    def fails():
        raise RuntimeError("boom")

    def _helper():
        return None

    class Stream:
        def __init__(self, seed):
            self.seed = seed

    for fn in (inner, fails, _helper):
        fn.__module__ = low.__name__
    Stream.__module__ = low.__name__
    outer.__module__ = high.__name__
    low.inner, low.fails, low.Stream, low._helper = inner, fails, Stream, _helper
    high.outer = outer
    high.inner = inner  # as left by `from .low import inner`
    pkg.outer = outer
    mods = {PKG: pkg, low.__name__: low, high.__name__: high}
    sys.modules.update(mods)
    yield types.SimpleNamespace(pkg=pkg, low=low, high=high, inner=inner,
                                outer=outer, Stream=Stream,
                                helper=_helper, stream_init=Stream.__init__)
    for name in mods:
        del sys.modules[name]


def test_self_time_of_nested_calls(fakepkg):
    # outer starts at 0, inner runs 1..3 and 4..7, outer ends at 10.
    clock = ScriptedClock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0)
    with Tracer(PKG, ["low", "high"], clock=clock) as tracer:
        assert fakepkg.pkg.outer(1) == 4
    assert tracer.counts("high", "outer") == (1, 5.0)
    assert tracer.counts("low", "inner") == (2, 5.0)
    assert tracer.layer_self_s("high") == 5.0
    assert tracer.layer_self_s("low") == 5.0


def test_counts_accumulate_across_entries(fakepkg):
    tracer = Tracer(PKG, ["low"])
    for _ in range(3):
        with tracer:
            fakepkg.high.inner(0)
    assert tracer.counts("low", "inner")[0] == 3


def test_constructor_of_a_class_is_counted(fakepkg):
    with Tracer(PKG, ["low"]) as tracer:
        assert fakepkg.low.Stream(7).seed == 7
    assert tracer.counts("low", "Stream")[0] == 1


def test_bindings_restored(fakepkg):
    with pytest.raises(RuntimeError):
        with Tracer(PKG, ["low", "high"]) as tracer:
            assert fakepkg.high.inner is not fakepkg.inner
            assert fakepkg.pkg.outer is not fakepkg.outer
            fakepkg.low.fails()
    assert tracer.counts("low", "fails")[0] == 1
    assert fakepkg.low.inner is fakepkg.inner
    assert fakepkg.high.inner is fakepkg.inner
    assert fakepkg.high.outer is fakepkg.outer
    assert fakepkg.pkg.outer is fakepkg.outer
    assert fakepkg.Stream.__init__ is fakepkg.stream_init


def test_private_names_are_not_wrapped(fakepkg):
    with Tracer(PKG, ["low"]) as tracer:
        assert fakepkg.low._helper is fakepkg.helper
    assert ("low", "_helper") not in tracer.stats


def test_missing_function_and_layer_read_zero(fakepkg):
    with Tracer(PKG, ["low", "gone"]) as tracer:
        fakepkg.high.inner(0)
    assert tracer.counts("low", "deleted_function") == (0, 0.0)
    assert tracer.counts("gone", "anything") == (0, 0.0)
    assert tracer.layer_self_s("gone") == 0.0
