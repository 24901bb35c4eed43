"""The package's own summaries and releases skip the checking constructors.

``compute_summary``, ``privatize_summaries`` and ``decide`` build their
``SampleSummary`` and ``PrivatizedSummary`` through ``mechanisms._admitted``,
which runs only the checks their values can still fail. What they build must
be what the constructor builds from the same values: the same bytes, dtype,
shape, layout and read-only flags, the same scalar fields. Every fault their
values can reach must raise the constructor's exception type and message.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dphotelling import decision
from dphotelling.decision import TestConfig, decide, release_group
from dphotelling.errors import BoundViolationError
from dphotelling.mechanisms import (PRIVACY_OFF, PrivatizedSummary,
                                    SampleSummary, compute_summary,
                                    privatize_group, privatize_summaries)
from dphotelling.randkit import RngStream

RELEASES = ("mean_x_dp", "mean_y_dp", "cov_x_dp", "cov_y_dp")

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def assert_same_fields(got, want):
    """Field by field: arrays by bytes, dtype, shape, layout and flags."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
            for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE"):
                assert a.flags[flag] == b.flags[flag], (field.name, flag)
        else:
            assert type(a) is type(b) and a == b, field.name


def outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow warnings
        try:
            return call()
        except Exception as exc:
            return type(exc), str(exc)


@st.composite
def samples(draw):
    """(data, m, clamp): n rows in the cube, or beyond it when clamped."""
    d = draw(st.sampled_from([1, 2, 3, 30]))
    n = draw(st.integers(2, 40))
    m = draw(st.floats(0.25, 8.0))
    clamp = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = 1.5 * m if clamp else m
    x = gen.uniform(-reach, reach, (n, d))
    # Some entries sit on a corner, where the bound check is tightest.
    corners = gen.random((n, d)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    x[corners] = np.copysign(m, x[corners])
    return x, m, clamp


class TestComputeSummary:
    @_SETTINGS
    @given(samples())
    def test_is_the_constructors(self, sample):
        x, m, clamp = sample
        s = compute_summary(x, m, clamp=clamp)
        # replace() rebuilds it through the checking constructor.
        assert_same_fields(s, dataclasses.replace(s))
        assert s.bound_m == float(m)

    def test_covariance_overflow(self):
        # A bound near 1e200 lets the covariance overflow.
        m = 1e200
        x = np.array([[m, 0.0], [-m, 0.5], [0.0, -0.5]])
        mean = x.sum(axis=0) / 3
        with np.errstate(over="ignore"):
            cov = (x - mean).T @ (x - mean) / 2
        want = outcome(lambda: SampleSummary(n=3, mean=mean, cov=cov,
                                             bound_m=m))
        assert want == (ValueError, "cov has a non-finite entry")
        assert outcome(lambda: compute_summary(x, m)) == want

    def test_mean_overflow_names_the_covariance(self):
        # The mean's sum overflows; every centered entry is then non-finite,
        # and the covariance is checked first.
        m = 1.5e308
        x = np.full((4, 1), m)
        assert outcome(lambda: compute_summary(x, m)) == (
            ValueError, "cov has a non-finite entry")

    @pytest.mark.parametrize("m", [2.2, 4.0])
    def test_mean_round_off_beyond_the_slack(self, m):
        # Summing 1e5 rows of 2.2 in order leaves the mean above 2.2 by
        # more than the round-off slack; 4 sums exactly.
        x = np.full((100_000, 2), m)
        got = outcome(lambda: compute_summary(x, m))
        if m == 4:
            assert isinstance(got, SampleSummary)
            return
        want = outcome(lambda: SampleSummary(
            n=len(x), mean=x.sum(axis=0) / len(x), cov=np.zeros((2, 2)),
            bound_m=float(m)))
        assert want == (BoundViolationError,
                        "mean coordinate outside [-2.2, 2.2]")
        assert got == want


class TestPrivatizeSummaries:
    @_SETTINGS
    @given(samples(), st.data())
    def test_is_the_constructors(self, sample, data):
        x, m, clamp = sample
        y = np.random.default_rng(x.shape).uniform(-m, m, (7, x.shape[1]))
        eps = data.draw(st.sampled_from([0.3, 1.0, 4.0, PRIVACY_OFF]))
        sx = compute_summary(x, m, clamp=clamp)
        sy = compute_summary(y, m)
        ps = privatize_summaries(RngStream(data.draw(st.integers(0, 99))),
                                 sx, sy, eps)
        assert_same_fields(ps, dataclasses.replace(ps))

    def test_release_overflow(self):
        # At m = 6e153, n = 2 and epsilon 4 a covariance release overflows
        # when its eigenvalue noise is large; the mean releases never do.
        m = 6e153
        wide = compute_summary(np.array([[m], [-m]]), m)
        narrow = compute_summary(np.array([[m / 2], [-m / 2]]), m)
        seen = set()
        for sx, sy in ((wide, wide), (narrow, wide), (wide, narrow)):
            for seed in range(20):
                got = outcome(lambda: privatize_summaries(
                    RngStream(seed), sx, sy, 4.0))
                raw = [outcome(lambda: privatize_group(RngStream(seed), s,
                                                       4.0, group))
                       for group, s in enumerate((sx, sy))]
                fields = dict(zip(("mean_x_dp", "cov_x_dp"), raw[0]))
                fields.update(zip(("mean_y_dp", "cov_y_dp"), raw[1]))
                want = outcome(lambda: PrivatizedSummary(
                    **fields, epsilon=4.0, n1=2, n2=2, bound_m=m))
                if isinstance(want, PrivatizedSummary):
                    assert_same_fields(got, want)
                else:
                    assert got == want
                    seen.add(want)
        assert seen == {(ValueError, "cov_x_dp has a non-finite entry"),
                        (ValueError, "cov_y_dp has a non-finite entry")}


class TestDecide:
    @staticmethod
    def summary_of(x_release, y_release, cfg):
        """The ``PrivatizedSummary`` that ``decide`` tests, or its fault."""
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decision, "_outcome",
                       lambda rng, ps, cfg: seen.append(ps))
            got = outcome(lambda: decide(RngStream(1), x_release, y_release,
                                         cfg))
        return seen[0] if seen else got

    @staticmethod
    def constructors(x_release, y_release, cfg):
        (n1, mx, cx), (n2, my, cy) = x_release, y_release
        return outcome(lambda: PrivatizedSummary(
            mean_x_dp=mx, mean_y_dp=my, cov_x_dp=cx, cov_y_dp=cy,
            epsilon=cfg.epsilon, n1=n1, n2=n2, bound_m=float(cfg.bound_m)))

    @_SETTINGS
    @given(samples(), st.data())
    def test_is_the_constructors(self, sample, data):
        x, m, clamp = sample
        y = np.random.default_rng(x.shape).uniform(-m, m, (9, x.shape[1]))
        cfg = TestConfig(
            epsilon=data.draw(st.sampled_from([0.5, 2.0, PRIVACY_OFF])),
            bound_m=m, clamp=clamp)
        rng = RngStream(data.draw(st.integers(0, 99)))
        releases = (release_group(rng, x, cfg, 0),
                    release_group(rng, y, cfg, 1))
        want = self.constructors(*releases, cfg)
        assert_same_fields(self.summary_of(*releases, cfg), want)

    def test_release_overflow(self):
        m = 6e153
        cfg = TestConfig(epsilon=4.0, bound_m=m)
        seen = set()
        for seed in range(20):
            releases = [outcome(lambda: release_group(RngStream(seed), data,
                                                      cfg, group))
                        for group, data in enumerate(
                            (np.array([[m], [-m]]), np.array([[m], [0.0]])))]
            want = self.constructors(*releases, cfg)
            got = self.summary_of(*releases, cfg)
            if isinstance(want, PrivatizedSummary):
                assert_same_fields(got, want)
            else:
                assert got == want
                seen.add(want[1])
        assert seen == {"cov_x_dp has a non-finite entry",
                        "cov_y_dp has a non-finite entry"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_releases_in_order(self, bad):
        # Each release, and each pair, faults as the constructor does: the
        # first non-finite release in the order mean_x, mean_y, cov_x, cov_y.
        cfg = TestConfig(epsilon=1.0, bound_m=1.0)
        for mask in range(1, 16):
            fields = {"mean_x_dp": np.zeros(2), "mean_y_dp": np.zeros(2),
                      "cov_x_dp": np.eye(2), "cov_y_dp": np.eye(2)}
            for i, name in enumerate(RELEASES):
                if mask >> i & 1:
                    fields[name][-1] = bad
            x_release = (10, fields["mean_x_dp"], fields["cov_x_dp"])
            y_release = (12, fields["mean_y_dp"], fields["cov_y_dp"])
            want = self.constructors(x_release, y_release, cfg)
            first = RELEASES[(mask & -mask).bit_length() - 1]
            assert want == (ValueError, f"{first} has a non-finite entry")
            assert self.summary_of(x_release, y_release, cfg) == want
