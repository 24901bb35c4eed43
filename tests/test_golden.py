"""Fixed-seed outputs of ``run_test``, pinned to catch unintended changes.

The values hold for one numpy/LAPACK build up to round-off. The d = 1 path
draws no sphere directions; its values predate the Householder deflation
of the ED release and must never move. The d = 3 and d = 30 values are
those of the Householder basis: a change that keeps the draw order must
reproduce them, and one that changes it must update them and show that
the acceptance criteria stay in their bands.
"""

import pytest

from dphotelling.decision import TestConfig, run_test
from dphotelling.randkit import RngStream
from dphotelling.simbench import DesignSpec, generate

GOLDEN = {
    1: (18.186136571654792, 4.5319485194201725),
    3: (45.51057526262377, 42.60306796872685),
    30: (277.80237825478633, 651.6877119515007),
}


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_run_test_statistic_and_threshold(d):
    spec = DesignSpec("uniform_cube", d, a=0.5)
    x, y = generate(RngStream(100 + d), spec, 400, 300)
    cfg = TestConfig(epsilon=2.0, bound_m=spec.bound_m)
    out = run_test(RngStream(7, d), x, y, cfg)
    statistic, threshold = GOLDEN[d]
    assert out.statistic == pytest.approx(statistic, rel=1e-9)
    assert out.threshold == pytest.approx(threshold, rel=1e-9)
