"""Fixed-seed outputs of ``run_test``, pinned to catch unintended changes.

The values hold for one numpy/LAPACK build up to round-off. They are those
of the ED calibration C = n cov_hat / (2 d m^2), eps_step = eps_part / d;
the earlier calibration, which spent up to twice its part, gave other
values at every d, d = 1 included. The d = 1 path draws no sphere
directions, so a change to the draw order leaves it alone. The d = 3 and
d = 30 values are those of the Householder basis: a change that keeps the
draw order must reproduce them, and one that changes it, or the noise
calibration, must update them and show that the acceptance criteria stay
in their bands.
"""

import pytest

from dphotelling.decision import TestConfig, run_test
from dphotelling.randkit import RngStream
from dphotelling.simbench import DesignSpec, generate

GOLDEN = {
    1: (18.66879392635234, 4.660430027391798),
    3: (41.00598475617431, 33.02688693106958),
    30: (150.15033095935502, 362.06415706521966),
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
