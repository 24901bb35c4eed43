"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] ... PASS/FAIL` line (visible with
``pytest -s`` or on failure). Monte Carlo criteria use fixed master seeds;
bands are wide enough that any honest seed passes with high probability.
Criterion 7 is the long one and carries the ``slow`` marker.
"""

import math

import numpy as np
import pytest

from dphotelling import mechanisms, t_dp_statistic
from dphotelling.decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig,
                                  run_on_summaries, run_test)
from dphotelling.mechanisms import (BUDGET_PARTS, PRIVACY_OFF,
                                    compute_summary, ed_covariance,
                                    privatize_summaries)
from dphotelling.numlin import symmetric_eigen
from dphotelling.randkit import RngStream, sample_bingham_vector
from dphotelling.simbench import (CellSpec, DesignSpec, example32_cells,
                                  generate, run_grid)
from oracles import (angular_mean_abs_cos, chi2_cdf, hotelling_t2,
                     ks_statistic_vec, squared_two_sample_t)

N_JOBS = 2


def _report(num: int, desc: str, detail: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {desc}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {desc}: {detail}"


def _level_cell(design: DesignSpec, eps: float, n: int, kind: str,
                reps: int, seed: int) -> float:
    cell = CellSpec(design=design, eps=eps, n=n, kind=kind)
    table = run_grid([cell], reps, master_seed=seed, n_jobs=N_JOBS)
    return table.rows[0].reject_rate


def test_criterion_01_bootstrap_level_d1():
    rate = _level_cell(DesignSpec("uniform_cube", 1), 0.5, 1000, BOOTSTRAP,
                       1000, seed=0)
    _report(1, "bootstrap level d=1 eps=0.5 n=1e3 (reference 0.05)",
            f"rate={rate:.4f} in [0.032, 0.068]", 0.032 <= rate <= 0.068)


def test_criterion_02_bootstrap_level_d10():
    rate = _level_cell(DesignSpec("uniform_cube", 10), 0.1, 100, BOOTSTRAP,
                       1000, seed=0)
    _report(2, "bootstrap level d=10 eps=0.1 n=1e2 (reference 0.058)",
            f"rate={rate:.4f} in [0.03, 0.09]", 0.03 <= rate <= 0.09)


def test_criterion_03_asymptotic_inflation_d1():
    rate = _level_cell(DesignSpec("uniform_cube", 1), 0.1, 100, ASYMPTOTIC,
                       1000, seed=0)
    _report(3, "asymptotic inflation d=1 eps=0.1 n=1e2 (reference 0.738)",
            f"rate={rate:.4f} in [0.65, 0.82]", 0.65 <= rate <= 0.82)


def test_criterion_04_asymptotic_breakdown_d10():
    rate = _level_cell(DesignSpec("uniform_cube", 10), 1.0, 100, ASYMPTOTIC,
                       500, seed=0)
    _report(4, "asymptotic breakdown d=10 eps=1 n=1e2 (reference 1)",
            f"rate={rate:.4f} >= 0.95", rate >= 0.95)


def test_criterion_05_truncated_gaussian_inflation():
    table = run_grid(example32_cells(), 2000, master_seed=0, n_jobs=N_JOBS)
    f4, f1 = (row.reject_rate for row in table.rows)
    ok = (0.04 <= f4 <= 0.10) and (0.15 <= f1 <= 0.23)
    _report(5, "truncated-Gaussian asymptotic test (reference 6.8% / 18.9%)",
            f"eps=4: {f4:.4f} in [0.04, 0.10]; eps=1: {f1:.4f} in [0.15, 0.23]",
            ok)


def test_criterion_06_toeplitz_bootstrap_level():
    rate = _level_cell(DesignSpec("toeplitz", 10), 0.5, 1000, BOOTSTRAP,
                       1000, seed=0)
    _report(6, "bootstrap level toeplitz d=10 eps=0.5 n=1e3 (reference 0.055)",
            f"rate={rate:.4f} in [0.035, 0.075]", 0.035 <= rate <= 0.075)


@pytest.mark.slow
def test_criterion_07_power_high_dimension():
    rate = _level_cell(DesignSpec("uniform_cube", 30, a=1.0), 0.1, 100000,
                       BOOTSTRAP, 200, seed=0)
    _report(7, "power d=30 eps=0.1 a=1 n=1e5",
            f"power={rate:.4f} >= 0.9", rate >= 0.9)


def test_criterion_08_covariance_release_consistency():
    spec = DesignSpec("uniform_cube", 3)
    medians = []
    for n in (100, 1000, 10000):
        errs = []
        for rep in range(200):
            rng = RngStream(42).substream(n, rep)
            x, _ = generate(rng.substream(0), spec, n, n)
            s = compute_summary(x, spec.bound_m)
            out = ed_covariance(rng.substream(1), s, 0.25)
            errs.append(np.linalg.norm(out - np.eye(3)))
        medians.append(float(np.median(errs)))
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= 0.1
    _report(8, "covariance release error shrinks with n (d=3, eps=1)",
            f"medians={[round(m, 4) for m in medians]} decreasing, last <= 0.1",
            ok)


def test_criterion_09_null_distribution_ks():
    spec = DesignSpec("uniform_cube", 1)
    reps = 1000
    stats = np.empty(reps)
    for rep in range(reps):
        rng = RngStream(0).substream(9, rep)
        x, y = generate(rng.substream(0), spec, 100000, 100000)
        sx = compute_summary(x, spec.bound_m)
        sy = compute_summary(y, spec.bound_m)
        ps = privatize_summaries(rng.substream(1), sx, sy, 5.0)
        stats[rep] = t_dp_statistic(ps)
    ks = ks_statistic_vec(stats, lambda xs: np.array([chi2_cdf(v, 1)
                                                       for v in xs]))
    _report(9, "null statistic close to chi2_1 (d=1, eps=5, n=1e5)",
            f"KS={ks:.4f} <= 0.06", ks <= 0.06)


def test_criterion_10_privacy_off_degeneration():
    gen = np.random.default_rng(123)
    worst = 0.0
    for i in range(100):
        d = int(gen.integers(1, 6))
        n1 = int(gen.integers(3, 80))
        n2 = int(gen.integers(3, 80))
        sx = compute_summary(gen.uniform(-1.0, 1.0, (n1, d)), 1.0)
        sy = compute_summary(gen.uniform(-1.0, 1.0, (n2, d)), 1.0)
        ps = privatize_summaries(RngStream(200, i), sx, sy, PRIVACY_OFF)
        classical = hotelling_t2(sx.mean, sy.mean, sx.cov, sy.cov, n1, n2)
        worst = max(worst, abs(t_dp_statistic(ps) - classical))
    ok_pipeline = worst <= 1e-10

    worst_t = 0.0
    for i in range(100):
        n1 = int(gen.integers(2, 60))
        n2 = int(gen.integers(2, 60))
        x = gen.uniform(-1.0, 1.0, n1)
        y = gen.uniform(-1.0, 1.0, n2)
        ps = privatize_summaries(RngStream(201, i), compute_summary(x, 1.0),
                                 compute_summary(y, 1.0), PRIVACY_OFF)
        val = t_dp_statistic(ps)
        worst_t = max(worst_t, abs(val - squared_two_sample_t(x, y)))
    ok_oracle = worst_t <= 1e-10
    _report(10, "privacy-off pipeline equals classical statistic",
            f"max dev {worst:.2e} <= 1e-10; vs squared-t oracle "
            f"{worst_t:.2e} <= 1e-10", ok_pipeline and ok_oracle)


def test_criterion_11_sphere_sampler():
    rng = RngStream(13)
    dec = symmetric_eigen(np.diag([10.0, 0.0]))
    n = 10**5
    mean_abs = 0.0
    for _ in range(n):
        mean_abs += abs(sample_bingham_vector(rng, dec, 8.0)[0])
    mean_abs /= n
    oracle = angular_mean_abs_cos(20.0)
    ok_mean = abs(mean_abs - oracle) <= 0.01

    # Isotropic C: acceptance probability is identically 1, so each call
    # consumes exactly one proposal batch; the stream then stays aligned
    # with a reference stream burning the same draws.
    q = 2
    r1 = RngStream(77)
    dec = symmetric_eigen(3.0 * np.eye(q))
    for _ in range(500):
        sample_bingham_vector(r1, dec, 2.0)
    r2 = RngStream(77)
    for _ in range(500):
        r2.generator.standard_normal((32, q))
        r2.generator.uniform(size=32)
    ok_iso = (r1.generator.standard_normal(4).tobytes()
              == r2.generator.standard_normal(4).tobytes())
    _report(11, "sphere sampler vs quadrature oracle; isotropic acceptance 1",
            f"|mean|u1| - oracle| = {abs(mean_abs - oracle):.5f} <= 0.01; "
            f"isotropic single-batch {ok_iso}", ok_mean and ok_iso)


def test_criterion_12_budget_audit(monkeypatch):
    # Spy on the four releases: the part each one is handed must be the
    # part the outcome reports for it.
    received = []  # (release kind, summary, eps_part) in call order

    def spy(kind, release):
        def call(rng, s, eps_part):
            received.append((kind, s, eps_part))
            return release(rng, s, eps_part)
        return call

    monkeypatch.setattr(mechanisms, "privatize_mean",
                        spy("mean", mechanisms.privatize_mean))
    monkeypatch.setattr(mechanisms, "ed_covariance",
                        spy("cov", mechanisms.ed_covariance))
    gen = np.random.default_rng(7)
    checked = 0
    for eps in (0.1, 0.5, 1.0, 4.0, 5.0, 1.0 / 3.0, math.pi, 0.07, 11.3):
        for i in range(20):
            d = int(gen.integers(1, 4))
            n1 = int(gen.integers(2, 50))
            n2 = int(gen.integers(2, 50))
            sx = compute_summary(gen.uniform(-1.0, 1.0, (n1, d)), 1.0)
            sy = compute_summary(gen.uniform(-1.0, 1.0, (n2, d)), 1.0)
            cfg = TestConfig(epsilon=eps, bound_m=1.0,
                             threshold_kind=ASYMPTOTIC)
            received.clear()
            parts = run_on_summaries(RngStream(300, i), sx, sy,
                                     cfg).budget_split
            group = {id(sx): "x", id(sy): "y"}
            spent = {f"{kind}_{group[id(s)]}": e for kind, s, e in received}
            assert len(received) == 4 and len(spent) == 4
            assert [spent[name] for name in BUDGET_PARTS] == list(parts)
            assert math.fsum(parts) == eps
            checked += 1
    _report(12, "four budget parts sum to epsilon exactly",
            f"{checked} privatized summaries audited", checked == 180)


def test_privacy_off_full_test_runs():
    # End-to-end sanity for the sentinel path through run_test.
    spec = DesignSpec("uniform_cube", 2)
    x, y = generate(RngStream(55), spec, 500, 500)
    cfg = TestConfig(epsilon=PRIVACY_OFF, bound_m=spec.bound_m,
                     threshold_kind=ASYMPTOTIC)
    out = run_test(RngStream(56), x, y, cfg)
    assert out.statistic >= 0.0
    assert out.threshold > 0.0
