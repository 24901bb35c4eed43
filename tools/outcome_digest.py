"""Print one SHA-256 over the package's outputs, to compare two trees byte for byte.

Usage: python tools/outcome_digest.py [SRC_DIR]

SRC_DIR is the directory that holds the ``dphotelling`` package; it
defaults to the ``src`` directory next to this script. Run the script once
per tree, for example on a parent commit and on a change, with the same
numpy build: equal digests mean that every output below has the same bytes.

The digest covers
  - the repr of ``run_test``'s outcome for d in {1, 2, 3, 10, 30},
    epsilon in {0.3, 1, 2, inf}, both threshold rules, clamping on and off;
  - the standard output of ``test --json``, ``test`` and ``calibrate`` on
    two CSV pairs, d = 30 with n = 1000 and d = 10 with n = 1e5;
  - the exit code and standard error of ``test`` on three fault pairs of
    files above the fork floor: x outside the bound with a malformed y,
    only y outside the bound, and a y one column wider than x;
  - the CSV and ``--summary-json`` files of ``simulate --example32
    --reps 20``;
  - ``run_grid`` tables at d = 1 and d = 10, serial and on two processes;
  - each cell of ``table1_cells``, ``table2_cells`` and ``power_cells`` at
    their default counts, with its ``reps`` and ``bound_m``;
  - Toeplitz ``generate`` data at d in {2, 10, 30} and one Toeplitz
    ``run_grid`` cell;
  - ``t_dp_statistic``, ``private_pooled_covariance``, ``private_whitener``
    and ``bootstrap_threshold`` on ``privatize_summaries`` output at
    d in {1, 3}, n1 != n2, epsilon in {1, inf};
  - the first draws of ``RngStream`` streams whose seed, stream id or
    substream tags take two to seven 32-bit words (values at and above
    2**32, 2**64 and 2**128), which the parts above never use;
  - two d = 1 ``run_grid`` cells of 2500 replications each, more tags
    than ``randkit``'s tag cache holds, so that the second cell meets
    tags the first evicted, and a small grid under a master seed above
    2**128.
  - ``numlin.inverse_sqrt_psd`` and ``numlin.psd_sqrt`` of 1x1 and 2x2
    matrices at edge values: zero of both signs, below the inverse-root
    floor, round-off negatives, entries whose square overflows, and NaN,
    inf and clearly negative input, whose exception type and message
    count, as do the warnings of every call;
  - the full Philox state of a few streams (counter, key, buffer,
    ``buffer_pos``, ``has_uint32``, ``uinteger``), as built and after
    draws;
  - the exception type and message, and the warnings, of construction
    faults through ``compute_summary``, ``privatize_summaries``,
    ``run_test`` and ``release_group`` plus ``decide``: bounds whose
    covariance, mean or release overflows, a mean whose round-off leaves
    the bound, non-finite and out-of-bound data, bad bounds and epsilons,
    mismatched dimensions or bounds, and non-finite releases handed to
    ``decide`` (whose release dimensions the CLI's payload length fixes);
  - the layout, ownership and write flags of every array those functions,
    ``generate``, ``private_pooled_covariance`` and ``private_whitener``
    return, and of the summary ``decide`` tests;
  - ``numlin.symmetric_eigen``'s own ``(w, V)``, ``ed_covariance``
    releases (finite epsilon and privacy off) and ``sample_bingham_vector``
    draws on 2.5 I_3, diag(4, 4, 1) and diag(1, 3, 1, 3), whose eigenvalues
    tie exactly. A tied eigenspace enters the releases and the draws
    symmetrically, so only the eigenpairs' bytes show the order of tied
    eigenpairs.

BLAS runs on one thread unless the environment says otherwise, so that
matrix products sum in a fixed order.
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = (Path(sys.argv[1]) if len(sys.argv) > 1
       else Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dphotelling  # noqa: E402
from dphotelling import (cli, compute_summary, decision,  # noqa: E402
                         numlin, privatize_summaries, simbench,
                         t_dp_statistic)
from dphotelling.decision import (ASYMPTOTIC, BOOTSTRAP,  # noqa: E402
                                  TestConfig, bootstrap_threshold, decide,
                                  private_pooled_covariance, private_whitener,
                                  release_group, run_test)
from dphotelling.mechanisms import (PRIVACY_OFF, SampleSummary,  # noqa: E402
                                    ed_covariance, privatize_group)
from dphotelling.randkit import RngStream, sample_bingham_vector  # noqa: E402
from dphotelling.simbench import CellSpec, DesignSpec, generate  # noqa: E402

KINDS = (BOOTSTRAP, ASYMPTOTIC)


def outcomes():
    """repr of each TestOutcome; clamping runs under a bound the data exceed."""
    for d in (1, 2, 3, 10, 30):
        spec = DesignSpec("uniform_cube", d, a=0.3)
        x, y = generate(RngStream(100 + d), spec, 120, 100)
        for eps in (0.3, 1.0, 2.0, math.inf):
            for kind in KINDS:
                for clamp in (False, True):
                    bound = spec.bound_m * (0.8 if clamp else 1.0)
                    cfg = TestConfig(epsilon=eps, bound_m=bound,
                                     threshold_kind=kind, clamp=clamp)
                    yield repr(run_test(RngStream(7, d), x, y, cfg))


def cli_outputs(work: Path):
    """stdout of `test --json`, `test` and `calibrate` on two CSV pairs."""
    for d, n in ((30, 1000), (10, 100_000)):
        gen = np.random.default_rng(d)
        paths = []
        for group in ("x", "y"):
            path = work / f"{group}_{d}.csv"
            np.savetxt(path, gen.uniform(-1.0, 1.0, (n, d)), fmt="%.17g",
                       delimiter=",")
            paths.append(str(path))
        for argv in (["test", *paths, "--json"], ["test", *paths],
                     ["calibrate", *paths]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*argv, "--epsilon", "1", "--bound-m", "1",
                                 "--seed", "3"])
            yield f"{argv[0]} d={d} exit={code}\n{buf.getvalue()}"


def cli_faults(work: Path):
    """Exit code and stderr of `test` when x, y or both are at fault.

    Every file is above the fork floor, so the faults meet the two-process
    path: in the last pair y is released, and only the length of its
    payload tells the widths apart.
    """
    gen = np.random.default_rng(5)
    clean, outside = (work / "clean.csv", work / "outside.csv")
    np.savetxt(clean, gen.uniform(-1.0, 1.0, (6000, 10)), fmt="%.17g",
               delimiter=",")
    data = gen.uniform(-1.0, 1.0, (6000, 10))
    data[4321, 7] = 1.5
    np.savetxt(outside, data, fmt="%.17g", delimiter=",")
    malformed = work / "malformed.csv"
    malformed.write_text(clean.read_text() + "0.1,oops" + ",0.2" * 8 + "\n")
    wide = work / "wide.csv"
    np.savetxt(wide, gen.uniform(-1.0, 1.0, (6000, 11)), fmt="%.17g",
               delimiter=",")
    for x, y in ((outside, malformed), (clean, outside), (clean, wide)):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            code = cli.main(["test", str(x), str(y), "--epsilon", "1",
                             "--bound-m", "1", "--seed", "3"])
        err = buf.getvalue().replace(str(work), "WORK")
        yield f"test {x.name} {y.name} exit={code}\n{err}"


def simulate_files(work: Path):
    """The CSV and summary JSON that `simulate --example32 --reps 20` writes."""
    table, summary = work / "example32.csv", work / "example32.json"
    code = cli.main(["simulate", "--example32", "--reps", "20", "--quiet",
                     "--out", str(table), "--summary-json", str(summary)])
    yield f"simulate exit={code}\n{table.read_text()}\n{summary.read_text()}"


def grid_tables():
    """run_grid rows at d = 1 and d = 10 for n_jobs 1 and 2."""
    small = [CellSpec(DesignSpec("uniform_cube", 1, a=a), eps=eps, n=n,
                      kind=kind)
             for kind in KINDS for eps in (0.3, 1.0) for n in (100, 1000)
             for a in (0.0, 0.2)]
    wide = [CellSpec(DesignSpec("uniform_cube", 10, a=0.5), eps=1.0, n=200,
                     kind=kind) for kind in KINDS]
    for cells, reps in ((small, 20), (wide, 6)):
        for n_jobs in (1, 2):
            table = simbench.run_grid(cells, reps, master_seed=11,
                                      n_jobs=n_jobs)
            yield repr(table.rows)


def grid_cells():
    """Every cell the three paper grids build, as ``simulate`` runs them."""
    for build in (simbench.table1_cells, simbench.table2_cells,
                  simbench.power_cells):
        for c in build():
            spec = c.design
            yield (f"{build.__name__} {spec.design} d={spec.d} a={spec.a!r} "
                   f"eps={c.eps!r} n={c.n} {c.kind} reps={c.reps} "
                   f"bound_m={spec.bound_m!r}")


def toeplitz_outputs():
    """Toeplitz data bytes at d in {2, 10, 30} and one Toeplitz grid cell."""
    for d in (2, 10, 30):
        x, y = generate(RngStream(200 + d), DesignSpec("toeplitz", d, a=0.4),
                        50, 40)
        yield hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()
    cell = CellSpec(DesignSpec("toeplitz", 10), eps=0.5, n=200)
    yield repr(simbench.run_grid([cell], 6, master_seed=13).rows)


def statistic_parts():
    """The statistic, the pool, the whitener and a bootstrap threshold."""
    for d in (1, 3):
        spec = DesignSpec("uniform_cube", d, a=0.3)
        x, y = generate(RngStream(300 + d), spec, 90, 70)
        sx = compute_summary(x, spec.bound_m)
        sy = compute_summary(y, spec.bound_m)
        for eps in (1.0, PRIVACY_OFF):
            ps = privatize_summaries(RngStream(8, d), sx, sy, eps)
            whitener = private_whitener(ps)
            cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m)
            threshold = bootstrap_threshold(RngStream(9, d), ps, cfg,
                                            whitener)
            pool = private_pooled_covariance(ps)
            yield (f"d={d} eps={eps!r} t={t_dp_statistic(ps)!r} "
                   f"threshold={threshold!r} pool={pool.tobytes().hex()} "
                   f"whitener={whitener.tobytes().hex()}")


def wide_streams():
    """First draws of streams whose identity needs more than one 32-bit word."""
    for seed, stream_id, path in (
            (2**32, 0, ()), (5, 2**32 + 1, (3,)), (7, 1, (2**32 - 1, 2**32)),
            (2**64 - 1, 2**64, ()), (1, 2, (2**64 + 3, 0, 2**96)),
            (2**128 + 9, 4, (2**70,)), (2**160 - 1, 2**128, (2**200, 1))):
        rng = RngStream(seed, stream_id).substream(*path)
        yield rng.generator.standard_normal(4).tobytes().hex()


def long_and_wide_grids():
    """Cells with more replications than the tag cache; a five-word seed."""
    spec = DesignSpec("uniform_cube", 1)
    long = [CellSpec(spec, eps=1.0, n=60, kind=kind, reps=2500)
            for kind in KINDS]
    yield repr(simbench.run_grid(long, 1, master_seed=17).rows)
    wide = [CellSpec(DesignSpec("uniform_cube", d), eps=0.5, n=80, kind=kind)
            for d in (1, 3) for kind in KINDS]
    yield repr(simbench.run_grid(wide, 12, master_seed=2**128 + 19).rows)


def root_edges():
    """Both square roots at edge values: bytes or error, and warnings."""
    inf, nan = math.inf, math.nan
    edges = [[[w]] for w in (0.0, -0.0, 1e-13, 5e-324, 1e-12, 2.5, -1e-11,
                             -1e-300, 1e200, -1e200, -0.5, nan, inf, -inf)]
    edges += [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.0]],
              [[2.0, 0.0], [0.0, 1e-13]], [[1.0, 0.0], [0.0, -1e-11]],
              [[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.5], [0.5, 1e-14]],
              [[1e200, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -0.5]],
              [[nan, 0.0], [0.0, 1.0]]]
    for a in edges:
        for kernel in (numlin.inverse_sqrt_psd, numlin.psd_sqrt):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    out = kernel(np.array(a, dtype=float)).tobytes().hex()
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
            yield (f"{kernel.__name__} {a!r} {out} "
                   f"{[str(w.message) for w in seen]}")


def philox_states():
    """Every field of the Philox state of a few streams, before and after
    draws that leave a buffered word and a half word."""
    for seed, stream_id, path in ((0, 0, ()), (1001, 3, (7, 0)),
                                  (2**64 + 1, 2**32, (2**70, 5, 1))):
        gen = RngStream(seed, stream_id).substream(*path).generator
        for draws in (0, 3):
            gen.integers(0, 2**32, size=draws, dtype=np.uint32)
            state = gen.bit_generator.state
            inner = state["state"]
            yield (f"{state['bit_generator']} "
                   f"{inner['counter'].tobytes().hex()} "
                   f"{inner['key'].tobytes().hex()} "
                   f"{state['buffer'].tobytes().hex()} {state['buffer_pos']} "
                   f"{state['has_uint32']} {state['uinteger']}")


def _fault(call) -> str:
    """The result's type, or the exception type and message, and warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = type(call()).__name__
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
    return f"{out} {[str(w.message) for w in seen]}"


def _decided(x_release, y_release, cfg):
    """The ``PrivatizedSummary`` that ``decide`` hands to its outcome."""
    seen = []
    outcome = decision._outcome
    decision._outcome = lambda rng, ps, cfg: seen.append(ps)
    try:
        decide(RngStream(1), x_release, y_release, cfg)
    finally:
        decision._outcome = outcome
    return seen[0]


def construction_faults():
    """Faults that summaries and releases meet on the way into the test."""
    nan, inf = math.nan, math.inf
    grid = np.linspace(-0.9, 0.9, 24).reshape(8, 3)
    summary_cases = [
        (np.array([[1e200, 0.0], [-1e200, 0.5], [0.0, -0.5]]), 1e200, False),
        (np.full((4, 1), 1.5e308), 1.5e308, False),
        (np.full((100_000, 2), 2.2), 2.2, False),
        (np.full((100_000, 2), 4.0), 4.0, False),
        (np.where(grid > 0.5, nan, grid), 1.0, False),
        (np.where(grid > 0.5, -inf, grid), 1.0, True),
        (grid * 2.0, 1.0, False), (grid * 2.0, 1.0, True),
        (grid, 0.0, False), (grid, -1.0, True), (grid, inf, False),
        (grid, nan, False), (grid[:1], 1.0, False), (grid[None], 1.0, False),
    ]
    for x, m, clamp in summary_cases:
        yield f"compute_summary {_fault(lambda: compute_summary(x, m, clamp))}"
    m = 6e153
    wide = compute_summary(np.array([[m], [-m]]), m)
    narrow = compute_summary(np.array([[m / 2], [-m / 2]]), m)
    for sx, sy in ((wide, wide), (narrow, wide), (wide, narrow)):
        for seed in range(20):
            yield "privatize_summaries " + _fault(
                lambda: privatize_summaries(RngStream(seed), sx, sy, 4.0))
    s2 = compute_summary(grid[:, :2], 1.0)
    s3 = compute_summary(grid, 1.0)
    s3m = compute_summary(grid, 2.0)
    for sx, sy, eps in ((s2, s3, 1.0), (s3, s3m, 1.0), (s3, s3, 0.0),
                        (s3, s3, -1.0), (s3, s3, nan), (s3, s3, 1e-320),
                        (s3, s3, 1e-300)):
        yield "privatize_summaries " + _fault(
            lambda: privatize_summaries(RngStream(0), sx, sy, eps))
    tiny = compute_summary(grid * 1e-161, 1e-160, clamp=True)
    yield "privatize_summaries " + _fault(
        lambda: privatize_summaries(RngStream(0), tiny, tiny, 1.0))
    for x, y, bound, clamp in (
            (grid, grid[:, :2], 1.0, False), (grid * 2.0, grid, 1.0, False),
            (grid, grid * 2.0, 1.0, True), (grid, np.where(grid > 0, nan, 0),
                                            1.0, False),
            (np.array([[1e200], [-1e200]]), grid[:, :1] * 1e200, 1e200,
             False),
            (np.array([[m], [-m]]), np.array([[m], [0.0]]), m, False)):
        cfg = TestConfig(epsilon=4.0, bound_m=bound, clamp=clamp)
        yield "run_test " + _fault(
            lambda: run_test(RngStream(5), x, y, cfg))
    cfg = TestConfig(epsilon=4.0, bound_m=m)
    for seed in range(20):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            releases = [release_group(RngStream(seed), data, cfg, group)
                        for group, data in enumerate(
                            (np.array([[m], [-m]]), np.array([[m], [0.0]])))]
        yield (f"decide {[str(w.message) for w in seen]} "
               f"{_fault(lambda: _decided(*releases, cfg))}")
    cfg = TestConfig(epsilon=1.0, bound_m=1.0)
    for mask in range(1, 16):
        arrays = [np.zeros(2), np.zeros(2), np.eye(2), np.eye(2)]
        for i, a in enumerate(arrays):
            if mask >> i & 1:
                a[-1] = (nan, inf, -inf)[mask % 3]
        yield "decide " + _fault(lambda: _decided(
            (10, arrays[0], arrays[2]), (12, arrays[1], arrays[3]), cfg))


def tied_spectra():
    """Eigenpairs, ED releases and sphere-sampler draws on matrices with
    exact eigenvalue ties."""
    for c in (2.5 * np.eye(3), np.diag([4.0, 4.0, 1.0]),
              np.diag([1.0, 3.0, 1.0, 3.0])):
        d = c.shape[0]
        w, v = numlin.symmetric_eigen(c)
        yield f"{w.tobytes().hex()} {v.tobytes().hex()}"
        s = SampleSummary(n=50, mean=np.zeros(d), cov=c, bound_m=1.0)
        for eps_part in (0.5, 4.0, PRIVACY_OFF):
            for seed in range(3):
                yield ed_covariance(RngStream(seed, d), s,
                                    eps_part).tobytes().hex()
        rng = RngStream(21, d)
        for eps_step in (0.5, 2.0, 8.0):
            for _ in range(3):
                u = sample_bingham_vector(rng, numlin.symmetric_eigen(c),
                                          eps_step)
                yield u.tobytes().hex()


def _flags(a: np.ndarray) -> str:
    return " ".join(f"{k}={a.flags[k]}" for k in (
        "C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE"))


def array_flags():
    """Flags of every array the pipeline's functions return."""
    releases = ("mean_x_dp", "mean_y_dp", "cov_x_dp", "cov_y_dp")
    for d in (1, 3):
        spec = DesignSpec("uniform_cube", d, a=0.3)
        x, y = generate(RngStream(400 + d), spec, 40, 30)
        yield f"generate {_flags(x)} {_flags(y)}"
        for eps in (1.0, PRIVACY_OFF):
            for clamp in (False, True):
                sx = compute_summary(x, spec.bound_m, clamp)
                sy = compute_summary(y, spec.bound_m, clamp)
                yield f"summary {_flags(sx.mean)} {_flags(sx.cov)}"
                ps = privatize_summaries(RngStream(3), sx, sy, eps)
                yield "released " + " ".join(
                    _flags(getattr(ps, name)) for name in releases)
                yield (f"pool {_flags(private_pooled_covariance(ps))} "
                       f"whitener {_flags(private_whitener(ps))}")
                for part in privatize_group(RngStream(3), sx, eps, 0):
                    yield f"group {_flags(part)}"
                cfg = TestConfig(epsilon=eps, bound_m=spec.bound_m,
                                 clamp=clamp)
                pair = [release_group(RngStream(3), data, cfg, group)
                        for group, data in enumerate((x, y))]
                yield "release_group " + " ".join(
                    _flags(a) for _, *arrays in pair for a in arrays)
                ps = _decided(*pair, cfg)
                yield "decided " + " ".join(
                    _flags(getattr(ps, name)) for name in releases)


def main() -> None:
    imported = Path(dphotelling.__file__).resolve()
    if not imported.is_relative_to(SRC.resolve()):
        sys.exit(f"dphotelling imported from {imported}, not from {SRC}")
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for part in (*outcomes(), *cli_outputs(work), *cli_faults(work),
                     *simulate_files(work),
                     *grid_tables(), *grid_cells(), *toeplitz_outputs(),
                     *statistic_parts(), *wide_streams(),
                     *long_and_wide_grids(), *root_edges(),
                     *philox_states(), *construction_faults(),
                     *array_flags(), *tied_spectra()):
            digest.update(part.encode("utf-8") + b"\0")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
