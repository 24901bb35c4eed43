"""Command-line interface.

Subcommands:
  test       private two-sample mean comparison on two CSV files
  calibrate  bootstrap threshold for the data, next to the chi-squared one
  simulate   Monte Carlo level/power grids written as CSV

Exit codes: 0 success (whatever the test decision), 2 malformed input or
bad arguments, 3 data outside the declared bound, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import simbench
from .decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig, asymptotic_threshold,
                       bootstrap_threshold, quantile_index, run_test)
from .errors import BoundViolationError, CsvFormatError, NumericalError
from .mechanisms import PrivacyBudget, compute_summary, privatize_summaries
from .randkit import RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_NUMERIC = 4

_NONPRIVATE_BANNER = (
    "WARNING: privacy disabled (epsilon=inf); output is NOT differentially "
    "private and must not be released"
)


def read_matrix_csv(path) -> np.ndarray:
    """Parse a CSV file of one observation per row into an n-by-d array.

    Comma separated, '.' decimal, optional single header row (detected by a
    non-numeric first row). NaN and infinite fields are rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read ({exc})") from exc
    # Blank rows are skipped but kept in ``rows``, so that index + 1 is the
    # line number reported in messages.
    first = next((i for i, row in enumerate(rows) if row), None)
    if first is None:
        raise CsvFormatError(f"{path}: file is empty")

    def parse_row(row):
        return [float(f) for f in row]

    start = first
    try:
        parse_row(rows[first])
    except ValueError:
        start = first + 1  # header row
    data = []
    width = None
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        try:
            vals = parse_row(row)
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {i}: non-numeric field") from exc
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise CsvFormatError(
                f"{path}: line {i}: expected {width} columns, got {len(vals)}"
            )
        data.append(vals)
    if not data:
        raise CsvFormatError(f"{path}: no data rows")
    out = np.array(data, dtype=float)
    if not np.isfinite(out).all():
        r, c = np.argwhere(~np.isfinite(out))[0]
        line = [i for i in range(start, len(rows)) if rows[i]][r] + 1
        raise CsvFormatError(
            f"{path}: line {line}, column {c + 1}: non-finite value "
            f"{rows[line - 1][c]!r}"
        )
    return out


def _parse_epsilon(raw: str, unsafe_no_privacy: bool) -> float:
    text = raw.strip().lower()
    if text in ("inf", "infinity"):
        if not unsafe_no_privacy:
            raise ValueError(
                "--epsilon inf disables privacy; pass --unsafe-no-privacy "
                "to confirm"
            )
        return math.inf
    try:
        eps = float(text)
    except ValueError:
        raise ValueError(f"--epsilon: not a number: {raw!r}") from None
    if not eps > 0.0 or math.isinf(eps):
        raise ValueError("--epsilon must be a positive finite number")
    return eps


def _check_bootstrap_resolution(alpha: float, b: int) -> None:
    # The order statistic floor((1-alpha) B) needs headroom above the
    # quantile: require at least 10 expected exceedances, i.e. B >= 10/alpha.
    if b * alpha < 10.0:
        need = math.ceil(10.0 / alpha)
        raise ValueError(
            f"--bootstrap-B {b} too small for alpha={alpha}: the threshold "
            f"index floor((1-alpha)B) = {math.floor((1 - alpha) * b)} leaves "
            f"fewer than 10 replicates above the quantile; need B >= {need}"
        )


def _load_pair(args):
    x = read_matrix_csv(args.x_csv)
    y = read_matrix_csv(args.y_csv)
    if x.shape[1] != y.shape[1]:
        raise CsvFormatError(
            f"column mismatch: {args.x_csv} has {x.shape[1]}, "
            f"{args.y_csv} has {y.shape[1]}"
        )
    return x, y


def _budget_line(split) -> str:
    return (f"mean_x={split[0]:g} mean_y={split[1]:g} "
            f"cov_x={split[2]:g} cov_y={split[3]:g}")


def cmd_test(args) -> int:
    eps = _parse_epsilon(args.epsilon, args.unsafe_no_privacy)
    if args.mode == BOOTSTRAP:
        _check_bootstrap_resolution(args.alpha, args.bootstrap_b)
    x, y = _load_pair(args)
    cfg = TestConfig(
        epsilon=eps, bound_m=args.bound_m, alpha=args.alpha,
        bootstrap_b=args.bootstrap_b, threshold_kind=args.mode,
        seed=args.seed, clamp=args.clamp,
    )
    outcome = run_test(RngStream(cfg.seed), x, y, cfg)
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True))
    else:
        if math.isinf(eps):
            print(_NONPRIVATE_BANNER)
        print(f"statistic      : {outcome.statistic:.10g}")
        print(f"threshold      : {outcome.threshold:.10g} "
              f"({outcome.threshold_kind}, alpha={outcome.alpha:g})")
        print(f"decision       : {'reject H0' if outcome.reject else 'keep H0'}")
        print(f"epsilon        : {outcome.epsilon:g}")
        print(f"budget split   : {_budget_line(outcome.budget_split)}")
        print(f"samples        : n1={outcome.n1} n2={outcome.n2} d={outcome.dim}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    eps = _parse_epsilon(args.epsilon, args.unsafe_no_privacy)
    _check_bootstrap_resolution(args.alpha, args.bootstrap_b)
    x, y = _load_pair(args)
    cfg = TestConfig(
        epsilon=eps, bound_m=args.bound_m, alpha=args.alpha,
        bootstrap_b=args.bootstrap_b, threshold_kind=BOOTSTRAP,
        seed=args.seed, clamp=args.clamp,
    )
    rng = RngStream(cfg.seed)
    sx = compute_summary(x, cfg.bound_m, clamp=cfg.clamp)
    sy = compute_summary(y, cfg.bound_m, clamp=cfg.clamp)
    ps = privatize_summaries(rng.substream(1), sx, sy,
                             PrivacyBudget.even_split(eps))
    q_star = bootstrap_threshold(rng.substream(2), ps, cfg)
    d = ps.dim
    q_chi2 = asymptotic_threshold(cfg.alpha, d)
    idx = quantile_index(cfg.alpha, cfg.bootstrap_b)
    if math.isinf(eps):
        print(_NONPRIVATE_BANNER)
    print(f"bootstrap threshold : {q_star:.10g} "
          f"(order statistic {idx} of {cfg.bootstrap_b})")
    print(f"chi2 quantile       : {q_chi2:.10g} "
          f"(d={d}, alpha={cfg.alpha:g})")
    return EXIT_OK


_SIM_CHOICES = ("table1", "table2", "power", "example32")


def cmd_simulate(args) -> int:
    selected = [name for name in _SIM_CHOICES if getattr(args, name)]
    if len(selected) != 1:
        raise ValueError(
            "pick exactly one of --table1, --table2, --power, --example32"
        )
    which = selected[0]
    fast = not args.full
    if which == "table1":
        cells = simbench.table1_cells(fast)
    elif which == "table2":
        cells = simbench.table2_cells(fast)
    elif which == "power":
        cells = simbench.power_cells(fast)
    else:
        cells = simbench.example32_cells()
    reps = args.reps if args.reps is not None else (2000 if which == "example32" else 1000)
    table = simbench.run_grid(
        cells, reps, master_seed=args.seed, n_jobs=args.threads,
        progress=not args.quiet,
    )
    out = args.out if args.out is not None else f"{which}.csv"
    try:
        simbench.write_table_csv(table, out)
        if args.summary_json is not None:
            summary = {
                "artifact": which,
                "master_seed": args.seed,
                "rows": [
                    {"design": r.design, "d": r.d, "eps": r.eps, "n": r.n,
                     "a": r.a, "kind": r.kind, "reps": r.reps,
                     "reject_rate": r.reject_rate, "error": r.error}
                    for r in table.rows
                ],
            }
            with open(args.summary_json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc
    if not args.quiet:
        print(f"wrote {len(table.rows)} rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dphotelling",
        description="Differentially private multivariate mean comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_opts(p):
        p.add_argument("x_csv", help="CSV with the first sample, one row per observation")
        p.add_argument("y_csv", help="CSV with the second sample")
        p.add_argument("--epsilon", required=True,
                       help="total privacy budget (positive; 'inf' only with --unsafe-no-privacy)")
        p.add_argument("--bound-m", type=float, required=True, dest="bound_m",
                       help="declared data bound: every entry lies in [-m, m]")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--bootstrap-B", type=int, default=200, dest="bootstrap_b")
        p.add_argument("--clamp", action="store_true",
                       help="clip data into [-m, m] instead of failing")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--unsafe-no-privacy", action="store_true",
                       help="allow --epsilon inf (testing only)")

    p_test = sub.add_parser("test", help="run the private two-sample test")
    add_data_opts(p_test)
    p_test.add_argument("--mode", choices=(BOOTSTRAP, ASYMPTOTIC),
                        default=BOOTSTRAP)
    p_test.add_argument("--json", action="store_true",
                        help="emit the outcome as one JSON object")
    p_test.set_defaults(func=cmd_test)

    p_cal = sub.add_parser("calibrate",
                           help="compute the bootstrap threshold only")
    add_data_opts(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo grids to CSV")
    p_sim.add_argument("--table1", action="store_true",
                       help="level grid on the uniform cube")
    p_sim.add_argument("--table2", action="store_true",
                       help="level grid on the Toeplitz design")
    p_sim.add_argument("--power", action="store_true",
                       help="power grid under a unit mean shift")
    p_sim.add_argument("--example32", action="store_true",
                       help="asymptotic-rule inflation on the truncated Gaussian")
    speed = p_sim.add_mutually_exclusive_group()
    speed.add_argument("--fast", action="store_true", default=True,
                       help="200 replications for the heaviest cells (default)")
    speed.add_argument("--full", action="store_true",
                       help="1000 replications everywhere (not desk-scale)")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="override the default replication count")
    p_sim.add_argument("--out", default=None, help="output CSV path")
    p_sim.add_argument("--summary-json", default=None, dest="summary_json")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker processes for replications")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
