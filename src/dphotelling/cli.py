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
import dataclasses
import functools
import io
import json
import math
import os
import re
import signal
import stat
import sys
import warnings
from typing import NoReturn

import numpy as np

from . import simbench
from .decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig, asymptotic_threshold,
                       decide, quantile_index, release_group, run_test)
from .errors import BoundViolationError, CsvFormatError, NumericalError
from .mechanisms import BUDGET_PARTS
from .randkit import RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_NUMERIC = 4

_NONPRIVATE_BANNER = (
    "WARNING: privacy disabled (epsilon=inf); output is NOT differentially "
    "private and must not be released"
)

# Smallest CSV file, in bytes, whose group _run_pair releases in a forked
# child. A fork costs a few ms in a CLI process, from page-table copies and
# the copy-on-write faults that reference counting triggers, and the child's
# read, summary and release must pay it back. Measured on a 2-vCPU KVM Xeon
# guest, in-process `test --json` on two equal files, forked / serial time,
# median of 40 alternating pairs (pairs the fork won):
#   MiB     d = 1         d = 10        d = 30
#   0.15    0.95 (28)     1.06 (14)     0.92 (26)
#   0.20    0.94 (24)     1.01 (19)     0.86 (35)
#   0.25    0.87 (35)     1.06 (17)     0.91 (26)
#   0.31    0.86 (31)     0.82 (37)     0.79 (34)
#   0.59    0.79 (32)     0.74 (37)     0.73 (37)
# and 0.57 (8 of 8) at 19.8 MiB, d = 10. The break-even lies near 0.25 MiB;
# the floor sits above it, where the fork wins at every d.
_FORK_MIN_BYTES = 5 * 2**16

# Suffixes on which numpy's loadtxt, given a file name, decompresses.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_matrix_csv(path) -> np.ndarray:
    """Parse a CSV file of one observation per row into an n-by-d array.

    Comma separated, '.' decimal, optional single header row (detected by a
    first non-blank row with a field that ``float()`` rejects). Blank lines
    are skipped, a UTF-8 byte-order mark is ignored, fields may be quoted
    and may carry surrounding whitespace. ``#`` does not start a comment.
    NaN and infinite fields are rejected, as are numbers that ``float()``
    reads but numpy's parser does not, such as ``1_000``. Faults, bytes
    that are not UTF-8 included, raise ``CsvFormatError`` naming the
    physical line (blank lines and each line of a multi-line quoted field
    count) and, for a non-finite value or a number numpy does not read, the
    column and the field.

    Every read starts at the start of the input. A regular file is read by
    name: the first handle finds the header, then ``np.loadtxt`` opens the
    file by its absolute path, skips the lines up to the header and parses
    the rest in large chunks, not one Python line at a time. Any other
    input, such as the pipe ``<(command)`` gives, which cannot be opened
    again once read, and a name ending in ``.gz``, ``.bz2``, ``.xz`` or
    ``.lzma``, which numpy would decompress, is copied into memory when
    first opened; the parse and a fault message read that copy.
    """
    try:
        with open(path, "rb") as head:
            name = os.path.abspath(os.fsdecode(path))
            if (stat.S_ISREG(os.fstat(head.fileno()).st_mode)
                    and not name.endswith(_COMPRESSED_SUFFIXES)):
                reread = functools.partial(open, path, "rb")
            else:
                name, reread = None, functools.partial(io.BytesIO, head.read())
            lines = csv.reader(_text(head if name else reread()))
            records = (row for row in lines if row)
            first = next(records, None)
            if first is None:
                raise CsvFormatError(f"{path}: file is empty")
            header_lines = 0
            if not _is_numeric(first):
                header_lines = lines.line_num
                if next(records, None) is None:
                    raise CsvFormatError(f"{path}: no data rows")
        try:
            out = np.loadtxt(
                name or _text(reread()), delimiter=",", quotechar='"',
                comments=None, dtype=float, ndmin=2, skiprows=header_lines,
                encoding="utf-8-sig",
            )
        except ValueError as exc:
            _raise_csv_fault(path, reread, header_lines, str(exc))
        if not np.isfinite(out).all():
            _raise_csv_fault(path, reread, header_lines, "non-finite value")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"{path}: line {_undecodable_line(reread)}: not UTF-8 text "
            f"({exc.reason})"
        ) from exc
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read ({exc})") from exc
    return out


def _text(raw, newline=None) -> io.TextIOWrapper:
    """The binary handle ``raw`` as UTF-8 text without a byte-order mark."""
    return io.TextIOWrapper(raw, encoding="utf-8-sig", newline=newline)


def _undecodable_line(reread) -> int:
    """Number of the first line, in ``reread()``'s bytes, that is not UTF-8.

    A UTF-8 sequence never contains a newline byte, so the line of the
    first bad byte decodes badly on its own.
    """
    with reread() as fh:
        for i, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return i


def _is_numeric(row) -> bool:
    try:
        for field in row:
            float(field)
    except ValueError:
        return False
    return True


def _raise_csv_fault(path, reread, header_lines, detail: str) -> NoReturn:
    """Name the first fault of a CSV file that ``np.loadtxt`` rejected.

    Re-reads the input from its start, as ``reread()`` opens it, record by
    record with ``csv.reader`` and ``float()``. A non-blank record is named
    by the physical line it ends on, blank lines and each line of a
    multi-line quoted field counted; those within the first
    ``header_lines`` lines are the header ``read_matrix_csv`` found.
    Structural faults (a non-numeric field, a ragged row) take
    precedence over the first non-finite value. When there is none, as for
    ``1_0``, which ``float()`` accepts and loadtxt rejects, loadtxt's own
    message ``detail`` locates the field: its row counts the non-blank data
    rows from 0. Always raises ``CsvFormatError``.
    """
    with _text(reread(), newline="") as fh:
        lines = csv.reader(fh)
        records = [(lines.line_num, row) for row in lines
                   if row and lines.line_num > header_lines]
    width = len(records[0][1])
    non_finite = None
    for i, row in records:
        try:
            vals = [float(f) for f in row]
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {i}: non-numeric field") from exc
        if len(vals) != width:
            raise CsvFormatError(
                f"{path}: line {i}: expected {width} columns, got {len(vals)}"
            )
        if non_finite is None:
            c = next((c for c, v in enumerate(vals) if not math.isfinite(v)),
                     None)
            if c is not None:
                non_finite = (f"line {i}, column {c + 1}: non-finite value "
                              f"{row[c]!r}")
    if non_finite is None:
        at = re.search(r"at row (\d+), column (\d+)", detail)
        if at and int(at[1]) < len(records):
            i, row = records[int(at[1])]
            c = int(at[2])
            if c <= len(row):
                non_finite = (f"line {i}, column {c}: unsupported number "
                              f"syntax {row[c - 1]!r}")
    raise CsvFormatError(f"{path}: {non_finite or detail}")


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


def _run_pair(args, cfg: TestConfig):
    """``run_test`` on the files; a forked child releases y when that pays off.

    The child reads, summarizes and releases y (``release_group``) while
    this process does x, and ``decide`` joins the two. The outcome and
    every error are those of the serial path (read x, read y,
    ``run_test``): x's read fault comes first, and on any other fault on
    either side, or a payload of another length, the child is killed and
    the serial path runs from x's parsed array.
    """
    rng = RngStream(args.seed)
    child = (_fork_release(args.y_csv, rng, cfg)
             if _fork_pays_off(args.x_csv, args.y_csv) else None)
    released = None
    try:
        x = read_matrix_csv(args.x_csv)
        if child is not None:
            released = _both_releases(rng, x, cfg, child[1])
        if released is not None:
            # The child exits meanwhile; it is reaped below.
            return decide(rng, *released, cfg)
    finally:
        if child is not None:
            pid, pipe = child
            pipe.close()
            if released is None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    y = read_matrix_csv(args.y_csv)
    if x.shape[1] != y.shape[1]:
        raise CsvFormatError(
            f"column mismatch: {args.x_csv} has {x.shape[1]}, "
            f"{args.y_csv} has {y.shape[1]}"
        )
    return run_test(rng, x, y, cfg)


def _both_releases(rng, x, cfg, pipe):
    """x's ``release_group`` and the child's for y, or None on any fault."""
    try:
        x_release = release_group(rng, x, cfg, 0)
    except (ValueError, NumericalError, ArithmeticError):
        return None  # the serial path raises it in its turn
    # d (d + 2) rises with d, so the length also rules out another width.
    d = x.shape[1]
    payload = pipe.read()
    if len(payload) != 8 * d * (d + 2):
        return None
    y = np.frombuffer(payload).reshape(d + 2, d)
    # Owned copies, as the serial path's releases are; decide keeps them.
    return x_release, (int(y[0, 0]), y[1].copy(), y[2:].copy())


def _fork_pays_off(x_path, y_path) -> bool:
    """Whether a second CPU may release y while this process releases x."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        infos = [os.stat(x_path), os.stat(y_path)]
    except OSError:
        return False  # the serial read names the fault
    return (all(stat.S_ISREG(info.st_mode) for info in infos)
            and min(info.st_size for info in infos) >= _FORK_MIN_BYTES)


def _fork_release(path, rng, cfg):
    """Release y's group in a forked child; return (pid, read end of its pipe).

    The child writes d + 2 rows of d float64, with no header: n2 repeated,
    mean_y_dp, then cov_y_dp; no data row crosses the pipe. It then closes
    the pipe, and the parent accepts exactly 8 d (d + 2) bytes, d being
    x's width. On any fault the child exits before it has written them all,
    and another width gives another length. Warnings are
    errors there, as a warning it printed would be printed again by the
    serial path. Returns None when no pipe or child can be made. The child
    runs LAPACK: OpenBLAS's fork handler stops its thread pool before a
    fork and each process restarts it, as in ``simbench.run_grid``'s pool.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # Never return into the caller's stack: every path ends in _exit.
        code = 1
        try:
            os.close(r)
            warnings.simplefilter("error")
            n, mean, cov = release_group(rng, read_matrix_csv(path), cfg, 1)
            _write_array(w, np.vstack((np.full(len(mean), float(n)), mean,
                                       cov)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _write_array(fd: int, arr: np.ndarray) -> None:
    with open(fd, "wb") as fh:
        fh.write(arr.tobytes())


def _budget_line(split) -> str:
    return " ".join(f"{name}={part:g}"
                    for name, part in zip(BUDGET_PARTS, split))


def _config(args, threshold_kind: str) -> TestConfig:
    """The run's ``TestConfig``; it checks alpha, B and the rest itself."""
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    return TestConfig(
        epsilon=_parse_epsilon(args.epsilon, args.unsafe_no_privacy),
        bound_m=args.bound_m, alpha=args.alpha, bootstrap_b=args.bootstrap_b,
        threshold_kind=threshold_kind, clamp=args.clamp,
    )


def cmd_test(args) -> int:
    cfg = _config(args, args.mode)
    outcome = _run_pair(args, cfg)
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True))
    else:
        if math.isinf(cfg.epsilon):
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
    cfg = _config(args, BOOTSTRAP)
    # The test's own pipeline; its statistic and decision are not printed.
    outcome = _run_pair(args, cfg)
    q_star = outcome.threshold
    d = outcome.dim
    q_chi2 = asymptotic_threshold(cfg.alpha, d)
    idx = quantile_index(cfg.alpha, cfg.bootstrap_b)
    if math.isinf(cfg.epsilon):
        print(_NONPRIVATE_BANNER)
    print(f"bootstrap threshold : {q_star:.10g} "
          f"(order statistic {idx} of {cfg.bootstrap_b})")
    print(f"chi2 quantile       : {q_chi2:.10g} "
          f"(d={d}, alpha={cfg.alpha:g})")
    return EXIT_OK


# Cell builders of the simulate artifacts.
_SIM_GRIDS = {
    "table1": simbench.table1_cells,
    "table2": simbench.table2_cells,
    "power": simbench.power_cells,
    "example32": simbench.example32_cells,
}


def cmd_simulate(args) -> int:
    selected = [name for name in _SIM_GRIDS if getattr(args, name)]
    if len(selected) != 1:
        raise ValueError(
            "pick exactly one of --table1, --table2, --power, --example32"
        )
    which = selected[0]
    cells = _SIM_GRIDS[which]()
    if args.reps is not None:
        cells = [dataclasses.replace(cell, reps=args.reps) for cell in cells]
    # Only example32's cells leave reps unset; they run 2000 by default.
    table = simbench.run_grid(
        cells, 2000, master_seed=args.seed, n_jobs=args.threads,
        progress=not args.quiet,
    )
    out = args.out if args.out is not None else f"{which}.csv"
    try:
        simbench.write_table_csv(table, out)
        if args.summary_json is not None:
            summary = {
                "artifact": which,
                "master_seed": args.seed,
                "rows": [dataclasses.asdict(r) for r in table.rows],
            }
            with open(args.summary_json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc
    if not args.quiet:
        print(f"wrote {len(table.rows)} rows to {out}")
    return EXIT_OK


@functools.cache  # built once per process: parse_args does not change it
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
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications of every cell, replacing the grid's")
    p_sim.add_argument("--out", default=None, help="output CSV path")
    p_sim.add_argument("--summary-json", default=None, dest="summary_json")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker processes, at most the CPUs available")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
