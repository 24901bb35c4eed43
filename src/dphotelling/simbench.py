"""Data generators and the Monte Carlo bench for level and power studies.

Replications are independent tasks over counter-based substreams keyed by
(cell index, replication index), and aggregation is a commutative count,
so a grid run is deterministic for a fixed master seed no matter how many
worker processes execute it.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .decision import ASYMPTOTIC, BOOTSTRAP, TestConfig, run_test
from .errors import BoundViolationError
from .randkit import RngStream, _as_int

UNIFORM_CUBE = "uniform_cube"
TOEPLITZ = "toeplitz"
TRUNCATED_GAUSSIAN = "truncated_gaussian"

_DESIGNS = (UNIFORM_CUBE, TOEPLITZ, TRUNCATED_GAUSSIAN)

_SQRT3 = math.sqrt(3.0)

# Diagonal and off-diagonal entries of the tridiagonal Toeplitz design.
_DIAG = 1.0
_OFF_DIAG = 1.0 / 3.0


@dataclass(frozen=True)
class DesignSpec:
    """One simulation design: distribution family, dimension, mean shift.

    ``a`` is the Euclidean distance between the two population means
    (0 = null hypothesis). The tridiagonal design multiplies cube samples
    by a Toeplitz matrix with diagonal 1 and off-diagonal 1/3; the
    truncated-Gaussian design is one-dimensional with density proportional
    to exp(-2 t^2) on [-1, 1].
    """

    design: str
    d: int
    a: float = 0.0

    def __post_init__(self):
        if self.design not in _DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if _as_int(self.d, "d") < 1:
            raise ValueError("dimension must be >= 1")
        if self.a < 0.0:
            raise ValueError("mean shift a must be nonnegative")
        if self.design == TRUNCATED_GAUSSIAN:
            if self.d != 1:
                raise ValueError("truncated_gaussian design is one-dimensional")
            if self.a != 0.0:
                raise ValueError("truncated_gaussian design has no mean shift")

    @property
    def bound_m(self) -> float:
        half_width = _SQRT3 + self.a / math.sqrt(self.d)
        if self.design == UNIFORM_CUBE:
            return half_width
        if self.design == TOEPLITZ:
            # A row of the Toeplitz matrix has at most one diagonal and two
            # off-diagonal entries.
            return half_width * (_DIAG + 2.0 * _OFF_DIAG)
        return 1.0

    def toeplitz_matrix(self) -> np.ndarray:
        t = _DIAG * np.eye(self.d)
        for i in range(self.d - 1):
            t[i, i + 1] = _OFF_DIAG
            t[i + 1, i] = _OFF_DIAG
        return t


def _sample_truncated_gaussian(rng: RngStream, n: int) -> np.ndarray:
    """Rejection sampling against the uniform envelope on [-1, 1]."""
    gen = rng.generator
    out = np.empty(n)
    have = 0
    while have < n:
        need = n - have
        batch = max(16, int(1.8 * need))
        cand = gen.uniform(-1.0, 1.0, size=batch)
        keep = cand[gen.uniform(size=batch) < np.exp(-2.0 * cand * cand)]
        take = min(need, keep.size)
        out[have:have + take] = keep[:take]
        have += take
    return out[:, None]


def generate(rng: RngStream, spec: DesignSpec, n1: int, n2: int):
    """Draw the two samples of a design; every entry lies inside [-m, m]^d."""
    if _as_int(n1, "n1") < 2 or _as_int(n2, "n2") < 2:
        raise ValueError("group sizes must be at least 2")
    gen = rng.generator
    d = spec.d
    if spec.design == TRUNCATED_GAUSSIAN:
        x = _sample_truncated_gaussian(rng, n1)
        y = _sample_truncated_gaussian(rng, n2)
    else:
        shift = spec.a / math.sqrt(d)
        x = gen.uniform(-_SQRT3, _SQRT3, size=(n1, d))
        y = gen.uniform(-_SQRT3 + shift, _SQRT3 + shift, size=(n2, d))
        if spec.design == TOEPLITZ:
            t = spec.toeplitz_matrix()
            x = x @ t  # t symmetric: rows transform like t @ row
            y = y @ t
    m = spec.bound_m
    if not (x.min() >= -m and x.max() <= m and y.min() >= -m and y.max() <= m):
        raise BoundViolationError("generated data left the declared bound")
    return x, y


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: a design at one (epsilon, group size, decision rule)."""

    design: DesignSpec
    eps: float
    n: int
    kind: str = BOOTSTRAP
    reps: int | None = None


@dataclass(frozen=True)
class CellResult:
    design: str
    d: int
    eps: float
    n: int
    a: float
    kind: str
    reps: int
    reject_rate: float | None
    error: str | None = None


@dataclass(frozen=True)
class RejectionTable:
    rows: tuple


CSV_COLUMNS = ("design", "d", "eps", "n", "a", "kind", "reps", "reject_rate")


def write_table_csv(table: RejectionTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in table.rows:
            rate = "NA" if r.reject_rate is None else repr(r.reject_rate)
            writer.writerow(
                [r.design, r.d, repr(r.eps), r.n, repr(r.a), r.kind, r.reps, rate]
            )


def read_table_csv(path) -> RejectionTable:
    """The table ``write_table_csv`` wrote. A missing or wrong header, a row
    of the wrong width, a bad number, a design ``DesignSpec`` rejects, another
    kind, n < 2, reps < 1 or a reject_rate (not NA) outside [0, 1] or NaN
    raise ValueError naming the path and the line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # [] for an empty file or a blank line
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}:1: expected the header "
                             f"{','.join(CSV_COLUMNS)}, got {header!r}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: {len(rec)} fields, expected "
                                 f"{len(CSV_COLUMNS)}")
            design, d, eps, n, a, kind, reps, rate = rec
            try:
                row = CellResult(
                    design=design, d=int(d), eps=float(eps), n=int(n),
                    a=float(a), kind=kind, reps=int(reps),
                    reject_rate=None if rate == "NA" else float(rate),
                )
                DesignSpec(design, row.d, row.a)  # the design and d >= 1
                if kind not in (BOOTSTRAP, ASYMPTOTIC):
                    raise ValueError(f"unknown kind {kind!r}")
                if row.n < 2:
                    raise ValueError(f"n must be at least 2, got {n}")
                if row.reps < 1:
                    raise ValueError(f"reps must be at least 1, got {reps}")
                if rate != "NA" and not 0.0 <= row.reject_rate <= 1.0:
                    raise ValueError(f"reject_rate {rate} is not in [0, 1]")
                rows.append(row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return RejectionTable(rows=tuple(rows))


def _replicate(cell_rng: RngStream, rep: int, cell: CellSpec,
               cfg: TestConfig) -> bool:
    """One replication on ``cell_rng.substream(rep)``, the stream of
    ``RngStream(master_seed).substream(cell_index, rep)``."""
    rng = cell_rng.substream(rep)
    x, y = generate(rng.substream(0), cell.design, cell.n, cell.n)
    return run_test(rng.substream(1), x, y, cfg).reject


def _run_block(args):
    (master_seed, cell_index, cell, rep_lo, rep_hi, alpha, bootstrap_b) = args
    try:
        # Inside the try, so that a cell whose configuration is invalid
        # reads NA instead of aborting the grid.
        cfg = TestConfig(
            epsilon=cell.eps, bound_m=cell.design.bound_m, alpha=alpha,
            bootstrap_b=bootstrap_b, threshold_kind=cell.kind,
        )
        cell_rng = RngStream(master_seed).substream(cell_index)
        hits = 0
        for rep in range(rep_lo, rep_hi):
            if _replicate(cell_rng, rep, cell, cfg):
                hits += 1
        return cell_index, hits, None
    except Exception as exc:  # cell failure must not abort the grid
        return cell_index, 0, f"{type(exc).__name__}: {exc}"


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def run_grid(cells, reps: int, *, alpha: float = 0.05, bootstrap_b: int = 200,
             master_seed: int = 0, n_jobs: int = 1,
             progress: bool = False) -> RejectionTable:
    """Run every cell and tabulate rejection rates.

    A cell runs ``cell.reps`` replications, or ``reps`` when it sets none;
    each count must be a positive integer. Each replication draws fresh
    data and runs the full private test on its own substream. A failing
    cell is marked with its error instead of aborting the rest of the
    grid. A cell's
    replications form about 4 * ``n_jobs`` blocks, which run on
    min(n_jobs, blocks, available CPUs) processes; results are identical
    to a serial run.
    """
    cells = list(cells)
    if _as_int(n_jobs, "n_jobs") < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    # A negative seed fails here, not as an NA in every cell.
    RngStream(master_seed)
    tasks = []
    cell_reps = []
    pending = [0] * len(cells)  # blocks of each cell not yet consumed
    for ci, cell in enumerate(cells):
        if _as_int(cell.n, f"cell {ci}: n") < 2:
            raise ValueError(f"cell {ci}: n must be at least 2, got {cell.n}")
        r = _as_int(cell.reps if cell.reps is not None else reps,
                    f"cell {ci}: reps")
        if r < 1:
            raise ValueError(f"cell {ci}: reps must be positive, got {r}")
        cell_reps.append(r)
        block = -(-r // (n_jobs * 4))
        for lo in range(0, r, block):
            tasks.append((master_seed, ci, cell, lo, min(r, lo + block),
                          alpha, bootstrap_b))
            pending[ci] += 1

    hits = [0] * len(cells)
    errors: list = [None] * len(cells)

    def consume(results):
        for ci, h, err in results:
            hits[ci] += h
            if err is not None and errors[ci] is None:
                errors[ci] = err
            pending[ci] -= 1
            if progress and not pending[ci]:
                c = cells[ci]
                rate = "failed" if errors[ci] else f"{hits[ci] / cell_reps[ci]:.4f}"
                print(
                    f"[simbench] {c.design.design} d={c.design.d} eps={c.eps} "
                    f"n={c.n} {c.kind}: {rate}",
                    file=sys.stderr,
                )

    # A pool starts all its workers at the first task: start no idle ones.
    workers = min(n_jobs, len(tasks), _available_cpus())
    if workers <= 1:
        consume(map(_run_block, tasks))
    else:
        # Imported on use: it loads multiprocessing, which a serial grid and
        # the CLI's test and calibrate never need.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            consume(pool.map(_run_block, tasks))

    rows = []
    for ci, cell in enumerate(cells):
        failed = errors[ci] is not None
        rows.append(CellResult(
            design=cell.design.design, d=cell.design.d, eps=cell.eps,
            n=cell.n, a=cell.design.a, kind=cell.kind, reps=cell_reps[ci],
            reject_rate=None if failed else hits[ci] / cell_reps[ci],
            error=errors[ci],
        ))
    return RejectionTable(rows=tuple(rows))


def example32_cells() -> list:
    """The asymptotic rule on the truncated Gaussian, n = 500, at eps 4 and 1.

    Its rejection rate under the null is inflated at eps = 1.
    """
    spec = DesignSpec(design=TRUNCATED_GAUSSIAN, d=1)
    return [CellSpec(design=spec, eps=4.0, n=500, kind=ASYMPTOTIC),
            CellSpec(design=spec, eps=1.0, n=500, kind=ASYMPTOTIC)]


_TABLE_N = (100, 1000, 10_000, 100_000)


def _scaled_reps(n: int) -> int:
    """Replications of a paper-grid cell: 200 at n = 1e5, 1000 elsewhere."""
    return 200 if n >= 100_000 else 1000


def table1_cells() -> list:
    """Level study grid: 2 rules x 3 dims x 4 epsilons x 4 group sizes."""
    cells = []
    for kind in (BOOTSTRAP, ASYMPTOTIC):
        for d in (1, 10, 30):
            spec = DesignSpec(design=UNIFORM_CUBE, d=d)
            for eps in (0.1, 0.5, 1.0, 5.0):
                for n in _TABLE_N:
                    cells.append(CellSpec(design=spec, eps=eps, n=n, kind=kind,
                                          reps=_scaled_reps(n)))
    return cells


def table2_cells() -> list:
    """Level study on the Toeplitz design: 2 dims x 3 epsilons x 4 sizes."""
    cells = []
    for d in (10, 30):
        spec = DesignSpec(design=TOEPLITZ, d=d)
        for eps in (0.1, 0.5, 1.0):
            for n in _TABLE_N:
                cells.append(CellSpec(design=spec, eps=eps, n=n, kind=BOOTSTRAP,
                                      reps=_scaled_reps(n)))
    return cells


def power_cells() -> list:
    """Power study grid: bootstrap rule, shift a=1, over epsilon, d, and n."""
    cells = []
    for eps in (0.1, 0.5, 1.0, 5.0):
        for d in (1, 10, 30):
            spec = DesignSpec(design=UNIFORM_CUBE, d=d, a=1.0)
            for n in _TABLE_N:
                cells.append(CellSpec(design=spec, eps=eps, n=n, kind=BOOTSTRAP,
                                      reps=_scaled_reps(n)))
    return cells
