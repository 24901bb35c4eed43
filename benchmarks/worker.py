"""One workload in one fresh interpreter: set up, run the timed loop, report.

``run.py`` starts it as ``python3 worker.py '<spec json>'``. The spec names
the workload, the mode and the inputs that ``run.py`` generated. The last
line of standard output is one JSON object with the raw measurements.

Modes:
  setup  import dphotelling, complete one checked warm-up op, report set-up time
  run    setup, then untraced ops for ``seconds``, then the correctness gates
  trace  setup, then pairs (untraced op i, traced op i) for ``seconds``,
         then the gates; reports the per-layer table
"""

import contextlib
import csv
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import dphotelling  # noqa: E402
from dphotelling import cli, simbench  # noqa: E402
from dphotelling.decision import ASYMPTOTIC, BOOTSTRAP  # noqa: E402
from dphotelling.simbench import CellSpec, DesignSpec  # noqa: E402

from tracer import Tracer  # noqa: E402

LAYERS = ("cli", "decision", "hotelling", "mechanisms", "randkit", "numlin",
          "simbench")
TRACED_FUNCTIONS = (
    ("cli", "read_matrix_csv"),
    ("decision", "run_test"), ("decision", "bootstrap_threshold"),
    ("decision", "asymptotic_threshold"),
    ("hotelling", "t_dp_statistic"), ("hotelling", "private_pooled_covariance"),
    ("hotelling", "t2_statistic"),
    ("mechanisms", "compute_summary"), ("mechanisms", "privatize_summaries"),
    ("mechanisms", "privatize_mean"), ("mechanisms", "ed_covariance"),
    ("randkit", "RngStream"), ("randkit", "sample_laplace"),
    ("randkit", "sample_bingham_vector"), ("randkit", "solve_b"),
    ("randkit", "chi2_quantile"),
    ("numlin", "as_symmetric"), ("numlin", "jacobi_eigen"),
    ("numlin", "inverse_sqrt_psd"), ("numlin", "psd_sqrt"),
    ("numlin", "orthonormal_complement"),
    ("simbench", "generate"), ("simbench", "run_grid"),
)

# Keys of `dphotelling test --json` as pinned by the CLI's schema test.
OUTCOME_KEYS = {"statistic", "threshold", "threshold_kind", "reject", "dim",
                "n1", "n2", "alpha", "epsilon", "budget_split"}
BUDGET_KEYS = {"mean_x", "mean_y", "cov_x", "cov_y"}

ALPHA = 0.05
# d=1 slice of the uniform-cube level table; each op runs every cell.
SIM_CELLS = tuple(
    CellSpec(design=DesignSpec("uniform_cube", 1), eps=eps, n=n, kind=kind)
    for kind in (BOOTSTRAP, ASYMPTOTIC) for eps in (0.1, 1.0) for n in (100, 1000)
)
SIM_REPS = 20
# Half-width of the level band in binomial standard deviations.
BAND_Z = 5.0


# Speed probes: fixed computations that never call dphotelling, each an
# analogue of one workload's hot path. Each op is timed next to its
# workload's probes, and run.py scales the op's wall time by the probes'
# nominal over measured time, which cancels most of the swings in how fast
# a shared host runs the interpreter. Nominal ms: the 5th percentile of each
# probe's time on the 2-core Xeon host that measured baseline.json.
_PROBE_CSV = "\n".join(
    ",".join(repr((i * 7919 + j * 104729) % 1000003 / 1000003 - 0.5)
             for j in range(10))
    for i in range(1000))


def _probe_csv():
    """CSV text to rows of floats to an array, as in read_matrix_csv."""
    rows = [[float(f) for f in r] for r in csv.reader(io.StringIO(_PROBE_CSV))]
    return np.array(rows)


def _probe_tiny_numpy():
    """Column copies and updates on an 8x8 array, as in Jacobi rotations."""
    a = np.eye(8)
    acc = np.zeros(8)
    for _ in range(1500):
        col = a[:, 1].copy()
        a[:, 2] = 0.5 * col - 0.25 * a[:, 3]
        acc += a[0]
    return acc


def _probe_generators():
    """Generator construction, as in RngStream."""
    for k in range(20):
        np.random.Generator(np.random.Philox(np.random.SeedSequence(k)))


def _probe_loop():
    """A plain interpreter loop."""
    total = 0
    for i in range(30000):
        total += i * i
    return total


PROBES = {"csv": (_probe_csv, 5.5), "tiny_numpy": (_probe_tiny_numpy, 4.3),
          "generators": (_probe_generators, 0.32), "loop": (_probe_loop, 1.75)}


def probe_ms(names) -> float:
    """Wall ms of the named probes, run back to back."""
    start = time.perf_counter()
    for name in names:
        PROBES[name][0]()
    return 1000.0 * (time.perf_counter() - start)


def program_seed(workload_seed: int, op: int) -> int:
    """Seed of op ``op``; op 0 is the warm-up."""
    return workload_seed * 1_000_000 + op


class CliWorkload:
    """`dphotelling test --json` on two CSV files, called in-process."""

    def __init__(self, spec):
        self.spec = spec
        self.tests_per_op = 1

    def _call(self, seed: int, *extra: str):
        s = self.spec
        argv = ["test", s["x_csv"], s["y_csv"], "--bound-m", "1", "--json",
                "--seed", str(seed), *extra]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run(self, seed: int):
        return self._call(seed, "--epsilon", self.spec["epsilon"])

    def _problems(self, result, epsilon: float, kind: str):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        s = self.spec
        if set(doc) != OUTCOME_KEYS or set(doc["budget_split"]) != BUDGET_KEYS:
            return f"unexpected keys {sorted(doc)}"
        stat, thr = doc["statistic"], doc["threshold"]
        if not (math.isfinite(stat) and stat >= 0.0):
            return f"statistic {stat!r} not finite and >= 0"
        if not (math.isfinite(thr) and thr > 0.0):
            return f"threshold {thr!r} not finite and > 0"
        if not math.isclose(math.fsum(doc["budget_split"].values()), epsilon,
                            rel_tol=1e-12):
            return f"budget split {doc['budget_split']} does not sum to {epsilon}"
        if (doc["dim"], doc["n1"], doc["n2"]) != (s["d"], s["n"], s["n"]):
            return f"shape {doc['dim']}, {doc['n1']}, {doc['n2']}"
        if doc["epsilon"] != epsilon or doc["threshold_kind"] != kind:
            return f"echoed epsilon {doc['epsilon']} / kind {doc['threshold_kind']}"
        if doc["reject"] is not (stat > thr):
            return "decision disagrees with statistic > threshold"
        return None

    def check(self, result):
        return self._problems(result, float(self.spec["epsilon"]), BOOTSTRAP)

    def gates(self, seed: int):
        """Privacy off: the classical T^2 and the chi-squared constant."""
        code, out = self._call(seed, "--epsilon", "inf", "--unsafe-no-privacy",
                               "--mode", ASYMPTOTIC)
        problem = self._problems((code, out), math.inf, ASYMPTOTIC)
        if problem is None:
            doc = json.loads(out)
            if not math.isclose(doc["statistic"], self.spec["t2"], rel_tol=1e-8):
                problem = (f"privacy-off statistic {doc['statistic']!r} != "
                           f"classical T^2 {self.spec['t2']!r}")
            elif not math.isclose(doc["threshold"], self.spec["chi2_95"],
                                  rel_tol=1e-9):
                problem = (f"privacy-off threshold {doc['threshold']!r} != "
                           f"chi2 quantile {self.spec['chi2_95']!r}")
        return [("privacy_off", problem)]


def _hits(table):
    return [round(row.reject_rate * row.reps) for row in table.rows]


class SimWorkload:
    """`simbench.run_grid` over the d=1 slice, one process, no pool."""

    def __init__(self, spec):
        self.tests_per_op = len(SIM_CELLS) * SIM_REPS
        self._hits_by_seed = {}

    def run(self, seed: int):
        return seed, simbench.run_grid(SIM_CELLS, SIM_REPS, alpha=ALPHA,
                                       master_seed=seed, n_jobs=1)

    def check(self, result):
        seed, table = result
        for cell, row in zip(SIM_CELLS, table.rows):
            if row.reject_rate is None:
                return f"cell eps={cell.eps} n={cell.n} {cell.kind} is NA: {row.error}"
            if row.reps != SIM_REPS or not 0.0 <= row.reject_rate <= 1.0:
                return f"cell eps={cell.eps} n={cell.n} {cell.kind}: bad row {row}"
        self._hits_by_seed[seed] = _hits(table)
        return None

    def gates(self, seed: int):
        out = []
        reps = SIM_REPS * len(self._hits_by_seed)
        totals = [sum(col) for col in zip(*self._hits_by_seed.values())]
        half_width = BAND_Z * math.sqrt(reps * ALPHA * (1.0 - ALPHA)) + 1.0
        for cell, hits in zip(SIM_CELLS, totals):
            if cell.kind != BOOTSTRAP:
                continue
            problem = None
            if abs(hits - reps * ALPHA) > half_width:
                problem = (f"bootstrap level {hits}/{reps} outside "
                           f"{ALPHA} +- {half_width / reps:.4f}")
            out.append((f"level eps={cell.eps} n={cell.n}", problem))

        # The warm-up op ran this seed with n_jobs=1; run it again serially
        # and on a pool of two, whose replication blocks split differently.
        first = self._hits_by_seed.get(seed)
        again, pooled = (
            _hits(simbench.run_grid(SIM_CELLS, SIM_REPS, alpha=ALPHA,
                                    master_seed=seed, n_jobs=jobs))
            for jobs in (1, 2))
        problem = None
        if again != first:
            problem = f"same seed, different hits: {first} vs {again}"
        elif pooled != again:
            problem = f"n_jobs=1 vs n_jobs=2: {again} vs {pooled}"
        out.append(("determinism", problem))
        return out


class Tally:
    """Attempted and failed checks, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, name: str, problem) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {problem}")
        return problem is None


def timed_op(workload, seed: int, tally: Tally):
    """Wall seconds of one op, or None if it raised or failed its check."""
    start = time.perf_counter()
    try:
        result = workload.run(seed)
        elapsed = time.perf_counter() - start
        problem = workload.check(result)
    except Exception as exc:  # a failing op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        elapsed, problem = None, f"{type(exc).__name__}: {exc}"
    ok = tally.record(f"op seed={seed}", problem)
    return elapsed if ok else None


def layer_table(tracer: Tracer, tests: int, untraced, traced,
                speed: float) -> dict:
    """Per-test layer metrics; times scaled to nominal probe speed by ``speed``."""
    per_test = 1000.0 * speed / tests
    table = {f"{layer}.self_ms": tracer.layer_self_s(layer) * per_test
             for layer in LAYERS}
    for layer, name in TRACED_FUNCTIONS:
        calls, self_s = tracer.counts(layer, name)
        table[f"{layer}.{name}.calls"] = calls / tests
        table[f"{layer}.{name}.self_ms"] = self_s * per_test
    table["trace_overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return table


def main() -> None:
    spec = json.loads(sys.argv[1])
    imported = Path(dphotelling.__file__).resolve()
    if not imported.is_relative_to(ROOT / "src"):
        sys.exit(f"dphotelling imported from {imported}, not from {ROOT / 'src'}")
    workload = (CliWorkload if spec["kind"] == "cli" else SimWorkload)(spec)
    seed = spec["seed"]
    tally = Tally()
    timed_op(workload, program_seed(seed, 0), tally)
    report = {"setup_s": time.time() - spec["launched"],
              "probe_ms": [probe_ms(spec["probe"])],
              "probe_nominal_ms": sum(PROBES[p][1] for p in spec["probe"])}

    mode = spec["mode"]
    if mode != "setup":
        tracer = Tracer("dphotelling", LAYERS) if mode == "trace" else None
        untraced, traced = [], []
        op = 1
        deadline = time.perf_counter() + spec["seconds"]
        while time.perf_counter() < deadline:
            ps = program_seed(seed, op)
            untraced.append(timed_op(workload, ps, tally))
            if tracer is not None:
                with tracer:
                    traced.append(timed_op(workload, ps, tally))
            report["probe_ms"].append(probe_ms(spec["probe"]))
            op += 1
        try:
            gates = workload.gates(program_seed(seed, 0))
        except Exception as exc:  # a crashing gate is a failed check
            traceback.print_exc(file=sys.stderr)
            gates = [("gates", f"{type(exc).__name__}: {exc}")]
        for name, problem in gates:
            tally.record(name, problem)
        report.update(
            op_s=untraced,
            tests_per_op=workload.tests_per_op,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            report["layers"] = layer_table(
                tracer, workload.tests_per_op * len(traced),
                [t for t in untraced if t is not None],
                [t for t in traced if t is not None],
                report["probe_nominal_ms"] / statistics.median(report["probe_ms"]))
    report.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
