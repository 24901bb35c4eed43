"""Benchmark of the private two-sample test: CLI latency and bench throughput.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload cli_d30 --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` lists the reason for each):
  cli_d30   ``dphotelling test`` on two uniform-cube CSVs, d=30, n1=n2=1000, eps=1
  cli_n1e5  the same with d=10, n1=n2=100000, eps=0.5
  sim_d1    ``simbench.run_grid`` over the d=1 uniform-cube level cells

Each workload is a closed loop with one caller in a fresh interpreter, BLAS
pinned to one thread. Op i runs with a program seed derived from ``--seed``
and i. The inputs come from ``--seed`` through plain numpy, never through
the package under test.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over three
fresh interpreters of importing dphotelling plus one warm-up op),
``test_ms_p50`` / ``test_ms_p90`` (time of one test; on sim_d1 the mean per
test of each grid call), ``reps_per_s`` and ``peak_rss_mb``. Times are
speed-normalized: the host's speed swings by up to 2x over tens of seconds,
so each op is timed next to a fixed probe (``worker.probe_ms``) and scaled
by the probe's nominal over its measured time. The raw wall-time figures are
printed too. ``--trace 1`` reports the per-layer table from a traced run (see
``tracer.py``): self time per module, calls and self time of selected
functions, per test, and the tracing overhead.

Every output is checked; the failure count goes into ``failed`` and any
failure makes the exit code 1. ``baseline.json`` holds the numbers of the
first measured commit and the map from layer metrics to the end-to-end
metrics they should move.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# "probe" names the speed probes of worker.py that track each workload.
CLI_WORKLOADS = {
    "cli_d30": {"d": 30, "n": 1000, "epsilon": "1", "probe": ["tiny_numpy"]},
    "cli_n1e5": {"d": 10, "n": 100_000, "epsilon": "0.5",
                 "probe": ["csv", "loop"]},
}
SIM_PROBE = ["tiny_numpy", "generators"]
WORKLOADS = (*CLI_WORKLOADS, "sim_d1")
# 0.95 quantiles of chi-squared with d degrees of freedom.
CHI2_95 = {10: 18.307038053275146, 30: 43.77297182574219}
SETUP_RUNS = 2
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150


def classical_t2(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Hotelling T^2 with the classical pooled covariance."""
    n1, n2 = len(x), len(y)
    pooled = ((n1 - 1) * np.cov(x, rowvar=False)
              + (n2 - 1) * np.cov(y, rowvar=False)) / (n1 + n2 - 2)
    diff = x.mean(axis=0) - y.mean(axis=0)
    return n1 * n2 / (n1 + n2) * float(diff @ np.linalg.solve(pooled, diff))


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs; return the worker spec."""
    if workload not in CLI_WORKLOADS:
        return {"kind": "sim", "seed": seed, "probe": SIM_PROBE}
    cfg = CLI_WORKLOADS[workload]
    gen = np.random.default_rng(seed)
    spec = {"kind": "cli", "seed": seed, **cfg, "chi2_95": CHI2_95[cfg["d"]]}
    data = []
    for name in ("x", "y"):
        sample = gen.uniform(-1.0, 1.0, size=(cfg["n"], cfg["d"]))
        path = work / f"{name}.csv"
        np.savetxt(path, sample, fmt="%.17g", delimiter=",")
        spec[f"{name}_csv"] = str(path)
        data.append(sample)
    spec["t2"] = classical_t2(*data)
    return spec


def run_worker(spec: dict, mode: str, seconds: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spec = dict(spec, mode=mode, seconds=seconds, launched=time.time())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": git_commit(),
    }


def end_to_end(setups, res) -> tuple:
    """Speed-normalized end-to-end metrics, and the raw wall-time ones.

    Each op's wall time is scaled by the probe's nominal time over the mean
    of the probes run just before and just after it; each set-up by the
    probe run right after it.
    """
    tests_per_op, probe = res["tests_per_op"], res["probe_ms"]
    nominal = res["probe_nominal_ms"]
    raw, norm = [], []
    for i, op_s in enumerate(res["op_s"]):
        if op_s is None:
            continue
        ms = 1000.0 * op_s / tests_per_op
        raw.append(ms)
        norm.append(ms * 2.0 * nominal / (probe[i] + probe[i + 1]))
    setup = [(r["setup_s"], r["probe_ms"][0]) for r in [*setups, res]]

    def summary(samples, setup_s):
        p90 = (statistics.quantiles(samples, n=10, method="inclusive")[8]
               if len(samples) > 1 else samples[0])
        return {
            "setup_s": statistics.median(setup_s),
            "test_ms_p50": statistics.median(samples),
            "test_ms_p90": p90,
            "reps_per_s": 1000.0 * len(samples) / math.fsum(samples),
            "peak_rss_mb": res["rss_mb"],
        }

    return (summary(norm, [s * nominal / p for s, p in setup]),
            summary(raw, [s for s, _ in setup]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so the running worker is killed and reaped and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "dphotelling" / "__init__.py").is_file():
        sys.exit(f"no dphotelling sources under {ROOT / 'src'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    print("env " + json.dumps(environment(args.workload, args.seed)))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        spec = prepare(args.workload, args.seed, Path(work))
        setups = ([] if args.trace else
                  [run_worker(spec, "setup", 0) for _ in range(SETUP_RUNS)])
        res = run_worker(spec, "trace" if args.trace else "run", args.seconds)

    attempted = res["attempted"] + sum(r["attempted"] for r in setups)
    failed = res["failed"] + sum(r["failed"] for r in setups)
    for err in res["errors"] + [e for r in setups for e in r["errors"]]:
        print(f"FAILED {err}")
    if all(op_s is None for op_s in res["op_s"]):
        sys.exit("no timed op succeeded")
    values, wall = (res["layers"], None) if args.trace else end_to_end(setups, res)
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(f"timed ops {len(res['op_s'])} of {res['tests_per_op']} tests each")
    print(f"probe_ms median {statistics.median(res['probe_ms']):.4g} "
          f"(nominal {res['probe_nominal_ms']:.4g})")
    if wall is not None:
        print("wall time, not speed-normalized: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
