"""Measure every workload several times and record the result in baseline.json.

Usage, from the root of the repository:

    python3 benchmarks/baseline.py --runs 10 --first-seed 1

For each workload of ``BENCHMARK.json`` it makes ``--runs`` untraced runs,
seed after seed, and one traced run. It prints, per end-to-end metric, the
median and the spread (quartile distance over median) next to the metric's
bound, and writes them under the ``measured`` key of ``baseline.json``. The
other keys of that file (the reasons and the predicted effects) are kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    measured = {"seconds": seconds, "seeds": seeds, "end_to_end": {},
                "per_layer": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            env, result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        table = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            table[name] = spread([r["metrics"][name]["value"] for r in runs])
            table[name]["unit"] = metric["unit"]
            print(f"  {name}: median {table[name]['median']:.5g} "
                  f"spread {table[name]['spread']:.3f} (bound {metric['bound']})")
        measured["end_to_end"][workload] = table
        _, traced = run_once(workload, seeds[0], seconds, 1)
        measured["per_layer"][workload] = {
            k: v["value"] for k, v in traced["metrics"].items()}
        measured["environment"] = {k: v for k, v in env.items()
                                   if k not in ("workload", "seed")}

    doc = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    doc["measured"] = measured
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
