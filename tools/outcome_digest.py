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
  - the CSV and ``--summary-json`` files of ``simulate --example32
    --reps 20``;
  - ``run_grid`` tables at d = 1 and d = 10, serial and on two processes.

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
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = (Path(sys.argv[1]) if len(sys.argv) > 1
       else Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dphotelling  # noqa: E402
from dphotelling import cli, simbench  # noqa: E402
from dphotelling.decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig,  # noqa: E402
                                  run_test)
from dphotelling.randkit import RngStream  # noqa: E402
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


def main() -> None:
    imported = Path(dphotelling.__file__).resolve()
    if not imported.is_relative_to(SRC.resolve()):
        sys.exit(f"dphotelling imported from {imported}, not from {SRC}")
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for part in (*outcomes(), *cli_outputs(work), *simulate_files(work),
                     *grid_tables()):
            digest.update(part.encode("utf-8") + b"\0")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
