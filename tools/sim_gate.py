"""Print the op counts at which sim_d1's level gate fails, for one seed.

Usage: python tools/sim_gate.py SEED [MAX_OPS]

``benchmarks/run.py --workload sim_d1 --seed SEED`` runs op 0 as a warm-up,
then ops 1..N for as long as its seconds allow, and prints ``timed ops N``.
Its level gate pools the rejections of ops 0..N in each bootstrap cell and
fails when one cell's count leaves ALPHA +- (BAND_Z sigma + 1) of its
(N + 1) SIM_REPS replications. This script replays ops 0..MAX_OPS (default
1000) with the worker's own cells, program seeds and band, and prints
every N in 1..MAX_OPS at which that gate fails, as ranges. It replays the
ops serially, as the timed loop runs them; the per-op checks and the
determinism gate are not repeated. The package comes from the ``src``
directory that the worker imports. BLAS runs on one thread unless the
environment says otherwise.
"""

import math
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from worker import (ALPHA, BAND_Z, SIM_CELLS, SIM_REPS,  # noqa: E402
                    _hits, program_seed)

from dphotelling import simbench  # noqa: E402
from dphotelling.decision import BOOTSTRAP  # noqa: E402


def failing_counts(seed: int, max_ops: int):
    """Each N in 1..max_ops at which the gate over ops 0..N fails."""
    cells = [i for i, cell in enumerate(SIM_CELLS) if cell.kind == BOOTSTRAP]
    totals = [0] * len(SIM_CELLS)
    for op in range(max_ops + 1):
        table = simbench.run_grid(SIM_CELLS, SIM_REPS, alpha=ALPHA,
                                  master_seed=program_seed(seed, op),
                                  n_jobs=1)
        totals = [t + h for t, h in zip(totals, _hits(table))]
        reps = SIM_REPS * (op + 1)
        half_width = BAND_Z * math.sqrt(reps * ALPHA * (1.0 - ALPHA)) + 1.0
        if op and any(abs(totals[i] - reps * ALPHA) > half_width
                      for i in cells):
            yield op


def ranges(counts) -> str:
    """The counts as ranges: [3, 4, 5, 8] gives "3-5 8"."""
    spans = []
    for n in counts:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return " ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in spans)


def main() -> None:
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__.split("\n\n")[1])
    seed = int(sys.argv[1])
    max_ops = int(sys.argv[2]) if len(sys.argv) == 3 else 1000
    counts = list(failing_counts(seed, max_ops))
    print(f"seed {seed}: level gate fails at {len(counts)} of {max_ops} "
          f"timed-op counts: {ranges(counts) or 'none'}")


if __name__ == "__main__":
    main()
