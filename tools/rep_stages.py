"""Print microseconds per d = 1 replication, stage by stage, for each tree.

Usage: python tools/rep_stages.py [SRC_DIR ...] [--reps R] [--runs K]

Each SRC_DIR holds a ``dphotelling`` package; the default is the ``src``
directory next to this script. Every tree is imported into this one process
under its own module objects, and the trees take turns replication by
replication, so a host whose speed drifts slows all of them alike.

A replication is one of ``simbench.run_grid``'s on the d = 1 uniform-cube
level cells (eps in {0.1, 1}, n in {100, 1000}, both rules), split into
stages that sum to the whole:

  streams     deriving the replication's substreams, none built yet
  generators  building the Philox generator of each stream that draws
  generate    ``simbench.generate``: the two samples and their bound check
  summaries   ``compute_summary`` of each sample
  releases    ``privatize_summaries``: both means and covariances
  outcome     statistic, threshold and decision (``decision._outcome``)

and two parts of the outcome, each timed again on its own: the whitener
(``private_whitener``) and the bootstrap's two roots (``numlin.psd_sqrt``
of each released covariance over n, bootstrap cells only). Each figure is
the mean per replication over R replications of every cell, and the
minimum over K runs; "sum" adds the stages' minima. Trees alternate which
goes first from one replication to the next. Before timing, every tree's
staged replication must give the same ``TestOutcome`` as ``run_test`` on
the same streams.

The pipeline reaches its streams only through ``substream`` and
``generator``. One replication per cell, run through
``simbench._replicate`` on recording stand-ins, gives the tree of
substreams and which of them draw; the stages then get streams derived
and generators built beforehand. The stand-ins that hold them cost a
dictionary lookup per ``substream`` call, the same in every tree. BLAS
runs on one thread unless the environment says otherwise.
"""

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

STAGES = ("streams", "generators", "generate", "summaries", "releases",
          "outcome")
PARTS = ("whitener", "bootstrap roots")


def load(src: Path) -> dict:
    """The modules of the dphotelling package under ``src``, imported anew."""
    for name in [m for m in sys.modules
                 if m == "dphotelling" or m.startswith("dphotelling.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"dphotelling.{name}")
                for name in ("decision", "mechanisms", "numlin", "randkit",
                             "simbench")}
    finally:
        sys.path.remove(str(src))
    imported = Path(mods["decision"].__file__).resolve()
    if not imported.is_relative_to(src.resolve()):
        sys.exit(f"dphotelling imported from {imported}, not from {src}")
    return mods


class Recorder:
    """Wraps a stream; records the substream tree and which streams draw."""

    def __init__(self, stream):
        self.stream, self.children, self.draws = stream, {}, False

    def substream(self, *tags):
        if tags in self.children:
            sys.exit(f"substream {tags} derived twice; the stages need "
                     "each path once")
        child = self.children[tags] = Recorder(self.stream.substream(*tags))
        return child

    @property
    def generator(self):
        self.draws = True
        return self.stream.generator


def plan_of(rec: Recorder, plan: list, at: int = 0) -> list:
    """(parent index, tags, draws) of each stream below ``rec``, depth
    first; index 0 is ``rec``'s stream and entry j is stream j + 1."""
    for tags, child in rec.children.items():
        plan.append((at, tags, child.draws))
        plan_of(child, plan, len(plan))
    return plan


class Prepared:
    """A stream whose substreams and generator exist before they are read."""

    __slots__ = ("children", "generator")

    def __init__(self):
        self.children = {}

    def substream(self, *tags):
        return self.children[tags]


class Tree:
    """One tree's cells, stream shapes and stage timers."""

    def __init__(self, src: Path):
        self.src = src
        self.mods = load(src)
        sb, dec = self.mods["simbench"], self.mods["decision"]
        self.cells = [sb.CellSpec(sb.DesignSpec("uniform_cube", 1), eps=eps,
                                  n=n, kind=kind)
                      for kind in (dec.BOOTSTRAP, dec.ASYMPTOTIC)
                      for eps in (0.1, 1.0) for n in (100, 1000)]
        self.cfgs = [dec.TestConfig(epsilon=c.eps, bound_m=c.design.bound_m,
                                    threshold_kind=c.kind) for c in self.cells]
        self.plans = []
        for ci, (cell, cfg) in enumerate(zip(self.cells, self.cfgs)):
            rec = Recorder(self.mods["randkit"].RngStream(0))
            sb._replicate(rec.substream(ci), 0, cell, cfg)
            self.plans.append(
                tuple(plan_of(rec.children[(ci,)].children[(0,)], [])))

    def check(self, seed: int, reps: int) -> None:
        """The staged replications give run_test's outcomes, repr for repr."""
        root = self.mods["randkit"].RngStream(seed)
        for ci, (cell, cfg) in enumerate(zip(self.cells, self.cfgs)):
            for rep in range(reps):
                rng = root.substream(ci, rep)
                x, y = self.mods["simbench"].generate(
                    rng.substream(0), cell.design, cell.n, cell.n)
                want = repr(self.mods["decision"].run_test(
                    rng.substream(1), x, y, cfg))
                got = repr(self.replicate(root.substream(ci), ci, rep, None))
                if got != want:
                    sys.exit(f"{self.src}: staged replication {ci}/{rep} "
                             f"gave {got}, run_test {want}")

    def replicate(self, cell_rng, ci: int, rep: int, clock):
        """One replication, stage by stage; adds each stage's ns to clock."""
        sb, mech, dec, numlin = (self.mods[m] for m in
                                 ("simbench", "mechanisms", "decision",
                                  "numlin"))
        cell, cfg, plan = self.cells[ci], self.cfgs[ci], self.plans[ci]
        now = time.perf_counter_ns
        t0 = now()
        streams = [cell_rng.substream(rep)]
        for parent, tags, _ in plan:
            streams.append(streams[parent].substream(*tags))
        t1 = now()
        gens = [streams[j + 1].generator if draws else None
                for j, (_, _, draws) in enumerate(plan)]
        t2 = now()
        nodes = [Prepared() for _ in streams]
        for j, (parent, tags, draws) in enumerate(plan):
            nodes[parent].children[tags] = nodes[j + 1]
            if draws:
                nodes[j + 1].generator = gens[j]
        rng = nodes[0]
        t3 = now()
        x, y = sb.generate(rng.substream(0), cell.design, cell.n, cell.n)
        t4 = now()
        sx = mech.compute_summary(x, cfg.bound_m)
        sy = mech.compute_summary(y, cfg.bound_m)
        t5 = now()
        test = rng.substream(1)
        ps = mech.privatize_summaries(test.substream(1), sx, sy, cfg.epsilon)
        t6 = now()
        out = dec._outcome(test, ps, cfg)
        t7 = now()
        if clock is None:
            return out
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t4 - t3, t5 - t4,
                                      t6 - t5, t7 - t6)):
            clock[stage] += dt
        t8 = now()
        dec.private_whitener(ps)
        clock["whitener"] += now() - t8
        if cfg.threshold_kind == dec.BOOTSTRAP:
            t9 = now()
            numlin.psd_sqrt(ps.cov_x_dp / ps.n1)
            numlin.psd_sqrt(ps.cov_y_dp / ps.n2)
            clock["bootstrap roots"] += now() - t9
        return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent
                                 / "src"])
    parser.add_argument("--reps", type=int, default=40,
                        help="replications per cell and run (default 40)")
    parser.add_argument("--runs", type=int, default=7,
                        help="runs; each figure is their minimum (default 7)")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed of run 0; run i uses seed + i")
    args = parser.parse_args()
    trees = [Tree(src) for src in args.src]
    for tree in trees:
        tree.check(args.seed, 3)
    best = [dict.fromkeys(STAGES + PARTS, float("inf")) for _ in trees]
    count = len(trees[0].cells) * args.reps
    for run in range(args.runs):
        clocks = [dict.fromkeys(STAGES + PARTS, 0) for _ in trees]
        roots = [tree.mods["randkit"].RngStream(args.seed + run)
                 for tree in trees]
        for ci in range(len(trees[0].cells)):
            cell_rngs = [root.substream(ci) for root in roots]
            for rep in range(args.reps):
                turns = list(zip(trees, cell_rngs, clocks))
                for tree, cell_rng, clock in turns[::1 - 2 * (rep % 2)]:
                    tree.replicate(cell_rng, ci, rep, clock)
        for b, clock in zip(best, clocks):
            for key, ns in clock.items():
                b[key] = min(b[key], ns / count / 1e3)
    print(f"us per d = 1 replication, min of {args.runs} runs of "
          f"{count} replications")
    print(f"{'stage':<22}" + "".join(f"{i:>12}" for i in
                                     range(len(trees))))
    for key in STAGES:
        print(f"{key:<22}" + "".join(f"{b[key]:12.1f}" for b in best))
    print(f"{'sum':<22}"
          + "".join(f"{sum(b[k] for k in STAGES):12.1f}" for b in best))
    for key in PARTS:
        print(f"{'  of it, ' + key:<22}"
              + "".join(f"{b[key]:12.1f}" for b in best))
    for i, tree in enumerate(trees):
        print(f"{i}: {tree.src}")


if __name__ == "__main__":
    main()
