#!/usr/bin/env python3
"""Time the Gibbs chain of `truncated_mvn_sample` per coordinate update.

Each case is a box on the kernel of pc1's `a_x` GP channel (SE kernel, the
scenario's variance, lengthscale and step) in which every coordinate has
bounds of one shape, in units of the channel's marginal standard deviation:

  upper        x <= -0.4
  lower-right  x >= 0.4, right of the mean (the update mirrors it)
  lower-left   x >= -0.4, left of the mean
  two-sided    -1.2 <= x <= -0.4
  free         no bound

at d = 2, 15 and 30 steps and batch sizes 1 and 15.  One repeat times one
call of every case, in a fixed order, so slow spells of the machine fall
on all cases alike; the table holds each case's median over the repeats,
in nanoseconds per coordinate update (the call's time over its
`(GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d` updates, set-up included).
OpenBLAS and OpenMP run on one thread.  It imports the `src` of its own
checkout, so running each checkout's copy compares two checkouts:

    python3 scripts/chain_cost.py [--repeats 30]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stlfalsify as sf  # noqa: E402
from stlfalsify.samplers import GIBBS_BURN_IN, GIBBS_THIN, se_kernel, truncated_mvn_sample  # noqa: E402

INF = float("inf")
SHAPES = {  # (lo, hi) of every coordinate, in marginal standard deviations
    "upper": (-INF, -0.4),
    "lower-right": (0.4, INF),
    "lower-left": (-0.4, INF),
    "two-sided": (-1.2, -0.4),
    "free": (-INF, INF),
}
DIMS = (2, 15, 30)
SIZES = (1, 15)


def cases():
    """(shape, d, size, mean, cov, lo, hi) of every timed call."""
    sc = sf.scenario("pc1")
    gp = sc.model.models["a_x"]
    sd = gp.variance ** 0.5
    for shape, (lo, hi) in SHAPES.items():
        for d in DIMS:
            cov = se_kernel(np.arange(d) * sc.dt, gp.variance, gp.lengthscale)
            for size in SIZES:
                yield shape, d, size, np.zeros(d), cov, np.full(d, lo * sd), np.full(d, hi * sd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    todo = list(cases())
    rng = np.random.default_rng(0)
    for _, _, _, mean, cov, lo, hi in todo:  # warm-up: the imports and first calls
        truncated_mvn_sample(mean, cov, lo, hi, rng, size=1)
    times = {case[:3]: [] for case in todo}
    for _ in range(args.repeats):
        for shape, d, size, mean, cov, lo, hi in todo:
            t0 = time.perf_counter_ns()
            truncated_mvn_sample(mean, cov, lo, hi, rng, size=size)
            t = time.perf_counter_ns() - t0
            times[shape, d, size].append(t / ((GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d))
    columns = [(d, size) for d in DIMS for size in SIZES]
    print(f"ns per coordinate update, median of {args.repeats} repeats")
    print(f"{'shape':<12}" + "".join(f"{f'd={d} n={size}':>12}" for d, size in columns))
    for shape in SHAPES:
        print(f"{shape:<12}" + "".join(f"{statistics.median(times[shape, d, size]):>12.0f}"
                                      for d, size in columns))


if __name__ == "__main__":
    main()
