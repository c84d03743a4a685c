#!/usr/bin/env python3
"""Does the harness's pure-Python reference work slow down together with
native code? Run it on the benchmark's host before relying on the scaled
times for work that runs mostly outside the interpreter.

    python3 perfbench/scaling_probe.py --seconds 150

It times a small binary MILP solved by HiGHS (``scipy.optimize.milp``, the
solver ROADMAP item 3 moves the VCG benchmark to) between two timings of the
reference work, and prints the spread (IQR over median) of the solve times,
of the reference times and of their ratio, per solve and over medians of 20
solves. Scaling is sound when the ratio spreads much less than the solve
times do.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from run import HostSpeed

CHUNK = 20


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=150.0)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    n, m = 25, 18
    objective = -rng.uniform(1, 10, n)
    matrix = rng.uniform(0, 1, (m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    constraints = LinearConstraint(matrix, -np.inf, 3.0)

    host = HostSpeed()
    solves, references = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        host.probe()
        t0 = time.perf_counter()
        milp(objective, constraints=constraints, integrality=np.ones(n), bounds=Bounds(0, 1))
        solves.append(time.perf_counter() - t0)
        host.probe()
        references.append((host.values[-1] + host.values[-2]) / 2)

    ratios = [s / r for s, r in zip(solves, references)]
    print(f"{len(solves)} solves, median {1000 * statistics.median(solves):.2f} ms; "
          f"reference work median {1000 * statistics.median(references):.3f} ms")
    for name, values in (("solve", solves), ("reference", references), ("ratio", ratios)):
        chunks = [statistics.median(values[i:i + CHUNK])
                  for i in range(0, len(values) - CHUNK + 1, CHUNK)]
        print(f"{name:10s} spread {spread(values):.3f}; over medians of {CHUNK}: "
              f"spread {spread(chunks):.3f}, max/min {max(chunks) / min(chunks):.3f}")


if __name__ == "__main__":
    main()
