#!/usr/bin/env python3
"""Orientable fraction vs. mean degree across instance sizes.

For each instance size n, runs ``--trials`` hitting-load searches
(instance t on stream t).  An instance is orientable at mean degree mu
exactly when its hitting count m* exceeds round(mu*n/h), the edge count
`run_trial` samples there, so the fraction at each point of a grid
centred on the predicted threshold is the share of instances with m*
above it.  The resulting CSV shows the transition window tightening as n
grows; its ``seconds`` column is the wall time of that n's searches.  At
the default sizes the whole sweep takes under a minute.
"""

import argparse
import csv
import math
import sys
import time

from wkorient.cli import ExperimentConfig, hitting_load
from wkorient.hypergraph import OrientationParams
from wkorient.ode import find_threshold


def mean_degree_grid(p: OrientationParams, window: float, points: int) -> list[float]:
    """points mean degrees evenly spaced over the predicted threshold +/- window."""
    mu_tilde = find_threshold(p, tol=1e-3).mu_tilde
    print(f"predicted threshold mu_tilde = {mu_tilde:.4f}", file=sys.stderr)
    step = 2 * window / (points - 1)
    return [mu_tilde - window + i * step for i in range(points)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=int, default=3)
    ap.add_argument("--w", type=int, default=2)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument(
        "--n", type=int, action="append",
        help="instance sizes (repeatable; default 3000 10000 30000)",
    )
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--window", type=float, default=0.15,
                    help="half-width of the sweep around the threshold")
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="transition_sweep.csv")
    args = ap.parse_args(argv)

    p = OrientationParams(args.h, args.w, args.k)
    grid = mean_degree_grid(p, args.window, args.points)
    sizes = args.n or [3000, 10000, 30000]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mu_bar", "fraction", "half_width", "seconds"])
        for n in sizes:
            t0 = time.perf_counter()
            m_stars = [
                hitting_load(p, n, args.seed, t).m_star for t in range(args.trials)
            ]
            seconds = time.perf_counter() - t0
            for mu_bar in grid:
                cfg = ExperimentConfig(
                    args.h, args.w, args.k, n, mu_bar, args.trials, args.seed
                )
                frac = sum(m > cfg.num_edges for m in m_stars) / args.trials
                hw = 1.96 * math.sqrt(frac * (1 - frac) / args.trials)
                writer.writerow(
                    [n, f"{mu_bar:.5f}", frac, f"{hw:.4f}", f"{seconds:.2f}"]
                )
                print(f"n={n} mu_bar={mu_bar:.4f} fraction={frac:.2f}",
                      file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
