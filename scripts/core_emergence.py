#!/usr/bin/env python3
"""Empirical core profile against the numeric prediction across mean degrees.

Walks a mean-degree grid through the core-emergence region and writes both
the fixed-point prediction and sampled means for the surviving-vertex
fraction, core density, and core mean degree.  The grid runs from 0.8 to
1.2 times the predicted emergence point mu_c unless --mu-lo/--mu-hi say
otherwise.  Where k(h-w) > 1 the jump from an empty core to a macroscopic
one is discontinuous in the limit; finite n rounds it off.
"""

import argparse
import csv
import sys

from wkorient.cli import ExperimentConfig, core_profile
from wkorient.hypergraph import OrientationParams
from wkorient.ode import core_emergence


def _cell(value, digits: int) -> str:
    """A CSV cell; an undefined value (the density of an empty core) is blank."""
    return "" if value is None else f"{value:.{digits}f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=int, default=3)
    ap.add_argument("--w", type=int, default=2)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--n", type=int, default=30000)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--mu-lo", type=float, default=None, help="default 0.8 mu_c")
    ap.add_argument("--mu-hi", type=float, default=None, help="default 1.2 mu_c")
    ap.add_argument("--points", type=int, default=21)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="core_emergence.csv")
    args = ap.parse_args(argv)
    _, mu_c = core_emergence(OrientationParams(args.h, args.w, args.k))
    mu_lo = 0.8 * mu_c if args.mu_lo is None else args.mu_lo
    mu_hi = 1.2 * mu_c if args.mu_hi is None else args.mu_hi

    step = (mu_hi - mu_lo) / (args.points - 1)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "mu_bar", "alpha_pred", "alpha_emp", "kappa_pred", "kappa_emp",
            "mu_hat_pred", "mu_hat_emp", "chi2_pvalue",
        ])
        for i in range(args.points):
            mu_bar = mu_lo + i * step
            cfg = ExperimentConfig(
                args.h, args.w, args.k, args.n, mu_bar, args.trials, args.seed
            )
            rep = core_profile(cfg)
            pred = rep.prediction
            a_p, k_p, m_p = pred.alpha, pred.kappa, pred.mu_hat
            writer.writerow([
                f"{mu_bar:.4f}", f"{a_p:.6f}", f"{rep.mean_alpha:.6f}",
                _cell(k_p, 6), _cell(rep.mean_kappa, 6),
                _cell(m_p, 6), _cell(rep.mean_mu_hat, 6),
                _cell(rep.chi2_pvalue, 4),
            ])
            print(
                f"mu_bar={mu_bar:.3f} alpha {a_p:.4f}/{rep.mean_alpha:.4f} "
                f"kappa {_cell(k_p, 4)}/{_cell(rep.mean_kappa, 4)}",
                file=sys.stderr,
            )
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
