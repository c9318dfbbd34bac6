#!/usr/bin/env python3
"""Compute orientability thresholds for a list of (h, w, k) triples.

Defaults to the four built-in reference rows; pass --triple to study others.
"""

import argparse
import csv
import math
import sys
import time

from wkorient.cli import TABLE1_REFERENCE
from wkorient.hypergraph import OrientationParams
from wkorient.ode import BracketError, DomainError, find_threshold


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected h,w,k got {text!r}")
    h, w, k = (int(p) for p in parts)
    return h, w, k


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--triple",
        type=parse_triple,
        action="append",
        help="h,w,k (repeatable; default: the reference rows)",
    )
    ap.add_argument("--tol", type=float, default=1e-4, help="bisection width")
    ap.add_argument("--out", default=None, help="also write CSV here")
    args = ap.parse_args(argv)
    if not 0 < args.tol < math.inf:
        ap.error(f"--tol must be positive and finite, got {args.tol}")

    triples = args.triple or [(h, w, k) for h, w, k, _, _ in TABLE1_REFERENCE]
    rows = []
    print(f"{'h':>3} {'w':>3} {'k':>3} {'mu_tilde':>12} {'mu_hat':>12} "
          f"{'hk/w':>10} {'ms':>8}")
    for h, w, k in triples:
        p = OrientationParams(h, w, k)
        t0 = time.perf_counter()
        try:
            res = find_threshold(p, tol=args.tol)
        except (BracketError, DomainError) as exc:
            print(f"{h:>3} {w:>3} {k:>3}  failed: {exc}", file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        rows.append((h, w, k, res.mu_tilde, res.mu_hat))
        mu_hat = "" if res.mu_hat is None else f"{res.mu_hat:.6f}"
        print(f"{h:>3} {w:>3} {k:>3} {res.mu_tilde:>12.6f} "
              f"{mu_hat:>12} {h * k / w:>10.4f} {dt * 1e3:>8.2f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "w", "k", "mu_tilde", "mu_hat"])
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
