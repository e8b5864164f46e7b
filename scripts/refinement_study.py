#!/usr/bin/env python3
"""Left-invertibility degradation study for the upwind family.

For growing dimension at fixed cell size this prints, per n:

  * the fitted envelope (c, alpha) of m(t) = sigma_min of T(t),
  * the single-time witness m(1),
  * the comparable intercept at one shared decay rate (the largest fitted
    alpha across the sweep).

The per-model fits drift toward the perfect envelope (c, alpha) -> (1, 2)
as n grows, because the family converges to an isometry-like semigroup;
the degradation of the lower-bound constants shows up in the fixed-time
witness and in the shared-rate intercepts, both strictly decreasing in n.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from stabcert import lower_envelope, upwind_shift
from stabcert.semigroup import left_invertibility_witness
from stabcert.space import NormModel


def run(sizes, t_lo, t_hi, points):
    grid = np.linspace(t_lo, t_hi, points)
    rows = []
    fits = {}
    for n in sizes:
        a = upwind_shift(n, 1.0, 1.0)
        nm = NormModel.identity(n)
        fits[n] = lower_envelope(a, nm, grid)
        rows.append({
            "n": n,
            "c": fits[n].c,
            "alpha": fits[n].alpha,
            "m_at_1": left_invertibility_witness(a, nm, 1.0),
        })
    shared_rate = max(fit.alpha for fit in fits.values())
    for row in rows:
        fit = fits[row["n"]]
        row["shared_rate_intercept"] = min(
            m * math.exp(shared_rate * t) for t, m in fit.grid
        )
    return rows, shared_rate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4,8,16,32,64")
    parser.add_argument("--t-lo", type=float, default=1.0)
    parser.add_argument("--t-hi", type=float, default=10.0)
    parser.add_argument("--points", type=int, default=32)
    parser.add_argument("--csv", help="also write the table to this path")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rows, shared_rate = run(sizes, args.t_lo, args.t_hi, args.points)

    print(f"shared comparison rate: {shared_rate:.6f}")
    header = f"{'n':>4s} {'fitted c':>14s} {'fitted alpha':>14s} " \
             f"{'m(1)':>14s} {'intercept@rate':>16s}"
    print(header)
    for row in rows:
        print(f"{row['n']:4d} {row['c']:14.9f} {row['alpha']:14.9f} "
              f"{row['m_at_1']:14.6e} {row['shared_rate_intercept']:16.6e}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"table written to {args.csv}")


if __name__ == "__main__":
    main()
