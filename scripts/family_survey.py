#!/usr/bin/env python3
"""Run the full certification pipeline on every built-in stable family and
print the certificate constants plus the resolvent scan verdicts."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from stabcert import (
    certificate,
    heat_dirichlet,
    jordan_block,
    membership_margin,
    random_stable,
    solve_algebraic,
    spectral_bound,
    upwind_shift,
    verify_bound_left_strip,
    verify_bound_right,
)
from stabcert.space import NormModel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cases = [
        ("heat n=16", heat_dirichlet(16, 1.0)),
        ("upwind n=8", upwind_shift(8, 1.0, 1.0)),
        ("jordan n=4 @ -1", jordan_block(4, -1.0)),
        ("random n=12", random_stable(12, 0.5, args.seed)),
    ]
    print(f"{'model':>16s} {'s(A)':>10s} {'eps':>10s} {'M':>8s} "
          f"{'|Q|':>10s} {'theta':>10s} {'right':>7s} {'strip':>7s}")
    for name, a in cases:
        nm = NormModel.identity(a.shape[0])
        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        cert = certificate(cand)
        right = verify_bound_right(cand)
        strip = verify_bound_left_strip(cand)
        print(f"{name:>16s} {spectral_bound(a):10.4f} {cert.epsilon:10.4f} "
              f"{cert.overshoot:8.3f} {cand.q_norm:10.5f} {cand.theta:10.6f} "
              f"{'pass' if right.passed else 'FAIL':>7s} "
              f"{'pass' if strip.passed else 'FAIL':>7s}")


if __name__ == "__main__":
    main()
