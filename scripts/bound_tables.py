#!/usr/bin/env python3
"""Tabulate the admissible parameter windows and contraction factors.

For a sweep of isometry constants (all orders set equal, the worst case),
prints the momentum ceiling beta_max, the step interval at a reference beta,
and the resulting contraction factor for each algorithm variant.

    python scripts/bound_tables.py --omega 1
"""

import argparse

from otkit.bounds import (RICProfile, gamma_sharp_omega, gamma_star,
                          gamma_star_omega, hbot_constants, hbrot_constants,
                          parameter_window)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=int, default=1)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--beta-fraction", type=float, default=0.5,
                    help="evaluate the step interval at this fraction of beta_max")
    args = ap.parse_args()

    print(f"ceilings: gamma*={gamma_star():.6f}  "
          f"gamma*({args.omega})={gamma_star_omega(args.omega):.6f}  "
          f"gamma#({args.omega})={gamma_sharp_omega(args.omega):.6f}")

    for variant, ceiling in (("hbot", gamma_star()),
                             ("hbrot", gamma_star_omega(args.omega)),
                             ("hbrotp", gamma_sharp_omega(args.omega))):
        print(f"\n[{variant}]  (delta given as fraction of its ceiling {ceiling:.4f})")
        print(f"{'delta':>8} {'beta_max':>9} {'alpha_lo':>9} {'alpha_hi':>9} {'theta':>8}")
        for frac in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
            delta = frac * ceiling
            ric = RICProfile(k=args.k, delta_k=delta, delta_2k=delta,
                             delta_3k=delta, delta_kp1=delta)
            try:
                beta_max, interval = parameter_window(
                    ric, omega=args.omega, variant=variant, n=args.n)
            except ValueError as exc:
                print(f"{delta:8.4f}  window unavailable: {exc}")
                continue
            beta = args.beta_fraction * beta_max
            lo, hi = interval(beta)
            alpha = 1.0 + beta
            if variant == "hbot":
                bc = hbot_constants(ric, alpha, beta)
                theta = bc.theta
            else:
                bc = hbrot_constants(ric, alpha, beta, args.omega, args.n,
                                     variant=variant)
                theta = bc.theta1 if variant == "hbrot" else bc.theta2
            print(f"{delta:8.4f} {beta_max:9.4f} {lo:9.4f} {hi:9.4f} {theta:8.4f}")


if __name__ == "__main__":
    main()
