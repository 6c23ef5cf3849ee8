#!/usr/bin/env python3
"""Per-iteration recovery error against its certified envelope.

Builds a matrix with closed-form isometry constants (verified exactly),
checks the parameter window, runs the pursuit algorithm, and prints the
measured error next to the guaranteed envelope at every iteration.

    python scripts/envelope_demo.py --n 14
"""

import argparse

import numpy as np

from otkit.algorithms import config_for, run
from otkit.bench import equiangular_frame
from otkit.bounds import convergence_envelope, hbrot_constants, parameter_window, ric_profile
from otkit.core import ProblemInstance


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=14)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", type=float, default=0.0, help="noise level")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    A = equiangular_frame(args.n, rng)
    prof = ric_profile(A, 1)
    print(f"n={args.n}: delta_1={prof.delta_k:.4f} delta_2={prof.delta_2k:.4f} "
          f"delta_3={prof.delta_3k:.4f} (closed form (t-1)/(n-1))")

    beta_max, interval = parameter_window(prof, omega=1, variant="hbrotp", n=args.n)
    beta = 0.5 * beta_max
    alpha = 1.0 + beta
    lo, hi = interval(beta)
    print(f"window: beta_max={beta_max:.4f}; at beta={beta:.4f} "
          f"alpha in ({lo:.4f}, {hi:.4f}); using alpha={alpha:.4f}")
    bc = hbrot_constants(prof, alpha, beta, omega=1, n=args.n, variant="hbrotp")
    print(f"contraction factor theta={bc.theta:.4f}")

    truth = np.zeros(args.n)
    truth[int(rng.integers(0, args.n))] = 1.0
    y = A @ truth
    if args.eps > 0:
        h = rng.standard_normal(args.n - 1)
        y += args.eps * h / np.linalg.norm(h)
    problem = ProblemInstance(A=A, y=y, k=1, truth=truth)
    result = run(problem, config_for("hbrotp", alpha=alpha, beta=beta,
                                     max_iter=50, residual_tol=0.0))

    errors = result.trace.errors_to_truth
    print(f"\n{'p':>3} {'error':>12} {'envelope':>12}")
    for p, err in enumerate(errors):
        if p < 2:
            print(f"{p:3d} {err:12.3e} {'-':>12}")
        else:
            env = convergence_envelope(bc, errors[0], errors[1], args.eps, p)
            print(f"{p:3d} {err:12.3e} {env:12.3e}")
    print(f"\nstopped: {result.stop_reason} after {result.iterations} iterations")


if __name__ == "__main__":
    main()
