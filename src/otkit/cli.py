"""Command-line front end, run as `python -m otkit` or the `otkit` script.

Subcommands: gen, recover, grid, ptc, bounds, ric, selftest.  Exit codes are
a stable scripting contract: 0 success, 1 a failed selftest check, 2 argument
error, 3 window/guard failure, 4 I/O failure.  Every run prints its resolved
configuration first.  The base seed is --seed, default 0, so gen, grid and ptc
output is a pure function of the flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .algorithms import ALL_VARIANTS, AlgorithmConfig, run
from .bench import (EnsembleSpec, generate_instance, success_grid,
                    transition_curve, write_transition_csv, write_trials_csv)
from .bounds import (RICProfile, gamma_sharp_omega, gamma_star,
                     gamma_star_omega, hbot_constants, hbrot_constants,
                     ric_exact, s_of_k)
from .core import (ProblemInstance, load_matrix_csv, load_vector_csv,
                   save_matrix_csv, save_vector_csv)
from .errors import EnumerationGuardError, ParameterWindowError
from .selftest import run_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WINDOW = 3
EXIT_IO = 4

def _print_config(name, pairs):
    rendered = ", ".join(f"{k}={v}" for k, v in pairs.items())
    print(f"[{name}] config: {rendered}")


def _frange(lo, hi, step):
    """lo, lo + step, ... through hi, rounded to 12 decimals.  Refuses a bound or
    step that is not finite, step <= 0, hi < lo and a step count that overflows
    to inf; a huge finite count is built as asked."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range bounds and step must be finite: {lo}..{hi} by {step}")
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo:
        raise ValueError(f"empty range: {lo}..{hi}")
    steps = (hi - lo) / step + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"range {lo}..{hi} by {step} has too many points to count")
    return [round(lo + i * step, 12) for i in range(int(math.floor(steps)) + 1)]


def _check_writable(*paths):
    """Raise OSError for a path that is a directory, names no file (it is
    empty or ends in a separator) or whose directory is missing or
    unwritable, so that a command refuses it before any work."""
    for path in paths:
        if os.path.isdir(path) or not os.path.basename(path):
            raise OSError(f"cannot write {path!r}: it names a directory, not a file")
        if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
            raise OSError(f"cannot write {path}: its directory is missing or unwritable")


def cmd_gen(args):
    _print_config("gen", dict(n=args.n, kappa=args.kappa, rho=args.rho,
                              eps=args.eps, seed=args.seed, out_prefix=args.out_prefix))
    _check_writable(f"{args.out_prefix}.A.csv", f"{args.out_prefix}.y.csv",
                    f"{args.out_prefix}.truth.csv")
    spec = EnsembleSpec(n=args.n, kappa=args.kappa, rho=args.rho,
                        noise_eps=args.eps, seed=args.seed)
    problem = generate_instance(spec)
    save_matrix_csv(f"{args.out_prefix}.A.csv", problem.A)
    save_vector_csv(f"{args.out_prefix}.y.csv", problem.y)
    save_vector_csv(f"{args.out_prefix}.truth.csv", problem.truth)
    print(f"wrote {args.out_prefix}.A.csv ({spec.m}x{spec.n}), "
          f"{args.out_prefix}.y.csv, {args.out_prefix}.truth.csv (k={spec.k})")
    return EXIT_OK


def cmd_recover(args):
    _print_config("recover", dict(A=args.A, y=args.y, k=args.k, algo=args.algo,
                                  alpha=args.alpha, beta=args.beta, omega=args.omega,
                                  max_iter=args.max_iter, tol=args.tol,
                                  truth=args.truth, out=args.out))
    _check_writable(args.out)
    A = load_matrix_csv(args.A)
    y = load_vector_csv(args.y)
    truth = load_vector_csv(args.truth) if args.truth else None
    problem = ProblemInstance(A=A, y=y, k=args.k, truth=truth)
    cfg = AlgorithmConfig(variant=args.algo, alpha=args.alpha, beta=args.beta,
                          omega=args.omega, max_iter=args.max_iter,
                          residual_tol=args.tol)
    result = run(problem, cfg)
    save_vector_csv(args.out, result.x_final)
    supp = ",".join(str(i) for i in np.flatnonzero(result.x_final))
    print(f"stop: {result.stop_reason} after {result.iterations} iterations")
    print(f"residual: {result.trace.residual_norms[-1]:.6e}")
    print(f"support: [{supp}]")
    if truth is not None:
        error, truth_norm = np.linalg.norm(result.x_final - truth), np.linalg.norm(truth)
        if truth_norm > 0.0:
            print(f"rel_error: {float(error / truth_norm):.6e}")
        else:  # no relative error of an all-zero truth
            print(f"abs_error: {float(error):.6e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_grid(args):
    kappas = _frange(args.kappa_min, args.kappa_max, args.kappa_step)
    rhos = _frange(args.rho_min, args.rho_max, args.rho_step)
    if args.command == "ptc" and len(rhos) < 2:
        raise ValueError(f"ptc needs at least two rho values, got {rhos}")
    if args.command == "ptc" and os.path.realpath(args.out) == os.path.realpath(args.transitions_out):
        raise ValueError(f"--out and --transitions-out name one file: {args.out!r}")
    _check_writable(args.out, *([args.transitions_out] if args.command == "ptc" else []))
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    _print_config(args.command, dict(n=args.n, kappas=kappas, rhos=rhos,
                                     trials=args.trials, algos=algorithms, eps=args.eps,
                                     seed=args.seed, threads=args.threads,
                                     timing=args.timing, out=args.out))
    grid = success_grid(n=args.n, kappa_list=kappas, rho_list=rhos,
                        trials_per_cell=args.trials, algorithms=algorithms,
                        base_seed=args.seed, noise_eps=args.eps, workers=args.threads)
    with open(args.out, "w") as fh:
        write_trials_csv(fh, grid, include_timing=args.timing)
    print(f"wrote {args.out}")
    for algorithm in algorithms:
        for kappa, row in zip(kappas, grid.rates(algorithm)):
            rates = " ".join(f"{rate:.2f}" for rate in row)
            print(f"{algorithm} kappa={kappa}: rates [{rates}]")
    if args.command == "ptc":
        with open(args.transitions_out, "w") as fh:
            write_transition_csv(fh, grid)
        print(f"wrote {args.transitions_out}")
        for algorithm in algorithms:
            for kappa, rho50, extrapolated in transition_curve(grid, algorithm):
                mark = "*" if extrapolated else ""
                print(f"{algorithm} kappa={kappa}: rho50={rho50:.3f}{mark}")
        print("(* = no 50% crossing inside the grid; boundary reported)")
    return EXIT_OK


def cmd_bounds(args):
    delta_kp1 = args.delta_2k if args.delta_kp1 is None else args.delta_kp1
    _print_config("bounds", dict(delta_k=args.delta_k, delta_2k=args.delta_2k,
                                 delta_3k=args.delta_3k, delta_kp1=delta_kp1,
                                 alpha=args.alpha, beta=args.beta, omega=args.omega,
                                 n=args.n, k=args.k, variant=args.variant))
    ric = RICProfile(k=args.k, delta_k=args.delta_k, delta_2k=args.delta_2k,
                     delta_3k=args.delta_3k, delta_kp1=delta_kp1)
    print(f"gamma* = {gamma_star():.6f}, gamma*({args.omega}) = "
          f"{gamma_star_omega(args.omega):.6f}, gamma#({args.omega}) = "
          f"{gamma_sharp_omega(args.omega):.6f}")
    if args.variant in ("hbot", "hbotp"):
        bc = hbot_constants(ric, args.alpha, args.beta, check=False)
        for field in ("eta", "b", "theta", "C2"):
            value = getattr(bc, field)
            print(f"{field} = {value:.10g}" if value is not None else f"{field} = n/a")
        print(f"s(k) = {s_of_k(ric.k)}")
    else:
        if args.n is None:
            raise ValueError("--n is required for the relaxed variants")
        bc = hbrot_constants(ric, args.alpha, args.beta, args.omega, args.n,
                             variant=args.variant, check=False)
        for field in ("t_k", "z_k", "sigma", "xi_sigma", "d0", "d1", "d2",
                      "c1_sigma", "c_sigma", "b1", "b2", "b3", "theta1", "theta2"):
            value = getattr(bc, field)
            print(f"{field} = {value:.10g}" if value is not None else f"{field} = n/a")
    print(f"contraction: {'yes' if bc.recurrence is not None else 'no'}")
    if not bc.violations:
        print("window: PASS")
        return EXIT_OK
    print("window: FAIL")
    for violation in bc.violations:
        print(f"  violated: {violation}")
    return EXIT_WINDOW


def cmd_ric(args):
    _print_config("ric", dict(A=args.A, order=args.order))
    A = load_matrix_csv(args.A)
    value = ric_exact(A, args.order)
    print(f"delta_{args.order} = {value:.12g}")
    return EXIT_OK


def cmd_selftest(args):
    _print_config("selftest", dict(seed=args.seed))
    results = run_all(args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f" ({res.detail})" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="otkit",
                                     description="sparse-recovery toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded Gaussian instance")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="instance")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("recover", help="run one algorithm on files")
    p.add_argument("--A", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", default=AlgorithmConfig.variant, choices=ALL_VARIANTS)
    p.add_argument("--alpha", type=float, default=AlgorithmConfig.alpha)
    p.add_argument("--beta", type=float, default=AlgorithmConfig.beta)
    p.add_argument("--omega", type=int, default=AlgorithmConfig.omega)
    p.add_argument("--max-iter", type=int, default=AlgorithmConfig.max_iter)
    p.add_argument("--tol", type=float, default=AlgorithmConfig.residual_tol)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", default="x.csv")
    p.set_defaults(func=cmd_recover)

    for name in ("grid", "ptc"):
        p = sub.add_parser(name, help="success-rate grid over (kappa, rho)")
        p.add_argument("--n", type=int, default=256)
        p.add_argument("--kappa-min", type=float, default=0.5)
        p.add_argument("--kappa-max", type=float, default=0.5)
        p.add_argument("--kappa-step", type=float, default=0.05)
        p.add_argument("--rho-min", type=float, default=0.30)
        p.add_argument("--rho-max", type=float, default=0.55)
        p.add_argument("--rho-step", type=float, default=0.05)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--algos", default=AlgorithmConfig.variant)
        p.add_argument("--eps", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--timing", action="store_true",
                       help="record real wall times (breaks byte-reproducibility)")
        p.add_argument("--out", default="trials.csv")
        if name == "ptc":
            p.add_argument("--transitions-out", default="transitions.csv")
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bounds", help="bound constants and window verdict")
    p.add_argument("--delta-k", type=float, required=True)
    p.add_argument("--delta-2k", type=float, dest="delta_2k", required=True)
    p.add_argument("--delta-3k", type=float, dest="delta_3k", required=True)
    p.add_argument("--delta-kp1", type=float, default=None,
                   help="order-(k+1) constant; defaults to delta-2k")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--omega", type=int, default=1)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--variant", default="hbrotp", choices=("hbot", "hbotp", "hbrot", "hbrotp"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ric", help="exact isometry constant of a matrix file")
    p.add_argument("--A", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_ric)

    p = sub.add_parser("selftest", help="run the oracle-backed invariant battery")
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationGuardError, ParameterWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
