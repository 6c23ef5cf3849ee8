"""Outer iterations: the heavy-ball thresholding family plus greedy baselines.

run(problem, cfg) -> RunResult is the one entry point.  A step builds the
search point u = x + alpha A^T (y - A x) + beta (x - x_prev), selects k
entries of u (exactly, through the relaxed compression loop, or by
magnitude), and optionally re-fits least squares on the selected support.
The heavy-ball family starts from two points; IHT and HTP start from one and
take a unit step (alpha=1, beta=0).  OMP keeps its own k-step greedy loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# top_k_indices is not called here, but instrumentation patches this name too
from .core import (IterateTrace, ProblemInstance, as_vector, hard_threshold,
                   is_count, support, top_k_indices)  # noqa: F401
from .subproblems import (least_squares_on_support, solve_binary_ot,
                          solve_relaxed_ot)

# Numerical fixed-point detection: stop after this many consecutive
# iterations with ||x_next - x|| <= STAGNATION_RTOL * (1 + ||x||).
STAGNATION_RTOL = 1e-14
STAGNATION_RUNS = 3


def _search_point(A, y, x, x_prev, alpha, beta):
    """u = x + alpha A^T (y - A x) + beta (x - x_prev) on already-checked
    inputs; the unit step (alpha=1, beta=0) forms neither weight's term."""
    g = A.T @ (y - A @ x)
    u = x + (g if alpha == 1.0 else alpha * g)
    return u + beta * (x - x_prev) if beta else u


def _exact(A, y, u, k, cfg):
    """u restricted to its exact best k-subset (n <= 30: the selection enumerates)."""
    w, _ = solve_binary_ot(A, y, u, k)
    return u * w, 0


def _relaxed(A, y, u, k, cfg):
    """omega relaxed selections, each multiplying into u, then hard thresholding."""
    flags = 0
    for _ in range(cfg.omega):
        w, converged = solve_relaxed_ot(A, y, u, k)
        flags += 0 if converged else 1
        u = u * w
    return hard_threshold(u, k), flags


def _threshold(A, y, u, k, cfg):
    """The k largest-magnitude entries of u."""
    return hard_threshold(u, k), 0


# variant -> (selector, re-fit least squares on its support, heavy-ball step).
# A selector maps (A, y, u, k, cfg) to a k-sparse candidate and its count of
# capped relaxed solves.  It looks the inner solvers up as module attributes
# when called, so a patched attribute (a tracer, a counter) sees every solve.
_VARIANTS = {
    "hbot": (_exact, False, True),
    "hbotp": (_exact, True, True),
    "hbrot": (_relaxed, False, True),
    "hbrotp": (_relaxed, True, True),
    "iht": (_threshold, False, False),
    "htp": (_threshold, True, False),
}
ALL_VARIANTS = (*_VARIANTS, "omp")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which variant to run and with what parameters.

    The defaults are the operating point used throughout the benchmarks and
    the CLI.  alpha/beta are the gradient and momentum weights of the
    heavy-ball family (beta=0 disables momentum; the baselines ignore both);
    omega counts relaxed compressions per iteration and only affects the
    relaxed variants.  x0/x1 override the zero starting points.
    """

    variant: str = "hbrotp"
    alpha: float = 5.0
    beta: float = 0.2
    omega: int = 1
    max_iter: int = 50
    residual_tol: float = 1e-10
    x0: np.ndarray | None = None
    x1: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {ALL_VARIANTS}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not is_count(self.omega) or self.omega < 1:
            raise ValueError("omega must be a positive integer")
        if not is_count(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be nonnegative")


@dataclass
class RunResult:
    """Outcome of one run: final iterate, the trace, and why it stopped.

    stop_reason is "residual_tol", "stagnation", "max_iter" or "diverged": a
    bound on the Gram entries the next selection would form overflows, and
    x_final is the last iterate, which is finite.  inner_flags counts
    relaxed-compression solves that hit their iteration cap without meeting
    tolerance (the outer loop continues regardless).
    """

    x_final: np.ndarray
    trace: IterateTrace
    stop_reason: str
    iterations: int
    inner_flags: int = 0


def _starting_point(x, n, k, name):
    if x is None:
        return np.zeros(n)
    x = as_vector(x, name)
    if x.size != n:
        raise ValueError(f"{name} has length {x.size}, expected {n}")
    if np.count_nonzero(x) > k:
        raise ValueError(f"{name} must be k-sparse (at most {k} nonzeros)")
    return x.copy()


def _record(trace, problem, x, residual_norm):
    """Append iterate x and its residual norm to the trace."""
    trace.iterates.append(x.copy())
    trace.residual_norms.append(residual_norm)
    trace.supports.append(support(x))
    if trace.errors_to_truth is not None:
        trace.errors_to_truth.append(float(np.linalg.norm(x - problem.truth)))


def _start_trace(problem, starts):
    trace = IterateTrace(iterates=[], residual_norms=[], supports=[],
                         errors_to_truth=None if problem.truth is None else [],
                         candidate_residual_norms=[])
    for x in starts:
        _record(trace, problem, x, float(np.linalg.norm(problem.y - problem.A @ x)))
    return trace


def _run_omp(problem, cfg):
    """Orthogonal matching pursuit: greedy atom selection by max correlation,
    exactly k steps (fewer only if the residual tolerance is hit early)."""
    A, y, k = problem.A, problem.y, problem.k
    x = np.zeros(problem.n)
    trace = _start_trace(problem, [x])
    selected = []
    while len(selected) < k and trace.residual_norms[-1] > cfg.residual_tol:
        corr = np.abs(A.T @ (y - A @ x))
        corr[selected] = -np.inf  # never re-select an atom
        selected.append(int(np.argmax(corr)))
        x, _ = least_squares_on_support(A, y, np.sort(selected))
        _record(trace, problem, x, float(np.linalg.norm(y - A @ x)))
    reason = "residual_tol" if trace.residual_norms[-1] <= cfg.residual_tol else "max_iter"
    return RunResult(x_final=x, trace=trace, stop_reason=reason, iterations=len(selected))


def run(problem: ProblemInstance, cfg: AlgorithmConfig) -> RunResult:
    """Run cfg.variant on the problem.  The trace holds the starting points
    first, and for hbotp/hbrotp each candidate's residual before the re-fit."""
    if cfg.variant == "omp":
        return _run_omp(problem, cfg)
    select, refit, heavy_ball = _VARIANTS[cfg.variant]
    A, y, k = problem.A, problem.y, problem.k
    x_prev = _starting_point(cfg.x0, problem.n, k, "x0")
    x_curr = _starting_point(cfg.x1, problem.n, k, "x1") if heavy_ball else x_prev
    alpha, beta = (cfg.alpha, cfg.beta) if heavy_ball else (1.0, 0.0)
    trace = _start_trace(problem, [x_prev, x_curr] if heavy_ball else [x_curr])

    a_fro = float(np.linalg.norm(A))  # ||A||_F
    step = float(np.linalg.norm(x_curr - x_prev))
    inner_flags = 0
    stagnant = 0
    iters = 0
    while True:
        if trace.residual_norms[-1] <= cfg.residual_tol:
            reason = "residual_tol"
            break
        if stagnant >= STAGNATION_RUNS:
            reason = "stagnation"
            break
        if iters >= cfg.max_iter:
            reason = "max_iter"
            break
        # (||A||_F ||u||)^2 bounds every Gram entry the selection forms, and
        # ||u|| <= ||x|| + alpha ||A||_F ||y - A x|| + beta ||x - x_prev||
        x_norm = float(np.linalg.norm(x_curr))
        bound = a_fro * (x_norm + alpha * a_fro * trace.residual_norms[-1] + beta * step)
        if not math.isfinite(bound * bound):  # Python floats overflow to inf quietly
            reason = "diverged"
            break
        u = _search_point(A, y, x_curr, x_prev, alpha, beta)
        candidate, flags = select(A, y, u, k, cfg)
        x_next = candidate
        if refit:
            x_next, _ = least_squares_on_support(A, y, support(candidate))
            if heavy_ball:
                trace.candidate_residual_norms.append(float(np.linalg.norm(y - A @ candidate)))
        inner_flags += flags
        iters += 1

        _record(trace, problem, x_next, float(np.linalg.norm(y - A @ x_next)))
        step = float(np.linalg.norm(x_next - x_curr))
        if step <= STAGNATION_RTOL * (1.0 + x_norm):
            stagnant += 1
        else:
            stagnant = 0
        x_prev, x_curr = x_curr, x_next

    return RunResult(x_final=x_curr, trace=trace, stop_reason=reason,
                     iterations=iters, inner_flags=inner_flags)


def config_for(variant, **kwargs):
    """AlgorithmConfig for a variant at the operating point, with overrides."""
    return AlgorithmConfig(variant=variant, **kwargs)
