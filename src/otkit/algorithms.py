"""Outer iterations: the heavy-ball thresholding family plus greedy baselines.

All runners share one contract: run_*(problem, cfg) -> RunResult with a full
IterateTrace.  The heavy-ball family keeps two iterates of state; a step
builds the search point u = x + alpha A^T (y - A x) + beta (x - x_prev),
selects k entries of u (exactly, or through the relaxed compression loop),
and optionally re-fits least squares on the selected support.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (IterateTrace, ProblemInstance, as_vector, hard_threshold,
                   residual, support, top_k_indices)
from .subproblems import (QPSolverConfig, least_squares_on_support,
                          solve_binary_ot, solve_relaxed_ot)

HEAVY_BALL_VARIANTS = ("hbot", "hbotp", "hbrot", "hbrotp")
BASELINE_VARIANTS = ("iht", "htp", "omp")
ALL_VARIANTS = HEAVY_BALL_VARIANTS + BASELINE_VARIANTS

# Numerical fixed-point detection: stop after this many consecutive
# iterations with ||x_next - x|| <= STAGNATION_RTOL * (1 + ||x||).
STAGNATION_RTOL = 1e-14
STAGNATION_RUNS = 3


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which variant to run and with what parameters.

    alpha/beta are the gradient and momentum weights (beta=0 disables
    momentum); omega counts relaxed compressions per iteration and only
    affects the relaxed variants.  x0/x1 override the zero starting points.
    """

    variant: str = "hbrotp"
    alpha: float = 5.0
    beta: float = 0.2
    omega: int = 1
    max_iter: int = 50
    residual_tol: float = 1e-10
    x0: np.ndarray | None = None
    x1: np.ndarray | None = None
    qp: QPSolverConfig = field(default_factory=QPSolverConfig)

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {ALL_VARIANTS}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.omega < 1:
            raise ValueError("omega must be a positive integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be nonnegative")


@dataclass
class RunResult:
    """Outcome of one run: final iterate, the trace, and why it stopped.

    stop_reason is "residual_tol", "stagnation" or "max_iter", or, for the
    heavy-ball family, "diverged": the next search point u grew so large that
    A diag(u) overflows (its squared Frobenius norm bounds every Gram entry
    the selection forms), and x_final is the last iterate, which is finite.
    inner_flags counts relaxed-compression solves that hit their iteration
    cap without meeting tolerance (the outer loop continues regardless).
    """

    x_final: np.ndarray
    trace: IterateTrace
    stop_reason: str
    iterations: int
    inner_flags: int = 0


def heavy_ball_point(A, y, x_curr, x_prev, alpha, beta):
    """Search point u = x + alpha A^T (y - A x) + beta (x - x_prev)."""
    r = residual(A, x_curr, y)
    return x_curr + alpha * (A.T @ r) + beta * (x_curr - as_vector(x_prev, "x_prev"))


def _starting_point(x, n, k, name):
    if x is None:
        return np.zeros(n)
    x = as_vector(x, name)
    if x.size != n:
        raise ValueError(f"{name} has length {x.size}, expected {n}")
    if np.count_nonzero(x) > k:
        raise ValueError(f"{name} must be k-sparse (at most {k} nonzeros)")
    return x.copy()


def _run_heavy_ball(problem, cfg, step):
    """Common two-point outer loop; `step` maps a search point u to
    (x_next, candidate_residual_norm, inner_flag_increment)."""
    A, y, k = problem.A, problem.y, problem.k
    x_prev = _starting_point(cfg.x0, problem.n, k, "x0")
    x_curr = _starting_point(cfg.x1, problem.n, k, "x1")

    trace = IterateTrace(iterates=[x_prev.copy(), x_curr.copy()],
                         residual_norms=[float(np.linalg.norm(residual(A, x_prev, y))),
                                         float(np.linalg.norm(residual(A, x_curr, y)))],
                         supports=[support(x_prev), support(x_curr)],
                         errors_to_truth=None if problem.truth is None else [
                             float(np.linalg.norm(x_prev - problem.truth)),
                             float(np.linalg.norm(x_curr - problem.truth))],
                         candidate_residual_norms=[])

    res_curr = trace.residual_norms[-1]
    col_sq = np.einsum("ij,ij->j", A, A)  # squared column norms of A
    inner_flags = 0
    stagnant = 0
    iters = 0
    while True:
        if res_curr <= cfg.residual_tol:
            reason = "residual_tol"
            break
        if stagnant >= STAGNATION_RUNS:
            reason = "stagnation"
            break
        if iters >= cfg.max_iter:
            reason = "max_iter"
            break
        u = x_curr + cfg.alpha * (A.T @ (y - A @ x_curr)) + cfg.beta * (x_curr - x_prev)
        with np.errstate(over="ignore"):
            if not np.isfinite(col_sq @ (u * u)):  # ||A diag(u)||_F^2
                reason = "diverged"
                break
        x_next, cand_res, flags = step(u)
        inner_flags += flags
        iters += 1

        res_next = float(np.linalg.norm(y - A @ x_next))
        trace.iterates.append(x_next.copy())
        trace.residual_norms.append(res_next)
        trace.supports.append(support(x_next))
        if trace.errors_to_truth is not None:
            trace.errors_to_truth.append(float(np.linalg.norm(x_next - problem.truth)))
        if cand_res is not None:
            trace.candidate_residual_norms.append(cand_res)

        if np.linalg.norm(x_next - x_curr) <= STAGNATION_RTOL * (1.0 + np.linalg.norm(x_curr)):
            stagnant += 1
        else:
            stagnant = 0
        x_prev, x_curr, res_curr = x_curr, x_next, res_next

    return RunResult(x_final=x_curr, trace=trace, stop_reason=reason,
                     iterations=iters, inner_flags=inner_flags)


def run_hbot(problem, cfg):
    """Heavy-ball step + exact binary selection; the selected entries of u
    become the next iterate.  Needs n <= 30 (exact selection enumerates)."""
    if cfg.variant != "hbot":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'hbot'")
    A, y, k = problem.A, problem.y, problem.k

    def step(u):
        w, _ = solve_binary_ot(A, y, u, k)
        return u * w, None, 0

    return _run_heavy_ball(problem, cfg, step)


def run_hbotp(problem, cfg):
    """run_hbot followed by a least-squares re-fit on the selected support."""
    if cfg.variant != "hbotp":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'hbotp'")
    A, y, k = problem.A, problem.y, problem.k

    def step(u):
        w, obj = solve_binary_ot(A, y, u, k)
        candidate = u * w
        x_next, _ = least_squares_on_support(A, y, support(candidate))
        return x_next, float(np.sqrt(max(obj, 0.0))), 0

    return _run_heavy_ball(problem, cfg, step)


def _compress(A, y, u, k, omega, qp_cfg):
    """omega successive relaxed selections, each multiplying into the candidate."""
    v = u
    flags = 0
    for _ in range(omega):
        w, converged = solve_relaxed_ot(A, y, v, k, qp_cfg)
        flags += 0 if converged else 1
        v = v * w
    return v, flags


def run_hbrot(problem, cfg):
    """Heavy-ball step + omega relaxed compressions + hard thresholding."""
    if cfg.variant != "hbrot":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'hbrot'")
    A, y, k = problem.A, problem.y, problem.k

    def step(u):
        v, flags = _compress(A, y, u, k, cfg.omega, cfg.qp)
        return hard_threshold(v, k), None, flags

    return _run_heavy_ball(problem, cfg, step)


def run_hbrotp(problem, cfg):
    """run_hbrot followed by a least-squares re-fit on the thresholded support."""
    if cfg.variant != "hbrotp":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'hbrotp'")
    A, y, k = problem.A, problem.y, problem.k

    def step(u):
        v, flags = _compress(A, y, u, k, cfg.omega, cfg.qp)
        candidate = hard_threshold(v, k)
        x_next, _ = least_squares_on_support(A, y, support(candidate))
        cand_res = float(np.linalg.norm(y - A @ candidate))
        return x_next, cand_res, flags

    return _run_heavy_ball(problem, cfg, step)


def _run_single_point(problem, cfg, step):
    """One-point recursion shared by the gradient baselines."""
    A, y = problem.A, problem.y
    x_curr = _starting_point(cfg.x0, problem.n, problem.k, "x0")
    trace = IterateTrace(iterates=[x_curr.copy()],
                         residual_norms=[float(np.linalg.norm(y - A @ x_curr))],
                         supports=[support(x_curr)],
                         errors_to_truth=None if problem.truth is None else [
                             float(np.linalg.norm(x_curr - problem.truth))])
    res_curr = trace.residual_norms[-1]
    stagnant = 0
    iters = 0
    while True:
        if res_curr <= cfg.residual_tol:
            reason = "residual_tol"
            break
        if stagnant >= STAGNATION_RUNS:
            reason = "stagnation"
            break
        if iters >= cfg.max_iter:
            reason = "max_iter"
            break
        x_next = step(x_curr)
        iters += 1
        res_next = float(np.linalg.norm(y - A @ x_next))
        trace.iterates.append(x_next.copy())
        trace.residual_norms.append(res_next)
        trace.supports.append(support(x_next))
        if trace.errors_to_truth is not None:
            trace.errors_to_truth.append(float(np.linalg.norm(x_next - problem.truth)))
        if np.linalg.norm(x_next - x_curr) <= STAGNATION_RTOL * (1.0 + np.linalg.norm(x_curr)):
            stagnant += 1
        else:
            stagnant = 0
        x_curr, res_curr = x_next, res_next
    return RunResult(x_final=x_curr, trace=trace, stop_reason=reason, iterations=iters)


def run_iht(problem, cfg):
    """Iterative hard thresholding: x <- H_k(x + A^T (y - A x)), unit step."""
    if cfg.variant != "iht":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'iht'")
    A, y, k = problem.A, problem.y, problem.k

    def step(x):
        return hard_threshold(x + A.T @ (y - A @ x), k)

    return _run_single_point(problem, cfg, step)


def run_htp(problem, cfg):
    """Hard thresholding pursuit: the IHT support, then least squares on it."""
    if cfg.variant != "htp":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'htp'")
    A, y, k = problem.A, problem.y, problem.k

    def step(x):
        S = top_k_indices(x + A.T @ (y - A @ x), k)
        x_next, _ = least_squares_on_support(A, y, S)
        return x_next

    return _run_single_point(problem, cfg, step)


def run_omp(problem, cfg):
    """Orthogonal matching pursuit: greedy atom selection by max correlation,
    exactly k steps (fewer only if the residual tolerance is hit early)."""
    if cfg.variant != "omp":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'omp'")
    A, y, k = problem.A, problem.y, problem.k
    x_curr = np.zeros(problem.n)
    trace = IterateTrace(iterates=[x_curr.copy()],
                         residual_norms=[float(np.linalg.norm(y))],
                         supports=[support(x_curr)],
                         errors_to_truth=None if problem.truth is None else [
                             float(np.linalg.norm(x_curr - problem.truth))])
    selected = []
    reason = "max_iter"  # OMP's budget is exactly k selections
    iters = 0
    for _ in range(k):
        r = y - A @ x_curr
        if float(np.linalg.norm(r)) <= cfg.residual_tol:
            reason = "residual_tol"
            break
        corr = np.abs(A.T @ r)
        corr[selected] = -np.inf  # never re-select an atom
        selected.append(int(np.argmax(corr)))
        x_curr, _ = least_squares_on_support(A, y, np.sort(selected))
        iters += 1
        trace.iterates.append(x_curr.copy())
        trace.residual_norms.append(float(np.linalg.norm(y - A @ x_curr)))
        trace.supports.append(support(x_curr))
        if trace.errors_to_truth is not None:
            trace.errors_to_truth.append(float(np.linalg.norm(x_curr - problem.truth)))
    else:
        if float(np.linalg.norm(y - A @ x_curr)) <= cfg.residual_tol:
            reason = "residual_tol"
    return RunResult(x_final=x_curr, trace=trace, stop_reason=reason, iterations=iters)


RUNNERS = {
    "hbot": run_hbot,
    "hbotp": run_hbotp,
    "hbrot": run_hbrot,
    "hbrotp": run_hbrotp,
    "iht": run_iht,
    "htp": run_htp,
    "omp": run_omp,
}


def run(problem: ProblemInstance, cfg: AlgorithmConfig) -> RunResult:
    """Dispatch on cfg.variant."""
    return RUNNERS[cfg.variant](problem, cfg)


def config_for(variant, **kwargs):
    """AlgorithmConfig for a variant with the shared defaults."""
    return replace(AlgorithmConfig(variant=variant), **kwargs)
