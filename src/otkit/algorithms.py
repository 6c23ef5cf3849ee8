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
from .core import (IterateTrace, ProblemInstance, check_count, check_real,
                   check_step, hard_threshold, top_k_indices)  # noqa: F401
from .subproblems import (LS_ERROR_MAX, least_squares_on_support,
                          solve_binary_ot, solve_relaxed_ot)

# Numerical fixed-point detection: stop after this many consecutive
# iterations with ||x_next - x|| <= STAGNATION_RTOL * (1 + ||x||).
STAGNATION_RTOL = 1e-14
STAGNATION_RUNS = 3


def _norm(x):
    """||x||_2 of a finite vector, whose square may overflow.  Where the
    square is finite it is np.linalg.norm's sqrt(x.dot(x)), bit for bit;
    elsewhere x is scaled by its largest magnitude first.  np.vdot forms the
    sum x.dot(x) forms, but reports no overflow, so neither path warns."""
    square = float(np.vdot(x, x))
    if square < math.inf:
        return math.sqrt(square)
    big = float(np.maximum.reduce(abs(x)))
    scaled = x / big
    return big * math.sqrt(scaled.dot(scaled))


def _search_point(A, r, x, x_prev, alpha, beta):
    """u = x + alpha A^T r + beta (x - x_prev), r = y - A x, on already-checked
    inputs; the unit step (alpha=1, beta=0) forms neither weight's term."""
    g = A.T @ r
    u = x + (g if alpha == 1.0 else alpha * g)
    return u + beta * (x - x_prev) if beta else u


def _exact(A, y, u, k, cfg, fit):
    """u restricted to its exact best k-subset (n <= 30: the selection enumerates)."""
    w, _ = solve_binary_ot(A, y, u, k)
    return u * w, 0


def _relaxed(A, y, u, k, cfg, fit):
    """omega relaxed selections, each multiplying into u, then hard thresholding.

    Given the run's fit (hbrotp), the last selection stops early, and so does
    the run, once the support it would keep fits within cfg.residual_tol."""
    flags = 0
    for i in range(cfg.omega):
        accept = None if fit is None or i < cfg.omega - 1 else (
            lambda w, u=u: np.linalg.norm(fit(hard_threshold(u * w, k))[1]) <= cfg.residual_tol)
        w, converged = solve_relaxed_ot(A, y, u, k, accept=accept)
        flags += 0 if converged else 1
        u = u * w
    return hard_threshold(u, k), flags


def _threshold(A, y, u, k, cfg, fit):
    """The k largest-magnitude entries of u."""
    return hard_threshold(u, k), 0


def _support_fit(A, y):
    """One run's least squares fit(candidate) -> (x, y - A x) on candidate's
    support, shared by stop B and the outer step.  It keeps the last support's
    result, so neither re-fits it; callers must not write into the arrays."""
    last = result = None

    def fit(candidate):
        nonlocal last, result
        support = np.flatnonzero(candidate)
        if not np.array_equal(support, last):
            x = least_squares_on_support(A, y, support)
            last, result = support, (x, y - A @ x)
        return result
    return fit


# variant -> (selector, re-fit least squares on its support, heavy-ball step).
# A selector maps (A, y, u, k, cfg, fit) to a k-sparse candidate and its count of
# capped relaxed solves; fit is the run's _support_fit, or None.  Both look the
# inner solvers up as module attributes when called, so a patched attribute (a
# tracer, a counter) sees every solve.
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
    heavy-ball family (beta=0 disables momentum; the baselines ignore both,
    and omp ignores max_iter too: it stops after k selections or at
    residual_tol); omega counts relaxed compressions per iteration and only
    affects the relaxed variants.  Every run starts from zero.
    """

    variant: str = "hbrotp"
    alpha: float = 5.0
    beta: float = 0.2
    omega: int = 1
    max_iter: int = 50
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {ALL_VARIANTS}")
        check_step(self.alpha, self.beta)
        check_count(self.omega, "omega")
        check_count(self.max_iter, "max_iter")
        check_real(self.residual_tol, "residual_tol")


@dataclass
class RunResult:
    """Outcome of one run: final iterate, the trace, and why it stopped.

    stop_reason is "residual_tol", "stagnation", "max_iter" or "diverged": a
    bound on the Gram entries the next selection would form overflows, and
    x_final is the last iterate, which is finite.  For omp, "max_iter" means
    it made all k selections, however small cfg.max_iter is.  inner_flags counts
    relaxed-compression solves that hit their iteration cap, neither stalled
    nor stopped early by the refit variant's fit test (the outer loop
    continues regardless).
    """

    x_final: np.ndarray
    trace: IterateTrace
    stop_reason: str
    iterations: int
    inner_flags: int = 0


def _record(trace, problem, x, residual_norm):
    """Append iterate x and its residual norm to the trace."""
    trace.iterates.append(x.copy())
    trace.residual_norms.append(residual_norm)
    if trace.errors_to_truth is not None:
        trace.errors_to_truth.append(_norm(x - problem.truth))


def _start_trace(problem, starts):
    trace = IterateTrace(iterates=[], residual_norms=[],
                         errors_to_truth=None if problem.truth is None else [])
    for x in starts:
        _record(trace, problem, x, float(np.linalg.norm(problem.y - problem.A @ x)))
    return trace


def _run_omp(problem, cfg):
    """Orthogonal matching pursuit: greedy atom selection by max correlation,
    exactly k steps (fewer only if the residual tolerance is hit early).

    The selected columns keep a thin QR factorisation A_S = Q R, grown by one
    column a step: Gram-Schmidt with one reorthogonalisation pass, and R^-1
    bordered alongside, so x_S = R^-1 Q^T y costs O(mk) a step.  Since
    ||R||_F ||R^-1||_F bounds cond(A_S) from above, while it stays at most
    LS_ERROR_MAX the columns are far from the rank rule of
    least_squares_on_support and both give its unique solution.  Once it
    does not, or an atom lies exactly in the span already selected, this and
    every later step calls least_squares_on_support (minimum-norm solution).
    """
    A, y, k = problem.A, problem.y, problem.k
    m, n = A.shape
    x = np.zeros(n)
    trace = _start_trace(problem, [x])
    r = y - A @ x
    selected = []
    Qt = np.zeros((k, m))  # rows: orthonormal basis of the selected columns
    R_inv = np.zeros((k, k))  # R itself is only needed through its norm
    qty = np.zeros(k)  # Q^T y
    r_fro2 = r_inv_fro2 = 0.0  # squared Frobenius norms of R and R^-1
    factored = True
    while len(selected) < k and trace.residual_norms[-1] > cfg.residual_tol:
        corr = np.abs(A.T @ r)
        corr[selected] = -np.inf  # never re-select an atom
        j = len(selected)
        selected.append(int(np.argmax(corr)))
        if factored:
            a = A[:, selected[-1]]
            h = Qt[:j] @ a
            v = a - h @ Qt[:j]
            h2 = Qt[:j] @ v
            v -= h2 @ Qt[:j]
            h += h2
            diag = float(np.linalg.norm(v))
            r_fro2 += float(h @ h) + diag * diag
            # ||R^-1||_F >= 1/diag, so this necessary condition is tested
            # first: a near-zero diag then never divides into an overflow
            factored = diag > 0.0 and diag * LS_ERROR_MAX >= math.sqrt(r_fro2)
        if factored:
            inv = 1.0 / diag  # bordered inverse: [[R, h], [0, diag]]^-1
            col = -(R_inv[:j, :j] @ h) * inv
            r_inv_fro2 += float(col @ col) + inv * inv
            factored = math.sqrt(r_fro2 * r_inv_fro2) <= LS_ERROR_MAX
        if factored:
            Qt[j] = v * inv
            R_inv[:j, j], R_inv[j, j] = col, inv
            qty[j] = Qt[j] @ y
            x = np.zeros(n)
            x[selected] = R_inv[:j + 1, :j + 1] @ qty[:j + 1]
        else:
            x = least_squares_on_support(A, y, np.sort(selected))
        r = y - A @ x
        _record(trace, problem, x, float(np.linalg.norm(r)))
    reason = "residual_tol" if trace.residual_norms[-1] <= cfg.residual_tol else "max_iter"
    return RunResult(x_final=x, trace=trace, stop_reason=reason, iterations=len(selected))


def run(problem: ProblemInstance, cfg: AlgorithmConfig) -> RunResult:
    """Run cfg.variant on the problem from zero.  The trace holds the starting
    points first: two for the heavy-ball family, one for IHT, HTP and OMP."""
    if cfg.variant == "omp":
        return _run_omp(problem, cfg)
    select, refit, heavy_ball = _VARIANTS[cfg.variant]
    A, y, k = problem.A, problem.y, problem.k
    x_prev = x_curr = np.zeros(problem.n)
    alpha, beta = (cfg.alpha, cfg.beta) if heavy_ball else (1.0, 0.0)
    trace = _start_trace(problem, [x_prev, x_curr] if heavy_ball else [x_curr])
    r = y - A @ x_curr

    fit = _support_fit(A, y) if refit else None
    a_fro = float(np.linalg.norm(A))  # ||A||_F
    step = 0.0
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
        x_norm = _norm(x_curr)
        bound = a_fro * (x_norm + alpha * a_fro * trace.residual_norms[-1] + beta * step)
        if not math.isfinite(bound * bound):  # Python floats overflow to inf quietly
            reason = "diverged"
            break
        u = _search_point(A, r, x_curr, x_prev, alpha, beta)
        candidate, flags = select(A, y, u, k, cfg, fit)
        x_next, r = fit(candidate) if refit else (candidate, y - A @ candidate)
        inner_flags += flags
        iters += 1

        _record(trace, problem, x_next, float(np.linalg.norm(r)))
        step = _norm(x_next - x_curr)
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
