"""Inner solvers used by every outer iteration.

Three subproblems appear: selecting the best k entries of a candidate by
residual (exactly, via enumeration, or through its convex relaxation over the
capped simplex), and re-fitting least squares on a fixed support.  The capped
simplex {w : sum(w) = k, 0 <= w <= 1} is the convex hull of the binary
selectors with exactly k ones.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import as_matrix, as_vector
from .errors import EnumerationGuardError

# Exhaustive k-subset enumeration is only viable as a desk-scale oracle.
BINARY_ENUM_MAX_N = 30

# Stopping rules of solve_relaxed_ot (see its docstring), read at call time.
MAX_INNER_ITER = 2000
GRAD_TOL = 1e-9
OBJECTIVE_REL_TOL = 1e-12


def project_capped_simplex(v, k, shift=None):
    """Euclidean projection of v onto {w : sum(w) = k, 0 <= w <= 1}.

    The projection is clip(v - lam, 0, 1) for the scalar shift lam at which
    the clipped mass equals k.  The mass is piecewise linear and
    non-increasing in lam, with breakpoints at v_i and v_i - 1, so it is
    linear on each face: with F the free coordinates (0 < v_i - lam < 1) and
    U the saturated ones (v_i - lam >= 1) it equals |U| + sum(v_F) - |F| lam.

    Safeguarded Newton iteration on lam: each pass finds the face at lam and
    solves that face's mass equation exactly, lam' = (sum(v_F) + |U| - k) / |F|.
    Once the face at lam' is the one lam' was solved on (no breakpoint lies
    between lam and lam'), lam' is the exact shift and clip(v - lam', 0, 1)
    is returned.  A bracket lo < lam < hi kept from the sign of the mass
    error catches steps that leave it and replaces them, as it does a step on
    a face with no free coordinate, by the median breakpoint inside the
    bracket; every bisection halves the breakpoints left, so the loop ends.

    shift is an optional starting guess for lam, typically the shift of the
    previous projection in a sequence of nearby ones.  It changes only the
    number of passes (usually one, from a good guess); the result is the same
    to round-off.
    """
    v = as_vector(v)
    n = v.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if k == n:
        return np.ones(n)

    lam = (float(v.sum()) - k) / n if shift is None else float(shift)
    if not math.isfinite(lam):
        raise ValueError(f"starting shift {lam} is not finite")
    lo, hi = -math.inf, math.inf  # mass(lo) > k > mass(hi)
    solved_on = None  # face counts lam was solved on by a Newton step
    while True:
        d = v - lam
        pos = d > 0.0
        sat = d >= 1.0
        n_sat = int(np.count_nonzero(sat))
        n_free = int(np.count_nonzero(pos)) - n_sat
        # lam moved one way from the face it was solved on, so coordinates
        # only leave U or join the zeros: equal counts mean an equal face.
        if solved_on == (n_sat, n_free):
            break
        sum_free = float(v[pos ^ sat].sum())
        excess = n_sat + sum_free - n_free * lam - k
        if excess > 0.0:
            lo = lam
        elif excess < 0.0:
            hi = lam
        else:
            break
        if n_free:
            step = (sum_free + n_sat - k) / n_free
            if lo < step < hi:
                lam, solved_on = step, (n_sat, n_free)
                continue
        breaks = np.concatenate([v, v - 1.0])
        breaks = breaks[(breaks > lo) & (breaks < hi)]
        if breaks.size:
            lam, solved_on = float(np.median(breaks)), None
            continue
        # No breakpoint inside the bracket: the mass is linear on it, and the
        # face at its midpoint is the face of the solution.
        mid = 0.5 * (lo + hi)
        d = v - mid
        free = (d > 0.0) & (d < 1.0)
        n_free = int(np.count_nonzero(free))
        if n_free:
            lam = (float(v[free].sum()) + int(np.count_nonzero(d >= 1.0)) - k) / n_free
            d = v - lam
        break
    # minimum(maximum()) is clip without its Python wrapper; d is a fresh array
    np.maximum(d, 0.0, out=d)
    return np.minimum(d, 1.0, out=d)


def solve_relaxed_ot(A, y, v, k):
    """Minimise ||y - A (v*w)||^2 over the capped simplex {sum(w)=k, 0<=w<=1}.

    Accelerated projected gradient with a monotone restart: an accelerated
    step that would increase the objective is rejected and the momentum is
    reset, so accepted objectives never increase.  The step is 1/L, with L the
    exact top eigenvalue of (A diag(v))^T (A diag(v)) times a 1.02 margin;
    eigvalsh reads it from the smaller of the two Gram matrices.  Each
    projection starts from the shift of the previous one, read off a free
    coordinate of its result; consecutive iterates share nearly the same
    shift, so the Newton projection usually needs a single pass.  The guess
    changes only that pass count, not the projection beyond round-off.

    One Gram product per step: the gradient at the search point
    z = w + m (w - w_prev) is G z - c, and G z = G w + m (G w - G w_prev) is
    carried through the same recurrence from the products G w the objective
    needs anyway (after a restart m = 0 and G z = G w).  The iterates equal
    those of a loop that forms G z afresh up to round-off in that product.

    It stops converged once the projected-gradient norm is at most GRAD_TOL,
    or once the relative objective change has stayed within OBJECTIVE_REL_TOL
    for 8 steps running.  Returns (w, converged).  On non-convergence within
    MAX_INNER_ITER steps the best iterate found so far is returned with
    converged=False; the caller decides whether that is acceptable.
    """
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    v = as_vector(v, "v")
    m, n = A.shape
    if y.size != m or v.size != n:
        raise ValueError(f"incompatible shapes: A is {A.shape}, y has {y.size}, v has {v.size}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")

    B = A * v  # columns scaled by v
    G = B.T @ B
    c = B.T @ y
    yy = float(y @ y)
    L = float(np.linalg.eigvalsh(B @ B.T if m < n else G)[-1]) * 1.02

    w = np.full(n, k / n)  # feasible interior start
    if L <= 0.0:
        # v = 0 (or A v = 0): objective constant, any feasible point optimal.
        return w, True

    def objective(w_, Gw_):
        return yy - 2.0 * float(c @ w_) + float(w_ @ Gw_)

    Gw = G @ w
    fw = objective(w, Gw)
    zk, Gz = w, Gw  # search point and its Gram product
    t_mom = 1.0
    stall = 0
    lam = None  # shift of the last projection, the next one's starting guess
    for it in range(MAX_INNER_ITER):
        z = zk - (Gz - c) / L
        w_new = project_capped_simplex(z, k, shift=lam)
        inside = (w_new > 0.0) & (w_new < 1.0)
        i = int(inside.argmax())
        if inside[i]:
            lam = float(z[i] - w_new[i])
        Gw_new = G @ w_new
        f_new = objective(w_new, Gw_new)
        if f_new > fw:  # monotone restart
            w_new, Gw_new, f_new = w, Gw, fw
            t_mom = 1.0
        rel_drop = abs(fw - f_new) / max(1.0, abs(fw))
        stall = stall + 1 if rel_drop <= OBJECTIVE_REL_TOL else 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        mom = (t_mom - 1.0) / t_next
        zk = w_new + mom * (w_new - w)
        Gz = Gw_new + mom * (Gw_new - Gw)
        w, Gw, fw, t_mom = w_new, Gw_new, f_new, t_next
        if stall >= 4 or (it & 15) == 15:
            pg = np.linalg.norm(w - project_capped_simplex(w - (Gw - c) / L, k, shift=lam))
            if pg <= GRAD_TOL:
                return w, True
        if stall >= 8:  # OBJECTIVE_REL_TOL met repeatedly
            return w, True
    return w, False


def solve_binary_ot(A, y, v, k):
    """Exact best binary selector: minimise ||y - A (v*w)||^2 over w in {0,1}^n, sum(w)=k.

    Exhaustive enumeration over all k-subsets in lexicographic order; ties keep
    the lexicographically smallest support, so when every objective overflows
    the first subset is returned with objective inf.  Refuses n > 30, where
    C(n, k) stops being a practical oracle, directing callers to the relaxation.

    Returns (w, objective).
    """
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    v = as_vector(v, "v")
    m, n = A.shape
    if y.size != m or v.size != n:
        raise ValueError(f"incompatible shapes: A is {A.shape}, y has {y.size}, v has {v.size}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if n > BINARY_ENUM_MAX_N:
        raise EnumerationGuardError(
            f"binary selection enumerates C({n},{k}) subsets; refusing n > "
            f"{BINARY_ENUM_MAX_N} (use the capped-simplex relaxation instead)"
        )

    B = A * v
    best_obj = math.inf
    best_support = tuple(range(k))
    with np.errstate(over="ignore"):  # an overflowing objective is inf by design
        for S in combinations(range(n), k):
            r = y - B[:, S].sum(axis=1)
            obj = float(r @ r)
            if obj < best_obj:  # strict '<' keeps the lexicographically first tie
                best_obj = obj
                best_support = S
    w = np.zeros(n)
    w[list(best_support)] = 1.0
    return w, best_obj


def least_squares_on_support(A, y, support):
    """Least squares restricted to a support: min ||y - A x||_2 with supp(x) in support.

    Solved through an orthogonal factorisation of the column submatrix.  When
    that submatrix is numerically rank deficient (singular values below
    1e-12 of the largest) the minimum-norm solution is returned and the flag
    is set.

    Returns (x, rank_deficient).
    """
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    m, n = A.shape
    if y.size != m:
        raise ValueError(f"y has length {y.size}, expected {m}")
    idx = np.asarray(support, dtype=int)
    if idx.size == 0:
        return np.zeros(n), False
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("support indices out of range")
    if np.unique(idx).size != idx.size:
        raise ValueError("support contains duplicate indices")

    coef, _, rank, _ = np.linalg.lstsq(A[:, idx], y, rcond=1e-12)
    x = np.zeros(n)
    x[idx] = coef
    return x, rank < idx.size
