"""Inner solvers used by every outer iteration.

Three subproblems appear: selecting the best k entries of a candidate by
residual (exactly, via enumeration, or through its convex relaxation over the
capped simplex), and re-fitting least squares on a fixed support.  The capped
simplex {w : sum(w) = k, 0 <= w <= 1} is the convex hull of the binary
selectors with exactly k ones.
"""

from __future__ import annotations

import math
import numpy as np

from .core import as_matrix, as_system, as_vector, check_count, subset_blocks
from .errors import EnumerationGuardError

# Exhaustive k-subset enumeration is only viable as a desk-scale oracle.
BINARY_ENUM_MAX_N = 30

# Stopping rules of solve_relaxed_ot (see its docstring), read at call time.
MAX_INNER_ITER = 2000
OBJECTIVE_REL_TOL = 1e-12
ACCEPT_EVERY = 20

# The fast least-squares paths, the normal equations here and OMP's grown QR
# factor, solve only while a bound on their first solve's error factor, in
# units of eps, is at most this: cond(A_S)^2 <= trace(G) trace(G^-1) for the
# normal equations, cond(A_S) <= ||R||_F ||R^-1||_F for the QR factor.
LS_ERROR_MAX = 1e8


def project_capped_simplex(v, k, scale, shift=None):
    """Projection of v onto {w : sum(w) = k, 0 <= w <= 1} in a diagonal metric.

    With c = scale, it minimises sum((w_i - v_i)^2 / c_i) over the capped
    simplex: c_i weighs how far coordinate i moves (the relaxed solve passes
    c = 1/d, its metric's inverse, and all ones gives the Euclidean
    projection).  The result is clip(v - lam c, 0, 1) for the scalar shift
    lam at which the clipped mass equals k.

    Returns (w, lam): lam formed w, which is np.minimum(np.maximum(v - lam *
    c, 0.0), 1.0) bit for bit, and k == n returns (ones, -inf).  v must be
    finite, k an integer in 1..n and scale n positive finite entries.  shift
    is an optional finite starting guess for lam, such as the lam of the
    previous projection in a sequence of nearby ones: it changes only the
    number of passes (usually one, from a good guess), and the result only
    to round-off.  Without one the search starts from the all-free face's
    shift (see _project).  The search itself is _project, which checks
    nothing; the relaxed solve calls it directly, having checked its own
    inputs once.
    """
    v = as_vector(v)
    n = v.size
    check_count(k, "k", hi=n)
    c = np.asarray(scale, dtype=float)
    if c.shape != v.shape or not 0.0 < c.min() <= c.max() < math.inf:
        raise ValueError(f"scale must be {n} positive finite entries")
    if k == n:
        return np.ones(n), -math.inf
    if shift is not None:
        shift = float(shift)
        if not math.isfinite(shift):
            raise ValueError(f"starting shift {shift} is not finite")
    return _project(v, k, c, shift)


def _project(v, k, c, lam):
    """project_capped_simplex on checked inputs: v finite, k an integer in
    1..n-1, c positive finite entries and lam a finite starting shift, or
    None to start cold.  Returns (w, lam) as that function does.  A cold
    search starts from the shift that solves the all-free face's mass
    equation, (sum(v) - k) / sum(c), or from 0 where that is not finite (a
    sum of v beyond float range); from there it finds the solution's face
    as a warm search does.

    The mass is piecewise linear and non-increasing in lam, with breakpoints
    at v_i / c_i and (v_i - 1) / c_i, so it is linear on each face: with F the
    free coordinates (0 < v_i - lam c_i < 1) and U the saturated ones
    (v_i - lam c_i >= 1) it equals |U| + sum(v_F) - sum(c_F) lam.

    Safeguarded Newton iteration on lam: each pass finds the face at lam and
    solves that face's mass equation exactly,
    lam' = (sum(v_F) + |U| - k) / sum(c_F).  Once the face at lam' is the one
    lam' was solved on (no breakpoint lies between lam and lam'), lam' is the
    exact shift.  A bracket lo < lam < hi kept from the sign of the mass error
    catches steps that leave it and replaces them, as it does a step on a face
    with no free coordinate, by the median breakpoint inside the bracket;
    every bisection halves the breakpoints left, so the loop ends.
    """
    if lam is None:
        with np.errstate(over="ignore", invalid="ignore"):
            lam = float((v.sum() - k) / c.sum())
        if not math.isfinite(lam):
            lam = 0.0
    lo, hi = -math.inf, math.inf  # mass(lo) > k > mass(hi)
    solved_on = None  # face counts lam was solved on by a Newton step
    while True:
        d = v - lam * c
        pos = d > 0.0
        sat = d >= 1.0
        n_sat = int(np.count_nonzero(sat))
        n_free = int(np.count_nonzero(pos)) - n_sat
        # lam moved one way from the face it was solved on, so coordinates
        # only leave U or join the zeros: equal counts mean an equal face.
        if solved_on == (n_sat, n_free):
            break
        free = pos ^ sat
        sum_free = float(v[free].sum())
        c_free = float(c @ free)
        excess = n_sat + sum_free - c_free * lam - k
        if excess > 0.0:
            lo = lam
        elif excess < 0.0:
            hi = lam
        else:
            break
        if n_free:
            step = (sum_free + n_sat - k) / c_free
            if lo < step < hi:
                lam, solved_on = step, (n_sat, n_free)
                continue
        breaks = np.concatenate([v / c, (v - 1.0) / c])
        breaks = breaks[(breaks > lo) & (breaks < hi)]
        if breaks.size:
            lam, solved_on = float(np.median(breaks)), None
            continue
        # No breakpoint inside the bracket: the mass is linear on it, and the
        # face at its midpoint is the face of the solution.
        lam = 0.5 * (lo + hi)
        d = v - lam * c
        free = (d > 0.0) & (d < 1.0)
        if free.any():
            lam = (float(v[free].sum()) + int(np.count_nonzero(d >= 1.0)) - k) / float(c @ free)
            d = v - lam * c
        break
    # minimum(maximum()) is clip without its Python wrapper; d is a fresh array
    return np.minimum(np.maximum(d, 0.0, out=d), 1.0, out=d), lam


def _selection_inputs(A, y, v, k):
    """The checks both selection solvers open with: A a matrix, y and v vectors
    of its row and column counts, and k an integer in 1..n.  Returns (A, y, v)."""
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    v = as_vector(v, "v")
    m, n = A.shape
    if y.size != m or v.size != n:
        raise ValueError(f"incompatible shapes: A is {A.shape}, y has {y.size}, v has {v.size}")
    check_count(k, "k", hi=n)
    return A, y, v


def solve_relaxed_ot(A, y, v, k, accept=None):
    """Minimise ||y - A (v*w)||^2 over the capped simplex {sum(w)=k, 0<=w<=1}.

    Accelerated projected gradient in the metric D = diag(d), d_i = ||B_i||^2
    the squared column norms of B = A diag(v), with a monotone restart: an
    accelerated step that would increase the objective is rejected and the
    momentum is reset, so accepted objectives never increase.  The metric
    gives each coordinate its own step, 1 / (L_D d_i), where L_D is the exact
    top eigenvalue of the Gram of B D^-1/2 (columns of unit norm, or zero)
    times a 1.02 margin; eigvalsh reads it from the smaller of its two Gram
    matrices.  With one step 1/L for all, L set by the longest column,
    coordinates of small |v_i| would barely move.  The projection is the one
    in the same metric, project_capped_simplex with scale 1/d; D changes the
    path to a minimiser, not the set of minimisers.  A zero column (v_i = 0),
    or one whose squared norm underflows, takes the largest column's weight.
    The loop calls the projection's unchecked kernel, _project: k was
    checked on entry, c = 1/d is finite and positive by construction, and
    the search points are finite by the bound below.  The first projection
    starts cold, each later one from the shift the previous one returned;
    consecutive iterates share nearly the same shift, so the Newton
    projection usually needs a single pass.  With k = n, w = ones is
    the only feasible point and is returned, converged, before any step.

    One bound, checked once, keeps every search point finite.  Each w is a
    projection, in [0, 1], which puts w + m (w - w_prev) in [-1, 2] and
    keeps B w - y finite (|(B w)_j| <= n sqrt(d_max)), so no objective is
    NaN.  Accepted objectives never exceed f0 = ||B w0 - y||^2, so
    ||r|| <= sqrt(f0), and 0 <= m < 1 gives ||r_z|| <= 3 sqrt(f0).  Every partial sum of
    (B^T r_z)_i is at most ||B_i|| ||r_z|| <= 3 sqrt(f0 d_max), and the step
    scales it by 1 / (L_D d_i) with ||B_i||^2 <= d_i and L_D >= 1 (a
    longest column has unit norm in B D^-1/2), which leaves at most
    3 sqrt(f0 / min(d)).  So while 3 sqrt(f0) max(sqrt(d_max),
    1 / sqrt(min(d))) <= 1e300, far inside float range whatever the
    round-off, no search point overflows and the loop checks none.  A solve
    beyond that bound checks each one and raises ValueError at the first
    that is not finite, instead of projecting it.  Such a solve runs with
    float overflow ignored rather than refused up front, since it may still
    succeed and each overflow there is handled: a search point that
    overflows is refused as above, an objective that overflows reads inf
    and is rejected by the restart, and a product lam c_i that overflows in
    the projection stands for a coordinate far past its clip range and
    clips to the exact 0 or 1 it would give; none of them warns.

    The loop runs on the residual r = B w - y and never forms the n x n Gram:
    the objective is r @ r, and the gradient at the search point
    z = w + m (w - w_prev) is B^T r_z, where r_z = r + m (r - r_prev) is
    carried through the same recurrence from the residuals the objective
    needs anyway (after a restart m = 0 and r_z = r).  A step costs the two
    products B w and B^T r_z, 2mn multiply-adds, and the solve holds O(mn)
    memory.

    It stops converged once the relative objective change has stayed within
    OBJECTIVE_REL_TOL for 8 steps running.  accept is an optional predicate
    on the iterate, asked after every ACCEPT_EVERY-th step (never before
    step ACCEPT_EVERY) with the current w: at its first True the solve stops
    and returns that w as converged, since the caller has judged it good
    enough.  Returns (w, converged), so converged=True means the objective
    stalled or accept held.  On neither within MAX_INNER_ITER steps the best
    iterate found so far is returned with converged=False; the caller decides
    whether that is acceptable.  Raises ValueError, with no warning, when a
    squared column norm of A diag(v) or the starting objective ||B w0 - y||^2
    overflows float64, and ValueError when a search point is not finite
    (beyond the bound above).
    """
    A, y, v = _selection_inputs(A, y, v, k)
    m, n = A.shape
    w = np.full(n, k / n)  # feasible interior start

    with np.errstate(over="ignore", invalid="ignore"):
        B = A * v  # columns scaled by v
        d = np.einsum("ij,ij->j", B, B)
        r = B @ w - y
        fw = float(r @ r)
    # the Gram of B D^-1/2 is finite once d is
    if not (math.isfinite(fw) and np.isfinite(d).all()):
        raise ValueError("a column norm of A diag(v) or ||A (v*w0) - y||^2 overflows float64")
    tiny = np.finfo(float).tiny
    d_max = float(d.max())
    if d_max < tiny or k == n:
        # v = 0 (or A diag(v) = 0): objective constant, any feasible point
        # optimal.  k = n: w = ones is the only feasible point.
        return w, True
    d[d < tiny] = d_max
    c = 1.0 / d  # the projection's scale
    Bn = B * np.sqrt(c)
    L = float(np.linalg.eigvalsh(Bn @ Bn.T if m < n else Bn.T @ Bn)[-1]) * 1.02
    step_of = c / L  # each coordinate's step, 1 / (L_D d_i)
    # the docstring's bound: below it no search point can overflow
    check_each_z = 3.0 * math.sqrt(fw) * max(math.sqrt(d_max), 1.0 / math.sqrt(d.min())) > 1e300

    zk, rz = w, r  # search point and its residual
    t_mom = 1.0
    stall = 0
    lam = None  # shift of the last projection, the next one's starting guess
    # past the bound, overflow is expected and each case handled (docstring)
    with np.errstate(over="ignore" if check_each_z else None):
        for step in range(1, MAX_INNER_ITER + 1):
            z = zk - (B.T @ rz) * step_of
            if check_each_z and not np.isfinite(z).all():
                raise ValueError("the search point of a FISTA step is not finite")
            w_new, lam = _project(z, k, c, lam)
            r_new = B @ w_new - y
            f_new = float(r_new @ r_new)
            if f_new > fw:  # monotone restart
                w_new, r_new, f_new = w, r, fw
                t_mom = 1.0
            rel_drop = abs(fw - f_new) / max(1.0, fw)
            stall = stall + 1 if rel_drop <= OBJECTIVE_REL_TOL else 0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            mom = (t_mom - 1.0) / t_next
            zk = w_new + mom * (w_new - w)
            rz = r_new + mom * (r_new - r)
            w, r, fw, t_mom = w_new, r_new, f_new, t_next
            if stall >= 8:
                return w, True
            if accept is not None and step % ACCEPT_EVERY == 0 and accept(w):
                return w, True
    return w, False


def solve_binary_ot(A, y, v, k):
    """Exact best binary selector: minimise ||y - A (v*w)||^2 over w in {0,1}^n, sum(w)=k.

    Exhaustive enumeration over all k-subsets in lexicographic order; ties keep
    the lexicographically smallest support, so when every objective overflows
    the first subset is returned with objective inf.  Refuses n > 30, where
    C(n, k) stops being a practical oracle, directing callers to the relaxation.

    The subsets are scored in numpy blocks: one einsum screens a block's
    objectives, and only those within round-off of the block's smallest are
    scored again as float(r @ r), the objective returned.  Support and
    objective are bit for bit those of scoring every subset that way in turn.

    Returns (w, objective).
    """
    A, y, v = _selection_inputs(A, y, v, k)
    m, n = A.shape
    if n > BINARY_ENUM_MAX_N:
        raise EnumerationGuardError(
            f"binary selection enumerates C({n},{k}) subsets; refusing n > "
            f"{BINARY_ENUM_MAX_N} (use the capped-simplex relaxation instead)"
        )

    B = A * v
    best_obj = math.inf
    best_support = np.arange(k)
    # Either evaluation of a sum of m nonnegative squares is within about
    # m*eps/2 (relative) of the exact sum, plus m half-ulps of the smallest
    # subnormal where squares underflow.  So the subset whose r @ r is the
    # block's smallest screens within about 2*m*eps (relative) plus 5m such
    # half-ulps of the screen's minimum; the cut allows more than that.
    rel_slack = 1.0 + 4 * m * np.finfo(float).eps
    abs_slack = 4 * m * np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore"):  # an overflowing objective is inf by design
        for block in subset_blocks(n, k, m * k):
            # column c is B[:, S].sum(axis=1) for S = block[c]: the same
            # contiguous length-k reduction, so the same bits
            R = y[:, None] - B[:, block].sum(axis=2)
            screen = np.einsum("ij,ij->j", R, R)
            cut = np.fmin.reduce(screen) * rel_slack + abs_slack  # NaN only if all are
            for c in np.flatnonzero(screen <= cut):
                r = R[:, c].copy()  # contiguous, as the objective's dot product reads it
                obj = float(r @ r)
                if obj < best_obj:  # strict '<' keeps the lexicographically first tie
                    best_obj = obj
                    best_support = block[c]
    w = np.zeros(n)
    w[best_support] = 1.0
    return w, best_obj


def least_squares_on_support(A, y, support):
    """Least squares restricted to a support: min ||y - A x||_2 with supp(x) in support.

    support is a 1-d integer array of distinct column indices.  The normal
    equations are solved with the inverse of G = A_S^T A_S: x_S = G^-1 A_S^T y,
    then refined once with the true residual, x_S += G^-1 A_S^T (y - A_S x_S).
    With R the R factor of A_S, trace(G) trace(G^-1) = (||R||_F ||R^-1||_F)^2
    bounds cond(A_S)^2 from above, as in the QR factor grown by OMP.  This
    path is taken only while that bound is in (0, LS_ERROR_MAX], LS_ERROR_MAX
    = 1e8: the first solve's error, about cond^2 eps, is then at most about
    2e-8 relative, and the refinement step multiplies it by that factor again.
    The bound must be positive since inv does not prove G definite: on an
    exactly singular G it can return a garbage inverse of negative trace.
    Otherwise, or when inv fails, np.linalg.lstsq (an SVD, LAPACK gelsd)
    solves; when A_S is numerically rank deficient (singular values below
    1e-12 of the largest) it returns the minimum-norm solution.

    Returns x.
    """
    A, y = as_system(A, y)
    n = A.shape[1]
    idx = np.asarray(support)
    if idx.ndim == 1 and idx.size == 0:  # [] reads as float
        return np.zeros(n)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"support must be a 1-d integer array, got {idx.dtype} of shape {idx.shape}")
    # checked as a list: cheaper than numpy reductions at the usual sizes
    entries = idx.tolist()
    if min(entries) < 0 or max(entries) >= n:
        raise ValueError("support indices out of range")
    if len(set(entries)) != len(entries):
        raise ValueError("support contains duplicate indices")

    As = A[:, idx]
    x = np.zeros(n)
    # entries near the float limits overflow G or G^-1; the bound then reads
    # inf or nan, fails the test, and lstsq solves without the warning
    with np.errstate(over="ignore", invalid="ignore"):
        G = As.T @ As
        try:
            G_inv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            cond_bound2 = math.inf
        else:
            cond_bound2 = G.trace() * G_inv.trace()
    if 0.0 < cond_bound2 <= LS_ERROR_MAX:
        coef = G_inv @ (As.T @ y)
        coef += G_inv @ (As.T @ (y - As @ coef))
        x[idx] = coef
        return x
    x[idx] = np.linalg.lstsq(As, y, rcond=1e-12)[0]
    return x
