"""Computable convergence machinery: exact isometry constants at desk scale,
the contraction/bound constants for every algorithm variant, admissible
parameter windows, and the geometric error envelopes they imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, check_count, check_real, check_step, subset_blocks
from .errors import EnumerationGuardError, ParameterWindowError

RIC_ENUM_MAX_SUPPORTS = 10**6


def s_of_k(k):
    """1 for odd k, 0 for even k (the sparsity-order correction term)."""
    check_count(k, "k")
    return k % 2


# The screen's cut sits _RIC_CUT_C * t * eps * (1 + seed) above the greedy
# seed: room for the rounding of one computed deviation, so that supports tying
# with the seed are skipped.
_RIC_CUT_C = 4


def _restrict(G, supports):
    """G restricted to each row of supports, a (C, t) array of sorted indices."""
    return G[supports[:, :, None], supports[:, None, :]]


def _deviations(G_T):
    """Spectral deviation from 1 of each matrix of a (C, t, t) stack: one
    batched eigvalsh call."""
    ev = np.linalg.eigvalsh(G_T)
    return np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])


def _greedy_seed(G, order):
    """Deviation of one order-t support grown greedily: from the empty set, add
    the column whose sorted support deviates most (the first on ties)."""
    n = G.shape[0]
    support = np.empty(0, dtype=np.intp)
    for _ in range(order):
        rest = np.setdiff1d(np.arange(n), support)
        grown = np.sort(np.column_stack(
            [np.broadcast_to(support, (rest.size, support.size)), rest]), axis=1)
        dev = _deviations(_restrict(G, grown))
        best = int(np.argmax(dev))
        support = grown[best]
    return float(dev[best])


def ric_exact(A, order):
    """Exact order-t restricted isometry constant by exhaustive support enumeration.

    delta_t = max over |T| = t of the deviation of the spectrum of A_T^T A_T
    from 1.  Refuses when C(n, t) exceeds RIC_ENUM_MAX_SUPPORTS, and raises
    ValueError when the Gram matrix or its row sums overflow float64.

    Every support is visited, but eigvalsh runs only where a cheap upper bound
    on the deviation can beat a greedy seed.  With M = A_T^T A_T - I and
    eps = 2^-52:

    - seed: a greedy support (see _greedy_seed) gives a deviation d0 <= delta_t
      from t batched eigvalsh calls of at most n matrices each;
    - cut: d0 + _RIC_CUT_C * t * eps * (1 + d0), fixed before the pass;
    - screen: every support is bounded by its Gershgorin row sums,
      max_i sum_j |M_ij| (the diagonal counts, so columns need not have unit
      norm).  A support the row sums leave above the cut is bounded again by
      trace(M^4)^(1/4) = (sum_ij ((M M)_ij)^2)^(1/4), which is much tighter on
      Gaussian matrices.  Each computed bound is raised by its own rounding
      error, a factor 1 + t * eps for the row sums and 1 + (t^2 + 2) * eps for
      the quartic, and eigvalsh runs only where both stay above the cut;
    - guarantee: the result is the deviation of one support, bit for bit what
      the unscreened enumeration computes for it, so it is never above that
      enumeration's maximum.  A skipped support's deviation is at most the
      cut, so, with LAPACK's backward-stable solver taken to err by at most
      t * eps * (1 + deviation), the result is at most
      2 * _RIC_CUT_C * t * eps * (1 + d0) below that maximum.

    The row sums are exact for an equiangular frame, so there only the seed's
    supports reach eigvalsh.  Neither the seed nor the cut depends on the
    block boundaries of core.subset_blocks, so neither does the result.
    """
    A = as_matrix(A, "A")
    n = A.shape[1]
    check_count(order, "order", hi=n)
    count = math.comb(n, order)
    if count > RIC_ENUM_MAX_SUPPORTS:
        raise EnumerationGuardError(
            f"order-{order} constant needs {count} support enumerations "
            f"(limit {RIC_ENUM_MAX_SUPPORTS})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A
        H = np.abs(G - np.eye(n))
        finite = bool(np.isfinite(H.sum(axis=1)).all())
    if not finite:
        raise ValueError("A^T A or its row sums overflow float64: no isometry "
                         "constant can be computed at this scale")
    eps = np.finfo(float).eps
    delta = _greedy_seed(G, order)
    cut = delta + _RIC_CUT_C * order * eps * (1.0 + delta)
    # a block holds two t x t arrays per support: M and M M
    for idx in subset_blocks(n, order, 2 * order * order):
        # |G - I| is gathered, not G: the same entries, without a per-block abs
        row_sums = _restrict(H, idx).sum(axis=2).max(axis=1)
        idx = idx[row_sums * (1.0 + order * eps) > cut]
        if not idx.size:
            continue
        M = _restrict(G, idx)
        M.reshape(len(idx), -1)[:, ::order + 1] -= 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            P = M @ M
            P *= P
            quartic = np.sqrt(np.sqrt(P.sum(axis=(1, 2))))
            # an overflowed (inf or nan) bound skips nothing
            idx = idx[~(quartic * (1.0 + (order * order + 2) * eps) <= cut)]
        del M, P  # before the survivors are gathered: a lower peak
        if idx.size:
            delta = max(delta, float(np.max(_deviations(_restrict(G, idx)))))
    return delta


@dataclass(frozen=True)
class RICProfile:
    """The isometry constants a sparsity level k actually consumes.

    delta_kp1 is the order-(k+1) constant, used in place of delta_k whenever
    k is odd.  The constants must be finite, nonnegative and ordered,
    delta_k <= delta_kp1 <= delta_2k <= delta_3k up to 1e-12.
    """

    k: int
    delta_k: float
    delta_2k: float
    delta_3k: float
    delta_kp1: float

    def __post_init__(self):
        check_count(self.k, "k")
        for delta in (self.delta_k, self.delta_kp1, self.delta_2k, self.delta_3k):
            check_real(delta, "isometry constants")
        eps = 1e-12
        if not (self.delta_k <= self.delta_kp1 + eps
                and self.delta_kp1 <= self.delta_2k + eps
                and self.delta_2k <= self.delta_3k + eps):
            raise ValueError(
                "isometry constants must be ordered: "
                f"delta_k={self.delta_k} <= delta_(k+1)={self.delta_kp1} "
                f"<= delta_2k={self.delta_2k} <= delta_3k={self.delta_3k}"
            )

    @property
    def delta_k_sk(self):
        """delta_{k + s(k)}: order k+1 for odd k, order k for even k."""
        return self.delta_kp1 if s_of_k(self.k) else self.delta_k


# (shape, float64 bytes) of the matrix ric_profile saw last, and its constants
# by order: certifying k = 1, 2, 3 on one matrix shares orders 2, 3, 4 and 6.
_ric_memo = (None, {})


def ric_profile(A, k):
    """Brute-force RICProfile for sparsity k: one ric_exact(A, order) call per
    order not yet computed for this matrix, orders clamped to n (every vector
    is trivially n-sparse).  Only the most recent matrix's constants are kept."""
    global _ric_memo
    A = as_matrix(A, "A")
    n = A.shape[1]
    check_count(k, "k", hi=n)
    key = (A.shape, A.tobytes())
    if _ric_memo[0] != key:
        _ric_memo = (key, {})
    cache = _ric_memo[1]

    def delta(order):
        order = min(order, n)
        if order not in cache:
            cache[order] = ric_exact(A, order)
        return cache[order]

    return RICProfile(
        k=k,
        delta_k=delta(k),
        delta_2k=delta(2 * k),
        delta_3k=delta(3 * k),
        delta_kp1=delta(k + 1),
    )


# --- root constants ----------------------------------------------------------


def _bisect_increasing(f):
    """Root of a strictly increasing f on (1e-9, 1 - 1e-9) by plain bisection,
    to a bracket of width 1e-12."""
    lo, hi = 1e-9, 1.0 - 1e-9
    if f(lo) > 0:
        return lo
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gamma_star():
    """Unique root in (0,1) of 5 g^3 + 5 g^2 + 3 g - 1 = 0 (about 0.2274).

    Largest admissible delta_{k+s(k)} for the exact-selection variants.
    """
    return _bisect_increasing(lambda g: 5 * g**3 + 5 * g**2 + 3 * g - 1.0)


def _growth(omega, g):
    return (2 * omega + 1) * g * math.sqrt((1 + g) / (1 - g)) + g


def gamma_star_omega(omega):
    """Root of (2w+1) g sqrt((1+g)/(1-g)) + g = 1: delta_3k ceiling for the
    relaxed variant with w compressions (about 0.2118 at w=1)."""
    check_count(omega, "omega")
    return _bisect_increasing(lambda g: _growth(omega, g) - 1.0)


def gamma_sharp_omega(omega):
    """delta_3k ceiling for the relaxed pursuit variant: root of the same
    growth function divided by sqrt(1-g^2) (about 0.2079 at w=1)."""
    check_count(omega, "omega")
    return _bisect_increasing(lambda g: _growth(omega, g) / math.sqrt(1 - g * g) - 1.0)


def xi_q(q):
    """Tight l2 cap on the per-block sup-norms of a capped-simplex vector split
    into q greedy k-blocks: 1 at q=1, 2/sqrt(q)+sqrt(q)/4 on [2,8), sqrt(2) beyond."""
    check_count(q, "q")
    if q == 1:
        return 1.0
    if q < 8:
        return 2.0 / math.sqrt(q) + math.sqrt(q) / 4.0
    return math.sqrt(2.0)


def l2_bound_g(zeta1, zeta2, r):
    """l2 bound for a length-r vector with l1 norm <= zeta1 and sup norm <= zeta2.

    g(j) = zeta1/sqrt(j) + sqrt(j) zeta2/4 decreases up to t0 = floor(4 zeta1/zeta2)
    and increases after; the bound is g(r) up to t0 and min(g(t0), g(t0+1)) beyond.
    r is compared with 4 zeta1/zeta2 itself, so a ratio that overflows gives g(r).
    """
    if not (math.isfinite(zeta1) and zeta1 > zeta2 > 0):
        raise ValueError("need finite zeta1 > zeta2 > 0")
    check_count(r, "r", lo=2)
    ratio = 4.0 * zeta1 / zeta2

    def g(j):
        return zeta1 / math.sqrt(j) + math.sqrt(j) * zeta2 / 4.0

    if r <= ratio:
        return g(r)
    t0 = math.floor(ratio)
    return min(g(t0), g(t0 + 1))


def geometric_envelope(a0, a1, b1, b2, b3, p):
    """Closed-form majorant of a sequence obeying a_{p+1} <= b1 a_p + b2 a_{p-1} + b3.

    Returns theta^(p-1) (a1 + (theta - b1) a0) + b3/(1 - theta) with
    theta = (b1 + sqrt(b1^2 + 4 b2))/2, valid for p >= 1 whenever b1 + b2 < 1
    (at p = 1 it is at least a1).  a0, a1 are error norms (finite and
    nonnegative); p is an integer or an array of integers.
    """
    for a in (a0, a1):
        check_real(a, "a0, a1")
    for b in (b1, b2, b3):
        check_real(b, "b1, b2, b3")
    if b1 + b2 >= 1:
        raise ParameterWindowError(f"b1+b2={b1 + b2} >= 1: no contraction")
    p_arr = np.asarray(p)
    if p_arr.dtype.kind not in "iu":
        raise ValueError("p must be an integer or an array of integers")
    if np.any(p_arr < 1):
        raise ValueError("envelope defined for p >= 1")
    theta = 0.5 * (b1 + math.sqrt(b1 * b1 + 4.0 * b2))
    out = theta ** (p_arr - 1) * (a1 + (theta - b1) * a0) + b3 / (1.0 - theta)
    return float(out) if np.isscalar(p) else out


# --- bound constants ---------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Every constant appearing in the error envelopes, for one configuration.

    The exact-selection variants fill (eta, b, theta, C2); the relaxed
    variants fill (t_k, z_k, sigma, xi_sigma, d0..d2, c1_sigma, c_sigma,
    b1..b3, theta1, theta2).  Each certification fact is held once: theta is
    the evaluated theorem's contraction factor (theta1 for hbrot, theta2 for
    hbrotp); recurrence, its (b1, b2, b3) in a_{p+1} <= b1 a_p + b2 a_{p-1}
    + b3 ||nu'||, is set exactly where theta < 1; violations is empty exactly
    where the sufficient parameter window holds.
    """

    eta: float | None = None
    b: float | None = None
    theta: float | None = None
    C2: float | None = None
    t_k: float | None = None
    z_k: float | None = None
    sigma: int | None = None
    xi_sigma: float | None = None
    d0: float | None = None
    d1: float | None = None
    d2: float | None = None
    c1_sigma: float | None = None
    c_sigma: float | None = None
    b1: float | None = None
    b2: float | None = None
    b3: float | None = None
    theta1: float | None = None
    theta2: float | None = None
    recurrence: tuple | None = None
    violations: tuple = ()


def _hbot_window(eta, dks):
    """beta_max and interval(beta) -> (alpha_lo, alpha_hi) of the exact-selection
    variants, given eta and delta_(k+s(k))."""
    root5 = math.sqrt(5.0)

    def interval(beta):
        check_real(beta, "beta")
        return ((1.0 + 2.0 * beta - 1.0 / eta) / (1.0 - root5 * dks),
                (1.0 + 1.0 / eta) / (1.0 + root5 * dks))

    return (1.0 + 1.0 / eta) / (1.0 + root5 * dks) - 1.0, interval


def _hbrot_window(d0, d1, d2, target):
    """beta_max and interval(beta) -> (alpha_lo, alpha_hi) of the relaxed variants;
    target is 1 for hbrot and z_k for hbrotp (endpoints shift by 1 - z_k)."""
    shift = 1.0 - target

    def interval(beta):
        check_real(beta, "beta")
        return (((d0 + d2 + 2.0) * beta + d0 + shift) / (d0 - d1 + 1.0),
                (d0 + 2.0 - shift - (d2 - d0) * beta) / (d0 + d1 + 1.0))

    return (target - d1) / (1.0 + d1 + d2), interval


def _window_violations(alpha, beta, window, lo_denominator, refusal):
    """The alpha/beta check both constants functions share: beta below
    beta_max, then a positive alpha_lo denominator (else the refusal template,
    formatted with it), then alpha inside interval(beta).  window is the
    (beta_max, interval) pair of _hbot_window or _hbrot_window."""
    beta_max, interval = window
    violations = []
    if not beta < beta_max:
        violations.append(f"beta={beta:.6g} >= beta_max={beta_max:.6g}")
    if not lo_denominator > 0.0:
        violations.append(refusal.format(lo_denominator))
    else:
        alpha_lo, alpha_hi = interval(beta)
        if not alpha_lo < alpha < alpha_hi:
            violations.append(f"alpha={alpha:.6g} outside ({alpha_lo:.6g}, {alpha_hi:.6g})")
    return violations


def hbot_constants(ric, alpha, beta, check=True):
    """Contraction constants for the exact-selection variants (with or without
    the pursuit re-fit; both share one envelope).

    With check=True a violated hypothesis raises ParameterWindowError naming
    every violated inequality.
    """
    check_step(alpha, beta)
    dk = ric.delta_k
    dks = ric.delta_k_sk
    violations = []

    gs = gamma_star()
    if not dks < gs:
        violations.append(f"delta_(k+s(k))={dks:.6g} >= gamma*={gs:.6g}")

    denom = 1.0 - 2.0 * dk - dks
    fields = {}
    if denom <= 0:
        violations.append(f"1 - 2 delta_k - delta_(k+s(k)) = {denom:.6g} <= 0")
    else:
        eta = math.sqrt((1.0 + dk) / denom)
        root5 = math.sqrt(5.0)
        violations += _window_violations(alpha, beta, _hbot_window(eta, dks),
                                         1.0 - root5 * dks,
                                         "1 - sqrt(5) delta_(k+s(k)) = {:.6g} <= 0")
        b = eta * (abs(1.0 + beta - alpha) + root5 * alpha * dks)
        theta = 0.5 * (b + math.sqrt(b * b + 4.0 * eta * beta))
        fields = dict(eta=eta, b=b, theta=theta)
        if theta < 1:
            C2 = (2.0 + (1.0 + dk) * alpha) / ((1.0 - theta) * math.sqrt(denom))
            fields.update(C2=C2, recurrence=(b, eta * beta, C2 * (1.0 - theta)))

    if check and violations:
        raise ParameterWindowError("; ".join(violations))
    return BoundConstants(violations=tuple(violations), **fields)


def _ratio_or_limit(num, den, limit):
    return num / den if den > 0.0 else limit


def hbrot_constants(ric, alpha, beta, omega, n, variant="hbrot", check=True):
    """Contraction constants for the relaxed variants with omega compressions.

    variant selects which hypothesis set is checked and which theta and
    recurrence are stored (theta1 and theta2 are both kept): "hbrot" uses the
    plain window, theta1 and (b1, b2, b3); "hbrotp" uses the pursuit window,
    theta2 and those terms over z_k, its noise term raised by
    sqrt(1 + delta_k) / (1 - delta_2k) for the re-fit.  The ratios appearing
    in d2 and b3 are 0/0 at zero isometry constants and are defined there by
    their equal-constant limits (2w+1)/(2w-1) and 2/(2w-1).
    """
    check_step(alpha, beta)
    if variant not in ("hbrot", "hbrotp"):
        raise ValueError(f"variant must be 'hbrot' or 'hbrotp', got {variant!r}")
    check_count(n, "n")
    k = ric.k
    violations = []
    if not n > 3 * k:
        violations.append(f"n={n} <= 3k={3 * k}")
    # n <= 3k degenerates the block count; sigma=2 applies the worst-case cap
    # xi_2 = (5/4) sqrt(2), the maximum of xi over all block counts.
    sigma = math.ceil((n - 2 * k) / k) if n > 3 * k else 2
    xs = xi_q(sigma)

    dk, d2k, d3k = ric.delta_k, ric.delta_2k, ric.delta_3k
    bound = gamma_star_omega(omega) if variant == "hbrot" else gamma_sharp_omega(omega)
    if not d3k < bound:
        name = "gamma*(omega)" if variant == "hbrot" else "gamma#(omega)"
        violations.append(f"delta_3k={d3k:.6g} >= {name}={bound:.6g}")
    fields = {}
    if d2k >= 1.0:
        violations.append(f"delta_2k={d2k:.6g} >= 1")
    else:
        t_k = math.sqrt(1.0 + dk) / math.sqrt(1.0 - d2k)
        z_k = math.sqrt(1.0 - d2k * d2k)

        ratio_d2 = _ratio_or_limit(2 * omega * d3k + d2k,
                                   2 * (omega - 1) * d3k + d2k,
                                   (2 * omega + 1) / (2 * omega - 1))
        d0 = t_k * (omega * xs + 1.0)
        d1 = t_k * (2 * omega * d3k + d2k) + d3k
        d2 = t_k * (xs * (omega - 1) + 1.0) * ratio_d2

        gap = abs(1.0 + beta - alpha)
        c1_sigma = (xs * (omega - 1) + 1.0) * gap + alpha * (2 * (omega - 1) * d3k + d2k)
        c2_sigma = xs * gap + 2.0 * alpha * d3k
        c_sigma = (omega * xs + 1.0) * gap + alpha * (2 * omega * d3k + d2k)

        b1 = t_k * c_sigma + gap + alpha * d3k
        b2 = beta * t_k * (xs * (omega - 1) + 1.0) * _ratio_or_limit(
            c_sigma, c1_sigma, (2 * omega + 1) / (2 * omega - 1)) + beta
        b3 = ((alpha * (2 * omega - 1) * (1.0 + dk) + 2.0) / math.sqrt(1.0 - d2k)
              * _ratio_or_limit(2 * d3k, 2 * (omega - 1) * d3k + d2k, 2.0 / (2 * omega - 1))
              * _ratio_or_limit(c_sigma, c2_sigma, (2 * omega + 1) / 2.0)
              + alpha * math.sqrt(1.0 + dk))

        theta1 = 0.5 * (b1 + math.sqrt(b1 * b1 + 4.0 * b2))
        theta2 = (b1 + math.sqrt(b1 * b1 + 4.0 * b2 * z_k)) / (2.0 * z_k)

        if variant == "hbrot":
            target, theta, recurrence = 1.0, theta1, (b1, b2, b3)
        else:
            target, theta = z_k, theta2
            recurrence = (b1 / z_k, b2 / z_k,
                          b3 / z_k + math.sqrt(1.0 + dk) / (1.0 - d2k))
        violations += _window_violations(alpha, beta, _hbrot_window(d0, d1, d2, target),
                                         d0 - d1 + 1.0,
                                         "d0 - d1 + 1 = {:.6g} <= 0: no admissible step")
        fields = dict(t_k=t_k, z_k=z_k, d0=d0, d1=d1, d2=d2, c1_sigma=c1_sigma,
                      c_sigma=c_sigma, b1=b1, b2=b2, b3=b3, theta1=theta1, theta2=theta2,
                      theta=theta, recurrence=recurrence if theta < 1 else None)

    if check and violations:
        raise ParameterWindowError("; ".join(violations))
    return BoundConstants(sigma=sigma, xi_sigma=xs, violations=tuple(violations), **fields)


def parameter_window(ric, omega=1, variant="hbot", n=None):
    """Admissible momentum range and, per beta, the open step-size interval.

    Returns _hbot_window's or _hbrot_window's (beta_max, interval), the window
    hbot_constants/hbrot_constants check; interval(beta) -> (alpha_lo, alpha_hi)
    refuses a negative, NaN or infinite beta.  For beta < beta_max the
    interval is nonempty and contains 1 + beta.  The relaxed variants need n
    (for the block count).

    The isometry hypotheses are the constants' own: when they hold, beta_max > 0
    and 1 lies inside interval(0), so the constants at (alpha, beta) = (1, 0)
    raise ParameterWindowError exactly when a hypothesis fails, or where
    beta_max rounds to 0 or below just under a ceiling.  A returned beta_max
    is positive.
    """
    if variant in ("hbot", "hbotp"):
        bc = hbot_constants(ric, alpha=1.0, beta=0.0)
        return _hbot_window(bc.eta, ric.delta_k_sk)
    if variant in ("hbrot", "hbrotp"):
        bc = hbrot_constants(ric, alpha=1.0, beta=0.0, omega=omega, n=n, variant=variant)
        return _hbrot_window(bc.d0, bc.d1, bc.d2, 1.0 if variant == "hbrot" else bc.z_k)
    raise ValueError(f"unknown variant {variant!r}")


def convergence_envelope(bc, a0, a1, noise_norm, p):
    """Evaluate the per-iteration error envelope at step p >= 1 (int or array).

    a0, a1 are the starting error norms; noise_norm is ||nu'|| (the noise plus
    the off-support tail image), checked under its own name, as is a
    noise_norm whose product with b3 overflows.  The error obeys
    the recurrence the constants function stored in bc.recurrence,
    a_{p+1} <= b1 a_p + b2 a_{p-1} + b3 ||nu'||; this evaluates its
    geometric_envelope.
    """
    if bc.recurrence is None:
        raise ParameterWindowError("no contraction: no theta below 1 for these constants")
    check_real(noise_norm, "noise_norm")
    b1, b2, b3 = bc.recurrence
    if not math.isfinite(b3 * noise_norm):
        raise ValueError(f"noise_norm * b3 overflows float64 (noise_norm = {noise_norm:g}, "
                         f"b3 = {b3:g})")
    return geometric_envelope(a0, a1, b1, b2, b3 * noise_norm, p)
