"""Computable convergence machinery: exact isometry constants at desk scale,
the contraction/bound constants for every algorithm variant, admissible
parameter windows, and the geometric error envelopes they imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import as_matrix
from .errors import EnumerationGuardError, ParameterWindowError

RIC_ENUM_MAX_SUPPORTS = 10**6
_EIG_BATCH = 4096


def s_of_k(k):
    """1 for odd k, 0 for even k (the sparsity-order correction term)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return k % 2


def ric_exact(A, order):
    """Exact order-t restricted isometry constant by exhaustive support enumeration.

    delta_t = max over |T| = t of the deviation of the spectrum of A_T^T A_T
    from 1.  Refuses when C(n, t) exceeds RIC_ENUM_MAX_SUPPORTS.
    """
    A = as_matrix(A, "A")
    n = A.shape[1]
    if not 1 <= order <= n:
        raise ValueError(f"order={order} out of range 1..{n}")
    count = math.comb(n, order)
    if count > RIC_ENUM_MAX_SUPPORTS:
        raise EnumerationGuardError(
            f"order-{order} constant needs {count} support enumerations "
            f"(limit {RIC_ENUM_MAX_SUPPORTS})"
        )
    G = A.T @ A
    delta = 0.0
    batch = []
    for T in combinations(range(n), order):
        batch.append(T)
        if len(batch) == _EIG_BATCH:
            delta = max(delta, _batch_spectrum_deviation(G, batch))
            batch.clear()
    if batch:
        delta = max(delta, _batch_spectrum_deviation(G, batch))
    return delta


def _batch_spectrum_deviation(G, supports):
    idx = np.asarray(supports, dtype=int)
    sub = G[idx[:, :, None], idx[:, None, :]]
    ev = np.linalg.eigvalsh(sub)
    return float(np.max(np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])))


@dataclass(frozen=True)
class RICProfile:
    """The isometry constants a sparsity level k actually consumes.

    delta_kp1 is the order-(k+1) constant, used in place of delta_k whenever
    k is odd.
    """

    k: int
    delta_k: float
    delta_2k: float
    delta_3k: float
    delta_kp1: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        deltas = (self.delta_k, self.delta_kp1, self.delta_2k, self.delta_3k)
        if any(d < 0 for d in deltas):
            raise ValueError("isometry constants must be nonnegative")
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
        return self.delta_kp1 if self.k % 2 == 1 else self.delta_k


def ric_profile(A, k):
    """Brute-force RICProfile for sparsity k: one ric_exact(A, order) call per
    distinct order, orders clamped to n (every vector is trivially n-sparse)."""
    A = as_matrix(A, "A")
    n = A.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    cache = {}

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


def _bisect_increasing(f, lo=1e-9, hi=1.0 - 1e-9, width=1e-12):
    """Root of a strictly increasing f on (lo, hi) by plain bisection."""
    flo = f(lo)
    if flo > 0:
        return lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def gamma_star():
    """Unique root in (0,1) of 5 g^3 + 5 g^2 + 3 g - 1 = 0 (about 0.2274).

    Largest admissible delta_{k+s(k)} for the exact-selection variants.
    """
    return _bisect_increasing(lambda g: 5 * g**3 + 5 * g**2 + 3 * g - 1.0)


def _growth(omega, g):
    return (2 * omega + 1) * g * math.sqrt((1 + g) / (1 - g)) + g


@lru_cache(maxsize=None)
def gamma_star_omega(omega):
    """Root of (2w+1) g sqrt((1+g)/(1-g)) + g = 1: delta_3k ceiling for the
    relaxed variant with w compressions (about 0.2118 at w=1)."""
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    return _bisect_increasing(lambda g: _growth(omega, g) - 1.0)


@lru_cache(maxsize=None)
def gamma_sharp_omega(omega):
    """delta_3k ceiling for the relaxed pursuit variant: root of the same
    growth function divided by sqrt(1-g^2) (about 0.2079 at w=1)."""
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    return _bisect_increasing(lambda g: _growth(omega, g) / math.sqrt(1 - g * g) - 1.0)


def xi_q(q):
    """Tight l2 cap on the per-block sup-norms of a capped-simplex vector split
    into q greedy k-blocks: 1 at q=1, 2/sqrt(q)+sqrt(q)/4 on [2,8), sqrt(2) beyond."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if q == 1:
        return 1.0
    if q < 8:
        return 2.0 / math.sqrt(q) + math.sqrt(q) / 4.0
    return math.sqrt(2.0)


def l2_bound_g(zeta1, zeta2, r):
    """l2 bound for a length-r vector with l1 norm <= zeta1 and sup norm <= zeta2.

    g(j) = zeta1/sqrt(j) + sqrt(j) zeta2/4 decreases up to t0 = floor(4 zeta1/zeta2)
    and increases after; the bound is g(r) below t0 and min(g(t0), g(t0+1)) beyond.
    """
    if not (zeta1 > zeta2 > 0):
        raise ValueError("need zeta1 > zeta2 > 0")
    if r < 2 or int(r) != r:
        raise ValueError("r must be an integer >= 2")
    t0 = math.floor(4.0 * zeta1 / zeta2)

    def g(j):
        return zeta1 / math.sqrt(j) + math.sqrt(j) * zeta2 / 4.0

    if r <= t0:
        return g(r)
    return min(g(t0), g(t0 + 1))


def geometric_envelope(a0, a1, b1, b2, b3, p):
    """Closed-form majorant of a sequence obeying a_{p+1} <= b1 a_p + b2 a_{p-1} + b3.

    Returns theta^(p-1) (a1 + (theta - b1) a0) + b3/(1 - theta) with
    theta = (b1 + sqrt(b1^2 + 4 b2))/2, valid for p >= 2 whenever b1 + b2 < 1.
    p may be an int or an array of ints.
    """
    if b1 < 0 or b2 < 0 or b3 < 0:
        raise ValueError("b1, b2, b3 must be nonnegative")
    if b1 + b2 >= 1:
        raise ParameterWindowError(f"b1+b2={b1 + b2} >= 1: no contraction")
    p_arr = np.asarray(p)
    if np.any(p_arr < 2):
        raise ValueError("envelope defined for p >= 2")
    theta = 0.5 * (b1 + math.sqrt(b1 * b1 + 4.0 * b2))
    out = theta ** (p_arr - 1) * (a1 + (theta - b1) * a0) + b3 / (1.0 - theta)
    return float(out) if np.isscalar(p) else out


# --- bound constants ---------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Every constant appearing in the error envelopes, for one configuration.

    The exact-selection variants fill (eta, b, theta, C2); the relaxed
    variants fill (t_k, z_k, sigma, xi_sigma, d0..d2, c1_sigma, c_sigma,
    b1..b3, theta1, theta2).  window_ok records whether the sufficient
    parameter window holds; contraction_ok is the exact theta < 1 predicate.
    """

    variant: str
    alpha: float
    beta: float
    ric: RICProfile
    s_k: int
    omega: int | None = None
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
    window_ok: bool = True
    contraction_ok: bool = True
    violations: tuple = ()


def _validated(alpha, beta):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")


def _hbot_window(eta, dks):
    """beta_max and interval(beta) -> (alpha_lo, alpha_hi) of the exact-selection
    variants, given eta and delta_(k+s(k))."""
    root5 = math.sqrt(5.0)

    def interval(beta):
        return ((1.0 + 2.0 * beta - 1.0 / eta) / (1.0 - root5 * dks),
                (1.0 + 1.0 / eta) / (1.0 + root5 * dks))

    return (1.0 + 1.0 / eta) / (1.0 + root5 * dks) - 1.0, interval


def _hbrot_window(d0, d1, d2, target):
    """beta_max and interval(beta) -> (alpha_lo, alpha_hi) of the relaxed variants;
    target is 1 for hbrot and z_k for hbrotp (endpoints shift by 1 - z_k)."""
    shift = 1.0 - target

    def interval(beta):
        return (((d0 + d2 + 2.0) * beta + d0 + shift) / (d0 - d1 + 1.0),
                (d0 + 2.0 - shift - (d2 - d0) * beta) / (d0 + d1 + 1.0))

    return (target - d1) / (1.0 + d1 + d2), interval


def hbot_constants(ric, alpha, beta, check=True):
    """Contraction constants for the exact-selection variants (with or without
    the pursuit re-fit; both share one envelope).

    With check=True a violated hypothesis raises ParameterWindowError naming
    the inequality.
    """
    _validated(alpha, beta)
    dk = ric.delta_k
    dks = ric.delta_k_sk
    violations = []

    gs = gamma_star()
    if not dks < gs:
        violations.append(f"delta_(k+s(k))={dks:.6g} >= gamma*={gs:.6g}")

    denom = 1.0 - 2.0 * dk - dks
    if denom <= 0:
        violations.append(f"1 - 2 delta_k - delta_(k+s(k)) = {denom:.6g} <= 0")
        if check:
            raise ParameterWindowError("; ".join(violations))
        return BoundConstants(variant="hbot", alpha=alpha, beta=beta, ric=ric,
                              s_k=s_of_k(ric.k), window_ok=False, contraction_ok=False,
                              violations=tuple(violations))

    eta = math.sqrt((1.0 + dk) / denom)
    root5 = math.sqrt(5.0)
    beta_max, interval = _hbot_window(eta, dks)
    if not beta < beta_max:
        violations.append(f"beta={beta:.6g} >= beta_max={beta_max:.6g}")
    if 1.0 - root5 * dks > 0.0:
        alpha_lo, alpha_hi = interval(beta)
        if not alpha_lo < alpha < alpha_hi:
            violations.append(f"alpha={alpha:.6g} outside ({alpha_lo:.6g}, {alpha_hi:.6g})")
    else:
        violations.append(f"1 - sqrt(5) delta_(k+s(k)) = {1.0 - root5 * dks:.6g} <= 0")

    b = eta * (abs(1.0 + beta - alpha) + root5 * alpha * dks)
    theta = 0.5 * (b + math.sqrt(b * b + 4.0 * eta * beta))
    C2 = (2.0 + (1.0 + dk) * alpha) / ((1.0 - theta) * math.sqrt(denom)) if theta < 1 else None

    if check and violations:
        raise ParameterWindowError("; ".join(violations))
    return BoundConstants(
        variant="hbot", alpha=alpha, beta=beta, ric=ric, s_k=s_of_k(ric.k),
        eta=eta, b=b, theta=theta, C2=C2,
        window_ok=not violations, contraction_ok=b + eta * beta < 1.0,
        violations=tuple(violations),
    )


def _ratio_or_limit(num, den, limit):
    return num / den if den > 0.0 else limit


def hbrot_constants(ric, alpha, beta, omega, n, variant="hbrot", check=True):
    """Contraction constants for the relaxed variants with omega compressions.

    variant selects which hypothesis set is checked: "hbrot" uses the plain
    window and theta1; "hbrotp" uses the pursuit window and theta2.  The
    ratios appearing in d2 and b3 are 0/0 at zero isometry constants and are
    defined there by their equal-constant limits (2w+1)/(2w-1) and 2/(2w-1).
    """
    _validated(alpha, beta)
    if variant not in ("hbrot", "hbrotp"):
        raise ValueError(f"variant must be 'hbrot' or 'hbrotp', got {variant!r}")
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    k = ric.k
    violations = []
    if not n > 3 * k:
        violations.append(f"n={n} <= 3k={3 * k}")
        if check:
            raise ParameterWindowError("; ".join(violations))
    # n <= 3k degenerates the block count; sigma=2 applies the worst-case cap
    # xi_2 = (5/4) sqrt(2), the maximum of xi over all block counts.
    sigma = math.ceil((n - 2 * k) / k) if n > 3 * k else 2
    xs = xi_q(sigma)

    dk, d2k, d3k = ric.delta_k, ric.delta_2k, ric.delta_3k
    bound = gamma_star_omega(omega) if variant == "hbrot" else gamma_sharp_omega(omega)
    if not d3k < bound:
        name = "gamma*(omega)" if variant == "hbrot" else "gamma#(omega)"
        violations.append(f"delta_3k={d3k:.6g} >= {name}={bound:.6g}")
    if d2k >= 1.0:
        violations.append(f"delta_2k={d2k:.6g} >= 1")
        if check:
            raise ParameterWindowError("; ".join(violations))
        return BoundConstants(variant=variant, alpha=alpha, beta=beta, ric=ric,
                              s_k=s_of_k(k), omega=omega, sigma=sigma, xi_sigma=xs,
                              window_ok=False, contraction_ok=False,
                              violations=tuple(violations))

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

    target = 1.0 if variant == "hbrot" else z_k
    beta_max, interval = _hbrot_window(d0, d1, d2, target)
    if not beta < beta_max:
        violations.append(f"beta={beta:.6g} >= beta_max={beta_max:.6g}")
    if d0 - d1 + 1.0 > 0.0:
        alpha_lo, alpha_hi = interval(beta)
        if not alpha_lo < alpha < alpha_hi:
            violations.append(f"alpha={alpha:.6g} outside ({alpha_lo:.6g}, {alpha_hi:.6g})")
    else:
        violations.append(f"d0 - d1 + 1 = {d0 - d1 + 1.0:.6g} <= 0: no admissible step")

    if check and violations:
        raise ParameterWindowError("; ".join(violations))
    return BoundConstants(
        variant=variant, alpha=alpha, beta=beta, ric=ric, s_k=s_of_k(k), omega=omega,
        t_k=t_k, z_k=z_k, sigma=sigma, xi_sigma=xs,
        d0=d0, d1=d1, d2=d2, c1_sigma=c1_sigma, c_sigma=c_sigma,
        b1=b1, b2=b2, b3=b3, theta1=theta1, theta2=theta2,
        window_ok=not violations,
        contraction_ok=b1 + b2 < target,
        violations=tuple(violations),
    )


def parameter_window(ric, omega=1, variant="hbot", n=None):
    """Admissible momentum range and, per beta, the open step-size interval.

    Returns (beta_max, interval) where interval(beta) -> (alpha_lo, alpha_hi),
    the window hbot_constants/hbrot_constants check.  For beta < beta_max the
    interval is nonempty and contains 1 + beta.  The relaxed variants need the
    ambient dimension n (for the block count).
    """
    if variant in ("hbot", "hbotp"):
        dks = ric.delta_k_sk
        gs = gamma_star()
        if not dks < gs:
            raise ParameterWindowError(f"delta_(k+s(k))={dks:.6g} >= gamma*={gs:.6g}")
        eta = hbot_constants(ric, alpha=1.0, beta=0.0, check=False).eta
        beta_max, alpha_interval = _hbot_window(eta, dks)
    elif variant in ("hbrot", "hbrotp"):
        if n is None:
            raise ValueError("the relaxed variants need the ambient dimension n")
        bc = hbrot_constants(ric, alpha=1.0, beta=0.0, omega=omega, n=n,
                             variant=variant, check=False)
        bound = gamma_star_omega(omega) if variant == "hbrot" else gamma_sharp_omega(omega)
        if not ric.delta_3k < bound:
            raise ParameterWindowError(f"delta_3k={ric.delta_3k:.6g} >= {bound:.6g}")
        if not n > 3 * ric.k:
            raise ParameterWindowError(f"n={n} <= 3k={3 * ric.k}")
        target = 1.0 if variant == "hbrot" else bc.z_k
        beta_max, alpha_interval = _hbrot_window(bc.d0, bc.d1, bc.d2, target)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    def interval(beta):
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        return alpha_interval(beta)

    return beta_max, interval


def convergence_envelope(bc, a0, a1, noise_norm, p):
    """Evaluate the per-iteration error envelope at step p (int or array).

    a0, a1 are the starting error norms; noise_norm is ||nu'|| (the noise plus
    the off-support tail image).  Dispatches on bc.variant.
    """
    p_arr = np.asarray(p)
    if np.any(p_arr < 1):
        raise ValueError("envelope defined for p >= 1")
    if bc.variant == "hbot":
        th, b = bc.theta, bc.b
        if th is None or th >= 1:
            raise ParameterWindowError("no contraction: theta >= 1")
        out = th ** (p_arr - 1) * (a1 + (th - b) * a0) + bc.C2 * noise_norm
    elif bc.variant == "hbrot":
        th = bc.theta1
        if th >= 1:
            raise ParameterWindowError("no contraction: theta1 >= 1")
        out = th ** (p_arr - 1) * (a1 + (th - bc.b1) * a0) + bc.b3 * noise_norm / (1.0 - th)
    elif bc.variant == "hbrotp":
        th = bc.theta2
        if th >= 1:
            raise ParameterWindowError("no contraction: theta2 >= 1")
        tail = (bc.b3 / bc.z_k
                + math.sqrt(1.0 + bc.ric.delta_k) / (1.0 - bc.ric.delta_2k))
        out = (th ** (p_arr - 1) * (a1 + (th - bc.b1 / bc.z_k) * a0)
               + tail * noise_norm / (1.0 - th))
    else:
        raise ValueError(f"no envelope for variant {bc.variant!r}")
    return float(out) if np.isscalar(p) else out
