"""Oracle-backed invariant battery behind the `selftest` command.

Each check pits a fast implementation against an independent slow oracle
(bisection, enumeration, random sampling, or a closed-form identity) and
returns a CheckResult instead of asserting, so the battery can run to
completion and report everything at once.  A check passes only where its
measured value is shown to be within tolerance: each comparison is written so
that NaN fails it, and worst cases accumulate with np.maximum, which keeps a
NaN that max() would drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bounds import (gamma_sharp_omega, gamma_star, gamma_star_omega,
                     geometric_envelope, l2_bound_g, ric_profile, xi_q)
from .core import hard_threshold, top_k_indices
from .subproblems import (least_squares_on_support, project_capped_simplex,
                          solve_binary_ot, solve_relaxed_ot)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def bisection_projection(v, k, c):
    """Reference weighted projection clip(v - lam c, 0, 1) onto the capped
    simplex: bisection on lam, from min((v - 1) / c), where the mass is n, to
    max(v / c), where it is 0, with no step cap.  The midpoint 0.5 lo + 0.5 hi
    lies in the bracket and does not overflow near float max, so the loop
    ends at adjacent floats, where a step first leaves the bracket unchanged
    (about 56 steps on typical inputs, about 1,100 from a bracket 1e308 wide).
    """
    lo, hi = float(((v - 1.0) / c).min()), float((v / c).max())
    # minimum(maximum()) is clip without np.clip's Python wrapper, bit for bit
    while True:
        mid = 0.5 * lo + 0.5 * hi
        w = np.minimum(np.maximum(v - mid * c, 0.0), 1.0)
        if w.sum() >= k:
            if mid == lo:
                return w
            lo = mid
        else:
            if mid == hi:
                return w
            hi = mid


def enumeration_binary_ot(A, y, v, k):
    """Reference exact selection: each k-subset S, in lexicographic order,
    scored in its own iteration as ||y - B[:, S].sum(axis=1)||^2 with B = A*v;
    the first smallest objective wins.  Returns (w, objective)."""
    B = A * v
    n = B.shape[1]
    best_obj = math.inf
    best_support = tuple(range(k))
    with np.errstate(over="ignore"):
        for S in combinations(range(n), k):
            r = y - B[:, S].sum(axis=1)
            obj = float(r @ r)
            if obj < best_obj:
                best_obj = obj
                best_support = S
    w = np.zeros(n)
    w[list(best_support)] = 1.0
    return w, best_obj


def check_root_constants():
    """The three contraction ceilings solve their defining equations."""
    gs = gamma_star()
    res1 = abs(5 * gs**3 + 5 * gs**2 + 3 * gs - 1.0)
    g1 = gamma_star_omega(1)
    res2 = abs(3 * g1 * math.sqrt((1 + g1) / (1 - g1)) + g1 - 1.0)
    gsh = gamma_sharp_omega(1)
    res3 = abs((3 * gsh * math.sqrt((1 + gsh) / (1 - gsh)) + gsh) / math.sqrt(1 - gsh**2) - 1.0)
    ok = (res1 < 1e-10 and res2 < 1e-10 and res3 < 1e-10
          and abs(gs - 0.2274) < 5e-4 and abs(g1 - 0.2118) < 5e-4
          and abs(gsh - 0.2079) < 5e-4)
    return CheckResult("root_constants", ok,
                       f"gamma*={gs:.6f} gamma*(1)={g1:.6f} gamma#(1)={gsh:.6f}")


def check_block_norm_caps():
    """xi values: endpoints and strict decrease on the middle branch."""
    vals = [xi_q(q) for q in range(1, 12)]
    ok = (abs(vals[0] - 1.0) < 1e-12
          and abs(vals[1] - 1.25 * math.sqrt(2)) < 1e-12
          and all(vals[q - 2] > vals[q - 1] for q in range(3, 9))
          and all(abs(v - math.sqrt(2)) < 1e-12 for v in vals[7:]))
    return CheckResult("block_norm_caps", ok, f"xi_2={vals[1]:.6f}")


def check_hard_threshold_best(rng):
    """H_k(v) is a best k-term approximation (enumerate all supports, n <= 10)."""
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        v = rng.normal(0, 1, n)
        ours = float(np.linalg.norm(v - hard_threshold(v, k)))
        best = min(float(np.linalg.norm(v[list(set(range(n)) - set(S))]))
                   for S in combinations(range(n), k))
        worst = np.maximum(worst, ours - best)
    return CheckResult("hard_threshold_best_k_term", bool(worst <= 1e-12),
                       f"worst excess {worst:.2e}")


def check_projection(rng):
    """The weighted projection, weights 1/2, 1 and 2, matches the bisection
    oracle from no starting shift and from a random one; the mass is exact;
    the returned shift rebuilds w bit for bit as a clip to [0, 1]."""
    worst = 0.0
    worst_mass = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        v = rng.normal(0, float(rng.uniform(0.1, 10.0)), n)
        # the weights and the random start are taken from n and v, not drawn,
        # so that the checks after this one draw the same inputs
        c = 2.0 ** (np.arange(n) % 3 - 1)
        ref = bisection_projection(v, k, c)
        for shift in (None, float(v[0]) - 0.5):
            w, lam = project_capped_simplex(v, k, c, shift=shift)
            if np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() != w.tobytes():
                return CheckResult("capped_simplex_projection", False,
                                   f"shift {lam!r} does not rebuild w")
            worst = np.maximum(worst, np.abs(w - ref).max())
            worst_mass = np.maximum(worst_mass, abs(float(w.sum()) - k))
    ok = bool(worst <= 1e-10 and worst_mass <= 1e-12)
    return CheckResult("capped_simplex_projection", ok,
                       f"max dev {worst:.2e}, mass err {worst_mass:.2e}")


def check_relaxation_dominance(rng):
    """Relaxed objective never exceeds the exact binary objective."""
    worst = -math.inf
    for _ in range(25):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(3, n + 1))
        k = int(rng.integers(1, min(4, n) + 1))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        y = rng.standard_normal(m)
        v = rng.standard_normal(n)
        w, _ = solve_relaxed_ot(A, y, v, k)
        relaxed = float(np.sum((y - A @ (v * w)) ** 2))
        _, exact = solve_binary_ot(A, y, v, k)
        worst = np.maximum(worst, relaxed - exact)
    return CheckResult("relaxation_dominance", bool(worst <= 1e-9), f"worst gap {worst:.2e}")


def check_exact_selection(rng):
    """Batched exact selection returns the enumeration oracle's support and
    objective bit for bit; columns i and j of A*v are equal, which forces
    exact ties, and y lies near them."""
    differ = 0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, n + 1))
        k = int(rng.integers(1, min(4, n) + 1))
        A = rng.standard_normal((m, n))
        v = rng.standard_normal(n)
        i, j = rng.choice(n, size=2, replace=False)
        A[:, j] = A[:, i]
        v[j] = v[i]
        y = v[i] * A[:, i] + 0.5 * rng.standard_normal(m)  # near the tied pair
        w, obj = solve_binary_ot(A, y, v, k)
        w_ref, obj_ref = enumeration_binary_ot(A, y, v, k)
        same_bits = np.float64(obj).tobytes() == np.float64(obj_ref).tobytes()
        differ += not (np.array_equal(w, w_ref) and same_bits)
    return CheckResult("exact_selection", differ == 0, f"{differ} of 20 differ")


def check_restricted_ls(rng):
    """Optimality certificate of the support-restricted least squares."""
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 12))
        n = int(rng.integers(m, 2 * m))
        s = int(rng.integers(1, min(4, m) + 1))
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        S = np.sort(rng.choice(n, size=s, replace=False))
        x = least_squares_on_support(A, y, S)
        cert = float(np.abs(A[:, S].T @ (y - A @ x)).max())
        scale = float(np.linalg.norm(A) * np.linalg.norm(y))
        worst = np.maximum(worst, cert / max(scale, 1e-30))
    return CheckResult("restricted_ls_orthogonality", bool(worst <= 1e-10),
                       f"worst normalised certificate {worst:.2e}")


def check_sparse_lower_isometry(rng):
    """||A z||^2 >= (1 - 2 delta_k - delta_{k+s(k)}) ||z||^2 for 2k-sparse z,
    with exactly computed constants."""
    for _ in range(3):
        m, n = 6, 10
        k = int(rng.integers(1, 3))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        prof = ric_profile(A, k)
        floor = 1.0 - 2.0 * prof.delta_k - prof.delta_k_sk
        for _ in range(20):
            S = rng.choice(n, size=2 * k, replace=False)
            z = np.zeros(n)
            z[S] = rng.standard_normal(2 * k)
            lhs = float(np.sum((A @ z) ** 2))
            if not lhs >= floor * float(np.sum(z**2)) - 1e-10:
                return CheckResult("sparse_lower_isometry", False,
                                   f"violated: {lhs:.6f} < {floor:.6f} * ||z||^2")
    return CheckResult("sparse_lower_isometry", True)


def check_masked_gram_bound(rng):
    """||[(I - A^T A)(h - z)] * what||_2 <= sqrt(5) delta_{k+s(k)} ||h - z||_2."""
    for _ in range(3):
        m, n = 6, 10
        k = int(rng.integers(1, 3))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        prof = ric_profile(A, k)
        cap = math.sqrt(5.0) * prof.delta_k_sk
        Gm = np.eye(n) - A.T @ A
        for _ in range(20):
            Sh = rng.choice(n, size=k, replace=False)
            Sz = rng.choice(n, size=k, replace=False)
            h = np.zeros(n)
            h[Sh] = rng.standard_normal(k)
            z = np.zeros(n)
            z[Sz] = rng.standard_normal(k)
            what = np.zeros(n)
            what[Sh] = 1.0  # binary mask covering supp(h)
            lhs = float(np.linalg.norm((Gm @ (h - z)) * what))
            if not lhs <= cap * float(np.linalg.norm(h - z)) + 1e-10:
                return CheckResult("masked_gram_bound", False,
                                   f"violated: {lhs:.6f} > {cap:.6f} * ||h-z||")
    return CheckResult("masked_gram_bound", True)


def check_block_mass(rng):
    """Greedy k-block decomposition of a capped-simplex vector: the block
    sup-norms sum to less than 2."""
    for _ in range(60):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, n + 1))
        w, _ = project_capped_simplex(rng.normal(0, 2, n), k, np.ones(n))
        size = int(rng.integers(1, n + 1))
        lam = list(rng.choice(n, size=size, replace=False))
        total = 0.0
        rest = sorted(lam, key=lambda i: -abs(w[i]))
        while rest:
            block, rest = rest[:k], rest[k:]
            total += max(abs(w[i]) for i in block)
        if not total < 2.0:
            return CheckResult("capped_simplex_block_mass", False, f"sum={total:.6f}")
    return CheckResult("capped_simplex_block_mass", True)


def check_l2_bound(rng):
    """The l1/sup-norm l2 bound dominates every sampled vector."""
    for _ in range(60):
        r = int(rng.integers(2, 30))
        zeta2 = float(rng.uniform(0.1, 2.0))
        zeta1 = zeta2 * float(rng.uniform(1.01, 8.0))
        h = rng.normal(0, 1, r)
        h *= min(zeta1 / np.abs(h).sum(), zeta2 / np.abs(h).max())
        bound = l2_bound_g(zeta1, zeta2, r)
        if not float(np.linalg.norm(h)) <= bound + 1e-12:
            return CheckResult("l2_norm_bound", False,
                               f"||h||={np.linalg.norm(h):.6f} > {bound:.6f}")
    return CheckResult("l2_norm_bound", True)


def check_envelope_recurrence(rng):
    """Sequences driven at equality by a_{p+1} = b1 a_p + b2 a_{p-1} + b3 stay
    below the closed-form envelope."""
    for _ in range(40):
        b1 = float(rng.uniform(0, 0.9))
        b2 = float(rng.uniform(0, 0.99 - b1))
        b3 = float(rng.uniform(0, 2.0))
        a = [float(rng.uniform(0, 5)), float(rng.uniform(0, 5))]
        for p in range(1, 50):
            a.append(b1 * a[p] + b2 * a[p - 1] + b3)
        env = geometric_envelope(a[0], a[1], b1, b2, b3, np.arange(2, 51))
        if not np.all(np.asarray(a[2:]) <= env + 1e-9):
            return CheckResult("geometric_envelope_dominance", False)
    return CheckResult("geometric_envelope_dominance", True)


def check_top_k_determinism():
    """Tie-breaking keeps the smallest indices, deterministically."""
    ok = (list(top_k_indices(np.array([2.0, 2.0, 2.0]), 2)) == [0, 1]
          and list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]
          and list(top_k_indices(np.array([3.0, -5.0, 1.0]), 2)) == [0, 1])
    return CheckResult("top_k_tie_breaking", ok)


def run_all(seed):
    rng = np.random.default_rng(seed)
    return [
        check_root_constants(),
        check_block_norm_caps(),
        check_top_k_determinism(),
        check_hard_threshold_best(rng),
        check_projection(rng),
        check_relaxation_dominance(rng),
        check_restricted_ls(rng),
        check_sparse_lower_isometry(rng),
        check_masked_gram_bound(rng),
        check_block_mass(rng),
        check_l2_bound(rng),
        check_envelope_recurrence(rng),
        check_exact_selection(rng),
    ]
