import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.bounds
from otkit.bench import equiangular_frame
from otkit.bounds import (RICProfile, convergence_envelope, gamma_sharp_omega,
                          gamma_star, gamma_star_omega, geometric_envelope,
                          hbot_constants, hbrot_constants, l2_bound_g,
                          parameter_window, ric_exact, ric_profile, s_of_k,
                          xi_q)
from otkit.errors import EnumerationGuardError, ParameterWindowError


class TestRoots:
    def test_reference_values(self):
        assert abs(gamma_star() - 0.2274) < 5e-4
        assert abs(gamma_star_omega(1) - 0.2118) < 5e-4
        assert abs(gamma_sharp_omega(1) - 0.2079) < 5e-4

    def test_cubic_residual(self):
        g = gamma_star()
        assert abs(5 * g**3 + 5 * g**2 + 3 * g - 1) < 1e-10

    def test_cubic_brackets(self):
        f = lambda g: 5 * g**3 + 5 * g**2 + 3 * g - 1
        assert f(0.2) < 0 < f(0.25)

    def test_growth_equation_residuals(self):
        for omega in (1, 2, 3):
            g = gamma_star_omega(omega)
            G = (2 * omega + 1) * g * math.sqrt((1 + g) / (1 - g)) + g
            assert abs(G - 1) < 1e-10
            gs = gamma_sharp_omega(omega)
            Gs = ((2 * omega + 1) * gs * math.sqrt((1 + gs) / (1 - gs)) + gs)
            assert abs(Gs / math.sqrt(1 - gs * gs) - 1) < 1e-10

    def test_pursuit_root_below_plain_root(self):
        for omega in (1, 2, 3):
            assert gamma_sharp_omega(omega) < gamma_star_omega(omega)

    @pytest.mark.parametrize("root", [gamma_star_omega, gamma_sharp_omega])
    def test_omega_must_be_an_integer(self, root):
        value = root(1)
        for omega in (1.0, 1.5, 2.5, True, 0):
            with pytest.raises(ValueError, match="omega must be a positive integer"):
                root(omega)
        assert root(np.int64(1)) == value

    def test_root_below_the_bracket_returns_its_lower_end(self):
        # at omega >= 5e8 the growth function is already >= 1 at g = 1e-9
        assert gamma_star_omega(10**9) == 1e-09


class TestSofK:
    @pytest.mark.parametrize("k,expected", [(3, 1), (4, 0), (1, 1), (2, 0), (7, 1)])
    def test_parity(self, k, expected):
        assert s_of_k(k) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            s_of_k(0)

    def test_rejects_non_integers(self):
        for k in (2.5, 3.0, True, 0):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                s_of_k(k)
        assert s_of_k(np.int64(3)) == 1


class TestXi:
    def test_values(self):
        assert xi_q(1) == 1.0
        assert abs(xi_q(2) - 1.25 * math.sqrt(2)) < 1e-12
        assert abs(xi_q(8) - math.sqrt(2)) < 1e-12
        assert abs(xi_q(100) - math.sqrt(2)) < 1e-12

    def test_strictly_decreasing_on_middle_branch(self):
        vals = [xi_q(q) for q in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            xi_q(0)

    def test_rejects_non_integers(self):
        for q in (2.5, 2.0, True, 0):
            with pytest.raises(ValueError, match="q must be a positive integer"):
                xi_q(q)
        assert xi_q(np.int64(2)) == xi_q(2)


class TestL2Bound:
    def test_flat_tail_example(self):
        for r in (9, 12, 40):
            assert abs(l2_bound_g(2.0, 1.0, r) - math.sqrt(2)) < 1e-12

    def test_branch_boundary(self):
        zeta1, zeta2 = 3.0, 1.0
        t0 = math.floor(4 * zeta1 / zeta2)
        g = lambda j: zeta1 / math.sqrt(j) + math.sqrt(j) * zeta2 / 4
        assert l2_bound_g(zeta1, zeta2, t0) == g(t0)
        assert l2_bound_g(zeta1, zeta2, t0 + 5) == min(g(t0), g(t0 + 1))
        # 4 zeta1 / zeta2 overflows to inf: every r lies below the turning point
        assert l2_bound_g(1e300, 1e-10, 5) == 1e300 / math.sqrt(5) + math.sqrt(5) * 1e-10 / 4

    def test_dominates_samples(self, rng):
        for _ in range(200):
            r = int(rng.integers(2, 30))
            zeta2 = float(rng.uniform(0.1, 2.0))
            zeta1 = zeta2 * float(rng.uniform(1.01, 9.0))
            h = rng.normal(0, 1, r)
            h *= min(zeta1 / np.abs(h).sum(), zeta2 / np.abs(h).max())
            assert np.linalg.norm(h) <= l2_bound_g(zeta1, zeta2, r) + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            l2_bound_g(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            l2_bound_g(2.0, 1.0, 1)
        for r in (2.0, 12.0, math.inf, True, 2.5, 1):
            with pytest.raises(ValueError, match="r must be an integer"):
                l2_bound_g(2.0, 1.0, r)
        for zeta1, zeta2 in ((math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="zeta1"):
                l2_bound_g(zeta1, zeta2, 5)
        assert l2_bound_g(2.0, 1.0, np.int64(12)) == l2_bound_g(2.0, 1.0, 12)


class TestGeometricEnvelope:
    def test_pure_offset(self):
        for p in (2, 5, 50):
            assert geometric_envelope(3.0, 1.0, 0.0, 0.0, 0.7, p) == pytest.approx(0.7)

    def test_degenerate_quadratic(self):
        # b2 = 0 collapses the rate to b1
        a0, a1, b1 = 2.0, 1.5, 0.6
        val = geometric_envelope(a0, a1, b1, 0.0, 0.0, 4)
        assert val == pytest.approx(b1 ** 3 * (a1 + 0.0 * a0))

    def test_recurrence_dominance(self, rng):
        for _ in range(40):
            b1 = float(rng.uniform(0, 0.9))
            b2 = float(rng.uniform(0, 0.99 - b1))
            b3 = float(rng.uniform(0, 2))
            a = [float(rng.uniform(0, 5)), float(rng.uniform(0, 5))]
            for p in range(1, 50):
                a.append(b1 * a[p] + b2 * a[p - 1] + b3)
            env = geometric_envelope(a[0], a[1], b1, b2, b3, np.arange(2, 51))
            assert np.all(np.asarray(a[2:]) <= env + 1e-9)

    def test_no_contraction_rejected(self):
        with pytest.raises(ParameterWindowError):
            geometric_envelope(1.0, 1.0, 0.6, 0.5, 0.0, 3)

    def test_defined_from_step_one(self):
        for a0, a1, b1, b2, b3 in ((2.0, 1.5, 0.6, 0.2, 0.1), (0.0, 3.0, 0.0, 0.0, 0.0),
                                   (5.0, 0.5, 0.3, 0.6, 2.0)):
            assert geometric_envelope(a0, a1, b1, b2, b3, 1) >= a1
        assert np.all(geometric_envelope(2.0, 1.5, 0.6, 0.2, 0.1, np.arange(1, 4)) >= 0)
        with pytest.raises(ValueError, match="p >= 1"):
            geometric_envelope(2.0, 1.5, 0.6, 0.2, 0.1, 0)
        with pytest.raises(ValueError, match="p >= 1"):
            geometric_envelope(2.0, 1.5, 0.6, 0.2, 0.1, np.arange(0, 3))

    @pytest.mark.parametrize("b1, b2, b3", [
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
        (0.0, 0.0, math.inf), (-0.1, 0.0, 0.0), (0.0, -0.1, 0.0), (0.0, 0.0, -0.1),
        (math.inf, 0.0, 0.0), (0.0, math.inf, 0.0),
    ])
    def test_coefficients_must_be_finite_and_nonnegative(self, b1, b2, b3):
        with pytest.raises(ValueError, match="b1, b2, b3 must be finite and nonnegative"):
            geometric_envelope(0.0, 1.0, b1, b2, b3, 5)

    @pytest.mark.parametrize("a0, a1", [
        (math.nan, 1.0), (-5.0, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, -0.1),
        (math.inf, 1.0),
    ])
    def test_error_norms_must_be_finite_and_nonnegative(self, a0, a1):
        with pytest.raises(ValueError, match="a0, a1 must be finite and nonnegative"):
            geometric_envelope(a0, a1, 0.5, 0.2, 0.1, 3)

    @pytest.mark.parametrize("p", [2.5, 0.5, True, 3.0, np.array([1.0, 2.0]),
                                   np.array([True, True])],
                             ids=["fraction", "fraction-below-one", "bool", "float",
                                  "float-array", "bool-array"])
    def test_steps_must_be_integers(self, p):
        with pytest.raises(ValueError, match="p must be an integer or an array of integers"):
            geometric_envelope(1.0, 1.0, 0.5, 0.2, 0.1, p)
        assert (geometric_envelope(1.0, 1.0, 0.5, 0.2, 0.1, np.int64(3))
                == geometric_envelope(1.0, 1.0, 0.5, 0.2, 0.1, 3))


def ric_oracle(A, order):
    """Order-t isometry constant with one eigvalsh call per sorted support."""
    G = A.T @ A
    delta = 0.0
    for support in combinations(range(A.shape[1]), order):
        ev = np.linalg.eigvalsh(G[np.ix_(support, support)])
        delta = max(delta, ev[-1] - 1.0, 1.0 - ev[0])
    return float(delta)


class TestRicExact:
    def test_orthonormal_columns_zero(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(0, 1, (8, 5)))
        for order in (1, 2, 3):
            assert ric_exact(Q, order) <= 1e-12

    def test_normalized_columns_order_one(self, rng):
        A = rng.normal(0, 1, (6, 9))
        A /= np.linalg.norm(A, axis=0)
        assert ric_exact(A, 1) <= 1e-12

    def test_order_two_matches_pairwise_oracle(self, rng):
        A = rng.normal(0, 1, (8, 12))
        A /= np.linalg.norm(A, axis=0)
        G = A.T @ A
        expected = 0.0
        for i, j in combinations(range(12), 2):
            ev = np.linalg.eigvalsh(G[np.ix_([i, j], [i, j])])
            expected = max(expected, ev[-1] - 1.0, 1.0 - ev[0])
        assert abs(ric_exact(A, 2) - expected) < 1e-10

    def test_monotone_in_order(self, rng):
        A = rng.normal(0, 1, (6, 9))
        A /= np.linalg.norm(A, axis=0)
        deltas = [ric_exact(A, t) for t in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_guard_reports_count(self, rng):
        A = rng.normal(0, 1, (10, 40))
        with pytest.raises(EnumerationGuardError, match=str(math.comb(40, 12))):
            ric_exact(A, 12)

    def test_equiangular_frame_closed_form(self):
        n = 12
        A = equiangular_frame(n)
        for t in (2, 3, 4):
            assert abs(ric_exact(A, t) - (t - 1) / (n - 1)) < 1e-10

    @pytest.mark.parametrize("n, orders", [(14, range(2, 8)), (20, [9])])
    def test_equiangular_closed_form_at_certified_orders(self, n, orders):
        A = equiangular_frame(n, np.random.default_rng(n))
        for t in orders:
            assert abs(ric_exact(A, t) - (t - 1) / (n - 1)) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 10),
           st.sampled_from(["unit", "scaled", "duplicate", "equiangular"]))
    @settings(deadline=None, max_examples=100)
    def test_within_slack_below_the_oracle(self, seed, m, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "equiangular":
            A = equiangular_frame(max(n, 2), rng)
        else:
            A = rng.standard_normal((m, n))
            if kind == "scaled":
                A *= rng.uniform(0.2, 3.0, n)
            else:
                A /= np.linalg.norm(A, axis=0)
            if kind == "duplicate" and n > 1:
                A[:, n - 1] = A[:, 0]
        eps = np.finfo(float).eps
        for t in range(1, A.shape[1] + 1):
            oracle = ric_oracle(A, t)
            delta = ric_exact(A, t)
            assert oracle - 8 * t * eps * (1 + oracle) <= delta <= oracle

    @pytest.mark.parametrize("order", [99, 100])
    def test_orders_whose_binomials_exceed_int64(self, order):
        # enumerating order 99 of 100 columns passes through C(100, 50) > 2^63
        A = np.random.default_rng(7).standard_normal((5, 100))
        eps = np.finfo(float).eps
        oracle = ric_oracle(A, order)
        delta = ric_exact(A, order)
        assert oracle - 8 * order * eps * (1 + oracle) <= delta <= oracle

    def test_only_the_seed_reaches_eigvalsh_on_an_equiangular_frame(self, monkeypatch):
        # every support ties, and its row sums equal its deviation: the greedy
        # seed's t batches of n, n - 1, ..., n - t + 1 supports are all solved
        A = equiangular_frame(12, np.random.default_rng(4))
        eigvalsh = np.linalg.eigvalsh
        solved = []

        def spy(a):
            solved.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for t in range(1, 7):
            solved.clear()
            assert abs(ric_exact(A, t) - (t - 1) / 11) <= 1e-12
            assert solved == [(12 - s, s + 1, s + 1) for s in range(t)]

    def test_overflowing_gram_is_refused(self):
        A = np.random.default_rng(0).standard_normal((6, 9)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ric_exact(A, 2)


class TestRicProfile:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RICProfile(k=2, delta_k=0.3, delta_2k=0.2, delta_3k=0.4, delta_kp1=0.35)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError, match="isometry constants must be finite and nonnegative"):
            RICProfile(k=2, delta_k=-0.1, delta_2k=0.2, delta_3k=0.3, delta_kp1=0.15)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["delta_k", "delta_kp1", "delta_2k", "delta_3k"])
    def test_non_finite_constant_rejected(self, field, value):
        deltas = dict(delta_k=0.1, delta_kp1=0.15, delta_2k=0.2, delta_3k=0.3)
        with pytest.raises(ValueError) as info:
            RICProfile(k=2, **{**deltas, field: value})
        assert str(info.value) == "isometry constants must be finite and nonnegative"

    def test_k_must_be_an_integer(self):
        for k in (2.5, 2.0, True, 0):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                RICProfile(k=k, delta_k=0.1, delta_2k=0.2, delta_3k=0.3, delta_kp1=0.15)
        assert RICProfile(k=np.int64(3), delta_k=0.1, delta_2k=0.2, delta_3k=0.3,
                          delta_kp1=0.15).delta_k_sk == 0.15

    def test_delta_k_sk_parity(self):
        odd = RICProfile(k=1, delta_k=0.1, delta_2k=0.2, delta_3k=0.3, delta_kp1=0.2)
        assert odd.delta_k_sk == 0.2
        even = RICProfile(k=2, delta_k=0.1, delta_2k=0.2, delta_3k=0.3, delta_kp1=0.15)
        assert even.delta_k_sk == 0.1

    def test_profile_from_matrix(self, rng):
        A = equiangular_frame(10)
        prof = ric_profile(A, 1)
        assert abs(prof.delta_k) < 1e-12
        assert abs(prof.delta_2k - 1 / 9) < 1e-10
        assert abs(prof.delta_3k - 2 / 9) < 1e-10
        assert abs(prof.delta_kp1 - 1 / 9) < 1e-10

    def test_one_module_lookup_per_order(self, monkeypatch):
        # instrumentation wraps bounds.ric_exact and reads (A, order) from the
        # positional arguments: every distinct order must reach it that way
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return ric_exact(*args, **kwargs)

        monkeypatch.setattr(otkit.bounds, "ric_exact", counting)
        # start without constants memoised by an earlier call on the same frame
        monkeypatch.setattr(otkit.bounds, "_ric_memo", (None, {}))
        ric_profile(equiangular_frame(10), 2)
        assert calls == [((order,), {}) for order in (2, 4, 6, 3)]

    def test_orders_memoised_for_the_same_matrix(self, monkeypatch):
        orders = []

        def counting(A, order):
            orders.append(order)
            return ric_exact(A, order)

        monkeypatch.setattr(otkit.bounds, "ric_exact", counting)
        monkeypatch.setattr(otkit.bounds, "_ric_memo", (None, {}))
        A = equiangular_frame(10)
        profiles = [ric_profile(A, k) for k in (1, 2, 3)]
        # k=1 needs orders 1, 2, 3; k=2 adds 4, 6; k=3 adds 9
        assert orders == [1, 2, 3, 4, 6, 9]
        assert profiles[2].delta_3k == pytest.approx(8 / 9, abs=1e-10)

        # an equal copy is the same matrix; an in-place edit is not
        assert ric_profile(A.copy(), 2) == profiles[1]
        assert orders == [1, 2, 3, 4, 6, 9]
        A[:, 0] *= 2.0
        again = ric_profile(A, 1)
        assert orders[6:] == [1, 2, 3]
        assert again.delta_k == pytest.approx(3.0)  # ||2 a_0||^2 - 1
        assert again.delta_2k == ric_exact(A, 2)

    def test_non_integral_counts_rejected(self):
        A = equiangular_frame(6)
        for count in (2.0, 2.5, True, 0, 7):
            with pytest.raises(ValueError, match=f"k={count} must be an integer"):
                ric_profile(A, count)
            with pytest.raises(ValueError, match=f"order={count} must be an integer"):
                ric_exact(A, count)
        assert ric_exact(A, np.int64(2)) == pytest.approx(1 / 5)


def zero_ric(k):
    return RICProfile(k=k, delta_k=0.0, delta_2k=0.0, delta_3k=0.0, delta_kp1=0.0)


@pytest.mark.parametrize("alpha, beta, message", [
    (math.nan, 0.0, "alpha must be positive and finite"),
    (math.inf, 0.0, "alpha must be positive and finite"),
    (0.0, 0.0, "alpha must be positive and finite"),
    (1.0, math.nan, "beta must be finite and nonnegative"),
    (1.0, math.inf, "beta must be finite and nonnegative"),
    (1.0, -0.1, "beta must be finite and nonnegative"),
])
def test_constants_refuse_bad_step_parameters(alpha, beta, message):
    with pytest.raises(ValueError, match=message):
        hbot_constants(zero_ric(2), alpha, beta, check=False)
    with pytest.raises(ValueError, match=message):
        hbrot_constants(zero_ric(2), alpha, beta, omega=1, n=20, check=False)


class TestHbotConstants:
    def test_zero_deltas_collapse(self):
        bc = hbot_constants(zero_ric(2), alpha=1.0, beta=0.0)
        assert bc.eta == 1.0
        assert bc.b == 0.0
        assert bc.theta == 0.0
        assert bc.C2 == pytest.approx(3.0)
        assert not bc.violations and bc.recurrence is not None

    def test_alpha_off_one(self):
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        assert bc.b == pytest.approx(0.5)
        assert bc.theta == pytest.approx(0.5)

    def test_ric_above_root_rejected(self):
        ric = RICProfile(k=1, delta_k=0.23, delta_2k=0.23, delta_3k=0.23,
                         delta_kp1=0.23)
        with pytest.raises(ParameterWindowError, match="gamma"):
            hbot_constants(ric, alpha=1.0, beta=0.0)

    def test_degenerate_eta_denominator_recorded(self):
        # 1 - 2 delta_k - delta_(k+s(k)) <= 0 leaves eta, theta and the recurrence unset
        ric = RICProfile(k=2, delta_k=0.4, delta_2k=0.4, delta_3k=0.4, delta_kp1=0.4)
        bc = hbot_constants(ric, alpha=1.0, beta=0.0, check=False)
        assert bc.eta is None and bc.theta is None and bc.recurrence is None
        assert any(v.startswith("1 - 2 delta_k - delta_(k+s(k)) = -0.2 <= 0")
                   for v in bc.violations)

    def test_nonpositive_alpha_lo_denominator_recorded(self):
        # delta_(k+s(k)) = 0.5 > 1/sqrt(5) with eta still defined
        ric = RICProfile(k=1, delta_k=0.0, delta_2k=0.5, delta_3k=0.5, delta_kp1=0.5)
        bc = hbot_constants(ric, alpha=1.0, beta=0.0, check=False)
        assert bc.eta is not None
        assert "1 - sqrt(5) delta_(k+s(k)) = -0.118034 <= 0" in bc.violations
        with pytest.raises(ParameterWindowError, match=r"1 - sqrt\(5\) delta_\(k\+s\(k\)\)"):
            hbot_constants(ric, alpha=1.0, beta=0.0)

    def test_theta_below_one_iff_contraction(self, rng):
        # the exact predicate is b + eta*beta < 1, in both directions
        for _ in range(200):
            delta = float(rng.uniform(0, 0.22))
            ric = RICProfile(k=2, delta_k=delta, delta_2k=delta, delta_3k=delta,
                             delta_kp1=delta)
            alpha = float(rng.uniform(0.05, 2.5))
            beta = float(rng.uniform(0, 0.8))
            bc = hbot_constants(ric, alpha, beta, check=False)
            if bc.eta is None:
                continue
            assert (bc.theta < 1.0) == (bc.b + bc.eta * beta < 1.0)
            if not bc.violations:
                assert bc.theta < 1.0


class TestHbrotConstants:
    def test_zero_deltas_collapse(self):
        bc = hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=1, n=20,
                             variant="hbrot")
        assert bc.c_sigma == 0.0
        assert bc.b1 == 0.0
        assert bc.b2 == 0.0
        assert bc.theta1 == 0.0
        assert bc.theta2 == 0.0
        assert not bc.violations

    @pytest.mark.parametrize("variant", ["hbrot", "hbrotp"])
    def test_theta_is_the_variant_factor(self, variant, rng):
        # theta is the factor of the theorem evaluated: theta1 or theta2, bit for bit
        for _ in range(50):
            delta = float(rng.uniform(0, 0.25))
            ric = RICProfile(k=1, delta_k=0.5 * delta, delta_2k=delta,
                             delta_3k=delta, delta_kp1=delta)
            bc = hbrot_constants(ric, float(rng.uniform(0.05, 2.0)),
                                 float(rng.uniform(0, 0.5)), omega=int(rng.integers(1, 4)),
                                 n=16, variant=variant, check=False)
            assert bc.theta == (bc.theta1 if variant == "hbrot" else bc.theta2)
            assert (bc.theta < 1.0) == (bc.recurrence is not None)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant must be 'hbrot' or 'hbrotp', got 'hbot'"):
            hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=1, n=20, variant="hbot")

    def test_sigma_and_xi(self):
        bc = hbrot_constants(zero_ric(10), alpha=1.0, beta=0.0, omega=1, n=100,
                             variant="hbrot")
        assert bc.sigma == 8
        assert bc.xi_sigma == pytest.approx(math.sqrt(2))

    def test_ric_above_root_rejected(self):
        ric = RICProfile(k=1, delta_k=0.25, delta_2k=0.25, delta_3k=0.25,
                         delta_kp1=0.25)
        with pytest.raises(ParameterWindowError, match="gamma"):
            hbrot_constants(ric, alpha=1.0, beta=0.0, omega=1, n=20, variant="hbrotp")

    def test_omega_must_be_an_integer(self):
        for omega in (1.5, 2.0):
            with pytest.raises(ValueError, match="omega must be a positive integer"):
                hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=omega, n=20,
                                variant="hbrot")
        bc = hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=np.int64(2), n=20,
                             variant="hbrot")
        assert not bc.violations

    def test_n_must_be_a_positive_integer(self):
        for n in (None, 40.5, 40.0, math.inf, True, 0):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=1, n=n,
                                variant="hbrot")
            with pytest.raises(ValueError, match="n must be a positive integer"):
                parameter_window(zero_ric(2), omega=1, variant="hbrotp", n=n)
        bc = hbrot_constants(zero_ric(2), alpha=1.0, beta=0.0, omega=1, n=np.int64(20),
                             variant="hbrot")
        assert bc.sigma == 8  # ceil((n - 2k) / k)
        assert parameter_window(zero_ric(2), variant="hbrotp", n=np.int64(20))[0] > 0

    def test_needs_room_above_three_k(self):
        with pytest.raises(ParameterWindowError, match="3k"):
            hbrot_constants(zero_ric(4), alpha=1.0, beta=0.0, omega=1, n=12,
                            variant="hbrot")

    def test_theta_below_one_iff_contraction(self, rng):
        for _ in range(200):
            delta = float(rng.uniform(0, 0.20))
            scale = float(rng.uniform(0.3, 1.0))
            ric = RICProfile(k=1, delta_k=delta * scale, delta_2k=delta,
                             delta_3k=delta, delta_kp1=delta)
            alpha = float(rng.uniform(0.05, 2.0))
            beta = float(rng.uniform(0, 0.5))
            omega = int(rng.integers(1, 4))
            for variant, theta_of, target_of in (
                    ("hbrot", lambda c: c.theta1, lambda c: 1.0),
                    ("hbrotp", lambda c: c.theta2, lambda c: c.z_k)):
                bc = hbrot_constants(ric, alpha, beta, omega, n=16,
                                     variant=variant, check=False)
                assert (theta_of(bc) < 1.0) == (bc.b1 + bc.b2 < target_of(bc))
                if not bc.violations:
                    assert theta_of(bc) < 1.0

    def test_equal_ric_limit_convention(self):
        # the 0/0 ratios inside d2 and b3 take their equal-constant limits
        for omega in (1, 2, 3):
            bc0 = hbrot_constants(zero_ric(1), alpha=1.3, beta=0.05, omega=omega,
                                  n=10, variant="hbrot", check=False)
            eps = 1e-9
            ric = RICProfile(k=1, delta_k=eps, delta_2k=eps, delta_3k=eps,
                             delta_kp1=eps)
            bce = hbrot_constants(ric, alpha=1.3, beta=0.05, omega=omega,
                                  n=10, variant="hbrot", check=False)
            assert bc0.d2 == pytest.approx(bce.d2, rel=1e-6)
            assert bc0.b3 == pytest.approx(bce.b3, rel=1e-5)


class TestParameterWindow:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'omp'"):
            parameter_window(zero_ric(2), variant="omp", n=20)

    @pytest.mark.parametrize("variant", ["hbot", "hbotp", "hbrot", "hbrotp"])
    def test_interval_refuses_negative_beta(self, variant):
        _, interval = parameter_window(zero_ric(2), variant=variant, n=20)
        with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
            interval(-0.1)

    @pytest.mark.parametrize("variant", ["hbot", "hbotp", "hbrot", "hbrotp"])
    def test_interval_refuses_non_finite_beta(self, variant):
        # unchecked, hbrotp's interval(nan) was (nan, nan) and interval(inf) (inf, -inf)
        _, interval = parameter_window(ric_profile(equiangular_frame(14), 1),
                                       variant=variant, n=14)
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^beta must be finite and nonnegative$"):
                interval(beta)

    def test_zero_delta_exact_selection(self):
        beta_max, interval = parameter_window(zero_ric(2), variant="hbot")
        assert beta_max == pytest.approx(1.0)
        lo, hi = interval(0.0)
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(2.0)

    def test_interval_contains_one_plus_beta(self, rng):
        for _ in range(100):
            delta = float(rng.uniform(0, 0.9)) * (gamma_star() - 1e-9)
            ric = RICProfile(k=2, delta_k=delta, delta_2k=delta, delta_3k=delta,
                             delta_kp1=delta)
            beta_max, interval = parameter_window(ric, variant="hbotp")
            beta = float(rng.uniform(0, beta_max * 0.999))
            lo, hi = interval(beta)
            assert lo < 1 + beta < hi

    def test_relaxed_interval_contains_one_plus_beta(self, rng):
        for variant in ("hbrot", "hbrotp"):
            bound = (gamma_star_omega(1) if variant == "hbrot"
                     else gamma_sharp_omega(1))
            for _ in range(50):
                delta = float(rng.uniform(0, 0.95)) * bound
                ric = RICProfile(k=1, delta_k=delta, delta_2k=delta, delta_3k=delta,
                                 delta_kp1=delta)
                beta_max, interval = parameter_window(ric, omega=1, variant=variant, n=12)
                assert beta_max > 0
                beta = float(rng.uniform(0, beta_max * 0.999))
                lo, hi = interval(beta)
                assert lo < 1 + beta < hi

    @pytest.mark.parametrize("variant", ["hbot", "hbrot", "hbrotp"])
    def test_window_agrees_with_constants(self, variant, rng):
        # the window is the one hbot_constants/hbrot_constants check: alpha
        # inside it violates nothing, alpha at either endpoint is rejected
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = 3 * k + int(rng.integers(1, 30))
            omega = int(rng.integers(1, 3))
            bound = {"hbot": gamma_star(), "hbrot": gamma_star_omega(omega),
                     "hbrotp": gamma_sharp_omega(omega)}[variant]
            dk, dkp1, d2k, d3k = np.sort(rng.uniform(0, 0.95 * bound, 4))
            ric = RICProfile(k=k, delta_k=dk, delta_2k=d2k, delta_3k=d3k,
                             delta_kp1=dkp1)
            beta_max, interval = parameter_window(ric, omega=omega, variant=variant, n=n)
            assert beta_max > 0
            beta = float(rng.uniform(0, 0.999)) * beta_max
            lo, hi = interval(beta)

            def violations(alpha):
                if variant == "hbot":
                    bc = hbot_constants(ric, alpha, beta, check=False)
                else:
                    bc = hbrot_constants(ric, alpha, beta, omega, n, variant=variant,
                                         check=False)
                return [v for v in bc.violations if v.startswith(("alpha=", "beta="))]

            assert violations(0.5 * (lo + hi)) == []
            for alpha in (lo, hi):
                assert [v[:6] for v in violations(alpha)] == ["alpha="]

    def test_beta_max_collapses_at_root(self):
        g = gamma_star()
        betas = []
        for delta in (0.5 * g, 0.9 * g, 0.99 * g, 0.9999 * g):
            ric = RICProfile(k=2, delta_k=delta, delta_2k=delta, delta_3k=delta,
                             delta_kp1=delta)
            beta_max, _ = parameter_window(ric, variant="hbot")
            betas.append(beta_max)
        assert all(a > b for a, b in zip(betas, betas[1:]))
        assert betas[-1] < 1e-3

    def test_ric_hypothesis_enforced(self):
        ric = RICProfile(k=2, delta_k=0.3, delta_2k=0.3, delta_3k=0.3,
                         delta_kp1=0.3)
        with pytest.raises(ParameterWindowError):
            parameter_window(ric, variant="hbot")
        # delta_(k+s(k)) about 1e-12 below gamma*: beta_max rounds below 0,
        # an empty window, so the hypothesis counts as failed
        ric = RICProfile(k=2, delta_k=0.22747455278905518, delta_kp1=0.22747455281884074,
                         delta_2k=0.22747455285551382, delta_3k=0.22747455297419134)
        with pytest.raises(ParameterWindowError):
            parameter_window(ric, variant="hbot")

    @given(st.sampled_from(["hbot", "hbotp", "hbrot", "hbrotp"]), st.integers(1, 3),
           st.integers(1, 5), st.integers(-2, 2), st.floats(0.7, 1.3),
           st.floats(-1e-8, 1e-8), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=400)
    def test_raises_exactly_when_a_hypothesis_fails(self, variant, omega, k, n_offset,
                                                    scale, shift, near, seed):
        # the constrained constant sits at scale times its ceiling, or within
        # 1e-8 of it; the other constants are drawn around it in order
        ceiling = {"hbot": gamma_star(), "hbotp": gamma_star(),
                   "hbrot": gamma_star_omega(omega),
                   "hbrotp": gamma_sharp_omega(omega)}[variant]
        top = ceiling + shift if near else ceiling * scale
        n = 3 * k + 1 + n_offset
        # position of the constrained constant in (delta_k, delta_kp1, delta_2k, delta_3k)
        at = s_of_k(k) if variant.startswith("hbot") else 3
        u = np.random.default_rng(seed).uniform(0, 1, 4)
        deltas = np.sort([top * x if i < at else top * (1 + 0.3 * x)
                          for i, x in enumerate(u)])
        deltas[at] = top
        dk, dkp1, d2k, d3k = map(float, deltas)
        ric = RICProfile(k=k, delta_k=dk, delta_2k=d2k, delta_3k=d3k, delta_kp1=dkp1)
        fails = not top < ceiling or (variant.startswith("hbrot") and not n > 3 * k)
        if fails:
            with pytest.raises(ParameterWindowError):
                parameter_window(ric, omega=omega, variant=variant, n=n)
            return
        try:
            beta_max, _ = parameter_window(ric, omega=omega, variant=variant, n=n)
        except ParameterWindowError:
            # only where the ceiling itself, a bisection root to 1e-12, is
            # not resolved: beta_max rounds to 0 or below
            assert ceiling - top < 1e-11
            return
        assert beta_max > 0


class TestEnvelopeDispatch:
    @pytest.mark.parametrize("noise_norm", [math.nan, math.inf, -0.1])
    def test_bad_noise_norm_rejected(self, noise_norm):
        # noise_norm only scales b3, so a nan must be refused, not enveloped
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            convergence_envelope(bc, a0=1.0, a1=1.0, noise_norm=noise_norm, p=3)

    @pytest.mark.parametrize("noise_norm", [math.nan, math.inf, -1.0])
    def test_noise_norm_refused_under_its_own_name(self, noise_norm):
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        with pytest.raises(ValueError, match=r"^noise_norm must be finite and nonnegative$"):
            convergence_envelope(bc, a0=1.0, a1=1.0, noise_norm=noise_norm, p=3)

    def test_exact_selection_envelope_formula(self):
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        # theta = 0.5, so the transient halves each step and the tail is C2*nu
        val = convergence_envelope(bc, a0=1.0, a1=1.0, noise_norm=0.1, p=3)
        expected = 0.5**2 * (1.0 + (0.5 - 0.5) * 1.0) + bc.C2 * 0.1
        assert val == pytest.approx(expected)

    @pytest.mark.parametrize("omega", [1, 2])
    @pytest.mark.parametrize("variant", ["hbrot", "hbrotp"])
    def test_relaxed_envelope_formula(self, variant, omega):
        # hbrot's recurrence is (b1, b2, b3); hbrotp's divides each by z_k and
        # adds sqrt(1 + delta_k) / (1 - delta_2k) to the noise term
        ric = RICProfile(k=2, delta_k=0.01, delta_kp1=0.015, delta_2k=0.02, delta_3k=0.03)
        bc = hbrot_constants(ric, alpha=1.05, beta=0.05, omega=omega, n=40, variant=variant)
        ps = np.arange(1, 20)
        if variant == "hbrot":
            b1, b2, b3 = bc.b1, bc.b2, bc.b3
        else:
            b1, b2 = bc.b1 / bc.z_k, bc.b2 / bc.z_k
            b3 = bc.b3 / bc.z_k + math.sqrt(1.0 + ric.delta_k) / (1.0 - ric.delta_2k)
        np.testing.assert_array_equal(
            convergence_envelope(bc, a0=1.0, a1=0.8, noise_norm=0.1, p=ps),
            geometric_envelope(1.0, 0.8, b1, b2, b3 * 0.1, ps))

    def test_rejects_expanding_configuration(self):
        bc = hbot_constants(zero_ric(2), alpha=1.0, beta=2.0, check=False)
        with pytest.raises(ParameterWindowError):
            convergence_envelope(bc, 1.0, 1.0, 0.0, 2)

    def test_rejects_degenerate_relaxed_constants(self):
        # delta_2k >= 1 leaves the relaxed constants, theta1 included, unset
        ric = RICProfile(k=1, delta_k=0.5, delta_2k=1.0, delta_3k=1.1, delta_kp1=0.9)
        bc = hbrot_constants(ric, 1.0, 0.0, omega=1, n=20, check=False)
        with pytest.raises(ParameterWindowError, match="no contraction"):
            convergence_envelope(bc, 1.0, 1.0, 0.0, 3)
