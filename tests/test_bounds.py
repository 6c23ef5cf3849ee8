import math
from itertools import combinations

import numpy as np
import pytest

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


class TestSofK:
    @pytest.mark.parametrize("k,expected", [(3, 1), (4, 0), (1, 1), (2, 0), (7, 1)])
    def test_parity(self, k, expected):
        assert s_of_k(k) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            s_of_k(0)


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


class TestRicProfile:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RICProfile(k=2, delta_k=0.3, delta_2k=0.2, delta_3k=0.4, delta_kp1=0.35)

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
        ric_profile(equiangular_frame(10), 2)
        assert calls == [((order,), {}) for order in (2, 4, 6, 3)]


def zero_ric(k):
    return RICProfile(k=k, delta_k=0.0, delta_2k=0.0, delta_3k=0.0, delta_kp1=0.0)


class TestHbotConstants:
    def test_zero_deltas_collapse(self):
        bc = hbot_constants(zero_ric(2), alpha=1.0, beta=0.0)
        assert bc.eta == 1.0
        assert bc.b == 0.0
        assert bc.theta == 0.0
        assert bc.C2 == pytest.approx(3.0)
        assert bc.window_ok and bc.contraction_ok

    def test_alpha_off_one(self):
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        assert bc.b == pytest.approx(0.5)
        assert bc.theta == pytest.approx(0.5)

    def test_ric_above_root_rejected(self):
        ric = RICProfile(k=1, delta_k=0.23, delta_2k=0.23, delta_3k=0.23,
                         delta_kp1=0.23)
        with pytest.raises(ParameterWindowError, match="gamma"):
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
            if bc.window_ok:
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
        assert bc.window_ok

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
                if bc.window_ok:
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


class TestEnvelopeDispatch:
    def test_exact_selection_envelope_formula(self):
        bc = hbot_constants(zero_ric(2), alpha=1.5, beta=0.0)
        # theta = 0.5, so the transient halves each step and the tail is C2*nu
        val = convergence_envelope(bc, a0=1.0, a1=1.0, noise_norm=0.1, p=3)
        expected = 0.5**2 * (1.0 + (0.5 - 0.5) * 1.0) + bc.C2 * 0.1
        assert val == pytest.approx(expected)

    def test_rejects_expanding_configuration(self):
        bc = hbot_constants(zero_ric(2), alpha=1.0, beta=2.0, check=False)
        with pytest.raises(ParameterWindowError):
            convergence_envelope(bc, 1.0, 1.0, 0.0, 2)
