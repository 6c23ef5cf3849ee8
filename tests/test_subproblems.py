import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.subproblems
from otkit.core import top_k_indices
from otkit.errors import EnumerationGuardError
from otkit.selftest import bisection_projection
from otkit.subproblems import (GRAD_TOL, MAX_INNER_ITER, OBJECTIVE_REL_TOL,
                               least_squares_on_support,
                               project_capped_simplex, solve_binary_ot,
                               solve_relaxed_ot)

from conftest import gaussian_instance


class TestProjection:
    def test_cap_forces_unit(self):
        np.testing.assert_allclose(
            project_capped_simplex(np.array([10.0, 0.0, 0.0]), 1), [1.0, 0.0, 0.0],
            atol=1e-14)

    def test_symmetry(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(
                project_capped_simplex(np.full(3, c), 2), np.full(3, 2 / 3),
                atol=1e-14)

    def test_full_mass_is_ones(self, rng):
        v = rng.normal(0, 5, 9)
        np.testing.assert_array_equal(project_capped_simplex(v, 9), np.ones(9))
        np.testing.assert_array_equal(project_capped_simplex(v, 9, shift=3.0), np.ones(9))

    def test_matches_bisection_oracle(self, rng):
        for _ in range(50):
            v = rng.normal(0, rng.uniform(0.5, 5.0), 6)
            w = project_capped_simplex(v, 3)
            ref = bisection_projection(v, 3)
            np.testing.assert_allclose(w, ref, atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.ones(3), 4)

    def test_nonfinite_shift_rejected(self):
        for shift in (np.nan, np.inf):
            with pytest.raises(ValueError):
                project_capped_simplex(np.array([0.5, 2.0, -1.0]), 1, shift=shift)

    def test_coincident_breakpoints(self):
        # repeated values make breakpoints collide, and v_i - 1 of one
        # coordinate equals v_j of another; start on and between them
        v = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 3.0, 0.5, 1.5])
        for k in range(1, v.size + 1):
            ref = bisection_projection(v, k)
            for shift in (None, -5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 1e9):
                w = project_capped_simplex(v, k, shift=shift)
                np.testing.assert_allclose(w, ref, atol=1e-10)
                assert abs(w.sum() - k) <= 1e-12
                assert w.min() >= 0 and w.max() <= 1

    def test_binary_result_has_no_free_coordinate(self):
        # any shift in [0, 4] is exact here: the mass is flat at k there
        v = np.array([5.0, 5.0, 0.0, 0.0, -3.0])
        for shift in (None, -10.0, 0.0, 2.0, 4.0, 4.5, 10.0):
            np.testing.assert_array_equal(project_capped_simplex(v, 2, shift=shift),
                                          [1.0, 1.0, 0.0, 0.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=25), st.data())
    @settings(deadline=None, max_examples=200)
    def test_any_shift_matches_oracle(self, vals, data):
        v = np.array(vals, dtype=float)
        k = data.draw(st.integers(1, v.size))
        shift = data.draw(st.one_of(
            st.none(),
            st.floats(float(v.min()) - 2.0, float(v.max()) + 1.0),
            st.floats(-1e12, 1e12)))
        w = project_capped_simplex(v, k, shift=shift)
        np.testing.assert_allclose(w, bisection_projection(v, k), rtol=0, atol=1e-10)
        assert abs(w.sum() - k) <= 1e-12
        assert w.min() >= 0.0 and w.max() <= 1.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=25), st.data())
    @settings(deadline=None, max_examples=60)
    def test_feasibility_and_optimality(self, vals, data):
        v = np.array(vals, dtype=float)
        k = data.draw(st.integers(1, v.size))
        w = project_capped_simplex(v, k)
        assert abs(w.sum() - k) <= 1e-12
        assert w.min() >= -1e-15 and w.max() <= 1 + 1e-15
        # any other feasible point (obtained by projection) is no closer to v
        other = project_capped_simplex(
            np.array(data.draw(st.lists(st.floats(-50, 50),
                                        min_size=v.size, max_size=v.size))), k)
        assert (np.linalg.norm(w - v) <= np.linalg.norm(other - v) + 1e-10)


def two_product_relaxed_ot(A, y, v, k):
    """solve_relaxed_ot as a loop that forms the Gram product at the search
    point afresh each step: two products G @ z and G @ w per step, the shift
    read off with flatnonzero.  The projection is shared: its closing
    minimum/maximum equals np.clip in value."""
    B = A * v
    G = B.T @ B
    c = B.T @ y
    yy = float(y @ y)
    m, n = A.shape
    L = float(np.linalg.eigvalsh(B @ B.T if m < n else G)[-1]) * 1.02
    w = np.full(n, k / n)
    Gw = G @ w
    fw = yy - 2.0 * float(c @ w) + float(w @ Gw)
    zk = w.copy()
    t_mom = 1.0
    stall = 0
    lam = None
    for it in range(MAX_INNER_ITER):
        z = zk - (G @ zk - c) / L
        w_new = project_capped_simplex(z, k, shift=lam)
        free = np.flatnonzero((w_new > 0.0) & (w_new < 1.0))
        if free.size:
            lam = float(z[free[0]] - w_new[free[0]])
        Gw_new = G @ w_new
        f_new = yy - 2.0 * float(c @ w_new) + float(w_new @ Gw_new)
        if f_new > fw:
            w_new, Gw_new, f_new = w, Gw, fw
            zk = w.copy()
            t_mom = 1.0
        rel_drop = abs(fw - f_new) / max(1.0, abs(fw))
        stall = stall + 1 if rel_drop <= OBJECTIVE_REL_TOL else 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        zk = w_new + ((t_mom - 1.0) / t_next) * (w_new - w)
        w, Gw, fw, t_mom = w_new, Gw_new, f_new, t_next
        if stall >= 4 or (it & 15) == 15:
            pg = np.linalg.norm(w - project_capped_simplex(w - (Gw - c) / L, k, shift=lam))
            if pg <= GRAD_TOL:
                return w, True
        if stall >= 8:
            return w, True
    return w, False


class TestRelaxedOT:
    def test_one_product_step_matches_two_product_loop(self):
        # carrying G z through the momentum recurrence changes round-off only
        m, n, k = 32, 64, 5
        flags = []
        for seed in range(20):
            A, y, truth, _ = gaussian_instance(np.random.default_rng(300 + seed), m, n, k)
            v = 5.0 * (A.T @ y)  # the default heavy-ball step from zero
            w, converged = solve_relaxed_ot(A, y, v, k)
            w_ref, converged_ref = two_product_relaxed_ot(A, y, v, k)
            assert converged == converged_ref
            np.testing.assert_array_equal(top_k_indices(v * w, k), top_k_indices(v * w_ref, k))
            assert np.abs(w - w_ref).max() <= 1e-6
            flags.append(converged)
        assert not all(flags)  # some solves run to the cap, where round-off grows most

    def test_zero_residual_certificate(self, rng):
        m, n, k = 6, 12, 3
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        v = np.zeros(n)
        v[[1, 4, 9]] = rng.standard_normal(3)
        y = A @ v
        w, converged = solve_relaxed_ot(A, y, v, k)
        assert converged
        obj = float(np.sum((y - A @ (v * w)) ** 2))
        assert obj <= 1e-18

    def test_dominates_binary_minimum(self, rng):
        m, n, k = 4, 8, 2
        for _ in range(10):
            A = rng.standard_normal((m, n))
            y = rng.standard_normal(m)
            v = rng.standard_normal(n)
            w, _ = solve_relaxed_ot(A, y, v, k)
            relaxed = float(np.sum((y - A @ (v * w)) ** 2))
            _, exact = solve_binary_ot(A, y, v, k)
            assert relaxed <= exact + 1e-9

    def test_zero_v_returns_feasible(self, rng):
        A = rng.standard_normal((4, 8))
        y = rng.standard_normal(4)
        w, converged = solve_relaxed_ot(A, y, np.zeros(8), 3)
        assert converged
        assert abs(w.sum() - 3) <= 1e-12
        assert w.min() >= 0 and w.max() <= 1
        assert np.allclose(np.sum((y - A @ (np.zeros(8) * w)) ** 2), y @ y)

    def test_monotone_in_iteration_budget(self, rng, monkeypatch):
        # accepted objectives never increase, so a larger budget never hurts
        A = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        v = rng.standard_normal(10)
        objs = []
        for budget in range(1, 40):
            monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", budget)
            w, _ = solve_relaxed_ot(A, y, v, 3)
            objs.append(float(np.sum((y - A @ (v * w)) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_step_uses_top_eigenvalue_orthogonal_to_ones(self, monkeypatch):
        # G = I + 9 u u^T with u orthogonal to the all-ones vector: power
        # iteration from the uniform start never sees u and reads 1, not 10.
        n, k = 6, 2
        u = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]) / np.sqrt(n)
        G = np.eye(n) + 9.0 * np.outer(u, u)
        A = np.linalg.cholesky(G).T  # A^T A = G, so B = A diag(1) has Gram G
        y = A @ np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", 1)
        w, _ = solve_relaxed_ot(A, y, np.ones(n), k)
        # the first step from the uniform start is accepted: it is a descent step of 1/L
        w0 = np.full(n, k / n)
        L = 10.0 * 1.02
        expected = project_capped_simplex(w0 - (G @ w0 - A.T @ y) / L, k)
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_nonconvergence_flag(self, rng, monkeypatch):
        # one step meets neither stop rule: the projected gradient is checked
        # every 16th step or after 4 stalled ones, and stagnation needs 8
        A = rng.standard_normal((8, 16))
        y = rng.standard_normal(8)
        v = rng.standard_normal(16)
        monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", 1)
        w, converged = solve_relaxed_ot(A, y, v, 5)
        assert not converged
        assert abs(w.sum() - 5) <= 1e-12  # still feasible


class TestBinaryOT:
    def test_constructed_optimum(self, rng):
        m, n, k = 5, 9, 3
        A = rng.standard_normal((m, n))
        v = rng.standard_normal(n)
        what = np.zeros(n)
        what[[0, 3, 7]] = 1.0
        y = A @ (v * what)
        w, obj = solve_binary_ot(A, y, v, k)
        np.testing.assert_array_equal(w, what)
        assert obj <= 1e-20

    def test_identity_padded_example(self):
        A = np.eye(4)
        v = np.ones(4)
        y = np.array([1.0, 1.0, 0.0, 0.0])
        w, obj = solve_binary_ot(A, y, v, 2)
        np.testing.assert_array_equal(w, [1.0, 1.0, 0.0, 0.0])
        assert obj == 0.0

    def test_full_k_returns_all_ones(self, rng):
        A = rng.standard_normal((4, 6))
        y = rng.standard_normal(4)
        v = rng.standard_normal(6)
        w, obj = solve_binary_ot(A, y, v, 6)
        np.testing.assert_array_equal(w, np.ones(6))
        assert np.isclose(obj, np.sum((y - A @ v) ** 2))

    def test_enumeration_guard(self, rng):
        A = rng.standard_normal((4, 31))
        with pytest.raises(EnumerationGuardError):
            solve_binary_ot(A, rng.standard_normal(4), rng.standard_normal(31), 2)

    def test_tie_prefers_lexicographic_support(self):
        # two columns identical: supports {0,...} and {1,...} tie; 0 must win
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v = np.ones(3)
        y = np.array([1.0, 0.0])
        w, _ = solve_binary_ot(A, y, v, 1)
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])
        # every objective overflows, so all subsets tie at inf: the first wins
        w, obj = solve_binary_ot(np.eye(4), np.ones(4), np.full(4, 1e200), 2)
        np.testing.assert_array_equal(w, [1.0, 1.0, 0.0, 0.0])
        assert obj == np.inf


class TestLeastSquares:
    def test_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        x, flag = least_squares_on_support(np.eye(3), y, np.array([0, 2]))
        np.testing.assert_allclose(x, [1.0, 0.0, 3.0], atol=1e-14)
        assert not flag

    def test_exact_interpolation_on_true_support(self, rng):
        A, y, truth, _ = gaussian_instance(rng, 8, 12, 3)
        x, flag = least_squares_on_support(A, y, np.flatnonzero(truth))
        assert not flag
        np.testing.assert_allclose(x, truth, atol=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        A = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        S = np.array([1, 4, 8])
        x, _ = least_squares_on_support(A, y, S)
        As = A[:, S]
        expected = np.linalg.solve(As.T @ As, As.T @ y)
        np.testing.assert_allclose(x[S], expected, atol=1e-9)

    def test_orthogonality_certificate(self, rng):
        for _ in range(20):
            A = rng.standard_normal((7, 11))
            y = rng.standard_normal(7)
            S = np.sort(rng.choice(11, size=3, replace=False))
            x, _ = least_squares_on_support(A, y, S)
            cert = np.abs(A[:, S].T @ (y - A @ x)).max()
            assert cert <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(y)

    def test_rank_deficient_returns_min_norm(self, rng):
        col = rng.standard_normal(5)
        A = np.column_stack([col, col, rng.standard_normal(5)])
        y = rng.standard_normal(5)
        x, flag = least_squares_on_support(A, y, np.array([0, 1]))
        assert flag
        # minimum-norm solution splits the weight across the duplicates
        assert np.isclose(x[0], x[1])

    def test_empty_support(self, rng):
        A = rng.standard_normal((4, 6))
        x, flag = least_squares_on_support(A, rng.standard_normal(4), np.array([], dtype=int))
        np.testing.assert_array_equal(x, np.zeros(6))
        assert not flag

    def test_duplicate_support_rejected(self, rng):
        A = rng.standard_normal((4, 6))
        with pytest.raises(ValueError):
            least_squares_on_support(A, rng.standard_normal(4), np.array([1, 1]))
