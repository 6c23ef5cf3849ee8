import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.core
import otkit.subproblems
from otkit.bench import EnsembleSpec, equiangular_frame, generate_instance
from otkit.bounds import ric_exact
from otkit.core import top_k_indices
from otkit.errors import EnumerationGuardError
from otkit.selftest import bisection_projection, enumeration_binary_ot
from otkit.subproblems import (ACCEPT_EVERY, LS_ERROR_MAX, MAX_INNER_ITER,
                               OBJECTIVE_REL_TOL, least_squares_on_support,
                               project_capped_simplex, solve_binary_ot,
                               solve_relaxed_ot)

from conftest import gaussian_instance


class TestProjection:
    def test_cap_forces_unit(self):
        np.testing.assert_allclose(
            project_capped_simplex(np.array([10.0, 0.0, 0.0]), 1, np.ones(3))[0],
            [1.0, 0.0, 0.0], atol=1e-14)

    def test_symmetry(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(
                project_capped_simplex(np.full(3, c), 2, np.ones(3))[0], np.full(3, 2 / 3),
                atol=1e-14)

    def test_full_mass_is_ones(self, rng):
        v = rng.normal(0, 5, 9)
        for shift in (None, 3.0):
            w, lam = project_capped_simplex(v, 9, np.ones(9), shift=shift)
            np.testing.assert_array_equal(w, np.ones(9))
            assert lam == -math.inf

    def test_matches_bisection_oracle(self, rng):
        c = np.ones(6)
        for _ in range(50):
            v = rng.normal(0, rng.uniform(0.5, 5.0), 6)
            w, _ = project_capped_simplex(v, 3, c)
            np.testing.assert_allclose(w, bisection_projection(v, 3, c), atol=1e-10)

    def test_k_out_of_range(self):
        for k in (4, True, 2.5, 2.0, np.float64(2.0)):
            with pytest.raises(ValueError, match="must be an integer in 1..3"):
                project_capped_simplex(np.ones(3), k, np.ones(3))

    def test_nonfinite_shift_rejected(self):
        for shift in (np.nan, np.inf):
            with pytest.raises(ValueError):
                project_capped_simplex(np.array([0.5, 2.0, -1.0]), 1, np.ones(3), shift=shift)

    def test_coincident_breakpoints(self):
        # repeated values make breakpoints collide, and v_i - 1 of one
        # coordinate equals v_j of another; start on and between them
        v = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 3.0, 0.5, 1.5])
        c = np.ones(v.size)
        for k in range(1, v.size + 1):
            ref = bisection_projection(v, k, c)
            for shift in (None, -5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 1e9):
                w, _ = project_capped_simplex(v, k, c, shift=shift)
                np.testing.assert_allclose(w, ref, atol=1e-10)
                assert abs(w.sum() - k) <= 1e-12
                assert w.min() >= 0 and w.max() <= 1

    def test_binary_result_has_no_free_coordinate(self):
        # any shift in [0, 4] is exact here: the mass is flat at k there
        v = np.array([5.0, 5.0, 0.0, 0.0, -3.0])
        for shift in (None, -10.0, 0.0, 2.0, 4.0, 4.5, 10.0):
            np.testing.assert_array_equal(
                project_capped_simplex(v, 2, np.ones(5), shift=shift)[0],
                [1.0, 1.0, 0.0, 0.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=25), st.data())
    @settings(deadline=None, max_examples=200)
    def test_any_shift_matches_oracle(self, vals, data):
        v = np.array(vals, dtype=float)
        c = np.ones(v.size)
        k = data.draw(st.integers(1, v.size))
        shift = data.draw(st.one_of(
            st.none(),
            st.floats(float(v.min()) - 2.0, float(v.max()) + 1.0),
            st.floats(-1e12, 1e12)))
        w, _ = project_capped_simplex(v, k, c, shift=shift)
        np.testing.assert_allclose(w, bisection_projection(v, k, c), rtol=0, atol=1e-10)
        assert abs(w.sum() - k) <= 1e-12
        assert w.min() >= 0.0 and w.max() <= 1.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=25), st.data())
    @settings(deadline=None, max_examples=60)
    def test_feasibility_and_optimality(self, vals, data):
        v = np.array(vals, dtype=float)
        c = np.ones(v.size)
        k = data.draw(st.integers(1, v.size))
        w, _ = project_capped_simplex(v, k, c)
        assert abs(w.sum() - k) <= 1e-12
        assert w.min() >= -1e-15 and w.max() <= 1 + 1e-15
        # any other feasible point (obtained by projection) is no closer to v
        other, _ = project_capped_simplex(
            np.array(data.draw(st.lists(st.floats(-50, 50),
                                        min_size=v.size, max_size=v.size))), k, c)
        assert (np.linalg.norm(w - v) <= np.linalg.norm(other - v) + 1e-10)

    @given(st.integers(1, 39), st.data(), st.integers(0, 2**32 - 1),
           st.sampled_from(["gaussian", "half-integer", "scale 1e3"]),
           st.sampled_from(["cold", "random", "breakpoint"]))
    @settings(deadline=None, max_examples=300)
    def test_returned_shift_rebuilds_w(self, n, data, seed, kind, start):
        k = data.draw(st.integers(1, n))
        rng, v, c = projection_draw(n, seed, kind, "ones")
        shift = {"cold": None,
                 "random": float(rng.uniform(v.min() - 2.0, v.max() + 1.0)),
                 "breakpoint": float(rng.choice(np.concatenate([v, v - 1.0])))}[start]
        w, lam = project_capped_simplex(v, k, c, shift=shift)
        assert np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() == w.tobytes()
        tol = 1e-9 * (1.0 + abs(lam))
        if k == n:
            assert lam == -math.inf
            np.testing.assert_array_equal(w, np.ones(n))
        elif ((w > tol) & (w < 1.0 - tol)).any():
            # a coordinate free by more than round-off pins the shift, since the
            # mass is strictly monotone there; a w_i of 1e-16 may be a zero
            assert abs(lam - bisection_all_steps(v, k, c)[1]) <= tol


def bisection_all_steps(v, k, c):
    """bisection_projection's loop run for all of its 200 steps, with no stop
    at a fixed point.  Returns (w, shift)."""
    lo, hi = float(((v - 1.0) / c).min()), float((v / c).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid * c, 0.0, 1.0).sum() >= k:
            lo = mid
        else:
            hi = mid
    shift = 0.5 * (lo + hi)
    return np.clip(v - shift * c, 0.0, 1.0), shift


def projection_draw(n, seed, kind, weights):
    """(v, c) for the projection properties: v Gaussian, half-integer (so
    that breakpoints coincide) or at scale 1e3; c all ones, powers of two
    from 1/8 to 8, or log-uniform over 1e-6..1e6 or over 1e-2..1e7 (the
    spread of the relaxed solve's metric)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if kind == "half-integer":
        v = np.round(2.0 * v) / 2.0
    if kind == "scale 1e3":
        v *= 1e3
    c = {"ones": np.ones(n),
         "powers of two": 2.0 ** rng.integers(-3, 4, n),
         "1e-6..1e6": 10.0 ** rng.uniform(-6.0, 6.0, n),
         "1e-2..1e7": 10.0 ** rng.uniform(-2.0, 7.0, n)}[weights]
    return rng, v, c


class TestWeightedProjection:
    @given(st.integers(2, 300), st.data(), st.integers(0, 2**32 - 1),
           st.sampled_from(["gaussian", "half-integer", "scale 1e3"]),
           st.sampled_from(["ones", "powers of two", "1e-6..1e6", "1e-2..1e7"]),
           st.sampled_from(["cold", "random", "breakpoint"]))
    @settings(deadline=None, max_examples=300)
    def test_matches_bisection_and_rebuilds_w(self, n, data, seed, kind, weights, start):
        k = data.draw(st.integers(1, n - 1))
        rng, v, c = projection_draw(n, seed, kind, weights)
        breaks = np.concatenate([v / c, (v - 1.0) / c])
        shift = {"cold": None,
                 "random": float(rng.uniform(breaks.min() - 1.0, breaks.max() + 1.0)),
                 "breakpoint": float(rng.choice(breaks))}[start]
        w, lam = project_capped_simplex(v, k, c, shift=shift)
        assert np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() == w.tobytes()
        np.testing.assert_allclose(w, bisection_projection(v, k, c), rtol=0, atol=1e-10)
        assert abs(w.sum() - k) <= 1e-12

    def test_minimises_the_weighted_distance(self, rng):
        # any other feasible point is no closer to v in sum((w - v)^2 / c)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n))
            v, c = rng.normal(0, 2, n), 10.0 ** rng.uniform(-2, 2, n)
            w, _ = project_capped_simplex(v, k, c)
            for _ in range(10):
                other, _ = project_capped_simplex(rng.normal(0, 2, n), k, np.ones(n))
                assert np.sum((w - v) ** 2 / c) <= np.sum((other - v) ** 2 / c) + 1e-9

    def test_cold_start_past_float_range(self):
        # with c_0 = c_1 = 1e-310 the breakpoints of coordinates 0 and 1
        # lie beyond float range.  The all-free start (sum(v) - k) / sum(c)
        # is 0.5, whose face (coordinate 1 saturated, none free) has mass k,
        # so the search returns it at once and forms no breakpoint
        v, c = np.array([-2.0, 3.0, 0.5]), np.array([1e-310, 1e-310, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, lam = project_capped_simplex(v, 1, c)
        assert w.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()
        assert lam == 0.5

    def test_cold_start_from_zero_when_the_sum_of_v_overflows(self):
        # sum(v) is inf, so the all-free start is not finite and the search
        # starts from 0, from which it still needs a Newton step, a
        # bisection and the no-breakpoint exit
        v, c = np.array([1e308, 1e308, 0.25, -0.5]), np.array([1e300, 1e300, 0.5, 1.0])
        with np.errstate(over="ignore"):
            assert v.sum() == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, lam = project_capped_simplex(v, 3, c)
            np.testing.assert_allclose(w, bisection_projection(v, 3, c), rtol=0, atol=1e-10)
        assert np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() == w.tobytes()
        assert abs(w.sum() - 3) <= 1e-12

    def test_no_breakpoint_exit_with_no_free_coordinate(self):
        # the bisection leaves lo on coordinate 3's zero breakpoint v/c and hi
        # on coordinate 6's saturation breakpoint (v - 1)/c, where round-off
        # leaves coordinate 3 at 2.3e-13 and coordinate 6 at 1 - 2.3e-13: no
        # breakpoint lies between them, and the face at their midpoint is the
        # flat one of mass k, on which that midpoint is returned
        v = np.array([243.0, 6.0, -994.0, -1815.4036210804309, -1259.0, 535.0,
                      -1360.479, 1164.0])
        c = np.array([1e3, 1e-3, 1e3, 10.0, 10.0, 1.0, 10.0, 1.0])
        midpoint = 0.5 * (v[3] / c[3] + (v[6] - 1.0) / c[6])
        for shift in (0.0, 5404.0):
            w, lam = project_capped_simplex(v, 7, shift=shift, scale=c)
            np.testing.assert_array_equal(w, [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
            assert lam == midpoint
            assert np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() == w.tobytes()

    @pytest.mark.parametrize("scale", [np.ones(3), np.array([1.0, 0.0, 1.0]),
                                       np.array([1.0, -1.0, 1.0]),
                                       np.array([1.0, np.inf, 1.0]),
                                       np.array([1.0, np.nan, 1.0])],
                             ids=["short", "zero", "negative", "inf", "nan"])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            project_capped_simplex(np.array([0.5, 2.0, -1.0, 0.3]), 2, scale=scale)


class TestBisectionOracle:
    @given(st.integers(1, 60), st.data(), st.floats(-6.0, 6.0),
           st.sampled_from(["random", "shift near 0", "constant"]),
           st.sampled_from(["ones", "powers of two", "1e-6..1e6"]),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300)
    def test_bits_equal_all_steps(self, n, data, log_scale, kind, weights, seed):
        k = data.draw(st.integers(1, n))
        _, v, c = projection_draw(n, seed, "gaussian", weights)
        v *= 10.0**log_scale
        if kind == "constant":
            v[:] = v[0]
        if kind == "shift near 0":
            # near a zero shift the ulps are smallest, so the bracket moves
            # longest: about 110 steps, against about 55 elsewhere
            _, shift = bisection_all_steps(v, k, c)
            v = v - shift * c + data.draw(st.sampled_from(
                [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17, 1e-9]))
        assert (bisection_projection(v, k, c).tobytes()
                == bisection_all_steps(v, k, c)[0].tobytes())


def two_product_relaxed_ot(A, y, v, k):
    """solve_relaxed_ot's iteration in its Gram form, written independently of
    the residual loop: G = B^T B, b = B^T y, the objective expanded as
    ||y||^2 - 2 b.w + w.G w, and the two products G @ z and G @ w formed afresh
    each step.  The metric D is read off the diagonal of G, L_D is the top
    eigenvalue of D^-1/2 G D^-1/2 (or of B D^-1 B^T when m < n), and the
    shift is read off a free coordinate with flatnonzero.  The projection is
    shared: its closing minimum/maximum equals np.clip in value."""
    B = A * v
    G = B.T @ B
    b = B.T @ y
    yy = float(y @ y)
    m, n = A.shape
    d = G.diagonal().copy()
    d[d == 0.0] = d.max()
    scale = 1.0 / d
    root = np.sqrt(scale)
    L = float(np.linalg.eigvalsh((B * scale) @ B.T if m < n
                                 else root[:, None] * G * root)[-1]) * 1.02
    w = np.full(n, k / n)
    Gw = G @ w
    fw = yy - 2.0 * float(b @ w) + float(w @ Gw)
    zk = w.copy()
    t_mom = 1.0
    stall = 0
    lam = None
    for _ in range(MAX_INNER_ITER):
        z = zk - (G @ zk - b) / (L * d)
        w_new, _ = project_capped_simplex(z, k, shift=lam, scale=scale)
        free = np.flatnonzero((w_new > 0.0) & (w_new < 1.0))
        if free.size:
            lam = float((z[free[0]] - w_new[free[0]]) * d[free[0]])
        Gw_new = G @ w_new
        f_new = yy - 2.0 * float(b @ w_new) + float(w_new @ Gw_new)
        if f_new > fw:
            w_new, Gw_new, f_new = w, Gw, fw
            zk = w.copy()
            t_mom = 1.0
        rel_drop = abs(fw - f_new) / max(1.0, abs(fw))
        stall = stall + 1 if rel_drop <= OBJECTIVE_REL_TOL else 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        zk = w_new + ((t_mom - 1.0) / t_next) * (w_new - w)
        w, Gw, fw, t_mom = w_new, Gw_new, f_new, t_next
        if stall >= 8:
            return w, True
    return w, False


class TestRelaxedOT:
    def test_one_product_step_matches_two_product_loop(self):
        # the residual loop, which carries r_z through the momentum recurrence,
        # and the Gram-form reference differ in round-off only
        m, n, k = 32, 64, 5
        flags = []
        for seed in range(20):
            A, y, truth = gaussian_instance(np.random.default_rng(300 + seed), m, n, k)
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

    def test_zero_and_underflowing_columns_take_the_largest_weight(self, rng, monkeypatch):
        # v_2 = 0 gives a zero column, and v_5 = 1e-160 one whose squared norm
        # is subnormal, where 1/d would overflow: both weigh as the largest
        scales, project = [], otkit.subproblems._project

        def recording(z, k, scale, shift):
            scales.append(scale)
            return project(z, k, scale, shift)

        monkeypatch.setattr(otkit.subproblems, "_project", recording)
        A, y, v = rng.standard_normal((6, 10)), rng.standard_normal(6), rng.standard_normal(10)
        v[2], v[5] = 0.0, 1e-160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = solve_relaxed_ot(A, y, v, 3)
        assert abs(w.sum() - 3) <= 1e-12 and w.min() >= 0 and w.max() <= 1
        d = np.sum((A * v) ** 2, axis=0)
        assert scales[0][2] == scales[0][5] == scales[0].min()
        np.testing.assert_allclose(scales[0].min(), 1.0 / d.max(), rtol=1e-14)

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
        # the first step from the uniform start is accepted.  Every column has
        # squared norm d = 1 + 9/6 = 2.5, so the metric is uniform: L_D is the
        # top eigenvalue of G / d times 1.02, each step is 1 / (L_D d), and
        # the weighted projection is the Euclidean one
        w0 = np.full(n, k / n)
        d = 2.5
        L_D = 10.0 / d * 1.02
        expected, _ = project_capped_simplex(w0 - (G @ w0 - A.T @ y) / (L_D * d), k, np.ones(n))
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_nonconvergence_flag(self, rng, monkeypatch):
        # one step cannot meet the stop rule: it needs 8 stalled steps running
        A = rng.standard_normal((8, 16))
        y = rng.standard_normal(8)
        v = rng.standard_normal(16)
        monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", 1)
        w, converged = solve_relaxed_ot(A, y, v, 5)
        assert not converged
        assert abs(w.sum() - 5) <= 1e-12  # still feasible

    def test_overflowing_gram_refused(self, rng):
        # with v at 1e160 the Gram of A diag(v) overflows, and with y at 1e160
        # the starting objective does: the solve refuses either by name, with
        # no warning, instead of failing inside eigvalsh; with v at 1e100 it
        # still solves
        A = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        v = rng.standard_normal(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                solve_relaxed_ot(A, y, 1e160 * v, 3)
            with pytest.raises(ValueError, match="overflows"):
                solve_relaxed_ot(A, 1e160 * y, v, 3)
            w, converged = solve_relaxed_ot(A, y, 1e100 * v, 3)
        assert converged
        assert abs(w.sum() - 3) <= 1e-12
        assert w.min() >= 0 and w.max() <= 1

    def test_holds_no_n_by_n_matrix(self, rng, monkeypatch):
        # at n = 5,000 an n x n float64 matrix is 200 MB; B = A diag(v) is 320 kB
        m, n, k = 8, 5000, 2
        A, y, v = rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(n)
        monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", 5)
        tracemalloc.start()
        try:
            solve_relaxed_ot(A, y, v, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("k", [True, 2.0, 2.5])
    def test_non_integer_k_rejected(self, rng, k):
        A, y, v = rng.standard_normal((4, 6)), rng.standard_normal(4), rng.standard_normal(6)
        with pytest.raises(ValueError, match="must be an integer"):
            solve_relaxed_ot(A, y, v, k)
        np.testing.assert_array_equal(solve_relaxed_ot(A, y, v, np.int64(2))[0],
                                      solve_relaxed_ot(A, y, v, 2)[0])


def test_each_projection_starts_from_the_last_returned_shift(monkeypatch):
    shifts, scales, project = [], [], otkit.subproblems._project

    def recording(z, k, scale, shift):
        w, lam = project(z, k, scale, shift)
        shifts.append((shift, lam))
        scales.append(scale)
        return w, lam

    monkeypatch.setattr(otkit.subproblems, "_project", recording)
    A, y, _ = gaussian_instance(np.random.default_rng(302), 32, 64, 5)
    v = 5.0 * (A.T @ y)
    solve_relaxed_ot(A, y, v, 5)
    assert len(shifts) > 1
    assert shifts[0][0] is None
    for (_, returned), (started, _) in zip(shifts, shifts[1:]):
        assert started == returned
    # every step projects in the solve's metric: scale 1/d, d the squared
    # column norms of A diag(v)
    np.testing.assert_allclose(scales[0], 1.0 / np.sum((A * v) ** 2, axis=0), rtol=1e-14)
    assert all(scale is scales[0] for scale in scales)


def test_every_kernel_call_replays_through_the_public_projection(monkeypatch):
    # the solve skips the public function's checks, not its arithmetic: each
    # call it makes, cold start included, returns the bytes the public
    # projection returns from the same shift
    calls, project = [], otkit.subproblems._project

    def recording(z, k, scale, shift):
        w, lam = project(z, k, scale, shift)
        calls.append((z.copy(), k, scale, shift, w.copy(), lam))
        return w, lam

    monkeypatch.setattr(otkit.subproblems, "_project", recording)
    A, y, _ = gaussian_instance(np.random.default_rng(302), 32, 64, 5)
    v = 5.0 * (A.T @ y)
    A[:, 7] *= 1e3  # the metric's weights then spread over six decades
    solve_relaxed_ot(A, y, v, 5)
    monkeypatch.undo()  # the public projection calls the kernel too
    assert len(calls) > 100
    for z, k, scale, shift, w, lam in calls:
        w_public, lam_public = project_capped_simplex(z, k, scale, shift=shift)
        assert w_public.tobytes() == w.tobytes()
        assert np.float64(lam_public).tobytes() == np.float64(lam).tobytes()


def test_nonfinite_search_point_refused(rng, monkeypatch):
    # past the solve's bound, with ||y|| near 1e150 and a column of squared
    # norm near 1e-304, the loop checks every search point and refuses one
    # that is not finite instead of projecting it.  To make one, the first
    # projection hands back a NaN where v is 0: B's zero column hides it
    # from the objective's comparison, the step is accepted, and the NaN
    # spreads through the residual into the next search point
    A, y, v = rng.standard_normal((6, 10)), 1e150 * rng.standard_normal(6), rng.standard_normal(10)
    v[0], v[2] = 1e-152, 0.0
    received, project = [], otkit.subproblems._project

    def poisoning(z, k, scale, shift):
        received.append(z.copy())
        w, lam = project(z, k, scale, shift)
        if len(received) == 1:
            w[2] = np.nan
        return w, lam

    monkeypatch.setattr(otkit.subproblems, "_project", poisoning)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="search point"):
        solve_relaxed_ot(A, y, v, 3)
    assert len(received) == 1 and np.isfinite(received[0]).all()


def test_past_the_bound_overflow_warns_nothing():
    # past the bound, with ||y|| near 1e150 and a column of squared norm
    # near 1e-300, a product lam c_i in the projection overflows; it clips
    # to the exact 0 or 1 it stands for, with no RuntimeWarning
    rng = np.random.default_rng(5)
    A, y, v = rng.standard_normal((6, 10)), rng.standard_normal(6), rng.standard_normal(10)
    v[0] = 1e-150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, converged = solve_relaxed_ot(A, 1e150 * y, v, 3)
    assert converged
    assert abs(w.sum() - 3) <= 1e-12 and w.min() >= 0.0 and w.max() <= 1.0


@pytest.mark.parametrize("y_scale, v_small", [(1.0, 1.0), (1e120, 1.0), (1.0, 1e-120),
                                              (1e60, 1e-60)])
def test_search_points_stay_finite_within_the_bound(rng, monkeypatch, y_scale, v_small):
    # inside the bound the loop checks no search point: each one it
    # projects is finite, however far y and a column's norm are scaled
    A, y, v = rng.standard_normal((6, 10)), y_scale * rng.standard_normal(6), rng.standard_normal(10)
    v[0] *= v_small
    largest, project = [], otkit.subproblems._project

    def recording(z, k, scale, shift):
        largest.append(np.abs(z).max())
        return project(z, k, scale, shift)

    monkeypatch.setattr(otkit.subproblems, "_project", recording)
    solve_relaxed_ot(A, y, v, 3)
    assert largest and math.isfinite(max(largest))


def test_full_k_returns_ones_without_projecting(rng, monkeypatch):
    # w = ones is the only point of the capped simplex with k = n
    calls = []
    monkeypatch.setattr(otkit.subproblems, "_project", lambda *args: calls.append(args))
    A, y, v = rng.standard_normal((4, 6)), rng.standard_normal(4), rng.standard_normal(6)
    w, converged = solve_relaxed_ot(A, y, v, 6)
    assert converged and calls == []
    assert w.tobytes() == np.ones(6).tobytes()


def counted_steps(monkeypatch):
    """Patch the projection kernel the solve looks up so that each FISTA
    step, which projects once, appends to the returned list."""
    steps, project = [], otkit.subproblems._project

    def counting(*args):
        steps.append(None)
        return project(*args)

    monkeypatch.setattr(otkit.subproblems, "_project", counting)
    return steps


class TestAcceptPredicate:
    @staticmethod
    def capped_instance():
        # this solve runs all MAX_INNER_ITER steps without stalling
        A, y, _ = gaussian_instance(np.random.default_rng(302), 32, 64, 5)
        return A, y, 5.0 * (A.T @ y), 5

    def test_asked_every_accept_every_steps_with_the_current_iterate(self, monkeypatch):
        A, y, v, k = self.capped_instance()
        steps = counted_steps(monkeypatch)
        asked = []
        w, converged = solve_relaxed_ot(A, y, v, k,
                                        accept=lambda w: asked.append((len(steps), w.copy())))
        assert [step for step, _ in asked] == list(range(ACCEPT_EVERY, MAX_INNER_ITER + 1,
                                                         ACCEPT_EVERY))
        # the iterate asked about at step s is the one a solve capped at s returns
        for step, w_asked in (asked[0], asked[1], asked[4], asked[-1]):
            monkeypatch.setattr(otkit.subproblems, "MAX_INNER_ITER", step)
            w_capped, capped_converged = solve_relaxed_ot(A, y, v, k)
            assert not capped_converged
            assert w_asked.tobytes() == w_capped.tobytes()
        assert not converged and w.tobytes() == asked[-1][1].tobytes()

    def test_first_true_returns_that_iterate_converged(self, monkeypatch):
        A, y, v, k = self.capped_instance()
        steps = counted_steps(monkeypatch)
        asked = []

        def accept(w):
            asked.append(w.copy())
            return len(asked) == 3

        w, converged = solve_relaxed_ot(A, y, v, k, accept=accept)
        assert converged
        assert len(asked) == 3 and len(steps) == 3 * ACCEPT_EVERY
        assert w.tobytes() == asked[-1].tobytes()

    def test_stall_before_the_first_ask_never_asks(self, monkeypatch):
        # A = I and y a binary selector on the capped simplex: the objective
        # stalls at its minimum within a dozen steps
        n, k = 8, 3
        y = np.zeros(n)
        y[:k] = 1.0
        steps = counted_steps(monkeypatch)
        asked = []
        w, converged = solve_relaxed_ot(np.eye(n), y, np.ones(n), k,
                                        accept=lambda w: asked.append(w) or True)
        assert converged and len(steps) < ACCEPT_EVERY
        assert asked == []
        np.testing.assert_allclose(w, y, atol=1e-9)

    def test_no_predicate_matches_two_product_loop(self):
        # accept=None, and a predicate that never holds, leave every iterate
        # and flag as the two-product reference loop has them
        m, n, k = 32, 64, 5
        for seed in (300, 302, 303, 304):
            A, y, _ = gaussian_instance(np.random.default_rng(seed), m, n, k)
            v = 5.0 * (A.T @ y)
            w, converged = solve_relaxed_ot(A, y, v, k, accept=None)
            w_ref, converged_ref = two_product_relaxed_ot(A, y, v, k)
            assert converged == converged_ref
            np.testing.assert_array_equal(top_k_indices(v * w, k), top_k_indices(v * w_ref, k))
            assert np.abs(w - w_ref).max() <= 1e-6
            w_never, converged_never = solve_relaxed_ot(A, y, v, k, accept=lambda w: False)
            assert (w_never.tobytes(), converged_never) == (w.tobytes(), converged)


@pytest.mark.parametrize("solver", [solve_relaxed_ot, solve_binary_ot])
@pytest.mark.parametrize("m_y, n_v", [(3, 6), (4, 5)], ids=["y", "v"])
def test_selection_shape_mismatch_rejected(rng, solver, m_y, n_v):
    A = rng.standard_normal((4, 6))
    with pytest.raises(ValueError, match=r"incompatible shapes: A is \(4, 6\)"):
        solver(A, rng.standard_normal(m_y), rng.standard_normal(n_v), 2)


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

    @pytest.mark.parametrize("k", [True, 2.0, 2.5])
    def test_non_integer_k_rejected(self, rng, k):
        A, y, v = rng.standard_normal((4, 6)), rng.standard_normal(4), rng.standard_normal(6)
        with pytest.raises(ValueError, match="must be an integer"):
            solve_binary_ot(A, y, v, k)
        assert solve_binary_ot(A, y, v, np.int64(2))[1] == solve_binary_ot(A, y, v, 2)[1]

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

    @staticmethod
    def _selection_cases(rng, count):
        """(A, y, v, k): Gaussian matrices; matrices whose columns of A*v
        repeat three distinct ones, so that subsets tie exactly or sum the
        same columns in another order; equiangular frames.  k reaches 10,
        past the 8-term reductions."""
        for case in range(count):
            kind = case % 3
            n = int(rng.integers(2 if kind == 0 else 4, 13))
            k = int(rng.integers(1, min(10, n) + 1))
            m = int(rng.integers(1, n + 1))
            if kind == 0:
                A, v = rng.standard_normal((m, n)), rng.standard_normal(n)
            elif kind == 1:
                group = rng.integers(0, 3, n)
                A, v = rng.standard_normal((m, 3))[:, group], rng.standard_normal(3)[group]
            else:
                A, v = equiangular_frame(n, rng), rng.standard_normal(n)
            if case % 2:
                y = rng.standard_normal(A.shape[0])
            else:  # a k-subset of A*v fits y: near-ties at the minimum
                y = (A * v)[:, rng.choice(n, size=k, replace=False)].sum(axis=1)
            yield A, y, v, k
        yield np.eye(4), np.ones(4), np.full(4, 1e200), 2  # every objective overflows

    def test_batched_matches_loop_oracle(self, rng):
        cases = list(self._selection_cases(rng, 330))
        assert max(k for *_, k in cases) == 10
        for A, y, v, k in cases:
            w, obj = solve_binary_ot(A, y, v, k)
            w_ref, obj_ref = enumeration_binary_ot(A, y, v, k)
            np.testing.assert_array_equal(w, w_ref)
            assert np.float64(obj).tobytes() == np.float64(obj_ref).tobytes()

    def test_block_size_does_not_change_result(self, rng, monkeypatch):
        A = equiangular_frame(9, rng)
        A[:, 5] = A[:, 2]  # exact ties across block boundaries
        m, n = A.shape
        y = rng.standard_normal(m)
        v = rng.standard_normal(n)
        k = 3

        def results():
            w, obj = solve_binary_ot(A, y, v, k)
            return w.tobytes(), np.float64(obj).tobytes()

        selection = results()
        ric = [ric_exact(A, t) for t in range(1, 5)]
        for per_block in (1, 7):
            monkeypatch.setattr(otkit.core, "_BLOCK_ENTRIES", per_block * m * k)
            assert len(next(otkit.core.subset_blocks(n, k, m * k))) == per_block
            assert results() == selection
            ric_blocked = []
            for t in range(1, 5):
                monkeypatch.setattr(otkit.core, "_BLOCK_ENTRIES", per_block * t * t)
                ric_blocked.append(ric_exact(A, t))
            assert ric_blocked == ric


class TestLeastSquares:
    def test_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        x = least_squares_on_support(np.eye(3), y, np.array([0, 2]))
        np.testing.assert_allclose(x, [1.0, 0.0, 3.0], atol=1e-14)

    def test_exact_interpolation_on_true_support(self, rng):
        A, y, truth = gaussian_instance(rng, 8, 12, 3)
        x = least_squares_on_support(A, y, np.flatnonzero(truth))
        np.testing.assert_allclose(x, truth, atol=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        A = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        S = np.array([1, 4, 8])
        x = least_squares_on_support(A, y, S)
        As = A[:, S]
        expected = np.linalg.solve(As.T @ As, As.T @ y)
        np.testing.assert_allclose(x[S], expected, atol=1e-9)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_orthogonality_certificate(self, m, n, k, seed):
        # any least-squares solution leaves a residual orthogonal to A_S, on
        # either path: tall or wide A_S, full rank or not
        local = np.random.default_rng(seed)
        A = local.standard_normal((m, n))
        y = local.standard_normal(m)
        S = np.sort(local.choice(n, size=min(k, n), replace=False))
        x = least_squares_on_support(A, y, S)
        assert np.all(x[np.setdiff1d(np.arange(n), S)] == 0.0)
        cert = np.abs(A[:, S].T @ (y - A @ x)).max()
        assert cert <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(y)

    def test_rank_deficient_returns_min_norm(self):
        # G = A_S^T A_S is exactly singular: depending on round-off a Cholesky
        # factorisation of it raises or returns a factor with a tiny pivot, and
        # these inputs reach both; the refit must fall back to lstsq on each
        outcomes = set()
        for seed in range(8):
            local = np.random.default_rng(seed)
            A = local.standard_normal((5 + seed, 6))
            A[:, 3] = A[:, 1]
            y = local.standard_normal(5 + seed)
            S = np.array([0, 1, 3]) if seed % 2 else np.array([1, 3])
            As = A[:, S]
            try:
                np.linalg.cholesky(As.T @ As)
                outcomes.add("factored")
            except np.linalg.LinAlgError:
                outcomes.add("raised")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = least_squares_on_support(A, y, S)
            np.testing.assert_array_equal(x[S], np.linalg.lstsq(As, y, rcond=1e-12)[0])
            # the minimum-norm solution splits the weight across the duplicates
            assert x[1] == pytest.approx(x[3], rel=1e-9)
        assert outcomes == {"factored", "raised"}

    def test_singular_gram_falls_back_whatever_inv_returns(self):
        # G = A_S^T A_S is exactly singular: depending on round-off inv raises,
        # or returns an inverse whose bound trace(G) trace(G^-1) exceeds
        # LS_ERROR_MAX, or one whose bound is <= 0; each must fall back
        outcomes = set()
        for seed in range(600):
            local = np.random.default_rng(seed)
            m = 5 + seed % 8
            A = local.standard_normal((m, 6))
            A[:, 3] = A[:, 1]
            y = local.standard_normal(m)
            S = np.array([0, 1, 3]) if seed % 2 else np.array([1, 3])
            As = A[:, S]
            G = As.T @ As
            try:
                bound = G.trace() * np.linalg.inv(G).trace()
            except np.linalg.LinAlgError:
                outcomes.add("raised")
            else:
                assert not 0.0 < bound <= LS_ERROR_MAX
                outcomes.add("huge" if bound > 0.0 else "nonpositive")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = least_squares_on_support(A, y, S)
            np.testing.assert_array_equal(x[S], np.linalg.lstsq(As, y, rcond=1e-12)[0])
        assert outcomes == {"raised", "huge", "nonpositive"}

    def test_empty_support(self, rng):
        A = rng.standard_normal((4, 6))
        for support in ([], np.array([], dtype=int)):
            x = least_squares_on_support(A, rng.standard_normal(4), support)
            np.testing.assert_array_equal(x, np.zeros(6))

    def test_y_length_rejected(self, rng):
        A = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="y has length 3, expected 4"):
            least_squares_on_support(A, rng.standard_normal(3), np.array([1, 2]))

    @pytest.mark.parametrize("support", [[0, 6], [-1, 2]], ids=["above", "negative"])
    def test_out_of_range_support_rejected(self, rng, support):
        A = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="support indices out of range"):
            least_squares_on_support(A, rng.standard_normal(4), np.array(support))

    def test_duplicate_support_rejected(self, rng):
        A = rng.standard_normal((4, 6))
        with pytest.raises(ValueError):
            least_squares_on_support(A, rng.standard_normal(4), np.array([1, 1]))

    @pytest.mark.parametrize("support", [
        np.array([0.7, 2.2]), [0.0, 2.0], np.array([True, False, True, False, False, False]),
        np.array([[0, 2]]), np.empty((2, 0), dtype=int), np.empty((0, 3))],
        ids=["float", "float-list", "bool-mask", "2-d", "2-d-empty", "2-d-empty-float"])
    def test_non_integer_support_rejected(self, rng, support):
        A = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="1-d integer array"):
            least_squares_on_support(A, rng.standard_normal(4), support)

    def test_integer_supports_of_any_width_accepted(self, rng):
        A = rng.standard_normal((6, 9))
        y = rng.standard_normal(6)
        x = least_squares_on_support(A, y, np.array([1, 4, 8]))
        for support in ([1, 4, 8], np.array([1, 4, 8], dtype=np.uint8),
                        np.array([8, 1, 4], dtype=np.int32)):
            np.testing.assert_allclose(least_squares_on_support(A, y, support), x, rtol=1e-13)

    @pytest.mark.parametrize("kappa", [0.3, 0.4, 0.5, 0.6, 0.7])
    @pytest.mark.parametrize("rho", [0.1, 0.2, 0.3, 0.4])
    def test_matches_lstsq_on_greedy_sweep_geometry(self, kappa, rho):
        # one noisy instance per greedy-sweep cell (m 77..180, k up to 72),
        # refit on a support that is not the truth's, so the residual is not 0
        spec = EnsembleSpec(n=256, kappa=kappa, rho=rho, noise_eps=5e-3,
                            seed=int(100 * kappa + 1000 * rho))
        problem = generate_instance(spec)
        S = np.sort(np.random.default_rng(spec.seed).choice(256, size=spec.k, replace=False))
        x = least_squares_on_support(problem.A, problem.y, S)
        expected, *_ = np.linalg.lstsq(problem.A[:, S], problem.y, rcond=1e-12)
        assert np.count_nonzero(x) == spec.k
        assert np.linalg.norm(x[S] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_ill_conditioned_support_falls_back_to_lstsq(self, rng):
        # two nearly parallel columns: full rank, cond about 1e6, far beyond
        # what the normal equations may be trusted with
        A = rng.standard_normal((30, 8))
        A[:, 5] = A[:, 2] + 1e-6 * rng.standard_normal(30)
        A /= np.linalg.norm(A, axis=0)
        y = rng.standard_normal(30)
        S = np.array([0, 2, 5, 7])
        assert LS_ERROR_MAX < np.linalg.cond(A[:, S]) ** 2 < 1e14
        x = least_squares_on_support(A, y, S)
        expected, _, rank, _ = np.linalg.lstsq(A[:, S], y, rcond=1e-12)
        assert rank == 4
        np.testing.assert_array_equal(x[S], expected)
        assert np.count_nonzero(x) == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_refinement_step_on_a_moderately_conditioned_support(self, seed):
        # cond(A_S) about 3e3 stays on the inverse-Gram path; the normal equations
        # alone are off by about cond^2 eps (1e-9), the refined solve is not
        local = np.random.default_rng(seed)
        A = local.standard_normal((30, 8))
        A[:, 5] = A[:, 2] + 1e-3 * local.standard_normal(30)
        A /= np.linalg.norm(A, axis=0)
        S = np.array([0, 2, 5, 7])
        As = A[:, S]
        G = As.T @ As
        assert G.trace() * np.linalg.inv(G).trace() < LS_ERROR_MAX
        assert np.linalg.cond(As) > 1e3
        truth = local.standard_normal(4)
        x = least_squares_on_support(A, As @ truth, S)
        assert np.linalg.norm(x[S] - truth) <= 1e-12 * np.linalg.norm(truth)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale_falls_back_without_warning(self, rng, scale):
        # G = A_S^T A_S or G^-1 overflows; lstsq copes with the scale
        A = scale * rng.standard_normal((8, 5))
        y = rng.standard_normal(8)
        S = np.array([0, 2, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = least_squares_on_support(A, y, S)
        np.testing.assert_array_equal(x[S], np.linalg.lstsq(A[:, S], y, rcond=1e-12)[0])
