import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import algorithms, subproblems
from otkit.algorithms import (ALL_VARIANTS, AlgorithmConfig, _search_point,
                              config_for, run)
from otkit.bench import EnsembleSpec, equiangular_frame, generate_instance
from otkit.bounds import convergence_envelope, hbot_constants, ric_profile
from otkit.core import ProblemInstance, hard_threshold
from otkit.errors import EnumerationGuardError
from otkit.subproblems import solve_relaxed_ot

from conftest import gaussian_instance


def identity_problem(k=2, n=8):
    truth = np.zeros(n)
    truth[1: 1 + k] = np.arange(1, k + 1, dtype=float)
    return ProblemInstance(A=np.eye(n), y=truth.copy(), k=k, truth=truth)


class TestHeavyBallPoint:
    def test_matches_naive_oracle(self, rng):
        A = rng.normal(0, 1, (5, 9))
        y = rng.normal(0, 1, 5)
        x = rng.normal(0, 1, 9)
        x_prev = rng.normal(0, 1, 9)
        alpha, beta = 1.7, 0.3
        r = np.array([y[i] - sum(A[i, j] * x[j] for j in range(9)) for i in range(5)])
        grad = np.array([sum(A[i, j] * r[i] for i in range(5)) for j in range(9)])
        expected = x + alpha * grad + beta * (x - x_prev)
        got = _search_point(A, y - A @ x, x, x_prev, alpha, beta)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_zero_beta_is_gradient_step(self, rng):
        A = rng.normal(0, 1, (4, 7))
        y = rng.normal(0, 1, 4)
        x = rng.normal(0, 1, 7)
        got = _search_point(A, y - A @ x, x, rng.normal(0, 1, 7), 1.0, 0.0)
        np.testing.assert_array_equal(got, x + A.T @ (y - A @ x))

    def test_fixed_point_at_truth(self, rng):
        A, y, truth = gaussian_instance(rng, 6, 10, 2)
        got = _search_point(A, y - A @ truth, truth, truth, 1.0, 0.5)
        np.testing.assert_allclose(got, truth, atol=1e-14)

    def test_first_step_from_zero(self, rng):
        A = rng.normal(0, 1, (4, 7))
        y = rng.normal(0, 1, 4)
        z = np.zeros(7)
        got = _search_point(A, y - A @ z, z, z, 2.5, 0.4)
        np.testing.assert_array_equal(got, 2.5 * (A.T @ y))


class TestExactSelectionVariants:
    @pytest.mark.parametrize("variant", ["hbot", "hbotp"], ids=lambda v: f"run_{v}-{v}")
    def test_identity_one_step(self, variant):
        problem = identity_problem()
        cfg = config_for(variant, alpha=1.0, beta=0.0)
        result = run(problem, cfg)
        assert result.iterations == 1
        np.testing.assert_allclose(result.x_final, problem.truth, atol=1e-12)
        assert result.stop_reason == "residual_tol"

    def test_window_certified_decay(self, rng):
        # equiangular columns give closed-form constants inside the window
        n, k = 16, 2
        A = equiangular_frame(n, rng)
        prof = ric_profile(A, k)
        beta = 0.1
        bc = hbot_constants(prof, alpha=1.0 + beta, beta=beta)
        assert not bc.violations
        truth = np.zeros(n)
        truth[[3, 11]] = rng.standard_normal(2)
        problem = ProblemInstance(A=A, y=A @ truth, k=k, truth=truth)
        result = run(problem, config_for("hbotp", alpha=1.0 + beta, beta=beta,
                                         max_iter=50))
        errors = np.asarray(result.trace.errors_to_truth)
        assert errors[-1] <= 1e-6 * np.linalg.norm(truth)
        envelope = convergence_envelope(bc, errors[0], errors[1], 0.0,
                                        np.arange(2, errors.size))
        assert np.all(errors[2:] <= envelope + 1e-12)

    def test_enumeration_guard_propagates(self, rng):
        A, y, truth = gaussian_instance(rng, 16, 31, 2)
        problem = ProblemInstance(A=A, y=y, k=2, truth=truth)
        with pytest.raises(EnumerationGuardError):
            run(problem, config_for("hbot", alpha=1.0, beta=0.0))


class TestRelaxedVariants:
    def test_reduction_to_plain_rotp(self, rng):
        # alpha=1, beta=0, omega=1 must replay a directly-coded one-point loop
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            A, y, truth = gaussian_instance(local, 32, 64, 5)
            problem = ProblemInstance(A=A, y=y, k=5, truth=truth)
            cfg = config_for("hbrotp", alpha=1.0, beta=0.0, omega=1, max_iter=25,
                             residual_tol=1e-10)
            result = run(problem, cfg)

            x = np.zeros(64)
            oracle = [x.copy()]
            for _ in range(25):
                if np.linalg.norm(y - A @ x) <= 1e-10:
                    break
                u = x + A.T @ (y - A @ x)
                w, _ = solve_relaxed_ot(A, y, u, 5)
                xs = hard_threshold(u * w, 5)
                S = np.flatnonzero(xs)
                coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
                x = np.zeros(64)
                x[S] = coef
                oracle.append(x.copy())

            ours = result.trace.iterates[1:]  # drop the duplicated zero start
            assert len(ours) == len(oracle)
            for a, b in zip(ours, oracle):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_reduction_holds_for_two_compressions(self, rng):
        # same replay with omega=2: two relaxed selections per iteration
        for seed in (17, 18):
            local = np.random.default_rng(seed)
            A, y, truth = gaussian_instance(local, 24, 48, 4)
            problem = ProblemInstance(A=A, y=y, k=4, truth=truth)
            cfg = config_for("hbrotp", alpha=1.0, beta=0.0, omega=2, max_iter=15,
                             residual_tol=1e-10)
            result = run(problem, cfg)

            x = np.zeros(48)
            oracle = [x.copy()]
            for _ in range(15):
                if np.linalg.norm(y - A @ x) <= 1e-10:
                    break
                v = x + A.T @ (y - A @ x)
                for _ in range(2):
                    w, _ = solve_relaxed_ot(A, y, v, 4)
                    v = v * w
                xs = hard_threshold(v, 4)
                S = np.flatnonzero(xs)
                coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
                x = np.zeros(48)
                x[S] = coef
                oracle.append(x.copy())
            ours = result.trace.iterates[1:]
            for a, b in zip(ours, oracle):
                np.testing.assert_allclose(a, b, atol=1e-12)
                assert np.array_equal(np.flatnonzero(a), np.flatnonzero(b))

    def test_zero_truth_stops_immediately(self, rng):
        A = rng.normal(0, 1, (6, 12))
        problem = ProblemInstance(A=A, y=np.zeros(6), k=2, truth=np.zeros(12))
        result = run(problem, config_for("hbrotp"))
        assert result.iterations == 0
        assert result.stop_reason == "residual_tol"
        np.testing.assert_array_equal(result.x_final, np.zeros(12))

    def test_benchmark_operating_point_recovers(self):
        local = np.random.default_rng(7)
        A, y, truth = gaussian_instance(local, 128, 256, 12)
        problem = ProblemInstance(A=A, y=y, k=12, truth=truth)
        result = run(problem, config_for("hbrotp", alpha=5.0, beta=0.2))
        rel = np.linalg.norm(result.x_final - truth) / np.linalg.norm(truth)
        assert rel <= 1e-3

    def test_omega_two_compressions(self, rng):
        A, y, truth = gaussian_instance(rng, 24, 48, 4)
        problem = ProblemInstance(A=A, y=y, k=4, truth=truth)
        result = run(problem, config_for("hbrot", alpha=1.0, beta=0.1,
                                         omega=2, max_iter=40))
        assert all(np.count_nonzero(x) <= 4 for x in result.trace.iterates)


class TestRefitStop:
    """hbrotp's last relaxed solve of a step stops once the support it would
    keep re-fits within the residual tolerance."""

    @staticmethod
    def predicates_asked(monkeypatch, variant, **overrides):
        """Run variant on a small instance; return the accept predicate each
        relaxed solve received, in call order."""
        solve, received = algorithms.solve_relaxed_ot, []

        def recording(A, y, v, k, accept=None):
            received.append(accept)
            return solve(A, y, v, k, accept=accept)

        monkeypatch.setattr(algorithms, "solve_relaxed_ot", recording)
        A, y, truth = gaussian_instance(np.random.default_rng(17), 24, 48, 4)
        # a zero tolerance keeps the run going for all its steps
        run(ProblemInstance(A=A, y=y, k=4, truth=truth),
            config_for(variant, alpha=1.0, beta=0.1, max_iter=3, residual_tol=0.0,
                       **overrides))
        return received

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_same_result_in_fewer_steps(self, seed, monkeypatch):
        problem = generate_instance(EnsembleSpec(n=128, kappa=0.5, rho=0.15, seed=seed))
        project, steps = subproblems._project, [0]

        def counting(*args):
            steps[0] += 1
            return project(*args)

        # each FISTA step projects once, through the unchecked kernel
        monkeypatch.setattr(subproblems, "_project", counting)
        stopped = run(problem, config_for("hbrotp"))
        stopped_steps, steps[0] = steps[0], 0
        # asked after no step of the solve, stop B never fires
        monkeypatch.setattr(subproblems, "ACCEPT_EVERY", subproblems.MAX_INNER_ITER + 1)
        full = run(problem, config_for("hbrotp"))
        assert stopped.x_final.tobytes() == full.x_final.tobytes()
        assert stopped.stop_reason == full.stop_reason == "residual_tol"
        assert stopped_steps < steps[0]

    @pytest.mark.parametrize("omega", [1, 2])
    def test_only_the_last_compression_is_asked(self, omega, monkeypatch):
        received = self.predicates_asked(monkeypatch, "hbrotp", omega=omega)
        assert len(received) >= 2 * omega
        for i, p in enumerate(received):
            assert callable(p) if i % omega == omega - 1 else p is None

    def test_predicate_refits_each_new_support_once(self, monkeypatch):
        A, y, truth = gaussian_instance(np.random.default_rng(3), 24, 48, 4)
        refit, supports, asked = algorithms.least_squares_on_support, [], []

        def recording(A, y, support):
            supports.append(support.tolist())
            return refit(A, y, support)

        def capturing(A, y, v, k, accept=None):
            asked.append(accept)
            return np.ones(len(v)), True

        monkeypatch.setattr(algorithms, "least_squares_on_support", recording)
        monkeypatch.setattr(algorithms, "solve_relaxed_ot", capturing)
        fit = algorithms._support_fit(A, y)
        algorithms._relaxed(A, y, np.arange(1.0, 49.0), 4, config_for("hbrotp"), fit)
        [accept] = asked
        wrong, other, right = np.zeros(48), np.zeros(48), np.zeros(48)
        wrong[:4] = other[4:8] = 1.0
        right[np.flatnonzero(truth)] = 1.0
        # a support asked about again in a row is not re-fitted, and keeps its answer
        assert [accept(wrong), accept(wrong), accept(other), accept(wrong)] == [False] * 4
        assert supports == [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 3]]
        assert accept(right) and supports[-1] == np.flatnonzero(truth).tolist()
        # the outer step takes the accepted support's fit without fitting it again
        x, r = fit(right)
        assert len(supports) == 4 and np.linalg.norm(r) <= config_for("hbrotp").residual_tol
        assert np.flatnonzero(x).tolist() == supports[-1]
        np.testing.assert_array_equal(r, y - A @ x)

    @pytest.mark.parametrize("omega", [1, 2])
    def test_hbrot_is_never_asked(self, omega, monkeypatch):
        received = self.predicates_asked(monkeypatch, "hbrot", omega=omega)
        assert len(received) >= omega and all(p is None for p in received)


class TestInnerFlags:
    """RunResult.inner_flags counts the relaxed solves that hit their cap."""

    @pytest.mark.parametrize("variant, omega", [("hbrot", 2), ("hbrotp", 1),
                                                ("htp", 1), ("hbotp", 1)])
    def test_counts_every_capped_solve(self, variant, omega, monkeypatch):
        # five steps are too few to stall (8 in a row) or to be asked (step
        # 20), so every relaxed solve runs to its cap
        monkeypatch.setattr(subproblems, "MAX_INNER_ITER", 5)
        solve, converged = algorithms.solve_relaxed_ot, []

        def recording(*args, **kwargs):
            w, ok = solve(*args, **kwargs)
            converged.append(ok)
            return w, ok

        monkeypatch.setattr(algorithms, "solve_relaxed_ot", recording)
        A, y, truth = gaussian_instance(np.random.default_rng(42), 12, 20, 3)
        result = run(ProblemInstance(A=A, y=y, k=3, truth=truth),
                     config_for(variant, alpha=1.0, beta=0.1, omega=omega,
                                max_iter=6, residual_tol=0.0))
        assert result.iterations > 0
        relaxed = variant in ("hbrot", "hbrotp")
        assert result.inner_flags == (omega * result.iterations if relaxed else 0)
        assert result.inner_flags == converged.count(False) == len(converged)


class TestSharedBehaviour:
    @pytest.mark.parametrize("variant", ["hbot", "hbotp", "hbrot", "hbrotp",
                                         "iht", "htp", "omp"])
    def test_iterates_stay_k_sparse(self, variant, rng):
        local = np.random.default_rng(42)
        A, y, truth = gaussian_instance(local, 12, 20, 3)
        problem = ProblemInstance(A=A, y=y, k=3, truth=truth)
        result = run(problem, config_for(variant, alpha=1.0, beta=0.1, max_iter=15))
        for x in result.trace.iterates:
            assert np.count_nonzero(x) <= 3
        assert np.array_equal(result.x_final, result.trace.iterates[-1])
        # stored residual norms recompute from the iterates
        for x, r in zip(result.trace.iterates, result.trace.residual_norms):
            recomputed = np.linalg.norm(y - A @ x)
            assert abs(recomputed - r) <= 1e-12 * (1.0 + recomputed)

    @pytest.mark.parametrize("variant", ["hbotp", "hbrotp"])
    def test_refit_never_hurts_residual(self, variant, monkeypatch):
        local = np.random.default_rng(5)
        A, y, truth = gaussian_instance(local, 14, 24, 3)
        problem = ProblemInstance(A=A, y=y, k=3, truth=truth)
        select, *rest = algorithms._VARIANTS[variant]
        cand = []

        def recording(A, y, u, k, cfg, fit):
            candidate, flags = select(A, y, u, k, cfg, fit)
            cand.append(float(np.linalg.norm(y - A @ candidate)))
            return candidate, flags

        monkeypatch.setitem(algorithms._VARIANTS, variant, (recording, *rest))
        cfg = config_for(variant, alpha=1.0, beta=0.2, max_iter=12, residual_tol=0.0)
        result = run(problem, cfg)
        after = result.trace.residual_norms[2:]
        assert len(cand) == len(after) > 0
        for refit, candidate in zip(after, cand):
            assert refit <= candidate + 1e-12

    @pytest.mark.parametrize("variant, reason", [("hbotp", "stagnation"),
                                                 ("htp", "stagnation"),
                                                 ("hbrotp", "residual_tol")])
    def test_no_support_is_fitted_twice_in_a_row(self, variant, reason, monkeypatch):
        # hbotp as desk certification runs it, on an equiangular frame at k = 2;
        # htp held at its fixed point until it stagnates; hbrotp ended by its
        # relaxed solve's fit test (stop B), whose fit the outer step takes
        if variant == "hbotp":
            rng = np.random.default_rng(4)
            A = equiangular_frame(16, rng)
            truth = np.zeros(16)
            truth[rng.choice(16, size=2, replace=False)] = rng.standard_normal(2)
            problem = ProblemInstance(A=A, y=A @ truth, k=2, truth=truth)
            cfg = config_for("hbotp", alpha=1.1, beta=0.1, residual_tol=0.0)
        elif variant == "htp":
            A, y, truth = gaussian_instance(np.random.default_rng(2), 20, 30, 2, noise_eps=0.1)
            problem = ProblemInstance(A=A, y=y, k=2, truth=truth)
            cfg = config_for("htp", max_iter=200, residual_tol=0.0)
        else:
            problem = generate_instance(EnsembleSpec(n=128, kappa=0.5, rho=0.15, seed=1))
            cfg = config_for("hbrotp")
        refit, supports = algorithms.least_squares_on_support, []

        def recording(A, y, support):
            supports.append(support.tolist())
            return refit(A, y, support)

        monkeypatch.setattr(algorithms, "least_squares_on_support", recording)
        result = run(problem, cfg)
        assert result.stop_reason == reason
        assert len(supports) > 0
        assert all(a != b for a, b in zip(supports, supports[1:])), supports

    def test_stagnation_stop(self):
        # noise keeps the residual away from 0, so the run must detect the
        # numerical fixed point instead of burning the whole budget
        local = np.random.default_rng(2)
        A, y, truth = gaussian_instance(local, 20, 30, 2, noise_eps=0.1)
        problem = ProblemInstance(A=A, y=y, k=2, truth=truth)
        cfg = config_for("htp", max_iter=200, residual_tol=0.0)
        result = run(problem, cfg)
        assert result.stop_reason == "stagnation"
        assert result.iterations < 200

    def test_divergence_is_a_stop_reason(self):
        # alpha far outside the window: |u| grows ~1e5 per step until A diag(u)
        # overflows, where the relaxed selection's Gram could not be formed;
        # IHT's unit step grows as fast on a matrix with norm ~1e3
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 64))
        truth = np.zeros(64)
        truth[rng.choice(64, 3, replace=False)] = rng.standard_normal(3)
        for scale, cfg, starts in ((1.0, config_for("hbrot", alpha=1e6, beta=0.9), 2),
                                   (100.0, config_for("iht", max_iter=500), 1)):
            problem = ProblemInstance(A=scale * A, y=scale * A @ truth, k=3, truth=truth)
            with np.errstate(over="raise"):
                result = run(problem, cfg)
            assert result.stop_reason == "diverged"
            assert result.iterations < 50
            assert np.isfinite(result.x_final).all()
            np.testing.assert_array_equal(result.x_final, result.trace.iterates[-1])
            assert len(result.trace.iterates) == result.iterations + starts

    @given(variant=st.sampled_from(ALL_VARIANTS), n=st.integers(4, 12),
           log_scale=st.floats(-3, 300), log_alpha=st.floats(-3, 8),
           beta=st.floats(0, 10), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_every_run_ends_in_a_stop_reason(self, variant, n, log_scale, log_alpha,
                                             beta, seed):
        # A from 1e-3 to 1e300 and alpha up to 1e8, far outside any window:
        # construction refuses exactly the problems whose y or ||A||_F ||y||
        # overflows, and no floating-point error may escape run() on any other,
        # whichever way the run ends
        local = np.random.default_rng(seed)
        m = int(local.integers(2, n + 1))
        k = int(local.integers(1, min(m, 3) + 1))
        A = 10.0**log_scale * local.standard_normal((m, n))
        truth = np.zeros(n)
        truth[local.choice(n, size=k, replace=False)] = local.standard_normal(k)
        with np.errstate(over="ignore", invalid="ignore"):
            y = A @ truth
            scale = np.linalg.norm(A) * np.linalg.norm(y)
        if not (np.isfinite(y).all() and np.isfinite(scale)):
            with pytest.raises(ValueError, match="non-finite|overflows float64"):
                ProblemInstance(A=A, y=y, k=k, truth=truth)
            return
        problem = ProblemInstance(A=A, y=y, k=k, truth=truth)
        max_iter = 8 if variant in ("hbrot", "hbrotp") else 30
        cfg = config_for(variant, alpha=10.0**log_alpha, beta=beta, max_iter=max_iter)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = run(problem, cfg)
        assert result.stop_reason in ("residual_tol", "stagnation", "max_iter", "diverged")
        assert np.isfinite(result.x_final).all()
        assert np.count_nonzero(result.x_final) <= k
        np.testing.assert_array_equal(result.x_final, result.trace.iterates[-1])
        starts = 2 if variant.startswith("hb") else 1
        assert len(result.trace.iterates) == result.iterations + starts


class TestBaselines:
    @pytest.mark.parametrize("variant", ["iht", "htp", "omp"], ids=lambda v: f"run_{v}-{v}")
    def test_identity_recovery(self, variant):
        problem = identity_problem(k=3)
        result = run(problem, config_for(variant))
        assert result.iterations <= 3
        np.testing.assert_allclose(result.x_final, problem.truth, atol=1e-12)

    def test_omp_max_correlation_first(self, rng):
        A, _, _ = gaussian_instance(rng, 10, 20, 1)
        j = 13
        problem = ProblemInstance(A=A, y=A[:, j].copy(), k=1)
        result = run(problem, config_for("omp"))
        assert list(np.flatnonzero(result.trace.iterates[1])) == [j]

    def test_omp_runs_exactly_k_steps(self, rng):
        A = rng.normal(0, 1, (12, 30))
        A /= np.linalg.norm(A, axis=0)
        y = rng.normal(0, 1, 12)  # generic y: no early residual stop
        truth = np.zeros(30)
        truth[[4, 17]] = [1.0, -2.0]
        # noiseless y of sparsity 2 < k: with residual_tol=0 OMP still spends
        # its whole budget of k selections, with no stagnation stop
        # max_iter=1: omp ignores it and still makes its k selections
        for y, options in ((y, dict(residual_tol=1e-10)), (A @ truth, dict(residual_tol=0.0)),
                           (y, dict(max_iter=1))):
            problem = ProblemInstance(A=A, y=y, k=4)
            result = run(problem, config_for("omp", **options))
            assert result.iterations == 4
            assert np.count_nonzero(result.trace.iterates[-1]) == 4
            assert result.stop_reason == "max_iter"

    @pytest.mark.parametrize("variant", ["iht", "htp"])
    def test_unit_step_ignores_alpha_beta(self, variant):
        local = np.random.default_rng(6)
        A, y, truth = gaussian_instance(local, 32, 64, 6)
        problem = ProblemInstance(A=A, y=y, k=6, truth=truth)
        plain = run(problem, config_for(variant, alpha=1.0, beta=0.0, max_iter=20))
        weighted = run(problem, config_for(variant, alpha=5.0, beta=0.2, max_iter=20))
        assert weighted.stop_reason == plain.stop_reason
        assert weighted.iterations == plain.iterations > 0
        assert weighted.trace.residual_norms == plain.trace.residual_norms
        for a, b in zip(weighted.trace.iterates, plain.trace.iterates, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_htp_matches_direct_recursion(self):
        local = np.random.default_rng(3)
        A, y, truth = gaussian_instance(local, 64, 128, 5)
        problem = ProblemInstance(A=A, y=y, k=5, truth=truth)
        result = run(problem, config_for("htp", max_iter=30))
        rel = np.linalg.norm(result.x_final - truth) / np.linalg.norm(truth)
        assert rel <= 1e-10

        x = np.zeros(128)
        oracle = [x.copy()]
        for _ in range(30):
            if np.linalg.norm(y - A @ x) <= 1e-10:
                break
            g = x + A.T @ (y - A @ x)
            S = np.sort(np.argsort(-np.abs(g), kind="stable")[:5])
            coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
            x = np.zeros(128)
            x[S] = coef
            oracle.append(x.copy())
        ours = result.trace.iterates
        assert len(ours) == len(oracle)
        for a, b in zip(ours, oracle):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("kappa,rho,eps,seed", [
        (0.5, 0.2, 0.0, 5),
        (0.7, 0.4, 0.0, 9),  # k=72 steps: a loss of orthogonality shows here first
        (0.6, 0.3, 5e-3, 13),
    ])
    def test_omp_matches_per_step_least_squares(self, kappa, rho, eps, seed):
        spec = EnsembleSpec(n=256, kappa=kappa, rho=rho, noise_eps=eps, seed=seed)
        problem = generate_instance(spec)
        A, y, k = problem.A, problem.y, problem.k
        tol = max(eps, 1e-10)
        result = run(problem, config_for("omp", residual_tol=tol))

        x = np.zeros(256)
        oracle = [x.copy()]
        selected = []
        while len(selected) < k and np.linalg.norm(y - A @ x) > tol:
            corr = np.abs(A.T @ (y - A @ x))
            corr[selected] = -np.inf
            selected.append(int(np.argmax(corr)))
            S = np.sort(selected)
            coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
            x = np.zeros(256)
            x[S] = coef
            oracle.append(x.copy())
        assert result.iterations == len(selected)
        assert len(result.trace.iterates) == len(oracle)
        for step, (a, b) in enumerate(zip(result.trace.iterates, oracle)):
            np.testing.assert_array_equal(np.flatnonzero(a), np.flatnonzero(b), err_msg=f"step {step}")
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=f"step {step}")

    @pytest.mark.parametrize("seed", range(5))
    def test_omp_rank_exhausted_falls_back_to_least_squares(self, seed, monkeypatch):
        # A has rank 2: from step 3 on every atom lies in the span selected,
        # so the QR update must hand over to least_squares_on_support
        local = np.random.default_rng(seed)
        A = local.normal(0, 1, (5, 2)) @ local.normal(0, 1, (2, 9))
        A /= np.linalg.norm(A, axis=0)
        y = local.normal(0, 1, 5)
        supports = []
        original = algorithms.least_squares_on_support

        def spy(A, y, support):
            supports.append(support.tolist())
            return original(A, y, support)

        monkeypatch.setattr(algorithms, "least_squares_on_support", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(ProblemInstance(A=A, y=y, k=4), config_for("omp", residual_tol=0.0))
        assert result.iterations == 4 and result.stop_reason == "max_iter"
        # the fallback fires at step 3 and solves step 4 too
        assert len(supports) == 2
        fallback = result.trace.iterates[-len(supports):]
        for x, S in zip(fallback, supports, strict=True):
            assert np.flatnonzero(x).tolist() == S
            np.testing.assert_array_equal(x, original(A, y, np.array(S)))

    def test_omp_zero_atom_falls_back_to_least_squares(self):
        # y has a component no column reaches, so step 2 selects the zero
        # column: its orthogonalised atom is exactly 0
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        result = run(ProblemInstance(A=A, y=np.array([1.0, 1.0]), k=2),
                     config_for("omp", residual_tol=0.0))
        assert result.iterations == 2
        np.testing.assert_array_equal(result.x_final, [1.0, 0.0])
        assert result.trace.residual_norms == [math.sqrt(2.0), 1.0, 1.0]


class TestInnerSolveLookup:
    @pytest.mark.parametrize("variant,name", [
        ("hbrotp", "solve_relaxed_ot"),
        ("hbrotp", "least_squares_on_support"),
        ("hbot", "solve_binary_ot"),
        ("htp", "least_squares_on_support"),
    ])
    def test_patched_solver_sees_every_step(self, variant, name, monkeypatch):
        # instrumentation replaces these module attributes; each outer step
        # must call the replacement, not a function captured at import time
        original = getattr(algorithms, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, name, counting)
        # the refit variants' fit is asked once per outer step, and by hbrotp's
        # relaxed solve; it fits only a support not asked about just before,
        # so record every support it is asked about beneath whichever patch
        # this case installed
        make_fit, asked = algorithms._support_fit, []

        def recording_fit(A, y):
            fit = make_fit(A, y)

            def recording(candidate):
                asked.append(np.flatnonzero(candidate).tolist())
                return fit(candidate)
            return recording

        monkeypatch.setattr(algorithms, "_support_fit", recording_fit)
        local = np.random.default_rng(42)
        A, y, truth = gaussian_instance(local, 12, 20, 3)
        problem = ProblemInstance(A=A, y=y, k=3, truth=truth)
        result = run(problem, config_for(variant, alpha=1.0, beta=0.1, max_iter=5,
                                         residual_tol=0.0))
        assert result.iterations > 0
        asked_in_solves = len(asked) - (result.iterations if variant != "hbot" else 0)
        assert bool(asked_in_solves) == (variant == "hbrotp")
        fits = sum(1 for i, S in enumerate(asked) if i == 0 or S != asked[i - 1])
        assert len(calls) == (fits if name == "least_squares_on_support" else result.iterations)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(variant="nope")
        with pytest.raises(ValueError):
            AlgorithmConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AlgorithmConfig(beta=-0.1)
        with pytest.raises(ValueError):
            AlgorithmConfig(omega=0)
        for omega in (1.5, 2.5, True, 0):
            with pytest.raises(ValueError, match="omega must be a positive integer"):
                AlgorithmConfig(omega=omega)
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            AlgorithmConfig(max_iter=2.5)
        for max_iter in (True, 0):
            with pytest.raises(ValueError, match="max_iter must be a positive integer"):
                AlgorithmConfig(max_iter=max_iter)
        for field in ("alpha", "beta", "residual_tol"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be"):
                    AlgorithmConfig(**{field: value})
        AlgorithmConfig(omega=np.int64(2), max_iter=np.int32(7))

    def test_dispatch(self, rng):
        problem = identity_problem()
        for variant in ("hbot", "iht", "omp"):
            result = run(problem, config_for(variant, alpha=1.0, beta=0.0))
            assert result.stop_reason in ("residual_tol", "stagnation", "max_iter")
