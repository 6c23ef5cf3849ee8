import numpy as np
import pytest

from otkit import algorithms
from otkit.algorithms import AlgorithmConfig, _search_point, config_for, run
from otkit.bench import equiangular_frame
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
        got = _search_point(A, y, x, x_prev, alpha, beta)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_zero_beta_is_gradient_step(self, rng):
        A = rng.normal(0, 1, (4, 7))
        y = rng.normal(0, 1, 4)
        x = rng.normal(0, 1, 7)
        got = _search_point(A, y, x, rng.normal(0, 1, 7), 1.0, 0.0)
        np.testing.assert_array_equal(got, x + A.T @ (y - A @ x))

    def test_fixed_point_at_truth(self, rng):
        A, y, truth, _ = gaussian_instance(rng, 6, 10, 2)
        got = _search_point(A, y, truth, truth, 1.0, 0.5)
        np.testing.assert_allclose(got, truth, atol=1e-14)

    def test_first_step_from_zero(self, rng):
        A = rng.normal(0, 1, (4, 7))
        y = rng.normal(0, 1, 4)
        z = np.zeros(7)
        got = _search_point(A, y, z, z, 2.5, 0.4)
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
        assert bc.window_ok
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
        A, y, truth, _ = gaussian_instance(rng, 16, 31, 2)
        problem = ProblemInstance(A=A, y=y, k=2, truth=truth)
        with pytest.raises(EnumerationGuardError):
            run(problem, config_for("hbot", alpha=1.0, beta=0.0))


class TestRelaxedVariants:
    def test_reduction_to_plain_rotp(self, rng):
        # alpha=1, beta=0, omega=1 must replay a directly-coded one-point loop
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            A, y, truth, _ = gaussian_instance(local, 32, 64, 5)
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
            A, y, truth, _ = gaussian_instance(local, 24, 48, 4)
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
            for sa, sb in zip(result.trace.supports[1:], map(np.flatnonzero, oracle)):
                assert np.array_equal(sa, sb)

    def test_zero_truth_stops_immediately(self, rng):
        A = rng.normal(0, 1, (6, 12))
        problem = ProblemInstance(A=A, y=np.zeros(6), k=2, truth=np.zeros(12))
        result = run(problem, config_for("hbrotp"))
        assert result.iterations == 0
        assert result.stop_reason == "residual_tol"
        np.testing.assert_array_equal(result.x_final, np.zeros(12))

    def test_benchmark_operating_point_recovers(self):
        local = np.random.default_rng(7)
        A, y, truth, _ = gaussian_instance(local, 128, 256, 12)
        problem = ProblemInstance(A=A, y=y, k=12, truth=truth)
        result = run(problem, config_for("hbrotp", alpha=5.0, beta=0.2))
        rel = np.linalg.norm(result.x_final - truth) / np.linalg.norm(truth)
        assert rel <= 1e-3

    def test_omega_two_compressions(self, rng):
        A, y, truth, _ = gaussian_instance(rng, 24, 48, 4)
        problem = ProblemInstance(A=A, y=y, k=4, truth=truth)
        result = run(problem, config_for("hbrot", alpha=1.0, beta=0.1,
                                         omega=2, max_iter=40))
        assert all(np.count_nonzero(x) <= 4 for x in result.trace.iterates)


class TestSharedBehaviour:
    @pytest.mark.parametrize("variant", ["hbot", "hbotp", "hbrot", "hbrotp",
                                         "iht", "htp", "omp"])
    def test_iterates_stay_k_sparse(self, variant, rng):
        local = np.random.default_rng(42)
        A, y, truth, _ = gaussian_instance(local, 12, 20, 3)
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
    def test_refit_never_hurts_residual(self, variant, rng):
        local = np.random.default_rng(5)
        A, y, truth, _ = gaussian_instance(local, 14, 24, 3)
        problem = ProblemInstance(A=A, y=y, k=3, truth=truth)
        cfg = config_for(variant, alpha=1.0, beta=0.2, max_iter=12, residual_tol=0.0)
        result = run(problem, cfg)
        cand = result.trace.candidate_residual_norms
        after = result.trace.residual_norms[2:]
        assert len(cand) == len(after) > 0
        for refit, candidate in zip(after, cand):
            assert refit <= candidate + 1e-12

    @pytest.mark.parametrize("variant", ["hbotp", "hbrotp"])
    def test_truth_is_fixed_point(self, variant, rng):
        local = np.random.default_rng(11)
        A, y, truth, _ = gaussian_instance(local, 10, 16, 2)
        problem = ProblemInstance(A=A, y=y, k=2, truth=truth)
        cfg = config_for(variant, alpha=1.0, beta=0.3, max_iter=5,
                         residual_tol=0.0, x0=truth, x1=truth)
        result = run(problem, cfg)
        for x in result.trace.iterates:
            np.testing.assert_allclose(x, truth, atol=1e-10)

    def test_stagnation_stop(self):
        # noise keeps the residual away from 0, so the run must detect the
        # numerical fixed point instead of burning the whole budget
        local = np.random.default_rng(2)
        A, y, truth, noise = gaussian_instance(local, 20, 30, 2, noise_eps=0.1)
        problem = ProblemInstance(A=A, y=y, k=2, truth=truth, noise=noise)
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

    def test_sparse_start_enforced(self, rng):
        problem = identity_problem(k=2)
        with pytest.raises(ValueError, match="k-sparse"):
            run(problem, config_for("hbrotp", x0=np.ones(8), x1=np.zeros(8)))


class TestBaselines:
    @pytest.mark.parametrize("variant", ["iht", "htp", "omp"], ids=lambda v: f"run_{v}-{v}")
    def test_identity_recovery(self, variant):
        problem = identity_problem(k=3)
        result = run(problem, config_for(variant))
        assert result.iterations <= 3
        np.testing.assert_allclose(result.x_final, problem.truth, atol=1e-12)

    def test_omp_max_correlation_first(self, rng):
        A, _, _, _ = gaussian_instance(rng, 10, 20, 1)
        j = 13
        problem = ProblemInstance(A=A, y=A[:, j].copy(), k=1)
        result = run(problem, config_for("omp"))
        assert list(result.trace.supports[1]) == [j]

    def test_omp_runs_exactly_k_steps(self, rng):
        A = rng.normal(0, 1, (12, 30))
        A /= np.linalg.norm(A, axis=0)
        y = rng.normal(0, 1, 12)  # generic y: no early residual stop
        truth = np.zeros(30)
        truth[[4, 17]] = [1.0, -2.0]
        # noiseless y of sparsity 2 < k: with residual_tol=0 OMP still spends
        # its whole budget of k selections, with no stagnation stop
        for y, tol in ((y, 1e-10), (A @ truth, 0.0)):
            problem = ProblemInstance(A=A, y=y, k=4)
            result = run(problem, config_for("omp", residual_tol=tol))
            assert result.iterations == 4
            assert len(result.trace.supports[-1]) == 4
            assert result.stop_reason == "max_iter"

    @pytest.mark.parametrize("variant", ["iht", "htp"])
    def test_unit_step_ignores_alpha_beta(self, variant):
        local = np.random.default_rng(6)
        A, y, truth, _ = gaussian_instance(local, 32, 64, 6)
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
        A, y, truth, _ = gaussian_instance(local, 64, 128, 5)
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
        local = np.random.default_rng(42)
        A, y, truth, _ = gaussian_instance(local, 12, 20, 3)
        problem = ProblemInstance(A=A, y=y, k=3, truth=truth)
        result = run(problem, config_for(variant, alpha=1.0, beta=0.1, max_iter=5,
                                         residual_tol=0.0))
        assert result.iterations > 0
        assert len(calls) == result.iterations


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
        with pytest.raises(ValueError, match="omega must be a positive integer"):
            AlgorithmConfig(omega=1.5)
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            AlgorithmConfig(max_iter=2.5)
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            AlgorithmConfig(max_iter=True)
        AlgorithmConfig(omega=np.int64(2), max_iter=np.int32(7))

    def test_dispatch(self, rng):
        problem = identity_problem()
        for variant in ("hbot", "iht", "omp"):
            result = run(problem, config_for(variant, alpha=1.0, beta=0.0))
            assert result.stop_reason in ("residual_tol", "stagnation", "max_iter")
