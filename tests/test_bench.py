import io
import math

import numpy as np
import pytest

import otkit.bench
from otkit.algorithms import config_for
from otkit.bench import (EnsembleSpec, equiangular_frame, generate_instance,
                         run_trial, success_grid, transition_curve,
                         transition_point, trial_seed, write_transition_csv,
                         write_trials_csv)


class TestEnsembleSpec:
    def test_dimensions(self):
        spec = EnsembleSpec(n=256, kappa=0.5, rho=0.1)
        assert spec.m == 128
        assert spec.k == 13

    def test_ceil_and_round(self):
        spec = EnsembleSpec(n=100, kappa=0.33, rho=0.5)
        assert spec.m == math.ceil(33.0)
        assert spec.k == 17  # floor(16.5 + 0.5)

    def test_k_at_least_one(self):
        assert EnsembleSpec(n=100, kappa=0.1, rho=0.01).k == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.0, rho=0.1)
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.5, rho=1.5)
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.5, rho=0.1, noise_eps=-1)
        with pytest.raises(ValueError, match="n must be a positive integer"):
            EnsembleSpec(n=10.0, kappa=0.5, rho=0.1)
        assert EnsembleSpec(n=np.int64(10), kappa=0.5, rho=0.1).m == 5


class TestGenerateInstance:
    def test_columns_unit_norm(self):
        problem = generate_instance(EnsembleSpec(n=64, kappa=0.5, rho=0.1, seed=3))
        norms = np.linalg.norm(problem.A, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_noiseless_consistency_exact(self):
        problem = generate_instance(EnsembleSpec(n=40, kappa=0.6, rho=0.2, seed=5))
        np.testing.assert_array_equal(problem.y, problem.A @ problem.truth)
        assert problem.noise is None

    def test_seed_determinism(self):
        spec = EnsembleSpec(n=48, kappa=0.5, rho=0.15, noise_eps=1e-3, seed=99)
        a = generate_instance(spec)
        b = generate_instance(spec)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.truth, b.truth)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_noise_norm_is_eps(self):
        problem = generate_instance(EnsembleSpec(n=40, kappa=0.5, rho=0.2,
                                                 noise_eps=5e-3, seed=1))
        assert np.isclose(np.linalg.norm(problem.noise), 5e-3)

    def test_truth_sparsity(self):
        spec = EnsembleSpec(n=60, kappa=0.4, rho=0.25, seed=17)
        problem = generate_instance(spec)
        assert np.count_nonzero(problem.truth) == spec.k


class TestEquiangularFrame:
    def test_gram_structure(self):
        n = 11
        A = equiangular_frame(n)
        assert A.shape == (n - 1, n)
        G = A.T @ A
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-12)
        off = G[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (n - 1), atol=1e-12)

    def test_rotation_preserves_gram(self):
        rng = np.random.default_rng(0)
        A = equiangular_frame(9)
        B = equiangular_frame(9, rng)
        assert not np.allclose(A, B)
        np.testing.assert_allclose(A.T @ A, B.T @ B, atol=1e-12)


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        s1 = trial_seed(0, "hbrotp", 0, 0, 0)
        assert s1 == trial_seed(0, "hbrotp", 0, 0, 0)
        others = {trial_seed(0, "hbrotp", 0, 0, 1), trial_seed(0, "hbrotp", 0, 1, 0),
                  trial_seed(0, "iht", 0, 0, 0), trial_seed(1, "hbrotp", 0, 0, 0)}
        assert s1 not in others and len(others) == 4

    def test_fits_64_bits(self):
        for t in range(16):
            assert 0 <= trial_seed(7, "omp", 1, 2, t) < 2**64


class TestRunTrial:
    def test_square_system_succeeds(self):
        spec = EnsembleSpec(n=32, kappa=1.0, rho=0.1, seed=4)
        record = run_trial(spec, "iht")
        assert record.success
        assert record.rel_error <= 1e-3
        assert record.wall_time > 0
        assert record.error is None
        assert record.stop_reason == "residual_tol"

    def test_guard_becomes_failed_trial(self):
        spec = EnsembleSpec(n=64, kappa=0.5, rho=0.1, seed=4)
        record = run_trial(spec, "hbot")
        assert not record.success
        assert record.error == "EnumerationGuardError"
        assert record.stop_reason is None
        assert math.isinf(record.rel_error)

    def test_divergence_is_recorded(self, monkeypatch):
        monkeypatch.setattr(otkit.bench, "config_for",
                            lambda variant: config_for(variant, alpha=1e9, beta=0.9))
        spec = EnsembleSpec(n=32, kappa=0.5, rho=0.1, seed=1)
        record = run_trial(spec, "hbrot")
        assert not record.success
        assert record.error is None
        assert record.stop_reason == "diverged"

    def test_other_errors_propagate(self, monkeypatch):
        def broken(problem, cfg):
            raise ValueError("not a guard refusal")

        monkeypatch.setattr(otkit.bench, "run", broken)
        spec = EnsembleSpec(n=32, kappa=0.5, rho=0.1, seed=1)
        with pytest.raises(ValueError, match="not a guard refusal"):
            run_trial(spec, "iht")

    def test_noise_scales_residual_tol(self):
        spec = EnsembleSpec(n=64, kappa=0.75, rho=0.1, noise_eps=5e-3, seed=8)
        record = run_trial(spec, "hbrotp")
        assert record.config.residual_tol == 5e-3
        assert record.success


class TestSuccessGrid:
    def test_rates_bounded_and_full_row(self):
        grid = success_grid(n=24, kappa_list=[1.0], rho_list=[0.1, 0.2],
                            trials_per_cell=3, algorithms=["htp"], base_seed=2)
        assert grid.rates("htp") == [[1.0, 1.0]]  # square well-posed systems always recover

    def test_monotone_in_rho_with_slack(self):
        grid = success_grid(n=64, kappa_list=[0.5], rho_list=[0.1, 0.25, 0.45, 0.7],
                            trials_per_cell=20, algorithms=["htp"], base_seed=5)
        rates = grid.rates("htp")[0]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 0.15

    def test_rates_equal_per_cell_rate(self):
        grid = success_grid(n=32, kappa_list=[0.5, 0.75], rho_list=[0.1, 0.3, 0.5],
                            trials_per_cell=3, algorithms=["iht", "omp"], base_seed=9)

        def rate(algorithm, ki, ri):
            cell = [r.success for r in grid.records
                    if (r.algorithm, r.kappa_index, r.rho_index) == (algorithm, ki, ri)]
            return sum(cell) / len(cell)

        for algorithm in grid.algorithms:
            assert grid.rates(algorithm) == [
                [rate(algorithm, ki, ri) for ri in range(3)] for ki in range(2)]
        assert grid.rates("iht") != grid.rates("omp")

    def test_workers_do_not_change_results(self):
        kwargs = dict(n=24, kappa_list=[0.8], rho_list=[0.15], trials_per_cell=4,
                      algorithms=["iht", "omp"], base_seed=11)
        serial = success_grid(**kwargs, workers=1)
        parallel = success_grid(**kwargs, workers=2)
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert (a.algorithm, a.spec.seed, a.success, a.rel_error) == \
                   (b.algorithm, b.spec.seed, b.success, b.rel_error)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            success_grid(n=24, kappa_list=[], rho_list=[0.1], trials_per_cell=1,
                         algorithms=["iht"])


class TestTransitionPoint:
    def test_clean_step_midpoint(self):
        rho50, flag = transition_point([(0.1, 1.0), (0.2, 0.0)])
        assert rho50 == pytest.approx(0.15)
        assert not flag

    def test_all_success_returns_upper_boundary(self):
        rho50, flag = transition_point([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0)])
        assert rho50 == 0.3
        assert flag

    def test_all_failure_returns_lower_boundary(self):
        rho50, flag = transition_point([(0.1, 0.4), (0.2, 0.2)])
        assert rho50 == 0.1
        assert flag

    def test_recovers_logistic_midpoint(self):
        rhos = np.arange(0.1, 0.52, 0.05)
        rates = 1.0 / (1.0 + np.exp((rhos - 0.3) / 0.02))
        rho50, flag = transition_point(list(zip(rhos, rates)))
        assert not flag
        assert abs(rho50 - 0.30) <= 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            transition_point([(0.1, 1.0)])
        with pytest.raises(ValueError):
            transition_point([(0.2, 1.0), (0.1, 0.0)])


class TestCsv:
    @pytest.fixture
    def small_grid(self):
        return success_grid(n=24, kappa_list=[0.8], rho_list=[0.1, 0.3],
                            trials_per_cell=2, algorithms=["iht"], base_seed=7)

    def test_trials_csv_deterministic(self, small_grid):
        a, b = io.StringIO(), io.StringIO()
        write_trials_csv(a, small_grid)
        write_trials_csv(b, small_grid)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().startswith("# generator=pcg64, base_seed=7, n=24\n")

    def test_row_schema(self, small_grid):
        buf = io.StringIO()
        write_trials_csv(buf, small_grid)
        rows = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
        assert len(rows) == 4
        fields = rows[0].split(",")
        assert len(fields) == 11
        assert fields[0] == "iht"
        assert fields[10] == "0"  # timing placeholder keeps bytes reproducible

    def test_timing_flag_changes_only_last_column(self, small_grid):
        plain, timed = io.StringIO(), io.StringIO()
        write_trials_csv(plain, small_grid)
        write_trials_csv(timed, small_grid, include_timing=True)
        for a, b in zip(plain.getvalue().splitlines()[1:],
                        timed.getvalue().splitlines()[1:]):
            assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]
            assert float(b.rsplit(",", 1)[1]) > 0

    def test_transition_csv(self, small_grid):
        buf = io.StringIO()
        write_transition_csv(buf, small_grid)
        lines = buf.getvalue().splitlines()
        assert lines[1].startswith("iht,0.8,")
        curve = transition_curve(small_grid, "iht")
        assert len(curve) == 1
