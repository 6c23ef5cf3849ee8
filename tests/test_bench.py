import dataclasses
import io
import math
import multiprocessing
import re

import numpy as np
import pytest

import otkit.bench
from otkit.algorithms import config_for, run
from otkit.bench import (EnsembleSpec, equiangular_frame, generate_instance,
                         run_trial, success_grid, transition_curve,
                         transition_point, trial_seed, write_transition_csv,
                         write_trials_csv)
from otkit.errors import EnumerationGuardError


class TestEnsembleSpec:
    def test_dimensions(self):
        spec = EnsembleSpec(n=256, kappa=0.5, rho=0.1)
        assert spec.m == 128
        assert spec.k == 13

    def test_ceil_and_round(self):
        spec = EnsembleSpec(n=100, kappa=0.33, rho=0.5)
        assert spec.m == math.ceil(33.0)
        assert spec.k == 17  # floor(16.5 + 0.5)

    @pytest.mark.parametrize("n, kappa, m", [(100, 0.55, 55), (25, 0.28, 7)])
    def test_exact_decimal_product_takes_no_extra_row(self, n, kappa, m):
        # kappa * n is 55.00000000000001 and 7.000000000000001 in floats
        assert EnsembleSpec(n=n, kappa=kappa, rho=0.1).m == m

    @pytest.mark.parametrize("n, rho, k", [(100, 0.29, 15), (90, 0.7, 32)])
    def test_exact_half_rounds_up(self, n, rho, k):
        # rho * m is 14.5 and 31.5, which floats read as 14.499999999999998
        # and 31.499999999999996
        assert EnsembleSpec(n=n, kappa=0.5, rho=rho).k == k

    def test_benchmark_and_acceptance_geometries_keep_their_sizes(self):
        def sizes(n, kappa, rho):
            spec = EnsembleSpec(n=n, kappa=kappa, rho=rho)
            return spec.m, spec.k

        assert sizes(256, 0.5, 0.15) == (128, 19)  # operating point
        assert sizes(20, 0.6, 0.25) == (12, 3)  # desk-certify's Gaussian
        # greedy-sweep: rho 0.1..0.4 down, kappa 0.3..0.7 across, n = 256
        ks = [[8, 10, 13, 15, 18], [15, 21, 26, 31, 36], [23, 31, 38, 46, 54],
              [31, 41, 51, 62, 72]]
        for i, rho in enumerate((0.1, 0.2, 0.3, 0.4)):
            for j, (kappa, m) in enumerate(zip((0.3, 0.4, 0.5, 0.6, 0.7),
                                               (77, 103, 128, 154, 180))):
                assert sizes(256, kappa, rho) == (m, ks[i][j])
        # criterion 8: kappa 0.5, rho 0.30..0.55 at n = 256
        assert [sizes(256, 0.5, rho)[1] for rho in (0.30, 0.35, 0.40, 0.45, 0.50, 0.55)] \
            == [38, 45, 51, 58, 64, 70]

    def test_k_at_least_one(self):
        assert EnsembleSpec(n=100, kappa=0.1, rho=0.01).k == 1

    def test_m_at_least_one(self):
        # kappa * n = 1e-10 rounds to 0 at 9 decimals
        spec = EnsembleSpec(n=10, kappa=1e-11, rho=0.5)
        assert (spec.m, spec.k) == (1, 1)
        assert generate_instance(spec).A.shape == (1, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.0, rho=0.1)
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.5, rho=1.5)
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, kappa=0.5, rho=0.1, noise_eps=-1)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_eps must be finite"):
                EnsembleSpec(n=10, kappa=0.5, rho=0.1, noise_eps=eps)
            with pytest.raises(ValueError, match=r"kappa must be in \(0, 1\]"):
                EnsembleSpec(n=10, kappa=eps, rho=0.1)
            with pytest.raises(ValueError, match=r"rho must be in \(0, 1\]"):
                EnsembleSpec(n=10, kappa=0.5, rho=eps)
        for n in (10.0, 2.5, True, 0):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                EnsembleSpec(n=n, kappa=0.5, rho=0.1)
        assert EnsembleSpec(n=np.int64(10), kappa=0.5, rho=0.1).m == 5


class TestGenerateInstance:
    def test_columns_unit_norm(self):
        problem = generate_instance(EnsembleSpec(n=64, kappa=0.5, rho=0.1, seed=3))
        norms = np.linalg.norm(problem.A, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_noiseless_consistency_exact(self):
        problem = generate_instance(EnsembleSpec(n=40, kappa=0.6, rho=0.2, seed=5))
        np.testing.assert_array_equal(problem.y, problem.A @ problem.truth)

    def test_seed_determinism(self):
        spec = EnsembleSpec(n=48, kappa=0.5, rho=0.15, noise_eps=1e-3, seed=99)
        a = generate_instance(spec)
        b = generate_instance(spec)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_noise_norm_is_eps(self):
        problem = generate_instance(EnsembleSpec(n=40, kappa=0.5, rho=0.2,
                                                 noise_eps=5e-3, seed=1))
        assert np.isclose(np.linalg.norm(problem.y - problem.A @ problem.truth), 5e-3)

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

    def test_n_must_be_an_integer_at_least_two(self):
        for n in (5.0, 2.5, True, 1, 0, None):
            with pytest.raises(ValueError, match="n must be an integer >= 2"):
                equiangular_frame(n)
        assert equiangular_frame(np.int64(5)).shape == (4, 5)


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
        assert record.stop_reason == "residual_tol"

    def test_guard_refusal_propagates(self):
        spec = EnsembleSpec(n=64, kappa=0.5, rho=0.1, seed=4)
        with pytest.raises(EnumerationGuardError, match=r"C\(64,"):
            run_trial(spec, "hbot")

    def test_divergence_is_recorded(self, monkeypatch):
        monkeypatch.setattr(otkit.bench, "config_for",
                            lambda variant: config_for(variant, alpha=1e9, beta=0.9))
        spec = EnsembleSpec(n=32, kappa=0.5, rho=0.1, seed=1)
        record = run_trial(spec, "hbrot")
        assert not record.success
        assert record.stop_reason == "diverged"

    def test_other_errors_propagate(self, monkeypatch):
        def broken(problem, cfg):
            raise ValueError("not a guard refusal")

        monkeypatch.setattr(otkit.bench, "run", broken)
        spec = EnsembleSpec(n=32, kappa=0.5, rho=0.1, seed=1)
        with pytest.raises(ValueError, match="not a guard refusal"):
            run_trial(spec, "iht")

    def test_noise_scales_residual_tol(self, monkeypatch):
        tols = []

        def spy(problem, cfg):
            tols.append(cfg.residual_tol)
            return run(problem, cfg)

        monkeypatch.setattr(otkit.bench, "run", spy)
        spec = EnsembleSpec(n=64, kappa=0.75, rho=0.1, noise_eps=5e-3, seed=8)
        record = run_trial(spec, "hbrotp")
        assert tols == [5e-3]
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

    def test_algorithm_not_in_the_grid_rejected(self):
        grid = success_grid(n=16, kappa_list=[0.5], rho_list=[0.2], trials_per_cell=1,
                            algorithms=["htp"])
        with pytest.raises(ValueError, match="algorithm 'omp' not in this grid"):
            grid.rates("omp")
        with pytest.raises(ValueError, match="algorithm 'omp' not in this grid"):
            transition_curve(grid, "omp")

    def test_workers_do_not_change_results(self):
        kwargs = dict(n=24, kappa_list=[0.8], rho_list=[0.15], trials_per_cell=4,
                      algorithms=["iht", "omp"], base_seed=11)
        serial = success_grid(**kwargs, workers=1)
        parallel = success_grid(**kwargs, workers=2)
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert (a.algorithm, a.spec.seed, a.success, a.rel_error) == \
                   (b.algorithm, b.spec.seed, b.success, b.rel_error)

    def test_pool_leaves_no_process_behind(self, monkeypatch):
        kwargs = dict(n=16, kappa_list=[0.75], rho_list=[0.1], trials_per_cell=2,
                      algorithms=["iht"], base_seed=3, workers=2)
        success_grid(**kwargs)
        assert multiprocessing.active_children() == []

        # the pool's workers are forked, so they inherit the patch and
        # generate_instance raises inside a worker
        def refuse(spec):
            raise ValueError("instance refused")

        monkeypatch.setattr(otkit.bench, "generate_instance", refuse)
        with pytest.raises(ValueError, match="instance refused"):
            success_grid(**kwargs)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_guard_refusal_ends_the_grid(self, workers, monkeypatch):
        # hbot sorts ahead of htp, so the refusal comes at the first task
        calls = []

        def spy(spec, algorithm):
            calls.append(algorithm)
            return run_trial(spec, algorithm)

        monkeypatch.setattr(otkit.bench, "run_trial", spy)
        with pytest.raises(EnumerationGuardError, match=r"C\(40,"):
            success_grid(n=40, kappa_list=[0.5], rho_list=[0.1, 0.2],
                         trials_per_cell=2, algorithms=["htp", "hbot"],
                         base_seed=1, workers=workers)
        if workers == 1:
            assert calls == ["hbot"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("tasks", [1, 2])
    def test_pool_no_larger_than_the_grid(self, tasks, monkeypatch):
        built = []

        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(otkit.bench, "ProcessPoolExecutor", SerialPool)
        grid = success_grid(n=16, kappa_list=[0.75], rho_list=[0.1],
                            trials_per_cell=tasks, algorithms=["iht"],
                            base_seed=3, workers=6)
        assert len(grid.records) == tasks
        assert built == ([] if tasks == 1 else [2])

    def test_workers_do_not_change_hbrotp_csv(self):
        # the relaxed solve's BLAS products, not only iht/omp's small ones,
        # must give the same bytes in a worker as in the parent process
        outputs = []
        for workers in (1, 2):
            grid = success_grid(n=128, kappa_list=[0.5], rho_list=[0.4],
                                trials_per_cell=4, algorithms=["hbrotp"],
                                base_seed=21, workers=workers)
            buf = io.StringIO()
            write_trials_csv(buf, grid)
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_in_task_order_for_unsorted_names(self, workers):
        grid = success_grid(n=16, kappa_list=[0.75, 1.0], rho_list=[0.1, 0.2],
                            trials_per_cell=2, algorithms=["omp", "htp"],
                            base_seed=4, workers=workers)
        keys = [(r.algorithm, r.kappa_index, r.rho_index, r.trial_index)
                for r in grid.records]
        assert keys == [(a, ki, ri, ti) for a in ("htp", "omp") for ki in range(2)
                        for ri in range(2) for ti in range(2)]
        assert grid.algorithms == ["omp", "htp"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            success_grid(n=24, kappa_list=[], rho_list=[0.1], trials_per_cell=1,
                         algorithms=["iht"])

    @pytest.mark.parametrize("bad, message", [
        (dict(algorithms=["iht", "bogus"]), "unknown algorithm 'bogus'"),
        (dict(algorithms=["iht", "iht"]), "repeated"),
        (dict(trials_per_cell=1.5), "trials_per_cell must be a positive integer"),
        (dict(trials_per_cell=True), "trials_per_cell must be a positive integer"),
        (dict(trials_per_cell=0), "trials_per_cell must be a positive integer"),
        (dict(workers=0), "workers must be a positive integer"),
        (dict(workers=2.5), "workers must be a positive integer"),
        (dict(workers=True), "workers must be a positive integer"),
        (dict(noise_eps=math.nan), "noise_eps must be finite"),
        (dict(noise_eps=math.inf), "noise_eps must be finite"),
    ], ids=["unknown-algorithm", "repeated-algorithm", "fractional-trials", "bool-trials",
            "zero-trials", "zero-workers", "fractional-workers", "bool-workers",
            "nan-noise", "infinite-noise"])
    def test_bad_request_rejected_before_any_trial(self, monkeypatch, bad, message):
        trials = []

        def counting(spec, algorithm):
            trials.append(algorithm)
            return run_trial(spec, algorithm)

        monkeypatch.setattr(otkit.bench, "run_trial", counting)
        request = dict(n=16, kappa_list=[1.0], rho_list=[0.1], trials_per_cell=1,
                       algorithms=["iht"], workers=1)
        with pytest.raises(ValueError, match=message):
            success_grid(**{**request, **bad})
        assert trials == []


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

    def test_exact_half_at_last_rho_is_not_extrapolated(self):
        assert transition_point([(0.1, 1.0), (0.2, 0.5)]) == (0.2, False)

    @pytest.mark.parametrize("points, message", [
        ([(0.1, 1.0), (math.nan, 0.0)], "rho must be in (0, 1]"),
        ([(0.0, 1.0), (0.2, 0.0)], "rho must be in (0, 1]"),
        ([(0.5, 1.0), (1.5, 0.0)], "rho must be in (0, 1]"),
        ([(0.1, math.nan), (0.2, 0.0)], "rate must be in [0, 1]"),
        ([(0.1, 1.0), (0.2, math.inf)], "rate must be in [0, 1]"),
        ([(0.1, 1.5), (0.2, 0.0)], "rate must be in [0, 1]"),
        ([(0.1, 1.0), (0.2, -0.1)], "rate must be in [0, 1]"),
    ], ids=["nan-rho", "zero-rho", "rho-above-one", "nan-rate", "infinite-rate",
            "rate-above-one", "negative-rate"])
    def test_out_of_range_point_rejected(self, points, message):
        # a nan rho passes the increasing test; unchecked it returned (nan, False)
        with pytest.raises(ValueError) as info:
            transition_point(points)
        assert str(info.value) == message

    def test_range_ends_accepted(self):
        assert transition_point([(0.5, 1.0), (1.0, 0.0)]) == (0.75, False)

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

    def test_timed_field_has_fixed_width(self, small_grid):
        timed = io.StringIO()
        write_trials_csv(timed, small_grid, include_timing=True)
        for line in timed.getvalue().splitlines()[1:]:
            assert re.fullmatch(r"\d\.\d{6}e[-+]\d{2}", line.rsplit(",", 1)[1])

    def test_timed_csv_length_does_not_depend_on_wall_time(self, small_grid):
        lengths = []
        for wall in (0.1, 0.0123456789):
            grid = dataclasses.replace(small_grid, records=[
                dataclasses.replace(r, wall_time=wall) for r in small_grid.records])
            buf = io.StringIO()
            write_trials_csv(buf, grid, include_timing=True)
            lengths.append(len(buf.getvalue()))
        assert lengths[0] == lengths[1]

    def test_transition_csv(self, small_grid):
        buf = io.StringIO()
        write_transition_csv(buf, small_grid)
        lines = buf.getvalue().splitlines()
        assert lines[1].startswith("iht,0.8,")
        curve = transition_curve(small_grid, "iht")
        assert len(curve) == 1
