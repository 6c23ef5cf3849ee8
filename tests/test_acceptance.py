"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is seeded, so the suite is deterministic.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from otkit.algorithms import config_for, run
from otkit.bench import (EnsembleSpec, equiangular_frame, run_trial,
                         success_grid, transition_point, trial_seed)
from otkit.bounds import (convergence_envelope, gamma_sharp_omega, gamma_star,
                          gamma_star_omega, hbot_constants, hbrot_constants,
                          l2_bound_g, parameter_window, ric_profile, xi_q)
from otkit.cli import main as cli_main
from otkit.core import ProblemInstance, hard_threshold
from otkit.selftest import bisection_projection
from otkit.subproblems import (project_capped_simplex, solve_binary_ot,
                               solve_relaxed_ot)

WORKERS = 2
OPERATING = dict(n=256, kappa=0.5, rho=0.15)


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_root_constants():
    assert abs(gamma_star() - 0.2274) <= 5e-4
    assert abs(gamma_star_omega(1) - 0.2118) <= 5e-4
    assert abs(gamma_sharp_omega(1) - 0.2079) <= 5e-4
    report(1, "root constants")


def test_criterion_2_block_norm_cap_table():
    assert abs(xi_q(1) - 1.0) <= 1e-12
    assert abs(xi_q(2) - 1.25 * math.sqrt(2)) <= 1e-12
    for q in range(3, 9):
        assert xi_q(q - 1) > xi_q(q)
    for q in range(8, 20):
        assert abs(xi_q(q) - math.sqrt(2)) <= 1e-12
    report(2, "block-norm cap table")


def test_criterion_3_reduction_equivalence():
    # with alpha=1, beta=0, omega=1 the pursuit variant must replay a plain
    # one-point thresholding loop coded here from scratch
    n, m, k = 64, 32, 5
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        supp = rng.choice(n, size=k, replace=False)
        truth = np.zeros(n)
        truth[supp] = rng.standard_normal(k)
        y = A @ truth
        problem = ProblemInstance(A=A, y=y, k=k, truth=truth)
        cfg = config_for("hbrotp", alpha=1.0, beta=0.0, omega=1,
                         max_iter=30, residual_tol=1e-10)
        ours = run(problem, cfg)

        x = np.zeros(n)
        iterates, supports = [x.copy()], [np.flatnonzero(x)]
        stagnant = 0
        for _ in range(30):
            if np.linalg.norm(y - A @ x) <= 1e-10 or stagnant >= 3:
                break
            u = x + A.T @ (y - A @ x)
            w, _ = solve_relaxed_ot(A, y, u, k)
            xs = hard_threshold(u * w, k)
            S = np.flatnonzero(xs)
            coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
            x_next = np.zeros(n)
            x_next[S] = coef
            if np.linalg.norm(x_next - x) <= 1e-14 * (1 + np.linalg.norm(x)):
                stagnant += 1
            else:
                stagnant = 0
            x = x_next
            iterates.append(x.copy())
            supports.append(np.flatnonzero(x))

        assert len(ours.trace.iterates) - 1 == len(iterates)
        for a, b in zip(ours.trace.iterates[1:], iterates):
            np.testing.assert_allclose(a, b, atol=1e-12)
        for sa, sb in zip(map(np.flatnonzero, ours.trace.iterates[1:]), supports):
            assert np.array_equal(sa, sb)
    report(3, "reduction equivalence on 20 seeds")


def test_criterion_4_relaxation_dominance():
    rng = np.random.default_rng(44)
    worst = -math.inf
    for _ in range(100):
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
        worst = max(worst, relaxed - exact)
        assert relaxed <= exact + 1e-9
    report(4, f"relaxation dominance on 100 instances (worst gap {worst:.2e})")


def test_criterion_5_projection_exactness():
    rng = np.random.default_rng(55)
    worst_dev = 0.0
    worst_mass = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        k = int(rng.integers(1, n + 1))
        v = rng.normal(0, float(rng.uniform(0.1, 10.0)), n)
        c = 2.0 ** (np.arange(n) % 7 - 3)  # metric weights 1/8..8, not drawn
        w, lam = project_capped_simplex(v, k, c)
        ref = bisection_projection(v, k, c)
        worst_dev = max(worst_dev, float(np.abs(w - ref).max()))
        worst_mass = max(worst_mass, abs(float(w.sum()) - k))
        assert np.minimum(np.maximum(v - lam * c, 0.0), 1.0).tobytes() == w.tobytes()
    assert worst_dev <= 1e-10
    assert worst_mass <= 1e-12
    report(5, f"weighted projection exactness on 1000 draws (max dev {worst_dev:.2e})")


def _envelope_matrices():
    """Ten desk-scale matrices with closed-form (and re-verified) constants
    inside the pursuit window for k=1, and the exact-selection window for k=2."""
    rng = np.random.default_rng(66)
    dims = [11, 11, 11, 12, 12, 12, 13, 13, 14, 14]
    return [(n, equiangular_frame(n, rng)) for n in dims]


def test_criterion_6_envelope_dominance():
    rng = np.random.default_rng(67)
    checked_relaxed = checked_exact = 0
    for case_index, (n, A) in enumerate(_envelope_matrices()):
        # relaxed pursuit at k=1: delta_3 = 2/(n-1) stays below the ~0.2079 root
        prof1 = ric_profile(A, 1)
        assert abs(prof1.delta_3k - 2.0 / (n - 1)) < 1e-10
        beta_max, _ = parameter_window(prof1, omega=1, variant="hbrotp", n=n)
        beta = min(0.03, 0.5 * beta_max)
        alpha = 1.0 + beta
        bc1 = hbrot_constants(prof1, alpha, beta, omega=1, n=n, variant="hbrotp")
        assert bc1.theta2 < 1.0

        noise_eps = 1e-3 if case_index % 5 == 0 else 0.0
        truth = np.zeros(n)
        truth[int(rng.integers(0, n))] = 1.0 + float(rng.uniform(0, 2))
        if noise_eps > 0:
            h = rng.standard_normal(n - 1)
            noise = noise_eps * h / np.linalg.norm(h)
            y = A @ truth + noise
            noise_norm = noise_eps
        else:
            noise, y, noise_norm = None, A @ truth, 0.0
        problem = ProblemInstance(A=A, y=y, k=1, truth=truth)
        result = run(problem, config_for(
            "hbrotp", alpha=alpha, beta=beta, max_iter=50, residual_tol=0.0))
        errors = np.asarray(result.trace.errors_to_truth)
        assert errors.size >= 3  # at least one produced iterate to check
        ps = np.arange(2, min(errors.size - 1, 50) + 1)
        env = convergence_envelope(bc1, errors[0], errors[1], noise_norm, ps)
        assert np.all(errors[ps] <= env + 1e-12 * (1 + np.abs(env)))
        checked_relaxed += 1

        # exact selection with pursuit at k=2: delta_2 = 1/(n-1) < gamma*
        prof2 = ric_profile(A, 2)
        beta_max2, _ = parameter_window(prof2, variant="hbotp")
        beta2 = min(0.1, 0.5 * beta_max2)
        alpha2 = 1.0 + beta2
        bc2 = hbot_constants(prof2, alpha2, beta2)
        assert bc2.theta < 1.0
        truth2 = np.zeros(n)
        truth2[list(rng.choice(n, size=2, replace=False))] = rng.standard_normal(2)
        problem2 = ProblemInstance(A=A, y=A @ truth2, k=2, truth=truth2)
        result2 = run(problem2, config_for(
            "hbotp", alpha=alpha2, beta=beta2, max_iter=50, residual_tol=0.0))
        errors2 = np.asarray(result2.trace.errors_to_truth)
        ps2 = np.arange(2, min(errors2.size - 1, 50) + 1)
        env2 = convergence_envelope(bc2, errors2[0], errors2[1], 0.0, ps2)
        assert np.all(errors2[ps2] <= env2 + 1e-12 * (1 + np.abs(env2)))
        checked_exact += 1
    assert checked_relaxed == checked_exact == 10
    report(6, "error-envelope dominance on 10 certified matrices")


@pytest.fixture(scope="module")
def operating_point_rates():
    rates = {}
    for eps in (0.0, 5e-3):
        successes = 0
        for t in range(20):
            seed = trial_seed(2024, "hbrotp", 0, 0, t)
            spec = EnsembleSpec(n=OPERATING["n"], kappa=OPERATING["kappa"],
                                rho=OPERATING["rho"], noise_eps=eps, seed=seed)
            record = run_trial(spec, "hbrotp")
            successes += record.success
        rates[eps] = successes / 20.0
    return rates


def test_criterion_7_operating_point_recovery(operating_point_rates):
    rate = operating_point_rates[0.0]
    assert rate >= 0.90
    report(7, f"operating-point recovery rate {rate:.2f} >= 0.90")


def test_criterion_8_noise_robustness(operating_point_rates):
    clean, noisy = operating_point_rates[0.0], operating_point_rates[5e-3]
    assert noisy >= clean - 0.10

    rhos = [0.30, 0.35, 0.40, 0.45, 0.50, 0.55]
    transitions = {}
    for eps in (0.0, 5e-3):
        grid = success_grid(n=256, kappa_list=[0.5], rho_list=rhos,
                            trials_per_cell=10, algorithms=["hbrotp"],
                            base_seed=88, noise_eps=eps, workers=WORKERS)
        points = list(zip(rhos, grid.rates("hbrotp")[0]))
        rho50, extrapolated = transition_point(points)
        assert not extrapolated
        transitions[eps] = rho50
    shift = abs(transitions[5e-3] - transitions[0.0])
    assert shift <= 0.1
    report(8, f"noise robustness: rate {clean:.2f}->{noisy:.2f}, "
              f"transition {transitions[0.0]:.3f}->{transitions[5e-3]:.3f} "
              f"(shift {shift:.3f} <= 0.1)")


def test_criterion_9_inequality_suite():
    rng = np.random.default_rng(99)

    # lower isometry on doubly-sparse vectors: 25 exact profiles x 20 fillings
    for _ in range(25):
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
            assert np.sum((A @ z) ** 2) >= floor * np.sum(z ** 2) - 1e-10

    # masked Gram deviation: same volume
    root5 = math.sqrt(5.0)
    for _ in range(25):
        m, n = 6, 10
        k = int(rng.integers(1, 3))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        prof = ric_profile(A, k)
        Gm = np.eye(n) - A.T @ A
        for _ in range(20):
            h = np.zeros(n)
            h[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
            z = np.zeros(n)
            z[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
            mask = np.zeros(n)
            mask[np.flatnonzero(h)] = 1.0
            free = np.setdiff1d(np.arange(n), np.flatnonzero(mask))
            extra = k - int(mask.sum())
            if extra > 0:
                mask[rng.choice(free, size=extra, replace=False)] = 1.0
            lhs = np.linalg.norm((Gm @ (h - z)) * mask)
            assert lhs <= root5 * prof.delta_k_sk * np.linalg.norm(h - z) + 1e-10

    # capped-simplex block mass below 2: 500 draws
    for _ in range(500):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, n + 1))
        w, _ = project_capped_simplex(rng.normal(0, 2, n), k, np.ones(n))
        lam = list(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        total = 0.0
        rest = sorted(lam, key=lambda i: -abs(w[i]))
        while rest:
            block, rest = rest[:k], rest[k:]
            total += max(abs(w[i]) for i in block)
        assert total < 2.0

    # l1/sup-norm l2 bound: 500 draws
    for _ in range(500):
        r = int(rng.integers(2, 40))
        zeta2 = float(rng.uniform(0.05, 3.0))
        zeta1 = zeta2 * float(rng.uniform(1.01, 10.0))
        h = rng.normal(0, 1, r)
        h *= min(zeta1 / np.abs(h).sum(), zeta2 / np.abs(h).max())
        assert np.linalg.norm(h) <= l2_bound_g(zeta1, zeta2, r) + 1e-12
    report(9, "inequality suite (4 x 500 randomized cases)")


def test_criterion_10_grid_determinism(tmp_path):
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        code = cli_main(["grid", "--n", "48", "--kappa-min", "0.5",
                         "--kappa-max", "0.5", "--rho-min", "0.1",
                         "--rho-max", "0.2", "--rho-step", "0.1",
                         "--trials", "2", "--algos", "hbrotp", "--seed", "77",
                         "--threads", str(WORKERS), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    report(10, "grid CSV byte-determinism across reruns")
