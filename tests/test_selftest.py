"""Each selftest check reports a failure under its own name when the function
it checks is broken."""

from types import SimpleNamespace

import numpy as np
import pytest

import otkit.selftest as selftest
from otkit.bounds import RICProfile
from otkit.cli import main

PROJECT = selftest.project_capped_simplex


def zero_profile(A, k):
    return RICProfile(k=k, delta_k=0.0, delta_2k=0.0, delta_3k=0.0, delta_kp1=0.0)


def nan_profile(A, k):
    # RICProfile refuses NaN constants, so this stand-in is a bare record
    return SimpleNamespace(k=k, delta_k=np.nan, delta_k_sk=np.nan)


def euclidean_projection(v, k, scale, shift=None):
    # drops the metric, as if every weight were one
    return PROJECT(v, k, np.ones_like(v), shift=shift)


# (check, name it looks up in otkit.selftest, broken stand-in, check's name)
BROKEN = [
    (selftest.check_projection, "project_capped_simplex",
     lambda v, k, scale, shift=None: (v - 5.0, 5.0), "capped_simplex_projection"),
    (selftest.check_projection, "project_capped_simplex", euclidean_projection,
     "capped_simplex_projection"),
    (selftest.check_sparse_lower_isometry, "ric_profile", zero_profile,
     "sparse_lower_isometry"),
    (selftest.check_masked_gram_bound, "ric_profile", zero_profile, "masked_gram_bound"),
    (selftest.check_block_mass, "project_capped_simplex",
     lambda v, k, scale, shift=None: (np.ones_like(v), -np.inf), "capped_simplex_block_mass"),
    (selftest.check_l2_bound, "l2_bound_g", lambda zeta1, zeta2, r: 0.0, "l2_norm_bound"),
    (selftest.check_envelope_recurrence, "geometric_envelope",
     lambda *args: np.zeros(len(args[-1])), "geometric_envelope_dominance"),
]

# A function that returns NaN proves nothing, so each check that measures a
# value against a tolerance fails on it.
NAN = [
    (selftest.check_hard_threshold_best, "hard_threshold",
     lambda v, k: np.full_like(v, np.nan), "hard_threshold_best_k_term"),
    (selftest.check_projection, "project_capped_simplex",
     lambda v, k, scale, shift=None: (np.full_like(v, np.nan), np.nan),
     "capped_simplex_projection"),
    (selftest.check_relaxation_dominance, "solve_relaxed_ot",
     lambda A, y, v, k: (np.full_like(v, np.nan), True), "relaxation_dominance"),
    (selftest.check_restricted_ls, "least_squares_on_support",
     lambda A, y, S: np.full(A.shape[1], np.nan), "restricted_ls_orthogonality"),
    (selftest.check_sparse_lower_isometry, "ric_profile", nan_profile,
     "sparse_lower_isometry"),
    (selftest.check_masked_gram_bound, "ric_profile", nan_profile, "masked_gram_bound"),
    (selftest.check_l2_bound, "l2_bound_g", lambda zeta1, zeta2, r: np.nan, "l2_norm_bound"),
    (selftest.check_envelope_recurrence, "geometric_envelope",
     lambda *args: np.full(len(args[-1]), np.nan), "geometric_envelope_dominance"),
]


@pytest.mark.parametrize("check, target, broken, name", BROKEN + NAN,
                         ids=[b[3] + ("-euclidean" if b[2] is euclidean_projection else "")
                              for b in BROKEN] + [f"{b[3]}-nan" for b in NAN])
def test_broken_function_fails_its_check(monkeypatch, check, target, broken, name):
    assert check(np.random.default_rng(0)).passed
    monkeypatch.setattr(selftest, target, broken)
    result = check(np.random.default_rng(0))
    assert result.name == name
    assert not result.passed


def test_projection_check_fails_on_a_wrong_shift(monkeypatch):
    def shift_off_by_one(v, k, scale, shift=None):
        w, lam = PROJECT(v, k, scale, shift=shift)
        return w, lam + 1.0

    monkeypatch.setattr(selftest, "project_capped_simplex", shift_off_by_one)
    result = selftest.check_projection(np.random.default_rng(0))
    assert result.name == "capped_simplex_projection"
    assert not result.passed
    assert "does not rebuild w" in result.detail


def test_cli_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "l2_bound_g", lambda zeta1, zeta2, r: 0.0)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL l2_norm_bound") for line in lines)
    assert "12/13 checks passed" in lines
