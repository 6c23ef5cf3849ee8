import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.core import (IterateTrace, ProblemInstance, hard_threshold,
                        load_matrix_csv, load_vector_csv, residual,
                        save_matrix_csv, save_vector_csv, support,
                        top_k_indices)


class TestTopK:
    def test_two_largest_magnitudes(self):
        assert list(top_k_indices(np.array([3.0, -5.0, 1.0]), 2)) == [0, 1]

    def test_tie_break_lowest_index(self):
        assert list(top_k_indices(np.array([2.0, 2.0, 2.0]), 2)) == [0, 1]

    def test_all_zero_degenerate(self):
        assert list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            top_k_indices(np.array([1.0, 2.0, 3.0]), k)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=12, unique=True),
           st.data())
    @settings(deadline=None)
    def test_permutation_consistency(self, vals, data):
        # distinct magnitudes so the selection is permutation-equivariant
        v = np.array([x + 0.5 for x in vals], dtype=float)
        if len(np.unique(np.abs(v))) != v.size:
            return
        k = data.draw(st.integers(1, v.size))
        perm = data.draw(st.permutations(range(v.size)))
        perm = np.array(perm)
        base = set(top_k_indices(v, k).tolist())
        permuted = set(top_k_indices(v[perm], k).tolist())
        assert {int(np.flatnonzero(perm == i)[0]) for i in base} == permuted


class TestHardThreshold:
    def test_simple(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([3.0, -5.0, 1.0]), 2), [3.0, -5.0, 0.0])

    def test_identity_at_full_k(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(hard_threshold(v, 3), v)

    def test_single_entry(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([1.0, 2.0, 3.0, 4.0]), 1), [0.0, 0.0, 0.0, 4.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10), st.data())
    @settings(deadline=None)
    def test_best_k_term_approximation(self, vals, data):
        from itertools import combinations
        v = np.array(vals, dtype=float)
        k = data.draw(st.integers(1, v.size))
        ours = float(np.linalg.norm(v - hard_threshold(v, k)))
        # the best k-sparse approximation on any support keeps v there exactly,
        # so the optimum over supports is the smallest off-support norm
        best = min(float(np.linalg.norm(v[[i for i in range(v.size) if i not in S]]))
                   for S in combinations(range(v.size), k))
        assert ours <= best + 1e-12 * (1.0 + best)


class TestResidual:
    def test_identity_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(residual(np.eye(3), y, y), np.zeros(3))

    def test_zero_x_gives_y_exactly(self, rng):
        A = rng.normal(0, 1, (4, 6))
        y = rng.normal(0, 1, 4)
        np.testing.assert_array_equal(residual(A, np.zeros(6), y), y)

    def test_matches_triple_loop_oracle(self, rng):
        A = rng.normal(0, 1, (3, 5))
        x = rng.normal(0, 1, 5)
        y = rng.normal(0, 1, 3)
        expected = np.array([y[i] - sum(A[i, j] * x[j] for j in range(5))
                             for i in range(3)])
        np.testing.assert_allclose(residual(A, x, y), expected, rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.eye(3), np.ones(4), np.ones(3))


class TestProblemInstance:
    def test_valid(self, rng):
        A = rng.normal(0, 1, (4, 8))
        truth = np.zeros(8)
        truth[[1, 5]] = [1.0, -2.0]
        ProblemInstance(A=A, y=A @ truth, k=2, truth=truth)

    def test_k_above_m_rejected(self, rng):
        A = rng.normal(0, 1, (3, 8))
        with pytest.raises(ValueError):
            ProblemInstance(A=A, y=np.ones(3), k=4)

    def test_k_above_n_rejected(self, rng):
        # a tall A: k <= m holds, but no k-sparse support exists among 4 columns
        A = rng.normal(0, 1, (10, 4))
        with pytest.raises(ValueError, match="k=6"):
            ProblemInstance(A=A, y=np.ones(10), k=6)
        ProblemInstance(A=A, y=np.ones(10), k=4)

    def test_inconsistent_noise_model_rejected(self, rng):
        A = rng.normal(0, 1, (4, 8))
        truth = np.zeros(8)
        truth[0] = 1.0
        with pytest.raises(ValueError):
            ProblemInstance(A=A, y=A @ truth + 0.5, k=1, truth=truth, noise=np.zeros(4))

    def test_consistent_noise_model(self, rng):
        A = rng.normal(0, 1, (4, 8))
        truth = np.zeros(8)
        truth[0] = 1.0
        noise = rng.normal(0, 0.01, 4)
        ProblemInstance(A=A, y=A @ truth + noise, k=1, truth=truth, noise=noise)


class TestCsvRoundTrip:
    def test_matrix_exact(self, rng, tmp_path):
        A = rng.normal(0, 1, (5, 3))
        path = tmp_path / "A.csv"
        save_matrix_csv(path, A)
        np.testing.assert_array_equal(load_matrix_csv(path), A)

    def test_vector_exact(self, rng, tmp_path):
        v = rng.normal(0, 1e-7, 17)
        path = tmp_path / "v.csv"
        save_vector_csv(path, v)
        np.testing.assert_array_equal(load_vector_csv(path), v)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            load_matrix_csv(path)

    def test_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            load_matrix_csv(path)


def test_support_sorted():
    assert list(support(np.array([0.0, 3.0, 0.0, -1.0]))) == [1, 3]


def test_trace_len():
    tr = IterateTrace(iterates=[np.zeros(2)], residual_norms=[1.0], supports=[np.array([])])
    assert len(tr) == 1
