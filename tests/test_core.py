import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.core import (ProblemInstance, hard_threshold, load_matrix_csv,
                        load_vector_csv, save_matrix_csv, save_vector_csv,
                        support, top_k_indices)


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

    def test_non_integral_k_rejected(self, rng):
        A = rng.normal(0, 1, (4, 8))
        for k in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                ProblemInstance(A=A, y=np.ones(4), k=k)
        ProblemInstance(A=A, y=np.ones(4), k=np.int64(2))

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

