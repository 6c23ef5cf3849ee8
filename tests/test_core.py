import math
from itertools import combinations, islice, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.core
from otkit.core import (ProblemInstance, as_matrix, as_vector, check_count, check_real,
                        hard_threshold, load_matrix_csv, load_vector_csv, save_matrix_csv,
                        save_vector_csv, subset_blocks, top_k_indices)


def test_check_count():
    for value in (2, np.int64(2), np.uint8(2)):
        check_count(value, "n", lo=2, hi=2)
        check_count(value, "n")
    check_count(10**30, "n", lo=2)
    for value, lo, hi, message in [
        (True, 1, None, "n must be a positive integer"),
        (2.0, 1, None, "n must be a positive integer"),
        (0, 1, None, "n must be a positive integer"),
        (None, 1, None, "n must be a positive integer"),
        (1, 2, None, "n must be an integer >= 2"),
        (np.int64(1), 2, None, "n must be an integer >= 2"),
        (False, 0, None, "n must be an integer >= 0"),
        (0, 1, 3, "n=0 must be an integer in 1..3"),
        (4, 1, 3, "n=4 must be an integer in 1..3"),
        (np.int64(4), 1, 3, "n=4 must be an integer in 1..3"),
        (np.float64(2.0), 1, 3, "n=2.0 must be an integer in 1..3"),
        (True, 1, 3, "n=True must be an integer in 1..3"),
    ]:
        with pytest.raises(ValueError) as info:
            check_count(value, "n", lo=lo, hi=hi)
        assert str(info.value) == message


def test_check_real():
    for value in (0, 0.0, 2.5, np.float64(1e308)):
        check_real(value, "x")
    for value in (1e-300, 1, np.int64(3)):
        check_real(value, "x", positive=True)
    for value in (0.0, 1, 0.5):
        check_real(value, "x", at_most=1)
    check_real(1.0, "x", positive=True, at_most=1)
    nonnegative = "x must be finite and nonnegative"
    positive = "x must be positive and finite"
    for value, options, message in [
        (math.nan, {}, nonnegative),
        (math.inf, {}, nonnegative),
        (-math.inf, {}, nonnegative),
        (-0.1, {}, nonnegative),
        (np.float64(math.nan), {}, nonnegative),
        (math.nan, dict(positive=True), positive),
        (math.inf, dict(positive=True), positive),
        (-math.inf, dict(positive=True), positive),
        (-0.1, dict(positive=True), positive),
        (0.0, dict(positive=True), positive),
        (1 + 1e-15, dict(at_most=1), "x must be in [0, 1]"),
        (math.nan, dict(at_most=1), "x must be in [0, 1]"),
        (math.inf, dict(at_most=1), "x must be in [0, 1]"),
        (-0.1, dict(at_most=1), "x must be in [0, 1]"),
        (0.0, dict(positive=True, at_most=1), "x must be in (0, 1]"),
        (1 + 1e-15, dict(positive=True, at_most=1), "x must be in (0, 1]"),
        (-math.inf, dict(positive=True, at_most=1), "x must be in (0, 1]"),
    ]:
        with pytest.raises(ValueError) as info:
            check_real(value, "x", **options)
        assert str(info.value) == message


class TestTopK:
    def test_two_largest_magnitudes(self):
        for k in (2, np.int64(2)):
            assert list(top_k_indices(np.array([3.0, -5.0, 1.0]), k)) == [0, 1]

    def test_tie_break_lowest_index(self):
        assert list(top_k_indices(np.array([2.0, 2.0, 2.0]), 2)) == [0, 1]

    def test_all_zero_degenerate(self):
        assert list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 4, -1, True, 2.0, 2.5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=rf"^k={k} must be an integer in 1\.\.3$"):
            top_k_indices(np.array([1.0, 2.0, 3.0]), k)
        with pytest.raises(ValueError, match=rf"^k={k} must be an integer in 1\.\.3$"):
            hard_threshold(np.array([1.0, 2.0, 3.0]), k)

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


class TestArrayInputs:
    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.array([]), np.float64(1.0)],
                             ids=["2-d", "empty", "0-d"])
    def test_vector_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="v must be a nonempty 1-d array, got shape"):
            as_vector(bad, "v")

    @pytest.mark.parametrize("bad", [np.ones(3), np.empty((0, 3)), np.ones((2, 2, 2))],
                             ids=["1-d", "empty", "3-d"])
    def test_matrix_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="M must be a nonempty 2-d array, got shape"):
            as_matrix(bad, "M")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(ValueError, match="v contains non-finite entries"):
            as_vector([1.0, value], "v")
        with pytest.raises(ValueError, match="M contains non-finite entries"):
            as_matrix([[1.0, value]], "M")


class TestProblemInstance:
    def test_valid(self, rng):
        A = rng.normal(0, 1, (4, 8))
        truth = np.zeros(8)
        truth[[1, 5]] = [1.0, -2.0]
        ProblemInstance(A=A, y=A @ truth, k=2, truth=truth)

    def test_k_above_m_rejected(self, rng):
        A = rng.normal(0, 1, (3, 8))
        with pytest.raises(ValueError, match=r"^k=4 must be an integer in 1\.\.3$"):
            ProblemInstance(A=A, y=np.ones(3), k=4)

    def test_non_integral_k_rejected(self, rng):
        A = rng.normal(0, 1, (4, 8))
        for k in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                ProblemInstance(A=A, y=np.ones(4), k=k)
        ProblemInstance(A=A, y=np.ones(4), k=np.int64(2))

    def test_y_length_rejected(self, rng):
        A = rng.normal(0, 1, (4, 8))
        with pytest.raises(ValueError, match="y has length 3, expected 4"):
            ProblemInstance(A=A, y=np.ones(3), k=2)

    def test_truth_length_rejected(self, rng):
        A = rng.normal(0, 1, (4, 8))
        with pytest.raises(ValueError, match="truth has length 7, expected 8"):
            ProblemInstance(A=A, y=np.ones(4), k=2, truth=np.ones(7))

    def test_k_above_n_rejected(self, rng):
        # a tall A: k <= m holds, but no k-sparse support exists among 4 columns
        A = rng.normal(0, 1, (10, 4))
        with pytest.raises(ValueError, match="k=6"):
            ProblemInstance(A=A, y=np.ones(10), k=6)
        ProblemInstance(A=A, y=np.ones(10), k=4)

    def test_overflowing_scale_rejected(self, rng):
        # each refusal names the square that overflowed.  At 1e200 every
        # entry is finite but ||y||^2 is not; a tiny A with a large y
        # overflows ||y||^2 although ||A||_F ||y|| is about 1e55; a large A
        # overflows ||A||_F^2 whatever y is
        A, g = rng.standard_normal((6, 10)), rng.standard_normal(6)
        truth = np.zeros(10)
        truth[[2, 7]] = [1.0, -0.5]
        for scaled, y, square in ((1e200 * A, (1e200 * A) @ truth, "||y||^2"),
                                  (1e-100 * A, 1e154 * g, "||y||^2"),
                                  (1e155 * A, g, "||A||_F^2")):
            with pytest.raises(ValueError) as refused:
                ProblemInstance(A=scaled, y=y, k=2)
            assert str(refused.value) == f"{square} overflows float64"
        # at 1e150 both squares are about 1e300.  With both norms just below
        # sqrt(float max) their product rounds below float max, so no third
        # refusal is needed
        ProblemInstance(A=1e150 * A, y=(1e150 * A) @ truth, k=2)
        root = math.sqrt(np.finfo(float).max)
        ProblemInstance(A=0.999 * root / np.linalg.norm(A) * A,
                        y=0.999 * root / np.linalg.norm(g) * g, k=2)


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

    def test_matrix_blank_lines_skipped(self, rng, tmp_path):
        A = rng.normal(0, 1, (3, 2))
        path = tmp_path / "A.csv"
        save_matrix_csv(path, A)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", rows[0], "  ", *rows[1:], ""]) + "\n")
        np.testing.assert_array_equal(load_matrix_csv(path), A)

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

    @pytest.mark.parametrize("header", ["2;2", "2", "two,2", ""])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header 'm,n'"):
            load_matrix_csv(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,2\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: expected 3 rows, got 2"):
            load_matrix_csv(path)

    def test_vector_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\noops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: non-numeric entry 'oops'"):
            load_vector_csv(path)

    def test_empty_vector_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match=r"empty\.csv: empty vector file"):
            load_vector_csv(path)


def combination_blocks(n, k, size):
    """itertools.combinations(range(n), k), cut into lists of size subsets."""
    subsets = combinations(range(n), k)
    while block := list(islice(subsets, size)):
        yield block


class TestSubsetBlocks:
    @staticmethod
    def assert_blocks_match(n, k, entries_per_subset, blocks=None):
        size = max(1, otkit.core._BLOCK_ENTRIES // entries_per_subset)
        got = islice(subset_blocks(n, k, entries_per_subset), blocks)
        want = islice(combination_blocks(n, k, size), blocks)
        for block, ref in zip_longest(got, want):
            assert block is not None and ref is not None
            assert block.dtype == np.intp
            assert block.shape == (len(ref), k)
            assert block.tolist() == [list(S) for S in ref]

    @pytest.mark.parametrize("per_block", [1, 7, None])
    def test_every_small_case(self, per_block, monkeypatch):
        for n in range(13):
            for k in range(1, n + 2):
                if per_block is not None:
                    monkeypatch.setattr(otkit.core, "_BLOCK_ENTRIES", per_block * k)
                self.assert_blocks_match(n, k, k)

    @pytest.mark.parametrize("n, k", [(100, 1), (100, 99), (100, 100)])
    def test_binomials_beyond_int64(self, n, k):
        # C(100, 50) > 2^63, so the unranking table must not hold it
        self.assert_blocks_match(n, k, 2 * k * k)

    def test_largest_binary_selection(self):
        # n = 30 is the most solve_binary_ot enumerates; its first blocks
        # carry the highest colex ranks
        self.assert_blocks_match(30, 15, 30 * 15, blocks=3)
