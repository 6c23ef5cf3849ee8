"""Dense linear-algebra primitives, sparsity operators, k-subset enumeration,
and the shared data model.

Vectors and matrices are plain float64 ndarrays; a support set is a strictly
increasing int ndarray of 0-based indices.  Everything here is pure and safe
to share across concurrent benchmark trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Array entries one subset_blocks block may make its caller hold: 2 MiB of
# float64, read at call time.
_BLOCK_ENTRIES = 1 << 18


def as_vector(v, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(A, name="matrix"):
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_count(value, name, lo=1, hi=None):
    """The one count check: ValueError unless value is a Python or numpy
    integer, not a bool, in lo..hi (hi=None: no upper end).  Concrete types,
    not numbers.Integral's slower ABC test: top_k_indices asks it each call."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return
    if hi is not None:
        raise ValueError(f"{name}={value} must be an integer in {lo}..{hi}")
    raise ValueError(f"{name} must be a positive integer" if lo == 1
                     else f"{name} must be an integer >= {lo}")


def check_real(value, name, positive=False, at_most=math.inf):
    """The one real-number check: ValueError unless value is finite, >= 0
    (> 0 if positive) and <= at_most; each comparison is false for NaN.  The
    message is "{name} must be finite and nonnegative" ("positive and finite"
    if positive) or, for a finite at_most, "{name} must be in [0, at_most]"
    ("(0, at_most]" if positive)."""
    if (0 < value if positive else 0 <= value) and value <= at_most and value < math.inf:
        return
    if at_most < math.inf:
        raise ValueError(f"{name} must be in {'(' if positive else '['}0, {at_most:g}]")
    raise ValueError(f"{name} must be positive and finite" if positive
                     else f"{name} must be finite and nonnegative")


def check_step(alpha, beta):
    """The one step check: check_real on alpha (positive), then on beta."""
    check_real(alpha, "alpha", positive=True)
    check_real(beta, "beta")


def as_system(A, y):
    """(A, y) checked as a linear system: A a matrix and y a vector of its row
    count, as float64 arrays."""
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    if y.size != A.shape[0]:
        raise ValueError(f"y has length {y.size}, expected {A.shape[0]}")
    return A, y


def top_k_indices(v, k):
    """Indices of the k largest-magnitude entries of v, ascending.

    Ties at the k-th magnitude are broken toward the smaller index, so the
    result is deterministic across runs and platforms.  v must be finite and
    k pass check_count in 1..v.size.
    """
    v = as_vector(v)
    check_count(k, "k", hi=v.size)
    order = np.argsort(-np.abs(v), kind="stable")  # stable: ties keep low index first
    return np.sort(order[:k])


def hard_threshold(v, k):
    """Keep the k largest-magnitude entries of v, zero the rest."""
    keep = top_k_indices(v, k)  # checks v and k
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


# one certification pass asks for about 65 (n, k) pairs
@lru_cache(maxsize=256)
def _binomial_table(n, k):
    """Read-only (k + 1, n) intp array: row j holds C(a, j) for a in range(n),
    each capped at C(n, k) + 1.  Every rank of a k-subset of range(n) is below
    the cap, so a search of a rank in a capped row finds what it would find in
    the true row, and no entry overflows."""
    cap = math.comb(n, k) + 1
    table = np.array([[min(math.comb(a, j), cap) for a in range(n)]
                      for j in range(k + 1)], dtype=np.intp)
    table.flags.writeable = False
    return table


def subset_blocks(n, k, entries_per_subset):
    """The k-subsets of range(n) in lexicographic order, in blocks.

    Each block is a (C, k) intp array whose rows are consecutive subsets of
    itertools.combinations(range(n), k).  C is the number of subsets whose
    entries_per_subset array entries fit in _BLOCK_ENTRIES, and at least 1.

    The rows are unranked in numpy with the combinatorial number system: the
    subset c_0 < ... < c_(k-1) of lexicographic rank r is the mirror image,
    c_i = n - 1 - a_i, of the subset a_0 > ... > a_(k-1) of colex rank
    C(n, k) - 1 - r = C(a_0, k) + C(a_1, k - 1) + ... + C(a_(k-1), 1), and
    each a_i is the largest a whose binomial fits in what is left.  Rows and
    block boundaries are those of itertools.combinations, split every C rows.
    """
    size = max(1, _BLOCK_ENTRIES // entries_per_subset)
    count = math.comb(n, k)
    table = _binomial_table(n, k)
    for start in range(count - 1, -1, -size):
        left = np.arange(start, max(start - size, -1), -1, dtype=np.intp)
        block = np.empty((left.size, k), dtype=np.intp)
        for i in range(k - 1):
            row = table[k - i]
            a = row.searchsorted(left, side="right") - 1
            block[:, i] = a
            left -= row[a]
        block[:, k - 1] = left  # C(a, 1) = a
        np.subtract(n - 1, block, out=block)
        yield block


@dataclass(frozen=True)
class ProblemInstance:
    """One sparse linear inverse instance: recover a k-sparse x from y = A x + noise.

    truth is optional: with it, runs record each iterate's error to it.
    A problem whose ||A||_F ||y|| overflows float64 is refused: the first
    product A^T y of a run can already overflow there.
    """

    A: np.ndarray
    y: np.ndarray
    k: int
    truth: np.ndarray | None = None

    def __post_init__(self):
        A, y = as_system(self.A, self.y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        m, n = A.shape
        with np.errstate(over="ignore"):
            scale = float(np.linalg.norm(A)) * float(np.linalg.norm(y))
        if not math.isfinite(scale):
            raise ValueError("||A||_F * ||y|| overflows float64")
        check_count(self.k, "k", hi=min(m, n))
        if self.truth is not None:
            truth = as_vector(self.truth, "truth")
            if truth.size != n:
                raise ValueError(f"truth has length {truth.size}, expected {n}")
            object.__setattr__(self, "truth", truth)

    @property
    def n(self):
        return self.A.shape[1]


@dataclass
class IterateTrace:
    """Per-iteration record of a run: iterates x^p and their residual norms,
    and their errors to the truth when the problem has one.

    iterates[p] is x^p (the starting points included), so index == step
    counter; the support of x^p is np.flatnonzero(iterates[p]).
    """

    iterates: list
    residual_norms: list
    errors_to_truth: list | None = None


# --- text round-trip I/O ----------------------------------------------------
#
# Matrix file: first line "m,n", then m lines of n comma-separated decimals.
# Vector file: one decimal per line.  repr() prints the shortest decimal that
# round-trips, so save -> load is exact.


def save_matrix_csv(path, A):
    A = as_matrix(A)
    m, n = A.shape
    with open(path, "w") as fh:
        fh.write(f"{m},{n}\n")
        for row in A:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix_csv(path):
    with open(path) as fh:
        header = fh.readline()
        try:
            m, n = (int(tok) for tok in header.strip().split(","))
        except Exception:
            raise ValueError(f"{path}:1: expected header 'm,n', got {header.strip()!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            toks = line.strip().split(",")
            if len(toks) != n:
                raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(toks)}")
            try:
                rows.append([float(t) for t in toks])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry")
        if len(rows) != m:
            raise ValueError(f"{path}: expected {m} rows, got {len(rows)}")
    return np.asarray(rows, dtype=float)


def save_vector_csv(path, v):
    v = as_vector(v)
    with open(path, "w") as fh:
        for x in v:
            fh.write(repr(float(x)) + "\n")


def load_vector_csv(path):
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                vals.append(float(line.strip()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {line.strip()!r}")
    if not vals:
        raise ValueError(f"{path}: empty vector file")
    return np.asarray(vals, dtype=float)
