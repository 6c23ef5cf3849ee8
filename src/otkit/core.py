"""Dense linear-algebra primitives, sparsity operators, and the shared data model.

Vectors and matrices are plain float64 ndarrays; a support set is a strictly
increasing int ndarray of 0-based indices.  Everything here is pure and safe
to share across concurrent benchmark trials.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


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


def is_count(value):
    """True for a Python or numpy integer; False for a float or a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def top_k_indices(v, k):
    """Indices of the k largest-magnitude entries of v, ascending.

    Ties at the k-th magnitude are broken toward the smaller index, so the
    result is deterministic across runs and platforms.
    """
    v = as_vector(v)
    if not 1 <= k <= v.size:
        raise ValueError(f"k={k} out of range 1..{v.size}")
    order = np.argsort(-np.abs(v), kind="stable")  # stable: ties keep low index first
    return np.sort(order[:k])


def hard_threshold(v, k):
    """Keep the k largest-magnitude entries of v, zero the rest."""
    v = as_vector(v)
    keep = top_k_indices(v, k)
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


def support(v):
    """Sorted indices of the nonzero entries of v."""
    return np.flatnonzero(np.asarray(v))


@dataclass(frozen=True)
class ProblemInstance:
    """One sparse linear inverse instance: recover a k-sparse x from y = A x + noise.

    truth and noise are optional; when both are given, y must reproduce
    A @ truth + noise to accumulation round-off.
    """

    A: np.ndarray
    y: np.ndarray
    k: int
    truth: np.ndarray | None = None
    noise: np.ndarray | None = None

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        y = as_vector(self.y, "y")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        m, n = A.shape
        if y.size != m:
            raise ValueError(f"y has length {y.size}, expected {m}")
        if not is_count(self.k) or not 1 <= self.k <= min(m, n):
            raise ValueError(f"k={self.k} must be an integer in 1..min(m, n)={min(m, n)}")
        if self.truth is not None:
            truth = as_vector(self.truth, "truth")
            if truth.size != n:
                raise ValueError(f"truth has length {truth.size}, expected {n}")
            object.__setattr__(self, "truth", truth)
        if self.noise is not None:
            noise = as_vector(self.noise, "noise")
            if noise.size != m:
                raise ValueError(f"noise has length {noise.size}, expected {m}")
            object.__setattr__(self, "noise", noise)
        if self.truth is not None and self.noise is not None:
            recon = A @ self.truth + self.noise
            scale = max(1.0, float(np.linalg.norm(y)))
            if float(np.linalg.norm(recon - y)) > 1e-12 * scale:
                raise ValueError("y does not equal A @ truth + noise within 1e-12 relative")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


@dataclass
class IterateTrace:
    """Per-iteration record of a run: iterates x^p, residual norms, supports.

    iterates[p] is x^p (the two starting points included), so index == step
    counter.  candidate_residual_norms holds, for pursuit variants, the
    residual of the thresholded candidate before the least-squares re-fit.
    """

    iterates: list
    residual_norms: list
    supports: list
    errors_to_truth: list | None = None
    candidate_residual_norms: list | None = None


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
