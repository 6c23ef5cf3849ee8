import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def gaussian_instance(rng, m, n, k, noise_eps=0.0):
    """Column-normalized Gaussian instance with a k-sparse planted truth."""
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    supp = np.sort(rng.choice(n, size=k, replace=False))
    truth = np.zeros(n)
    truth[supp] = rng.standard_normal(k)
    y = A @ truth
    if noise_eps > 0:
        h = rng.standard_normal(m)
        y = y + noise_eps * h / np.linalg.norm(h)
    return A, y, truth
