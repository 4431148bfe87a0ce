import numpy as np
import pytest


@pytest.fixture
def rank1_pair():
    """2x2 pair: solvable with a positive solution, reduced solution not Hermitian."""
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    c = np.array([[2, 1], [0, 0]], dtype=complex)
    return a, c


@pytest.fixture
def hermitian_only_pair():
    """3x3 pair: Hermitian solutions exist but none of them is positive."""
    a = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 1.0
    c[1, 2] = 1.0
    return a, c


def complex_gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rank_deficient(rng, rows, cols, rank):
    return complex_gaussian(rng, rows, rank) @ complex_gaussian(rng, rank, cols)


def random_hermitian(rng, n):
    g = complex_gaussian(rng, n, n)
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n, rank=None):
    g = complex_gaussian(rng, n, rank if rank is not None else n)
    return g @ g.conj().T


def count_lapack(monkeypatch):
    """Log every svd, eigh and eigvalsh call as ``(name, args, kwargs)``."""
    # np.linalg.norm(M, 2) calls the private module's own svd, so patch there too
    private = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    log = []
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            log.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(private, name, counted)
    return log
