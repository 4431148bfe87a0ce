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


# closed forms for the canonical pair of opeq.projpair, the reference that
# sqrt_psd is held to: with c, s the cosine and sine of pi t / 2,
# (P + Q)^(1/2) = [[alpha, beta], [beta, gamma]] and (P + Q)^(-1/2) is that
# matrix's adjugate over its determinant s


def _alpha_beta_gamma(points):
    c, s = np.cos(0.5 * np.pi * points), np.sin(0.5 * np.pi * points)
    root_plus = np.sqrt(1.0 + c)
    root_minus = np.sqrt(1.0 - c)
    alpha = 0.5 * (2.0 - s) * (root_plus + root_minus)
    beta = 0.5 * s * (root_plus - root_minus)
    gamma = 0.5 * s * (root_plus + root_minus)
    return alpha, beta, gamma


def _symmetric(diagonal_1, off, diagonal_2):
    """The ``(k, 2, 2)`` stack of ``[[diagonal_1, off], [off, diagonal_2]]``."""
    vals = np.empty((len(off), 2, 2), dtype=np.complex128)
    vals[:, 0, 0] = diagonal_1
    vals[:, 0, 1] = vals[:, 1, 0] = off
    vals[:, 1, 1] = diagonal_2
    return vals


def sqrt_sum_closed_form(points):
    """``(P + Q)^(1/2)`` at each point, as a ``(k, 2, 2)`` stack."""
    alpha, beta, gamma = _alpha_beta_gamma(points)
    return _symmetric(alpha, beta, gamma)


def inv_sqrt_sum(points):
    """``(P + Q)^(-1/2)`` at each point; ``P + Q`` is singular at 0, so each must be positive."""
    alpha, beta, gamma = _alpha_beta_gamma(points)
    s = np.sin(0.5 * np.pi * points)
    return _symmetric(gamma / s, -beta / s, alpha / s)


# the randomized search of opeq.oracle before its candidates were screened:
# every drawn candidate formed and eigendecomposed in chunks of 256, the hits
# tested in order; positive_search must return what this returns, bit for bit


def reference_positive_search(f, budget=1000, seed=20514):
    """``oracle.positive_search`` with no screen and no early stop within a chunk."""
    from opeq.matcore import _within_residual_bound, is_psd
    from opeq.oracle import _sub_rng

    if not (f.range_ok and f.ca_hermitian):
        return None
    tol = f.tol
    n = f.a.shape[1]
    ip = f.ip
    base = f.h0
    rng = _sub_rng(seed, 1)
    chunk = 256
    drawn = 0
    while drawn < budget:
        take = min(chunk, budget - drawn)
        g = rng.standard_normal((take, n, n)) + 1j * rng.standard_normal((take, n, n))
        scales = 2.0 ** np.minimum((drawn + np.arange(take)) // 256, 6)
        y = np.einsum("kij,kil->kjl", g.conj(), g) * scales[:, None, None]
        x = base[None, :, :] + ip[None, :, :] @ y @ ip[None, :, :]
        x = 0.5 * (x + np.conj(np.transpose(x, (0, 2, 1))))
        eigs = np.linalg.eigvalsh(x)
        hits = np.nonzero(eigs[:, 0] >= tol.eigenvalue_floor(np.max(np.abs(eigs), axis=1)))[0]
        for k in hits:
            candidate = x[k]
            if _within_residual_bound(f.a @ candidate - f.c, f.c, tol) and is_psd(candidate, tol):
                return candidate
        drawn += take
    return None


# the n x n route to positive solvability that douglas.Factorization replaced
# with the r x r compression K = B* D B: one SVD each of D and of DP = D P,
# the range equality as two inclusions plus a rank comparison, and (DP)^dagger
# for the correction term; the row-space route must give its verdicts, and its
# lambda to within the residual bound


def reference_range_equality(f):
    """``(dp_range_eq, lambda)`` of ``f`` by the n x n route, lambda None when the ranges differ."""
    from opeq.matcore import _pinv_from_svd, _within_residual_bound, spectral_norm, truncated_svd

    tol = f.tol
    dp = (f.d @ f.row_basis) @ f.row_basis.conj().T
    u_d, s_d, _ = truncated_svd(f.d, tol)
    u_dp, s_dp, vh_dp = truncated_svd(dp, tol)
    outside = (f.d - (u_dp @ u_dp.conj().T) @ f.d, dp - (u_d @ u_d.conj().T) @ dp)
    norms = (s_d[0] if s_d.size else 0.0, s_dp[0] if s_dp.size else 0.0)
    equal = s_d.size == s_dp.size and all(
        _within_residual_bound(m, norm, tol) for m, norm in zip(outside, norms)
    )
    if not equal:
        return False, None
    correction = f.ip @ f.d.conj().T @ _pinv_from_svd(u_dp, s_dp, vh_dp) @ (f.d @ f.ip)
    return True, spectral_norm(correction)
