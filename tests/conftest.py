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


def built(generator, rng, *args):
    """The matrices an ``opeq.oracle`` generator builds from the draws it takes from ``rng``.

    Draws as the property suite does, ``generator(rng, drawn, *args)``, fills
    the Haar unitaries the draw took, then builds.
    """
    from opeq import oracle

    drawn = {}
    build = generator(rng, drawn, *args)
    oracle._make_unitaries(drawn)
    return build()


def haar_unitaries(rng, n, k):
    """``k`` Haar-random ``n x n`` unitaries, drawn from ``rng`` as the property suite draws them."""
    from opeq import oracle

    drawn = {}
    made = [oracle._unitary(rng, drawn, n) for _ in range(k)]
    oracle._make_unitaries(drawn)
    return made


def oracle_pair(rng, spec, flavor):
    """The ``(A, C)`` that ``opeq.oracle._consistent_pair`` draws from ``rng``."""
    from opeq import oracle

    return built(lambda rng, drawn: oracle._consistent_pair(rng, drawn, spec, flavor)[1], rng)


def count_lapack(monkeypatch, names=("svd", "eigh", "eigvalsh")):
    """Log every call of the ``numpy.linalg`` functions ``names`` as ``(name, args, kwargs)``."""
    # np.linalg.norm(M, 2) calls the private module's own svd, so patch there too
    private = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    log = []
    for name in names:
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


# the n x n routes to positive solvability that douglas.Factorization replaced
# with the r x r compression K = B* D B: one SVD each of D and of DP = D P,
# the range equality as two inclusions plus a rank comparison, and (DP)^dagger
# for the correction term; and the least t with C C* <= t C A*, from the
# eigenpairs of C A*: none when C C* leaks outside their range, else the top
# eigenvalue of the compression of C C* to it.  The row-space route must give
# the verdicts, and lambda and t_min to within the residual bound


def reference_range_equality(f):
    """``(dp_range_eq, lambda, t_min)`` of ``f`` by the n x n routes.

    They read the factorization's equilibrated pair, so lambda and t_min are
    ``2^-x_exp`` times the factorization's.  lambda is None when the ranges
    differ, and t_min when ``C A*`` is not PSD or ``C C*`` leaks outside its range.
    """
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
    lam = None
    if equal:
        correction = f.ip @ f.d.conj().T @ _pinv_from_svd(u_dp, s_dp, vh_dp) @ (f.d @ f.ip)
        lam = spectral_norm(correction)
    return equal, lam, _reference_t_min(f)


def _reference_t_min(f):
    from opeq.matcore import HermitianSpectrum, _within_residual_bound

    if not f.ca_psd:
        return None
    h = f.c @ f.c.conj().T
    # the eigenpairs of the n x n C A* itself, judged as douglas judged it
    # before it decided on the r x r compression
    w, v = HermitianSpectrum(f.c @ f.a.conj().T, f.tol, scale=f.a_norm * f.c).range_pairs
    if not _within_residual_bound(h - v @ (v.conj().T @ h), h, f.tol):
        return None
    if not w.size:
        return 0.0
    scaled = v / np.sqrt(w)
    compressed = scaled.conj().T @ h @ scaled
    return float(max(np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T))[-1], 0.0))
