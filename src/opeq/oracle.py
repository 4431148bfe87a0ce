"""Brute-force verifiers, the T_n cross-check and the randomized property suite.

Each check reaches a decision by a second route: normal equations instead
of the SVD pseudoinverse, the partial-isometry form
``|A|^+ U* C + (I - U*U) Y`` (with ``A = U|A|``) instead of ``D + (I - P) Y``,
sampling of the Hermitian family for PSD solutions instead of the closed
form, the leak of ``C C*`` outside the range of ``C A*`` instead of the range
equality, the leak of C outside the range of ``U_r`` and ``S^-1 U_r* C`` for
the least ``mu`` with ``C C* <= mu A A*`` instead of ``||D||^2``, and the
``||T_n||`` scan for the closed-form lambda.  Absence of a search hit is
evidence, never proof.  The routes share their inputs with the decisions:
every trial builds one :class:`~opeq.douglas.Factorization` and reads from
it D, P, ``C A*``, DP, A's truncated SVD ``U_r S B*`` (so A is decomposed
once per trial) and the verdict and flags, never a report, so no failure
certificate is formed.

The suite has five properties, and a check runs on the pair of the property
that builds its input: ``general_solution_routes`` also checks the Penrose
identities of ``A^+ = B S^-1 U_r*``, the pseudoinverse D is formed with,
``|A|`` as the square root of ``A*A`` and Douglas's three facts about D, and
``positive_criteria_agreement`` runs the search on every pair it classifies.

All randomness flows from a named generator (PCG64) with an explicit seed;
every trial derives its own sub-seed deterministically from the seed and the
trial index, so any reported failure is reproducible bit for bit.  Haar
unitaries are drawn in batches from that one stream: the stack of ``k`` is one
normal draw and one stacked QR, with the numbers ``k`` single draws give.

The ``T_n`` scan runs only inside the ``tn_monotone_lambda_match`` property,
on the fixed schedule ``n = 1, 2, 4, ..., 2^40``: the matrices along it form
one ``(41, k, k)`` stack.  Each ``T_n`` is PSD, so one ``eigvalsh`` of the
stack gives every norm (the largest ``|eigenvalue|``) and the PSD tests of
its head ``T_1, ..., T_16``; the head's monotonicity tests are one more.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import douglas
from .errors import (
    NotSolvable,
    NotSolvableHermitian,
    NotSolvablePositive,
    OpeqError,
    PreconditionFailed,
    ShapeMismatch,
)
from .matcore import (
    DEFAULT_TOLERANCES,
    HermitianSpectrum,
    ToleranceConfig,
    _BOUND_SLACK,
    _pinv_from_svd,
    _single_norm_bounds,
    _within_residual_bound,
    as_matrix,
    is_psd,
    matrix_to_json,
    row_space_projector,
    spectral_norm,
    sqrt_psd,
)

__all__ = [
    "GENERATOR_NAME",
    "DEFAULT_SEED",
    "RANK_POLICIES",
    "TrialSpec",
    "lsq_solve",
    "positive_search",
    "property_suite",
]

GENERATOR_NAME = "PCG64"
DEFAULT_SEED = 20514

# the geometric schedule n = 1, 2, 4, ..., 2^40 of the T_n scan: long enough to
# separate convergence from linear growth, short enough that 1/n stays well
# above eigenvalue roundoff.  The PSD and monotonicity tests read its head.
_SCHEDULE = tuple(2**k for k in range(41))
_HEAD = _SCHEDULE[:5]  # T_1, T_2, T_4, T_8, T_16


# how the rank of a random operator is drawn: full, below full, or either
RANK_POLICIES = ("full", "deficient", "random")


@dataclass(frozen=True)
class TrialSpec:
    """How to drive a randomized run: dimensions 1 to dim_max, rank policy, count, seed.

    ``dim_max``, ``trials`` and ``seed`` may be of any integer type but a
    bool (:func:`operator.index`) and are kept as Python ints.
    """

    dim_max: int = 6
    rank_policy: str = "random"
    trials: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("dim_max", "trials", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # operator.index would read it as 0 or 1
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not (1 <= self.dim_max <= 8):
            raise ValueError("dimensions must satisfy 1 <= dim_max <= 8")
        if self.rank_policy not in RANK_POLICIES:
            raise ValueError(f"unknown rank policy {self.rank_policy!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _sub_rng(seed: int, *indices: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *indices])))


# ---------------------------------------------------------------------------
# independent verifiers


def lsq_solve(a, c, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Least-squares solution of AX = C through the normal equations.

    Solves ``A* A X = A* C`` with the pseudoinverse of the PSD ``A* A`` from
    :attr:`~opeq.matcore.HermitianSpectrum.range_pairs`: its eigenvalues above
    the rank cut of the largest.  It deliberately avoids the SVD
    pseudoinverse route.  When the equation is consistent this is the reduced
    solution; when it is not, the residual ``||A X - C||`` stays strictly
    positive.
    """
    a = as_matrix(a)
    c = as_matrix(c)
    if a.shape[0] != c.shape[0]:
        raise ShapeMismatch("A and C must share their row count")
    w, v = HermitianSpectrum(a.conj().T @ a, tol).range_pairs
    return (v / w) @ (v.conj().T @ (a.conj().T @ c))


def positive_search(
    f: douglas.Factorization, budget: int = 1000, seed: int = DEFAULT_SEED
) -> np.ndarray | None:
    """Randomized hunt for a PSD solution of AX = C inside the Hermitian family.

    Samples ``Y = s G* G`` (Gaussian G, slowly growing scale s), forms
    ``X = D + (I-P) D* + (I-P) Y (I-P)`` and keeps the first X that passes
    the PSD and residual tests.  Returns None when the budget is exhausted;
    that is evidence of unsolvability, not proof.

    Candidates that cannot pass are never formed.  By Cauchy interlacing,
    ``lambda_min(X)`` is at most the least eigenvalue of X's compression to
    any subspace, and two compressions are read without forming X.  With
    ``P = B B*``, every X has the same compression ``B* X B = B* H0 B``
    (``H0 = D + (I-P) D*``), which is the factorization's ``K = B* D B``
    since ``B* (I-P) = 0``; so ``lambda_min(X) <= mu``, the least eigenvalue
    of ``sym(K)``.  Where that rejects nothing, as when DP is singular, the
    2x2 compression of :func:`_border` bounds each candidate by its
    ``lambda_2``, so ``lambda_min(X) <= min(mu, lambda_2)``.
    ``U = (h + s ||G||_F^2)(1 + slack)``, with ``h`` the Frobenius bound of
    ``||H0||`` and ``slack = matcore._BOUND_SLACK``, bounds ``||X||``, since
    ``||Y|| <= s ||G||_F^2`` and ``||I - P|| = 1``.  A candidate with
    ``min(mu, lambda_2) + slack * U < eigenvalue_floor(U)`` fails the floor
    test, and the rule is exact: the computed least eigenvalue is at most
    that bound plus a roundoff far below ``slack * U`` (computed, K and
    ``B* H0 B`` differ by ``B* (I-P) D* B``, of order ``eps ||D||``, and
    ``||D|| = ||P H0|| <= ||H0|| <= U``; the 2x2 entries differ from X's
    compression by ``O(eps U)`` too), and the floor, nonincreasing in the
    norm, is at least ``eigenvalue_floor(U)``.  The generator is still drawn
    in chunks of 256, so each candidate keeps its bits; the rest are formed
    and tested in order, in slices of 1, 4, 16, ... up to 256, and the search
    stops at its first hit.  So it returns what testing every candidate
    returns, bit for bit.  The 2x2 bound is built only once a formed slice has
    missed, so a search that hits at once pays nothing for it; it then
    re-screens that chunk's remaining candidates and screens every later
    chunk.  Nothing is screened when A has rank 0 or ``mu`` or ``h`` is not
    finite.
    """
    if f.a.shape != f.c.shape:
        raise ShapeMismatch("A and C must have identical shape")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not (f.range_ok and f.ca_hermitian):
        return None

    tol = f.tol
    n = f.a.shape[1]
    ip = f.ip
    base = f.h0
    mu, base_top = _compression_floor(f.k, base)
    border = None
    bordered = mu is None  # True once the border is built or ruled out

    rng = _sub_rng(seed, 1)
    chunk = 256
    step = 1
    drawn = 0
    while drawn < budget:
        take = min(chunk, budget - drawn)
        g = rng.standard_normal((take, n, n)) + 1j * rng.standard_normal((take, n, n))
        # gentle scale ladder, capped: blowing the parameter up without bound
        # would eventually slip an indefinite matrix of huge norm past any
        # norm-relative eigenvalue floor, turning absence-evidence into noise
        scales = 2.0 ** np.minimum((drawn + np.arange(take)) // 256, 6)
        drawn += take
        survivors = np.arange(take)
        if mu is not None:
            parts = g.view(np.float64)
            top = (base_top + scales * np.einsum("kij,kij->k", parts, parts)) * (1.0 + _BOUND_SLACK)
            survivors = _screened(survivors, mu, border, g, scales, top, tol)
        while survivors.size:
            pick, survivors = survivors[:step], survivors[step:]
            step = min(4 * step, chunk)
            gp = g[pick]
            y = np.einsum("kij,kil->kjl", gp.conj(), gp) * scales[pick, None, None]
            x = base[None, :, :] + ip[None, :, :] @ y @ ip[None, :, :]
            x = 0.5 * (x + np.conj(np.transpose(x, (0, 2, 1))))
            eigs = np.linalg.eigvalsh(x)
            hits = np.nonzero(eigs[:, 0] >= tol.eigenvalue_floor(np.max(np.abs(eigs), axis=1)))[0]
            # x is exactly Hermitian, so the floor test above is is_psd's own
            for k in hits:
                if f.equation_ok(x[k]):
                    return x[k]
            if not bordered:
                bordered = True
                border = _border(f, base)
                if border is not None:
                    survivors = _screened(survivors, mu, border, g, scales, top, tol)
    return None


def _compression_floor(k, h0):
    """``(mu, h)`` for the screen of :func:`positive_search`, or ``(None, None)`` for none.

    ``mu`` is the least eigenvalue of ``sym(K)``, K the factorization's
    ``B* D B``, from one ``eigvalsh`` of an ``r x r`` matrix, and ``h`` the
    Frobenius upper bound of ``||H0||`` (``matcore._single_norm_bounds``).
    ``mu`` bounds every candidate's least eigenvalue; :func:`_border` adds a
    bound per candidate where ``mu`` alone rejects nothing.  There is no
    screen when A has rank 0 or either number is not finite.
    """
    if not k.size:
        return None, None
    mu = float(np.linalg.eigvalsh(0.5 * (k + k.conj().T))[0])
    top = _single_norm_bounds(h0)[1]
    if not (math.isfinite(mu) and math.isfinite(top)):
        return None, None
    return mu, top


def _border(f: douglas.Factorization, h0):
    """``(a, b, c0, eta)`` of the 2x2 compressions of :func:`positive_search`, or None.

    ``xi`` is the unit direction of the largest column of the range-equality
    witness ``M - U_K U_K* M`` and ``eta = E* xi / ||E* xi||``, with
    ``E = M (I - P)``; ``eta`` lies in ``R(I - P)``, so it is orthogonal to
    ``B xi``.  Since ``B* (I - P) = 0``, each candidate's compression to
    ``span{B xi, eta}`` is ``[[a, b], [b, c0 + s ||G eta||^2]]``, with
    ``a = xi* sym(K) xi``, ``b = ||E* xi||`` and ``c0 = eta* H0 eta``.  Where
    R(D) and R(DP) differ, ``a`` is 0 and b is not, so its least eigenvalue is
    about ``-b^2 / c``.  None when the witness or ``E* xi`` is zero or not
    finite.  With K's SVD already taken, no LAPACK call is made.
    """
    witness = f._outside_range_dp()
    if not witness.size:
        return None
    xi = witness[:, int(np.argmax(np.einsum("ij,ij->j", witness.conj(), witness).real))]
    length = float(np.linalg.norm(xi))
    if not (math.isfinite(length) and length > 0.0):
        return None
    xi = xi / length
    ex = f.e.conj().T @ xi
    b = float(np.linalg.norm(ex))
    if not (math.isfinite(b) and b > 0.0):
        return None
    eta = ex / b
    a = float(np.vdot(xi, f.k @ xi).real)
    c0 = float(np.vdot(eta, h0 @ eta).real)
    return a, b, c0, eta


def _screened(survivors, mu, border, g, scales, top, tol):
    """The candidates among ``survivors`` whose bound ``min(mu, lambda_2)`` can pass the floor.

    ``lambda_2``, read only when ``border`` is given, is the least eigenvalue
    of each candidate's 2x2 compression (:func:`_border`), in closed form.
    """
    bound = mu
    if border is not None:
        a, b, c0, eta = border
        parts = (g[survivors] @ eta).view(np.float64)
        c = c0 + scales[survivors] * np.einsum("ki,ki->k", parts, parts)
        bound = np.minimum(mu, 0.5 * (a + c) - np.hypot(0.5 * (c - a), b))
    cap = top[survivors]
    return survivors[~(bound + _BOUND_SLACK * cap < tol.eigenvalue_floor(cap))]


# ---------------------------------------------------------------------------
# compressed-resolvent sequence T_n: the scan whose limit the closed-form
# lambda of the solvability report must match


def _compressed_state(f: douglas.Factorization):
    """Eigendata of the compression K of DP to the row space of A, plus D(I - P) there.

    Returns ``(w, g)``: eigenvalues ``w`` of the compression, and ``g``
    such that ``T_n = g* diag(1 / (1/n + w)) g``.  Raises
    :class:`~opeq.errors.NotSolvable` unless the equation is consistent, and
    :class:`PreconditionFailed` unless the compression passes the Hermitian
    and PSD tests of :class:`~opeq.matcore.HermitianSpectrum`, whose one
    eigendecomposition it then reads.
    """
    douglas.reduced_solution(f)  # raises NotSolvable for an inconsistent equation
    if not f.k.size:  # A of rank 0: E is 0 x n
        return np.zeros(0), f.e
    spectrum = HermitianSpectrum(f.k, f.tol)
    if not spectrum.is_hermitian:
        dev = spectrum.deviation
        raise PreconditionFailed(
            f"DP is not Hermitian on the row space (deviation {dev:.3e})",
            certificate={"dp_hermitian_deviation": dev},
        )
    w, vecs = spectrum.eigh
    if not spectrum.is_psd:
        raise PreconditionFailed(
            f"DP is not PSD on the row space (eigenvalue {w[0]:.3e})",
            certificate={"dp_min_eigenvalue": float(w[0])},
        )
    w = np.clip(w, 0.0, None)
    return w, vecs.conj().T @ f.e


def _tn_stack(w, g, n_values):
    """The ``(len(n_values), k, k)`` stack of ``T_n`` from the state ``(w, g)``.

    ``T_n = (I - P) D* (1/n + DP)^{-1}|_{row space} D (I - P)`` is PSD and
    nondecreasing in n.
    """
    inv = 1.0 / (1.0 / np.asarray(n_values, dtype=np.float64)[:, np.newaxis] + w)
    return (g.conj().T * inv[:, np.newaxis, :]) @ g


def _diagnose(norms, tol):
    """``(converged, diverged)`` for the norms along the schedule; the estimate is the last.

    Convergence is declared when the final doubling moves the norm by less
    than ``residual_atol * (1 + estimate)``; divergence when, absent that,
    each of the last three doublings grew the norm by at least the factor
    ``1 + psd_atol`` (linear growth in n doubles it).
    """
    estimate = norms[-1]
    converged = abs(norms[-1] - norms[-2]) < tol.residual_atol * (1.0 + estimate)
    tail = norms[-4:]
    diverged = not converged and all(
        tail[k + 1] >= (1.0 + tol.psd_atol) * tail[k] and tail[k + 1] > 0.0 for k in range(3)
    )
    return converged, diverged


# ---------------------------------------------------------------------------
# randomized instance generators (controlled singular spectra so the suite's
# residual tests, at residual_atol times the norm they judge, sit far above
# roundoff)


def _unitaries(rng, n, k):
    """``k`` Haar-random ``n x n`` unitaries as a ``(k, n, n)`` stack: one batched QR.

    The draw ``(k, 2, n, n)`` is the stream of ``k`` draws of a real then an
    imaginary ``n x n`` part, so the generator ends where ``k`` one-at-a-time
    draws would leave it, and each unitary has the same bits.
    """
    x = rng.standard_normal((k, 2, n, n))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[:, np.newaxis, :]


def _pick_rank(rng, n, policy):
    if policy == "full" or n == 1:
        return n
    if policy == "deficient":
        return int(rng.integers(1, n))
    return int(rng.integers(1, n + 1))


def random_operator(rng, rows, cols, rank=None):
    """Random matrix with singular values in [0.3, 2], of rank ``min(rows, cols)`` unless given.

    A given rank lies in ``[1, min(rows, cols)]``, as :func:`_pick_rank` draws it.
    """
    if rank is None:
        rank = min(rows, cols)
    if rows == cols:
        u, v = _unitaries(rng, rows, 2)
    else:
        u, v = _unitaries(rng, rows, 1)[0], _unitaries(rng, cols, 1)[0]
    u, v = u[:, :rank], v[:, :rank]
    sing = rng.uniform(0.3, 2.0, size=rank)
    return (u * sing) @ v.conj().T


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n, rank):
    """Random PSD matrix of the given rank, its nonzero eigenvalues in [0.3, 2].

    The rank lies in ``[1, n]``, as :func:`_pick_rank` draws it.
    """
    u = _unitaries(rng, n, 1)[0]
    eigs = np.zeros(n)
    eigs[:rank] = rng.uniform(0.3, 2.0, size=rank)
    return (u * eigs) @ u.conj().T


def _hermitian_but_never_positive(rng, n):
    """Consistent pair with CA* PSD yet no PSD solution (needs n >= 3).

    A random-basis copy of the pattern A = diag(a, b, 0), C = a E11 + b E23:
    the reduced solution has rank 2 while its compression to the row space
    has rank 1, so the range equality fails.
    """
    a_diag = np.zeros((n, n), dtype=np.complex128)
    c_core = np.zeros((n, n), dtype=np.complex128)
    scale_1, scale_2 = rng.uniform(0.3, 2.0, size=2)
    a_diag[0, 0] = scale_1
    a_diag[1, 1] = scale_2
    c_core[0, 0] = scale_1
    c_core[1, 2] = scale_2
    for extra in range(3, n):
        if rng.random() < 0.5:
            val = rng.uniform(0.3, 2.0)
            a_diag[extra, extra] = val
            c_core[extra, extra] = val
    u, v = _unitaries(rng, n, 2)
    return u @ a_diag @ v.conj().T, u @ c_core @ v.conj().T


def _consistent_pair(rng, spec: TrialSpec, flavor: str):
    """Dimensions and factors for one randomized AX = C instance."""
    n = int(rng.integers(1, spec.dim_max + 1))
    rank = _pick_rank(rng, n, spec.rank_policy)
    a = random_operator(rng, n, n, rank)
    if flavor == "general":
        w = random_operator(rng, n, n)
        return a, a @ w, w
    if flavor == "hermitian":
        h = random_hermitian(rng, n)
        return a, a @ h, h
    if flavor == "positive":
        x0 = random_psd(rng, n, rank=_pick_rank(rng, n, "random"))
        return a, a @ x0, x0
    raise ValueError(flavor)


# ---------------------------------------------------------------------------
# one check per named property; return None on pass, failure detail on fail


def _fail(detail, **mats):
    return {"detail": detail, "instance": {name: matrix_to_json(m) for name, m in mats.items()}}


def _majorization_scale(f: douglas.Factorization) -> float | None:
    """Least ``mu`` with ``C C* <= mu A A*`` by a route of its own; None when none is finite.

    The reference for :attr:`~opeq.douglas.Factorization.majorization_scale`,
    read from the factors ``U_r`` and ``S`` of the factorization's SVD of A,
    not from D: C must not leak outside the range of ``U_r`` by more than
    :meth:`~opeq.douglas.Factorization.equation_bound` of ``||C||``, and
    ``mu`` is then the top eigenvalue of ``G G*`` with ``G = S^-1 U_r* C``.
    """
    u, s, _ = f.svd
    coords = u.conj().T @ f.c
    if not _within_residual_bound(f.c - u @ coords, f.c, f.tol, f.equation_bound):
        return None
    g = coords / s[:, np.newaxis]
    return float(np.max(np.linalg.eigvalsh(g @ g.conj().T), initial=0.0))  # 0 for A of rank 0


def _reduced_solution_facts(f: douglas.Factorization) -> tuple[bool, bool, bool]:
    """Douglas's three facts about the reduced solution D: ``(norm, kernel, rowspace)``.

    norm identity: the factorization's least majorization scale ``||D||^2``
    equals :func:`_majorization_scale`'s;
    kernel match: ``N(D) = N(C)`` through mutual projector residuals;
    row-space location: ``(I - P) D = 0``.  They hold when the equation is consistent.
    """
    tol = f.tol
    d = f.d
    mu, d_norm_sq = _majorization_scale(f), f.majorization_scale
    norm_ok = (
        mu is not None
        and d_norm_sq is not None
        and _within_residual_bound(abs(mu - d_norm_sq), d_norm_sq, tol)
    )
    pc, pd = row_space_projector(f.c, tol), row_space_projector(d, tol)
    kernel_ok = all(_within_residual_bound(p - q @ p, p, tol) for p, q in ((pd, pc), (pc, pd)))
    rowspace_ok = _within_residual_bound(d - f.row_basis @ f.m, d, tol)
    return norm_ok, kernel_ok, rowspace_ok


def _check_general_solution(rng, spec, tol):
    """Every route to the general solution of one rectangular pair lands on the same X.

    With ``A = U|A|``, the paper's partial-isometry form ``|A|^+ U* C + (I - U*U) Y``
    must equal the builder's ``D + (I - P) Y``, the normal equations must give D,
    and recovering Y from X must give X back.  The same pair checks the parts:
    the four Penrose identities of ``A^+ = B S^-1 U_r*``, ``|A|`` as the PSD
    square root of ``A*A``, and the three facts of :func:`_reduced_solution_facts`.
    ``A^+`` and ``U = U_r B*`` are read from the factorization's SVD of A.
    """
    rows, cols, k = (int(rng.integers(1, spec.dim_max + 1)) for _ in range(3))
    a = random_operator(rng, rows, cols, _pick_rank(rng, min(rows, cols), spec.rank_policy))
    c = a @ random_operator(rng, cols, k)
    y = random_operator(rng, cols, k)
    f = douglas.factorize(a, c, tol)
    if not f.range_ok:
        return _fail("range inclusion rejected a consistent pair", a=a, c=c)
    u_r, s, b = f.svd  # A = U_r S B*, from the SVD that D was formed from
    ap = _pinv_from_svd(u_r, s, b.conj().T)
    a_ap, ap_a = a @ ap, ap @ a
    penrose = [
        ("M Mp M = M", a_ap @ a - a, a),
        ("Mp M Mp = Mp", ap_a @ ap - ap, a),
        ("M Mp Hermitian", a_ap - a_ap.conj().T, a_ap),
        ("Mp M Hermitian", ap_a - ap_a.conj().T, ap_a),
    ]
    for label, residual, norm in penrose:
        if not _within_residual_bound(residual, norm, tol):
            return _fail(f"{label} violated by {spectral_norm(residual):.3e}", a=a)
    gram = a.conj().T @ a
    modulus = sqrt_psd(gram, tol)
    resid = modulus @ modulus - gram
    if not _within_residual_bound(resid, gram, tol):
        return _fail(f"sqrt round trip off by {spectral_norm(resid):.3e}", a=a)
    if not is_psd(modulus, tol):
        return _fail("square root is not PSD", a=a)
    u = u_r @ b.conj().T
    if not _within_residual_bound(u @ modulus - a, a, tol):
        return _fail("U |A| does not reproduce A", a=a)
    # |A| + I - U*U is invertible and agrees with |A| on the range of U*U, so
    # solving with it gives |A|^+ U* C; a pseudoinverse of |A| would count the square roots
    # of A*A's roundoff eigenvalues (about 1e-8) toward the rank
    leak = np.eye(cols) - u.conj().T @ u
    x_pi = np.linalg.solve(modulus + leak, u.conj().T @ c) + leak @ y
    try:  # the builder checks that each member solves the equation
        x = douglas.general_solution(f, y)
        x_back = douglas.general_solution(f, douglas.recover_parameter(f, x))
    except NotSolvable as exc:
        return _fail(f"family member does not solve the equation: {exc}", a=a, c=c)
    if not _within_residual_bound(x_pi - x, x, tol):
        return _fail(f"partial-isometry route disagrees by {spectral_norm(x_pi - x):.3e}", a=a, c=c)
    d = douglas.reduced_solution(f)
    gap = d - lsq_solve(a, c, tol)
    if not _within_residual_bound(gap, d, tol):
        return _fail(f"normal-equation route disagrees by {spectral_norm(gap):.3e}", a=a, c=c)
    if not _within_residual_bound(x_back - x, x, tol):
        return _fail(f"parameter round trip off by {spectral_norm(x_back - x):.3e}", a=a, c=c)
    norm_ok, kernel_ok, rowspace_ok = _reduced_solution_facts(f)
    if not (norm_ok and kernel_ok and rowspace_ok):
        return _fail(
            f"reduced-solution properties failed: norm={norm_ok} kernel={kernel_ok} "
            f"rowspace={rowspace_ok}",
            a=a,
            c=c,
        )
    return None


def _check_hermitian_criterion(rng, spec, tol):
    flavor = ("hermitian", "general", "positive")[int(rng.integers(3))]
    a, c, _ = _consistent_pair(rng, spec, flavor)
    f = douglas.factorize(a, c, tol)
    verdict = f.verdict
    dp = HermitianSpectrum(f.k, tol)  # DP = B K B*: the same deviation and nonzero spectrum
    if dp.is_hermitian != f.ca_hermitian:
        return _fail("Hermitian-ness of DP and CA* disagree", a=a, c=c)
    if dp.is_psd != f.ca_psd:
        return _fail("positivity of DP and CA* disagree", a=a, c=c)
    if flavor == "hermitian" and not verdict.at_least(douglas.Verdict.HERMITIAN):
        return _fail("pair built from a Hermitian factor judged non-Hermitian", a=a, c=c)
    if verdict.at_least(douglas.Verdict.HERMITIAN):
        y = random_hermitian(rng, a.shape[1])
        try:
            x = douglas.hermitian_solution(f, y)
        except NotSolvableHermitian as exc:
            return _fail(f"Hermitian builder refused its own output: {exc}", a=a, c=c)
        if not HermitianSpectrum(x, tol).is_hermitian:
            return _fail("emitted solution is not Hermitian", a=a, c=c)
        if not f.equation_ok(x):
            return _fail("emitted Hermitian member does not solve the equation", a=a, c=c)
    return None


def _check_positive_criteria(rng, spec, tol):
    """The positivity routes agree on one pair, and the randomized search respects them.

    The majorization route, a finite t with ``C C* <= t C A*``, reads the
    ``n x n`` matrices: ``C A*`` PSD and no leak of ``C C*`` outside its range.
    A search hit must come with a POSITIVE verdict, be PSD and solve the equation.
    """
    pick = int(rng.integers(4))
    if pick == 3 and spec.dim_max >= 3:
        n = int(rng.integers(3, spec.dim_max + 1))
        a, c = _hermitian_but_never_positive(rng, n)
        expect = "blocked"
    else:
        flavor = ("positive", "hermitian", "general")[pick % 3]
        a, c = _consistent_pair(rng, spec, flavor)[:2]
        expect = "positive" if flavor == "positive" else None
    sub_seed = int(rng.integers(2**32))
    f = douglas.factorize(a, c, tol)
    # the pairs first, so the PSD test of C A* reads their values
    v = f._ca_spectrum.range_pairs[1] if f.ca_hermitian else None
    verdict = f.verdict
    cc = c @ c.conj().T
    t_finite = f.ca_psd and _within_residual_bound(cc - v @ (v.conj().T @ cc), cc, tol)
    exact = f.ca_psd and f.dp_range_eq
    if t_finite != exact:
        return _fail(
            f"majorization route (finite={t_finite}) disagrees with "
            f"range-equality route (satisfied={exact})",
            a=a,
            c=c,
        )
    if expect == "positive":
        if verdict is not douglas.Verdict.POSITIVE:
            return _fail("pair built from a PSD factor judged not positively solvable", a=a, c=c)
        z = random_psd(rng, a.shape[1], rank=_pick_rank(rng, a.shape[1], "random"))
        try:
            x = douglas.positive_solution(f, z)
        except NotSolvablePositive as exc:
            return _fail(f"positive builder refused its own output: {exc}", a=a, c=c)
        if not is_psd(x, tol):
            return _fail("emitted member of the positive family is not PSD", a=a, c=c)
        if not f.equation_ok(x):
            return _fail("emitted positive member does not solve the equation", a=a, c=c)
        x_norm = spectral_norm(x)
        if not _within_residual_bound(f.t_min - x_norm, x_norm, tol):
            return _fail("t_min exceeds the norm of an emitted positive solution", a=a, c=c)
    if expect == "blocked":
        if verdict is not douglas.Verdict.HERMITIAN:
            return _fail(f"range-deficient pattern misclassified as {verdict.value}", a=a, c=c)
        if f.dp_range_eq or t_finite:
            return _fail("range-deficient pattern passed a positivity route", a=a, c=c)
    found = positive_search(f, budget=384, seed=sub_seed)
    if found is None:
        return None
    if verdict is not douglas.Verdict.POSITIVE:
        return _fail("search produced a PSD solution on a pair judged unsolvable", a=a, c=c)
    if not is_psd(found, tol):
        return _fail("search returned a non-PSD matrix", a=a, c=c)
    if not f.equation_ok(found):
        return _fail("search returned a non-solution", a=a, c=c)
    return None


def _check_block_positivity(rng, spec, tol):
    d1 = int(rng.integers(1, min(4, spec.dim_max) + 1))
    d2 = int(rng.integers(1, min(4, spec.dim_max) + 1))
    if rng.random() < 0.5:
        full = random_psd(rng, d1 + d2, rank=_pick_rank(rng, d1 + d2, "random"))
    else:
        full = np.zeros((d1 + d2, d1 + d2), dtype=np.complex128)
        full[:d1, :d1] = random_hermitian(rng, d1)
        full[d1:, d1:] = random_hermitian(rng, d2)
        off = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        full[:d1, d1:] = off
        full[d1:, :d1] = off.conj().T
    a11, a12, a22 = full[:d1, :d1], full[:d1, d1:], full[d1:, d1:]
    by_blocks = douglas.block_psd_test(a11, a12, a22, tol)
    by_eigen = is_psd(full, tol)
    if by_blocks != by_eigen:
        return _fail(
            f"block conditions say {by_blocks}, assembled eigenvalues say {by_eigen}",
            a11=a11,
            a12=a12,
            a22=a22,
        )
    return None


def _check_tn_lambda(rng, spec, tol):
    """``||T_n||`` settles exactly when R(D) = R(DP), and then on the closed-form lambda.

    A uniform bound on the compressed resolvent norms would also certify
    finiteness; for matrices that is exactly invertibility of DP on the range
    of DP, i.e. the range equality R(D) = R(DP), which remains the
    authoritative test.  The scan only cross-checks it.
    """
    if spec.dim_max >= 3 and rng.random() < 0.4:
        n = int(rng.integers(3, spec.dim_max + 1))
        a, c = _hermitian_but_never_positive(rng, n)
    else:
        a, c = _consistent_pair(rng, spec, "positive")[:2]

    f = douglas.factorize(a, c, tol)
    # one stack of every T_n and one eigvalsh of it: T_n is PSD, so its norm is
    # its largest |eigenvalue|, and the PSD tests read the head's least
    ts = _tn_stack(*_compressed_state(f), _SCHEDULE)
    eigs = np.linalg.eigvalsh(0.5 * (ts + ts.conj().swapaxes(1, 2)))
    norms = np.max(np.abs(eigs), axis=1)
    steps = ts[1 : len(_HEAD)] - ts[: len(_HEAD) - 1]
    diffs = np.linalg.eigvalsh(0.5 * (steps + steps.conj().swapaxes(1, 2)))
    floors = tol.eigenvalue_floor(norms)
    for k, n_value in enumerate(_HEAD):
        if eigs[k, 0] < floors[k]:
            return _fail(f"T_{n_value} is not PSD", a=a, c=c)
        if k and diffs[k - 1, 0] < floors[k]:
            return _fail(f"T_n not nondecreasing at n={n_value}", a=a, c=c)

    norms = norms.tolist()
    converged, diverged = _diagnose(norms, tol)
    estimate = norms[-1]
    if f.dp_range_eq and not converged:
        return _fail("ranges match but the T_n norms did not settle", a=a, c=c)
    if not f.dp_range_eq and not diverged:
        return _fail("ranges differ but the T_n norms did not diverge", a=a, c=c)
    # the scan's own convergence rule bounds how far the closed form may sit
    if converged and (
        f.lambda_estimate is None
        or abs(f.lambda_estimate - estimate) > tol.residual_atol * (1.0 + estimate)
    ):
        return _fail(
            f"closed-form lambda {f.lambda_estimate!r} misses the T_n limit {estimate!r}",
            a=a,
            c=c,
        )
    return None


_PROPERTY_CHECKS = [
    ("general_solution_routes", _check_general_solution),
    ("hermitian_criterion_transfer", _check_hermitian_criterion),
    ("positive_criteria_agreement", _check_positive_criteria),
    ("block_positivity_vs_eigen", _check_block_positivity),
    ("tn_monotone_lambda_match", _check_tn_lambda),
]


def property_suite(spec: TrialSpec, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> dict:
    """Run every named property for ``spec.trials`` seeded trials each.

    Returns a JSON-ready report with per-property pass counts and the first
    failing instance (serialized matrices) when there is one.  A check that
    raises an :class:`~opeq.errors.OpeqError` fails its trial, with the
    exception's type and message as the detail and an empty instance.  Identical
    specs produce identical reports.
    """
    properties = {}
    violations = 0
    for prop_index, (name, check) in enumerate(_PROPERTY_CHECKS):
        failures = 0
        first_failure = None
        for trial in range(spec.trials):
            rng = _sub_rng(spec.seed, prop_index, trial)
            try:
                outcome = check(rng, spec, tol)
            except OpeqError as exc:
                outcome = _fail(f"{type(exc).__name__}: {exc}")
            if outcome is not None:
                failures += 1
                if first_failure is None:
                    first_failure = {"trial": trial, **outcome}
        violations += failures
        properties[name] = {
            "trials": spec.trials,
            "failures": failures,
            "first_failure": first_failure,
        }
    return {
        "generator": GENERATOR_NAME,
        "seed": spec.seed,
        "trials_per_property": spec.trials,
        "dim_max": spec.dim_max,
        "rank_policy": spec.rank_policy,
        "properties": properties,
        "total_trials": spec.trials * len(_PROPERTY_CHECKS),
        "violations": violations,
    }
