"""Brute-force verifiers, the T_n cross-check and the randomized property suite.

Each check reaches a decision by a second route: normal equations instead
of the SVD pseudoinverse, the partial-isometry form
``|A|^+ U* C + (I - U*U) Y`` (with ``A = U|A|``) instead of ``D + (I - P) Y``,
a witness that members of the Hermitian family are indefinite instead of the
verdict that no PSD solution exists, the leak of ``C C*`` outside the range
of ``C A*`` instead of the range equality, the leak of C outside the range of
``U_r`` and ``S^-1 U_r* C`` for the least ``mu`` with ``C C* <= mu A A*``
instead of ``||D||^2``, and the ``||T_n||`` scan for the closed-form lambda.
The witness is a vector or a 2-plane on which every Hermitian solution is
indefinite (Albert's theorem), so where it certifies its members it proves
the verdict.  The routes share their inputs with the decisions:
every trial builds one :class:`~opeq.douglas.Factorization` and reads from
it D, P, ``C A*``, DP, A's truncated SVD ``U_r S B*`` (so A is decomposed
once per trial) and the verdict and flags, never a report, so no failure
certificate is formed.

The suite has five properties, and a check runs on the pair of the property
that builds its input: ``general_solution_routes`` also checks the Penrose
identities of ``A^+ = B S^-1 U_r*``, the pseudoinverse D is formed with,
``|A|`` as the square root of ``A*A`` and Douglas's three facts about D, and
``positive_criteria_agreement`` checks the witness on every pair it judges
HERMITIAN.

All randomness flows from a named generator (PCG64) with an explicit seed;
every trial derives its own sub-seed deterministically from the seed and the
trial index, so any reported failure is reproducible bit for bit.  A trial is
drawn before it is built: its draw takes every number from its stream, in
the order of the checks, and keeps each Haar unitary as the complex Gaussian
it is made from.  The suite draws a property's trials a chunk at a time,
makes the chunk's unitaries with one stacked QR per size, then builds and
checks each trial in order (:class:`_HaarDraws`).  A stacked QR factors each
matrix alone, so every unitary has the bits of its own QR, and no number a
trial reads depends on the chunking.

The ``T_n`` scan runs only inside the ``tn_monotone_lambda_match`` property,
on the fixed schedule ``n = 1, 2, 4, ..., 2^40``: the matrices along it form
one ``(41, k, k)`` stack.  Each ``T_n`` is PSD, so one ``eigvalsh`` of the
stack gives every norm (the largest ``|eigenvalue|``) and the PSD tests of
its head ``T_1, ..., T_16``; the head's monotonicity tests are one more.
"""

from __future__ import annotations

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
    _ldexp_exact,
    _pinv_from_svd,
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
    "property_suite",
]

GENERATOR_NAME = "PCG64"
DEFAULT_SEED = 20514

# the geometric schedule n = 1, 2, 4, ..., 2^40 of the T_n scan: long enough to
# separate convergence from linear growth, short enough that 1/n stays well
# above eigenvalue roundoff.  The PSD and monotonicity tests read its head.
_SCHEDULE = tuple(2**k for k in range(41))
_HEAD = _SCHEDULE[:5]  # T_1, T_2, T_4, T_8, T_16

# roundoff per dimension of a compression W* X W, relative to ||X||_F ||W||_F^2
_ROUNDOFF = 16 * float(np.finfo(np.float64).eps)


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


def _indefinite_witness(f: douglas.Factorization) -> np.ndarray | None:
    """Columns W on which every Hermitian solution of AX = C is indefinite, or None.

    In A's row-space coordinates every member of the Hermitian family is the
    block matrix ``[[K, E], [E*, Z]]`` with Z free, and by Albert's theorem
    some Z makes it PSD iff K is PSD and R(E) lies inside R(K).  Where
    ``C A*`` is not PSD, W is ``u = B (S y)``, with y the least eigenvector of
    its compression ``H = U_r* C A* U_r = S K S``: since ``B* X B = K``, every
    member has ``u* X u = y* H y < 0``.  Otherwise W is the
    plane ``[B xi, eta]``: ``xi`` is the unit direction of the largest column
    of the range-equality witness ``M - U_K U_K* M``, which K maps to about 0,
    and ``eta = E* xi / ||E* xi||``, which lies in ``R(I - P)``, so the plane
    is orthonormal.  Since ``B* (I - P) = 0``, every member's compression to
    it is ``[[xi* K xi, b], [b, c]]`` with ``b = ||E* xi||`` and c free: its
    determinant is about ``-b^2`` for every c.  None when the witness or
    ``E* xi`` is zero; both are read on the factorization's equilibrated
    pair, where neither overflows.  It reads the eigenpairs of H, which the
    property takes for its majorization route, and K's SVD, which the
    verdict took, so it makes no LAPACK call.
    """
    if not f.ca_psd:  # a HERMITIAN verdict, so R(C) lies in R(A) and the spectrum is H's
        y = f._ca_spectrum.eigh[1][:, :1]
        return f.row_basis @ (f.svd[1][:, np.newaxis] * y)
    outside = f._outside_range_dp()
    if not outside.size:
        return None
    xi = outside[:, int(np.argmax(np.einsum("ij,ij->j", outside.conj(), outside).real))]
    length = float(np.linalg.norm(xi))
    if not length > 0.0:
        return None
    xi = xi / length
    ex = f.e.conj().T @ xi
    b = float(np.linalg.norm(ex))
    if not b > 0.0:
        return None
    return np.column_stack([f.row_basis @ xi, ex / b])


def _family_members(f: douglas.Factorization, seed: int) -> np.ndarray:
    """Two members ``H0 + (I - P) Y (I - P)`` of the Hermitian family, as a ``(2, n, n)`` stack.

    ``Y = s G* G``, with G a complex Gaussian drawn from ``_sub_rng(seed, 1)``,
    s = 1 for the first member and s = 64 for the second, a large one.  They
    are members of the factorization's equilibrated pair, whose H0 is of unit
    scale whatever the scales of A and C, so Y is drawn at that scale.
    """
    n = f.a.shape[1]
    rng = _sub_rng(seed, 1)
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    y = np.einsum("kij,kil->kjl", g.conj(), g) * np.array([1.0, 64.0])[:, None, None]
    return f.h0 + f.ip @ y @ f.ip


def _uncertified(w, members) -> str | None:
    """None when W certifies each member indefinite, else the detail of the first it does not.

    The certificate is the 1x1 value or the 2x2 determinant of the
    compression ``W* X W``, below minus its roundoff margin
    ``(16 n eps ||X||_F ||W||_F^2)^k``, k the number of columns of W: each
    entry of the compression is off by about ``n eps ||X|| ||W||^2``, and a
    k x k determinant has degree k in them.
    """
    if w is None:
        return "HERMITIAN verdict without an indefiniteness witness"
    q = w.conj().T @ members @ w
    q = 0.5 * (q + q.conj().swapaxes(1, 2))
    if w.shape[1] == 1:
        values = q[:, 0, 0].real
    else:
        values = q[:, 0, 0].real * q[:, 1, 1].real - np.abs(q[:, 0, 1]) ** 2
    sizes = np.linalg.norm(members, axis=(1, 2)) * float(np.linalg.norm(w)) ** 2
    margins = (_ROUNDOFF * members.shape[1] * sizes) ** w.shape[1]
    for k, (value, margin) in enumerate(zip(values.tolist(), margins.tolist())):
        if not value < -margin:
            return f"witness does not certify member {k} indefinite: {value:.3e} against -{margin:.3e}"
    return None


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
    # K and E at the input's scale: the 1/n of T_n is not scaled with them
    spectrum = HermitianSpectrum(_ldexp_exact(f.k, f.x_exp, "K"), f.tol)
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
    return w, vecs.conj().T @ _ldexp_exact(f.e, f.x_exp, "E")


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
# roundoff).  Each takes its numbers from the trial's stream at once and
# returns the function that builds its matrices once _HaarDraws.make has run.


class _HaarDraws:
    """The Haar unitaries of a chunk of trials, drawn one stack at a time and made together.

    Each unitary is the QR factor Q of a complex Gaussian, its columns turned
    by the phases of R's diagonal (Mezzadri, *Notices AMS* 54, 2007).
    :func:`_unitaries` adds the Gaussians as they are drawn; :meth:`make`
    takes one stacked QR and one phase fix per size.  A stacked QR runs the
    same LAPACK call on each matrix, so each unitary has the bits of its own QR.
    """

    def __init__(self):
        self._drawn = {}  # size -> its (k, 2, n, n) real and imaginary parts, in draw order
        self._counts = {}  # size -> the number of unitaries drawn
        self._made = {}  # size -> the (m, n, n) unitaries of those draws

    def add(self, parts):
        """Keep the ``(k, 2, n, n)`` draw ``parts``; returns the function that gives its unitaries."""
        n, k = parts.shape[-1], len(parts)
        start = self._counts.get(n, 0)
        self._counts[n] = start + k
        self._drawn.setdefault(n, []).append(parts)
        return lambda: self._made[n][start : start + k]

    def make(self):
        for n, drawn in self._drawn.items():
            x = np.concatenate(drawn)
            q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
            diag = np.diagonal(r, axis1=1, axis2=2).copy()
            diag[diag == 0] = 1.0
            self._made[n] = q * (diag / np.abs(diag))[:, np.newaxis, :]


def _unitaries(rng, haar, n, k):
    """``k`` Haar-random ``n x n`` unitaries: the function that gives their ``(k, n, n)`` stack.

    The draw ``(k, 2, n, n)`` is the stream of ``k`` draws of a real then an
    imaginary ``n x n`` part, so the generator ends where ``k`` one-at-a-time
    draws would leave it, and each unitary has the same bits.
    """
    return haar.add(rng.standard_normal((k, 2, n, n)))


def _pick_rank(rng, n, policy):
    if policy == "full" or n == 1:
        return n
    if policy == "deficient":
        return int(rng.integers(1, n))
    return int(rng.integers(1, n + 1))


def random_operator(rng, haar, rows, cols, rank=None):
    """Random matrix with singular values in [0.3, 2], of rank ``min(rows, cols)`` unless given.

    A given rank lies in ``[1, min(rows, cols)]``, as :func:`_pick_rank` draws it.
    """
    if rank is None:
        rank = min(rows, cols)
    if rows == cols:
        pair = _unitaries(rng, haar, rows, 2)
    else:
        left, right = _unitaries(rng, haar, rows, 1), _unitaries(rng, haar, cols, 1)
        pair = lambda: (left()[0], right()[0])
    sing = rng.uniform(0.3, 2.0, size=rank)

    def build():
        u, v = pair()
        return (u[:, :rank] * sing) @ v[:, :rank].conj().T

    return build


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(rng, haar, n, rank):
    """Random PSD matrix of the given rank, its nonzero eigenvalues in [0.3, 2].

    The rank lies in ``[1, n]``, as :func:`_pick_rank` draws it.
    """
    unitary = _unitaries(rng, haar, n, 1)
    eigs = np.zeros(n)
    eigs[:rank] = rng.uniform(0.3, 2.0, size=rank)

    def build():
        u = unitary()[0]
        return (u * eigs) @ u.conj().T

    return build


def _hermitian_but_never_positive(rng, haar, n):
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
    pair = _unitaries(rng, haar, n, 2)

    def build():
        u, v = pair()
        return u @ a_diag @ v.conj().T, u @ c_core @ v.conj().T

    return build


def _consistent_pair(rng, haar, spec: TrialSpec, flavor: str):
    """``(n, build)`` for one randomized AX = C instance: C = A X, both n x n, X of the flavor."""
    n = int(rng.integers(1, spec.dim_max + 1))
    rank = _pick_rank(rng, n, spec.rank_policy)
    a = random_operator(rng, haar, n, n, rank)
    if flavor == "general":
        x = random_operator(rng, haar, n, n)
    elif flavor == "hermitian":
        h = random_hermitian(rng, n)
        x = lambda: h
    elif flavor == "positive":
        x = random_psd(rng, haar, n, _pick_rank(rng, n, "random"))
    else:
        raise ValueError(flavor)

    def build():
        a_m = a()
        return a_m, a_m @ x()

    return n, build


# ---------------------------------------------------------------------------
# one draw and one check per named property: the draw takes a trial's numbers
# and returns the function that builds the check's arguments; the check
# returns None on pass, failure detail on fail


def _fail(detail, **mats):
    return {"detail": detail, "instance": {name: matrix_to_json(m) for name, m in mats.items()}}


def _majorization_scale(f: douglas.Factorization) -> float | None:
    """Least ``mu`` with ``C C* <= mu A A*`` by a route of its own; None when none is finite.

    The reference for :attr:`~opeq.douglas.Factorization.majorization_scale`,
    read from the factors ``U_r`` and ``S`` of the factorization's SVD of A,
    not from D: C must not leak outside the range of ``U_r`` by more than
    :meth:`~opeq.douglas.Factorization.equation_bound` of ``||C||``, and
    ``mu`` is then the top eigenvalue of ``G G*`` with ``G = S^-1 U_r* C``,
    read on the equilibrated pair and scaled back to the input's.
    """
    u, s, _ = f.svd
    coords = u.conj().T @ f.c
    if not _within_residual_bound(f.c - u @ coords, f.c, f.tol, f.equation_bound):
        return None
    g = coords / s[:, np.newaxis]
    mu = float(np.max(np.linalg.eigvalsh(g @ g.conj().T), initial=0.0))  # 0 for A of rank 0
    return _ldexp_exact(mu, 2 * f.x_exp, "mu")


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


def _draw_general_solution(rng, haar, spec):
    rows, cols, k = (int(rng.integers(1, spec.dim_max + 1)) for _ in range(3))
    a = random_operator(rng, haar, rows, cols, _pick_rank(rng, min(rows, cols), spec.rank_policy))
    w = random_operator(rng, haar, cols, k)
    y = random_operator(rng, haar, cols, k)

    def build():
        a_m = a()
        return a_m, a_m @ w(), y()

    return build


def _check_general_solution(a, c, y, tol):
    """Every route to the general solution of one rectangular pair lands on the same X.

    With ``A = U|A|``, the paper's partial-isometry form ``|A|^+ U* C + (I - U*U) Y``
    must equal the builder's ``D + (I - P) Y``, the normal equations must give D,
    and recovering Y from X must give X back.  The same pair checks the parts:
    the four Penrose identities of ``A^+ = B S^-1 U_r*``, ``|A|`` as the PSD
    square root of ``A*A``, and the three facts of :func:`_reduced_solution_facts`.
    ``A^+`` and ``U = U_r B*`` are read from the factorization's SVD of A.
    """
    f = douglas.factorize(a, c, tol)
    if not f.range_ok:
        return _fail("range inclusion rejected a consistent pair", a=a, c=c)
    # A = U_r S B*, from the SVD that D was formed from; S is the equilibrated
    # A's, so it is scaled back to the A of this pair
    u_r, s, b = f.svd
    ap = _pinv_from_svd(u_r, _ldexp_exact(s, f.a_exp, "S"), b.conj().T)
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
    leak = np.eye(a.shape[1]) - u.conj().T @ u
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


def _draw_hermitian_criterion(rng, haar, spec):
    flavor = ("hermitian", "general", "positive")[int(rng.integers(3))]
    n, pair = _consistent_pair(rng, haar, spec, flavor)
    y = random_hermitian(rng, n)  # the trial's last draw: read where the verdict is at least HERMITIAN
    return lambda: (flavor, *pair(), y)


def _check_hermitian_criterion(flavor, a, c, y, tol):
    f = douglas.factorize(a, c, tol)
    verdict = f.verdict
    dp = HermitianSpectrum(f.k, tol)  # DP = B K B*: the same deviation and nonzero spectrum
    if dp.is_hermitian != f.ca_hermitian:
        return _fail("Hermitian-ness of DP and CA* disagree", a=a, c=c)
    if dp.is_psd != f.ca_psd:
        return _fail("positivity of DP and CA* disagree", a=a, c=c)
    if f.range_ok:
        # the flags were judged on the spectrum of H / ||A||, and C A* = U_r H U_r*
        # but for the leak of C outside R(A): the range test bounds it by
        # equation_bound(||C||), and so ||A|| times that bounds the gap
        u = f.svd[0]
        gap = f.c @ f.a.conj().T - u @ (f.a_norm * f._ca_spectrum.m) @ u.conj().T
        if not _within_residual_bound(gap, f.c, tol, lambda norm: f.a_norm * f.equation_bound(norm)):
            return _fail(f"C A* differs from U_r H U_r* by {spectral_norm(gap):.3e}", a=a, c=c)
    if flavor == "hermitian" and not verdict.at_least(douglas.Verdict.HERMITIAN):
        return _fail("pair built from a Hermitian factor judged non-Hermitian", a=a, c=c)
    if verdict.at_least(douglas.Verdict.HERMITIAN):
        try:
            x = douglas.hermitian_solution(f, y)
        except NotSolvableHermitian as exc:
            return _fail(f"Hermitian builder refused its own output: {exc}", a=a, c=c)
        if not HermitianSpectrum(x, tol).is_hermitian:
            return _fail("emitted solution is not Hermitian", a=a, c=c)
        if not f.equation_ok(f.scaled(x)):
            return _fail("emitted Hermitian member does not solve the equation", a=a, c=c)
    return None


def _draw_positive_criteria(rng, haar, spec):
    pick = int(rng.integers(4))
    if pick == 3 and spec.dim_max >= 3:
        n = int(rng.integers(3, spec.dim_max + 1))
        pair = _hermitian_but_never_positive(rng, haar, n)
        expect = "blocked"
    else:
        flavor = ("positive", "hermitian", "general")[pick % 3]
        n, pair = _consistent_pair(rng, haar, spec, flavor)
        expect = "positive" if flavor == "positive" else None
    sub_seed = int(rng.integers(2**32))
    # the trial's last draw: the builder's parameter where the pair is built to be positive
    z = random_psd(rng, haar, n, _pick_rank(rng, n, "random"))
    return lambda: (expect, *pair(), sub_seed, z())


def _check_positive_criteria(expect, a, c, sub_seed, z, tol):
    """The positivity routes agree on one pair, and a HERMITIAN verdict comes with its proof.

    The majorization route, a finite t with ``C C* <= t C A*``, reads
    ``C A*`` PSD and no leak of the ``n x n`` ``C C*`` outside its range,
    ``U_r Y`` for Y the range eigenvectors of its compression H where R(C)
    lies in R(A).
    A HERMITIAN verdict says no PSD solution exists: :func:`_indefinite_witness`
    must give a vector or plane that certifies two members of the Hermitian
    family, formed by :func:`_family_members`, indefinite beyond roundoff.
    """
    f = douglas.factorize(a, c, tol)
    # the pairs first, so the PSD test of C A* reads their values
    v = f._ca_spectrum.range_pairs[1] if f.ca_hermitian else None
    if v is not None and f.range_ok:  # the eigenvectors of H, in the coordinates of U_r
        v = f.svd[0] @ v
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
        try:
            x = douglas.positive_solution(f, z)
        except NotSolvablePositive as exc:
            return _fail(f"positive builder refused its own output: {exc}", a=a, c=c)
        if not is_psd(x, tol):
            return _fail("emitted member of the positive family is not PSD", a=a, c=c)
        if not f.equation_ok(f.scaled(x)):
            return _fail("emitted positive member does not solve the equation", a=a, c=c)
        x_norm = spectral_norm(x)
        if not _within_residual_bound(f.t_min - x_norm, x_norm, tol):
            return _fail("t_min exceeds the norm of an emitted positive solution", a=a, c=c)
    if expect == "blocked":
        if verdict is not douglas.Verdict.HERMITIAN:
            return _fail(f"range-deficient pattern misclassified as {verdict.value}", a=a, c=c)
        if f.dp_range_eq or t_finite:
            return _fail("range-deficient pattern passed a positivity route", a=a, c=c)
    if verdict is douglas.Verdict.HERMITIAN:
        detail = _uncertified(_indefinite_witness(f), _family_members(f, sub_seed))
        if detail is not None:
            return _fail(detail, a=a, c=c)
    return None


def _draw_block_positivity(rng, haar, spec):
    d1 = int(rng.integers(1, min(4, spec.dim_max) + 1))
    d2 = int(rng.integers(1, min(4, spec.dim_max) + 1))
    if rng.random() < 0.5:
        psd = random_psd(rng, haar, d1 + d2, _pick_rank(rng, d1 + d2, "random"))
        return lambda: (psd(), d1)
    full = np.zeros((d1 + d2, d1 + d2), dtype=np.complex128)
    full[:d1, :d1] = random_hermitian(rng, d1)
    full[d1:, d1:] = random_hermitian(rng, d2)
    off = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    full[:d1, d1:] = off
    full[d1:, :d1] = off.conj().T
    return lambda: (full, d1)


def _check_block_positivity(full, d1, tol):
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


def _draw_tn_lambda(rng, haar, spec):
    if spec.dim_max >= 3 and rng.random() < 0.4:
        return _hermitian_but_never_positive(rng, haar, int(rng.integers(3, spec.dim_max + 1)))
    return _consistent_pair(rng, haar, spec, "positive")[1]


def _check_tn_lambda(a, c, tol):
    """``||T_n||`` settles exactly when R(D) = R(DP), and then on the closed-form lambda.

    A uniform bound on the compressed resolvent norms would also certify
    finiteness; for matrices that is exactly invertibility of DP on the range
    of DP, i.e. the range equality R(D) = R(DP), which remains the
    authoritative test.  The scan only cross-checks it.
    """
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
    ("general_solution_routes", _draw_general_solution, _check_general_solution),
    ("hermitian_criterion_transfer", _draw_hermitian_criterion, _check_hermitian_criterion),
    ("positive_criteria_agreement", _draw_positive_criteria, _check_positive_criteria),
    ("block_positivity_vs_eigen", _draw_block_positivity, _check_block_positivity),
    ("tn_monotone_lambda_match", _draw_tn_lambda, _check_tn_lambda),
]

# the most trials of one property drawn before their unitaries are made: one
# QR per size serves them all, and the suite holds one chunk's instances at a time
_CHUNK = 64


def _outcomes(spec, tol, prop_index, draw, check):
    """``(trial, outcome)`` for each trial of one property, drawn and checked a chunk at a time."""
    for start in range(0, spec.trials, _CHUNK):
        trials = range(start, min(start + _CHUNK, spec.trials))
        haar = _HaarDraws()
        builds = [draw(_sub_rng(spec.seed, prop_index, trial), haar, spec) for trial in trials]
        haar.make()
        for trial, build in zip(trials, builds):
            try:
                outcome = check(*build(), tol)
            except OpeqError as exc:
                outcome = _fail(f"{type(exc).__name__}: {exc}")
            yield trial, outcome


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
    for prop_index, (name, draw, check) in enumerate(_PROPERTY_CHECKS):
        failures = 0
        first_failure = None
        for trial, outcome in _outcomes(spec, tol, prop_index, draw, check):
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
