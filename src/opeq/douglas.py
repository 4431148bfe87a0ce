"""Solvability criteria and solution families for the operator equation AX = C.

Everything here works with finite complex matrices, where ranges are closed
and Moore-Penrose inverses always exist, so the closed-range hypotheses of
the underlying operator theory are automatic.  The genuinely infinite-
dimensional obstructions live in :mod:`opeq.projpair`, which models an
algebra of matrix-valued functions where they do occur.

The central objects: the reduced solution ``D = A^dagger C`` (the unique
solution whose range lies in the row space of ``A``), the row-space
projector ``P``, and three nested solution families::

    general    X = D + (I - P) Y                       (any Y)
    Hermitian  X = D + (I - P) D* + (I - P) Y (I - P)  (Y Hermitian)
    positive   X = X0 + (I - P) Z (I - P)              (Z PSD)

with ``X0 = D + (I - P) D* + (I - P) D* (D P)^dagger D (I - P)``.  The
positive family keeps its free parameter in the complement of ``P``: that is
the form under which ``A X = C`` holds for every PSD ``Z``.

Every decision reads one :class:`Factorization` of ``(A, C, tol)``, made by
:func:`factorize` from a single SVD of ``A``, which it keeps; the builders
check each solution they emit before returning it.  The solvability class is
:attr:`Factorization.verdict`, read with the flags it is decided by;
:func:`solvability_report` writes them as the JSON that ``opeq check``
prints, with the exact norms of every failed criterion, which no decision reads.

The paper's two least scales read the same factorization.  By Douglas,
``C C* <= mu A A*`` holds for some ``mu`` exactly when ``R(C)`` lies inside
``R(A)``, and the least such ``mu`` is ``||D||^2``
(:attr:`Factorization.majorization_scale`).  Positive solvability is decided
by the exact finite-dimensional tests: ``R(C)`` inside ``R(A)``, ``C A*``
PSD, and the range equality ``R(D) = R(DP)``.  Exactly then the least ``t``
with ``C C* <= t C A*`` (:attr:`Factorization.t_min`) is finite, and it and
the norm ``lambda`` of the correction term
``(I - P) D* (D P)^dagger D (I - P)`` are reported; ``lambda`` is the limit
of the compressed-resolvent norms ``||T_n||``.  :mod:`opeq.oracle` keeps the
``||T_n||`` scan, the ``n x n`` route to ``t``, the leak of ``C C*`` outside
the range of ``C A*``, and a route to ``mu`` through ``U_r* C`` from the
factorization's SVD of A, as cross-checks.

All of it lives on the row space of A, as the paper's ``D = |A|^dagger U* C``
does: with ``M = B* D`` and ``K = B* D B``, ``D = B M``, ``D P = B K B*`` and
``(D P)^dagger = B K^dagger B*``.  So one SVD ``U_K S_K V_K*`` of the
``r x r`` matrix K decides the range equality and gives the correction term;
no ``n x n`` SVD of D or of ``D P`` is taken.  Since ``R(D P) = D R(P)``
always lies inside ``R(D)``, the equality is one inclusion, D inside the
range of DP within the residual bound, plus equal ranks: the bound is far
above the rank cut, so a direction of D whose singular value lies between
the two passes the inclusion alone.  The rank of M takes an SVD only when
K's is below r, as M has r rows.  With ``A = U_r S B*`` and ``U_r S``
injective, ``C C* <= t C A*`` holds iff ``M M* <= t K``, and
``M M* = K K* + E E*`` with ``E = M (I - P)``; so with
``G = S_K^{-1/2} U_K* E``, ``t_min = ||S_K + G G*||`` and
``lambda = ||G||^2``, read from ``r x r`` matrices.  ``C A*`` is decided on
the row space too: where R(C) lies in R(A), ``C A* = U_r H U_r*`` with
``H = U_r* C B S``, which is ``S K S`` in exact arithmetic, so its Hermitian
and PSD tests read the ``r x r`` H, and A's SVD is the one ``n x n``
decomposition a verdict takes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotASolution,
    NotHermitian,
    NotSolvable,
    NotSolvableHermitian,
    NotSolvablePositive,
    ParameterNotHermitian,
    ParameterNotPSD,
    ShapeMismatch,
)
from .matcore import (
    DEFAULT_TOLERANCES,
    HermitianSpectrum,
    ToleranceConfig,
    _equilibrated,
    _ldexp_exact,
    _norm2,
    _pinv_from_svd,
    _single_norm_bounds,
    _within_residual_bound,
    as_matrix,
    hermitian_deviation,
    is_psd,
    spectral_norm,
    truncated_svd,
)

__all__ = [
    "Verdict",
    "Factorization",
    "factorize",
    "reduced_solution",
    "general_solution",
    "recover_parameter",
    "solvability_report",
    "hermitian_solution",
    "positive_solution",
    "block_psd_test",
]

# roundoff per dimension, relative to ||A|| ||A^dagger|| ||C||, that an equation
# residual A X - C is allowed beyond its residual bound (Factorization.equation_bound)
_ROUNDOFF = 16 * float(np.finfo(np.float64).eps)


class Verdict(enum.Enum):
    """Solvability classes, ordered: positive implies Hermitian implies general."""

    UNSOLVABLE = "Unsolvable"
    GENERAL = "SolvableGeneral"
    HERMITIAN = "SolvableHermitian"
    POSITIVE = "SolvablePositive"

    def at_least(self, other: "Verdict") -> bool:
        order = list(Verdict)  # definition order, weakest first
        return order.index(self) >= order.index(other)


@dataclass(frozen=True, eq=False)
class Factorization:
    """The one factorization of ``(A, C, tol)`` that every decision reads.

    Douglas's criteria are homogeneous, so every decision reads the
    equilibrated pair ``a = 2^-a_exp A``, ``c = 2^-c_exp C`` (see
    :func:`factorize`), and every array and norm below is of that pair.
    Each value handed out -- D and each emitted X, ``t_min`` and lambda
    (``2^x_exp``, ``x_exp = c_exp - a_exp``), the least majorization scale
    (``2^(2 x_exp)``), residuals (``2^c_exp``) and the deviation of ``C A*``
    (``2^(a_exp + c_exp)``) -- is scaled back exactly by
    :func:`~opeq.matcore._ldexp_exact`, which raises
    :class:`~opeq.errors.OpeqError` where the value is not a float at the
    input's scale; :meth:`scaled` takes a matrix the other way.

    :func:`factorize` fills the fields from a single SVD of A: the truncated
    SVD ``svd = (U_r, s, B)`` itself, with ``A = U_r diag(s) B*`` and B the
    orthonormal row-space basis (so ``P = B B*``), and the reduced solution
    ``D = A^dagger C`` formed from it.  A's norm ``s[0]`` and condition number
    ``||A|| ||A^dagger|| = s[0] / s[-1]`` are read from ``s``, and the oracle
    reads ``U_r`` and B for its pseudoinverse, polar and majorization routes,
    so no second SVD of A is taken.  The rest are properties computed on
    first use, and cached when more than one decision reads them, so a
    caller pays only for what it reads.  D's
    row-space coordinates ``M = B* D`` carry its norm and rank, each from one
    SVD of M taken only where it is read.  The square-only data -- the
    eigenvalues of the ``r x r`` compression H of ``C A*`` for its PSD
    test, and one SVD of the compression
    ``K = M B`` of ``DP`` for the range equality, ``(DP)^dagger``, ``t_min``
    and lambda -- are never computed for a general solution or a
    majorization; nor is ``E = M (I - P)``, which with ``K^dagger`` gives
    X0's correction term ``E* K^dagger E``.  Every equation residual
    ``A X - C``, D's included, is judged by one rule, :meth:`equation_ok`.
    Each threshold test asks
    :func:`~opeq.matcore._within_residual_bound`, which takes a zgesdd norm
    only when Frobenius bounds cannot settle it and returns only the verdict;
    each number a certificate prints (``range_residual``, the deviation of
    ``C A*``, ``range_equality``) is an exact norm of its own, taken on first
    read.  No residual matrix is kept; nor is anything of an X it checks, so
    each check of an X reads that X as it is then.  At exponent 0, ``a`` and
    ``c`` are the arrays given, which must not be changed while the
    factorization is in use.
    """

    a: np.ndarray
    c: np.ndarray
    tol: ToleranceConfig
    svd: tuple[np.ndarray, np.ndarray, np.ndarray]
    d: np.ndarray
    a_exp: int
    c_exp: int

    @property
    def x_exp(self) -> int:
        """``c_exp - a_exp``: D and every solution X at the input's scale are ``2^x_exp`` times ours."""
        return self.c_exp - self.a_exp

    def scaled(self, x, what: str = "X") -> np.ndarray:
        """A solution or parameter given at the input's scale, at ours: ``2^-x_exp X``."""
        return _ldexp_exact(x, -self.x_exp, what)

    @property
    def row_basis(self) -> np.ndarray:
        """B, the orthonormal row-space basis of A: ``P = B B*``."""
        return self.svd[2]

    @property
    def a_norm(self) -> float:
        """``||A||`` of our pair, its largest singular value; 0.0 at rank 0."""
        return float(self.svd[1][0]) if self.svd[1].size else 0.0

    @property
    def a_cond(self) -> float:
        """``||A|| ||A^dagger||``, A's largest over its least kept singular value; 0.0 at rank 0."""
        return float(self.svd[1][0] / self.svd[1][-1]) if self.svd[1].size else 0.0

    def equation_bound(self, c_norm: float) -> float:
        """The largest ``||A X - C||`` that passes, given ``||C||``.

        The residual bound of ``||C||`` plus the roundoff of forming
        ``D = A^dagger C`` and ``A D``, ``16 n eps ||A|| ||A^dagger|| ||C||``
        with n the larger side of A: over random pairs of condition number up
        to 3e9, D's residual stayed below half of it.  That roundoff passes
        ``residual_atol ||C||`` from a condition number of about
        ``residual_atol / eps``, while a C outside R(A) by more still fails.
        The oracle's own route to the least majorization scale applies it too.
        """
        return self.tol.residual_bound(c_norm) + _ROUNDOFF * max(self.a.shape) * self.a_cond * c_norm

    def equation_ok(self, x) -> bool:
        """``||A X - C||`` within :meth:`equation_bound` for X at our scale, Frobenius bounds first."""
        return _within_residual_bound(self.a @ x - self.c, self.c, self.tol, self.equation_bound)

    def residual(self, x) -> float:
        """``||A X - C||`` at the input's scale, for X at ours, from one zgesdd call.

        It is what certificates and ``solve`` print.
        """
        return _ldexp_exact(spectral_norm(self.a @ x - self.c), self.c_exp, "||A X - C||")

    @cached_property
    def range_ok(self) -> bool:
        """R(C) inside R(A): D solves ``A X = C`` by :meth:`equation_ok`."""
        return self.equation_ok(self.d)

    @cached_property
    def range_residual(self) -> float:
        """``||A D - C||`` at the input's scale, which the certificate of a failed range test prints."""
        return self.residual(self.d)

    @cached_property
    def ip(self) -> np.ndarray:
        """``I - P``, with ``P = B B*`` A's row-space projector: zero at full column rank."""
        n = self.a.shape[1]
        if self.row_basis.shape[1] == n:
            return np.zeros((n, n), dtype=np.complex128)
        return np.eye(n, dtype=np.complex128) - self.row_basis @ self.row_basis.conj().T

    @property
    def _ca_compression(self) -> np.ndarray:
        """``H / ||A||``, with ``H = U_r* C A* U_r = U_r* (C B) S`` the ``r x r`` compression of ``C A*``.

        Where R(C) lies in R(A), ``C A* = U_r H U_r*``, so H carries every
        nonzero eigenvalue of ``C A*`` and none of its ``n - r`` structural
        zeros.  It is formed from ``C B``, not as ``S K S``: K's roundoff is
        that of D, about ``eps ||A^dagger|| ||C||`` in every direction, and S
        on both sides lifts it to ``eps kappa ||A|| ||C||``.  Divided by
        ``||A||`` (zero at rank 0, where H is empty), it is judged at ``||C||``.
        """
        u, s, basis = self.svd
        return (u.conj().T @ (self.c @ basis)) * (s / self.a_norm)

    @cached_property
    def _ca_spectrum(self) -> HermitianSpectrum:
        """The one spectrum of ``C A*`` that its Hermitian and PSD tests read.

        ``C A*`` decides the Hermitian class.  Its tests are judged at
        ``||A|| ||C||``, the size of the roundoff in forming the product, not
        at ``||C A*||``: ``C A*`` cancels to roundoff where ``P X P`` is small
        for a solution X.  Where R(C) lies in R(A) it is the spectrum of the
        ``r x r`` :attr:`_ca_compression` ``H / ||A||``, judged at ``||C||``
        with no ``n x n`` array formed.  Where it does not, ``C A*`` is not
        ``U_r H U_r*``, and it is the ``n x n`` product's, judged at ``||A||``
        times C's norm.  The pair is equilibrated, so nothing here overflows.
        """
        if self.range_ok:
            return HermitianSpectrum(self._ca_compression, self.tol, scale=self.c)
        return HermitianSpectrum(self.c @ self.a.conj().T, self.tol, scale=self.a_norm * self.c)

    @property
    def ca_hermitian(self) -> bool:
        return self._ca_spectrum.is_hermitian

    @property
    def ca_psd(self) -> bool:
        return self._ca_spectrum.is_psd

    @cached_property
    def m(self) -> np.ndarray:
        """``M = B* D``, D in row-space coordinates: ``D = B M``, so ``||M|| = ||D||``."""
        return self.row_basis.conj().T @ self.d

    @cached_property
    def k(self) -> np.ndarray:
        """``K = M B = B* D B``, the compression of DP to the row space: ``DP = B K B*``."""
        return self.m @ self.row_basis

    @cached_property
    def _k_svd(self):
        """Truncated SVD ``(U_K, s_K, V_K*)`` of K and the value it is cut at.

        It gives DP's rank, its range ``B U_K`` and ``(DP)^dagger = B K^dagger B*``.
        K carries the roundoff of M, so it is cut at the rank cut of ``||M||``,
        read as its Frobenius lower bound when that is above ``||K||``: where DP
        is exactly zero and D is not, K is that roundoff alone, and a cut at its
        own norm would count it.
        """
        if not self.k.size:  # A of rank 0 leaves K empty
            return self.k, np.zeros(0), self.k, 0.0
        u, s, vh = np.linalg.svd(self.k, full_matrices=False)
        cut = self.tol.rank_cut(max(s[0], _single_norm_bounds(self.m)[0]))
        r = int(np.count_nonzero(s > cut))
        return u[:, :r], s[:r], vh[:r, :], cut

    @cached_property
    def rank_d(self) -> int:
        """Rank of ``D = B M``, cut where K is, so never below DP's.

        M has r rows, so when K has rank r so does M, and no SVD is taken;
        otherwise one values-only SVD of M gives it.
        """
        if self._k_svd[1].size == self.m.shape[0]:
            return self.m.shape[0]
        return int(np.count_nonzero(np.linalg.svd(self.m, compute_uv=False) > self._k_svd[3]))

    def _outside_range_dp(self) -> np.ndarray:
        """``M - U_K U_K* M``: D outside the range of DP, in row-space coordinates."""
        return self.m - self._k_svd[0] @ (self._k_svd[0].conj().T @ self.m)

    @cached_property
    def range_equality(self) -> dict:
        """Ranks of D and of DP, and D's residual outside the range of DP at the input's scale."""
        outside = _ldexp_exact(spectral_norm(self._outside_range_dp()), self.x_exp, "D outside R(DP)")
        return {
            "rank_d": self.rank_d,
            "rank_dp": int(self._k_svd[1].size),
            "d_outside_range_dp": outside,
        }

    @cached_property
    def dp_range_eq(self) -> bool:
        """R(D) = R(DP): D within the residual bound of ``||M||`` of R(DP), at equal ranks.

        ``R(DP) = D R(P)`` always lies inside R(D), so the other inclusion holds.
        The ranks are compared too: a direction of D whose singular value is
        above the rank cut and below the residual bound is outside R(DP), and
        the positive builder's X0 then has a negative eigenvalue of about that size.
        """
        if not _within_residual_bound(self._outside_range_dp(), self.m, self.tol):
            return False
        return self.rank_d == self._k_svd[1].size

    @property
    def positive(self) -> bool:
        """The positive class: R(C) inside R(A), ``C A*`` PSD and R(D) = R(DP)."""
        return self.range_ok and self.ca_psd and self.dp_range_eq

    @cached_property
    def verdict(self) -> Verdict:
        """The solvability class of AX = C over the square parameter space.

        Decided by the exact finite-dimensional tests, range inclusion, then
        the positive class, then ``C A*`` Hermitian, so POSITIVE implies the
        range, PSD and range-equality flags, HERMITIAN or higher implies the
        range and Hermitian flags, and ``t_min`` and lambda are finite exactly
        on POSITIVE.  Raises :class:`~opeq.errors.ShapeMismatch` unless A and C
        have the same shape.
        """
        _check_same_shape(self)
        if not self.range_ok:
            return Verdict.UNSOLVABLE
        if self.positive:
            return Verdict.POSITIVE
        if self.ca_hermitian:
            return Verdict.HERMITIAN
        return Verdict.GENERAL

    @cached_property
    def _positive_norms(self) -> tuple[float, float] | None:
        """``(t_min, lambda)`` from K's SVD ``U_K S_K V_K*``; None off the positive class.

        ``t_min = ||S_K + G G*||`` and ``lambda = ||G||^2`` with
        ``G = S_K^{-1/2} U_K* E`` (see the module docstring): the top
        eigenvalues of one ``eigvalsh`` of the stacked pair, at the input's
        scale; reading either raises where one of them is not a float there.
        """
        if not self.positive:
            return None
        u, s = self._k_svd[:2]
        if not s.size:  # D is zero, and so are C and the correction term
            return 0.0, 0.0
        g = (u.conj().T @ self.e) / np.sqrt(s)[:, np.newaxis]
        gram = g @ g.conj().T
        top = np.linalg.eigvalsh(np.stack([np.diag(s) + gram, gram]))[:, -1]
        t_min, lam = float(top[0]), max(0.0, float(top[1]))
        return _ldexp_exact(t_min, self.x_exp, "t_min"), _ldexp_exact(lam, self.x_exp, "lambda")

    @property
    def majorization_scale(self) -> float | None:
        """Least ``mu`` with ``C C* <= mu A A*``: ``||D||^2`` where R(C) lies in R(A), else None.

        By Douglas such a ``mu`` exists exactly when R(C) is inside R(A), and
        the least one is ``||D||^2``, at the input's scale: ``||D|| = ||M||``,
        from one SVD of the ``r x k`` matrix M.
        """
        if not self.range_ok:
            return None
        return _ldexp_exact(_norm2(self.m) ** 2, 2 * self.x_exp, "the least majorization scale ||D||^2")

    @property
    def t_min(self) -> float | None:
        """Least t with ``C C* <= t C A*``, which is finite exactly on the positive class."""
        return None if self._positive_norms is None else self._positive_norms[0]

    @property
    def lambda_estimate(self) -> float | None:
        """``||x0_correction||`` at the input's scale on the positive class, else None."""
        return None if self._positive_norms is None else self._positive_norms[1]

    @property
    def h0(self) -> np.ndarray:
        """``D + (I - P) D*``, the Hermitian family's member at ``Y = 0``."""
        return self.d + self.ip @ self.d.conj().T

    @property
    def e(self) -> np.ndarray:
        """``E = B* D (I - P) = M - K B*``, formed as ``M (I - P)``: zero at full column rank.

        Formed on each read and not kept: ``x0_correction``, ``t_min`` and
        lambda, and the T_n scan of :mod:`opeq.oracle` read it once each.
        """
        return self.m @ self.ip

    @property
    def x0_correction(self) -> np.ndarray:
        """``(I - P) D* (DP)^dagger D (I - P) = E* K^dagger E``, whose norm is lambda."""
        e = self.e
        return e.conj().T @ _pinv_from_svd(*self._k_svd[:3]) @ e

    @property
    def x0(self) -> np.ndarray:
        """The positive family's member at ``Z = 0``."""
        return self.h0 + self.x0_correction


def factorize(a, c, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Factorization:
    """Validate A and C, which must share their row count, and factorize them once.

    A and C are first scaled by ``2^-a_exp`` and ``2^-c_exp``, even powers of
    two that put each one's largest entry in [1/2, 2) (exact, barring
    entries 2^1000 below the largest), so no product of the decisions
    overflows.  The exponents are even because ``t_min`` and lambda read
    square roots of K's singular values, which then scale exactly too.
    """
    (a, a_exp), (c, c_exp) = (_equilibrated(as_matrix(m)) for m in (a, c))
    if a.shape[0] != c.shape[0]:
        raise ShapeMismatch(
            f"A has {a.shape[0]} rows but C has {c.shape[0]}; ranges live in different spaces"
        )
    u, s, vh = truncated_svd(a, tol)
    d = _pinv_from_svd(u, s, vh) @ c
    basis = vh.conj().T
    # reduced_solution hands D out and the oracle reads the factors; read-only,
    # so no caller can change them under f
    u.flags.writeable = s.flags.writeable = basis.flags.writeable = d.flags.writeable = False
    return Factorization(a=a, c=c, tol=tol, svd=(u, s, basis), d=d, a_exp=a_exp, c_exp=c_exp)


def _check_same_shape(f: Factorization):
    if f.a.shape != f.c.shape:
        raise ShapeMismatch(
            f"A and C must have identical shape for a square solution space, "
            f"got {f.a.shape} and {f.c.shape}"
        )


def reduced_solution(f: Factorization) -> np.ndarray:
    """The unique solution D of AX = C with range inside the row space of A.

    Computed as ``A^dagger C``.  Raises :class:`NotSolvable` carrying the
    range residual ``||A A^dagger C - C||`` when the equation is inconsistent.
    """
    if not f.range_ok:
        raise NotSolvable(
            f"range of C is not contained in range of A (residual {f.range_residual:.3e})",
            certificate={"range_residual": f.range_residual},
        )
    return _ldexp_exact(f.d, f.x_exp, "D")


def general_solution(f: Factorization, y) -> np.ndarray:
    """Member ``D + (I - P) Y`` of the general solution family.

    It is checked before it is returned: the equation residual must pass
    :meth:`Factorization.equation_ok`, else :class:`NotSolvable`.
    """
    y = as_matrix(y)
    d = reduced_solution(f)
    if y.shape != d.shape:
        raise ShapeMismatch(f"parameter Y must have shape {d.shape}, got {y.shape}")
    return _checked(f, f.d + f.ip @ f.scaled(y, "Y"), NotSolvable, [])


def recover_parameter(f: Factorization, x) -> np.ndarray:
    """Invert the general parametrization: the Y with X = D + (I - P) Y.

    Returns ``Y = X - D``; feeding it back through :func:`general_solution`
    reproduces X, which makes the parametrization onto the full solution set.
    """
    x = as_matrix(x)
    if x.shape != f.d.shape:
        raise ShapeMismatch(f"X must have shape {f.d.shape}, got {x.shape}")
    if not f.equation_ok(f.scaled(x)):
        resid = f.residual(f.scaled(x))
        raise NotASolution(
            f"AX differs from C by {resid:.3e}", certificate={"equation_residual": resid}
        )
    return x - reduced_solution(f)


def _failure_certificate(f: Factorization) -> dict:
    """Every failed criterion, with the numbers behind it."""
    failed = []
    certificate = {}
    if not f.range_ok:
        failed.append("range_inclusion")
        certificate["range_residual"] = f.range_residual
    if not f.ca_hermitian:
        failed.append("ca_star_hermitian")
        deviation = hermitian_deviation(f.c @ f.a.conj().T)  # of C A* itself, wherever it was judged
        certificate["ca_star_deviation"] = _ldexp_exact(deviation, f.a_exp + f.c_exp, "||C A* - A C*||")
    if not f.ca_psd:
        failed.append("ca_star_psd")
    if not f.dp_range_eq:
        failed.append("dp_range_eq")
        certificate.update(f.range_equality)
    certificate["failed_conditions"] = failed
    return certificate


def solvability_report(f: Factorization) -> dict:
    """Full solvability classification of AX = C over square parameter space, JSON-ready.

    Reads :attr:`Factorization.verdict` and every criterion behind it: range
    inclusion, Hermitian-ness and positivity of ``C A*``, the least ``t_min``
    with ``C C* <= t C A*``, the range equality ``R(D) = R(DP)`` and the
    closed-form lambda, with the verdict's value, ``"inf"`` for a None, and
    off POSITIVE the certificate of every failed criterion with the exact
    norms behind it.
    """
    verdict = f.verdict
    report = {
        "range_ok": f.range_ok,
        "ca_star_hermitian": f.ca_hermitian,
        "ca_star_psd": f.ca_psd,
        "t_min": f.t_min,
        "dp_range_eq": f.dp_range_eq,
        "lambda_estimate": f.lambda_estimate,
        "verdict": verdict.value,
        "certificate": {} if verdict is Verdict.POSITIVE else _failure_certificate(f),
    }
    return {key: "inf" if value is None else value for key, value in report.items()}


def _checked(f: Factorization, x, error, failed: list, numbers=dict) -> np.ndarray:
    """The emitted X, given at our scale, at the input's if it solves AX = C and passed its tests.

    ``failed`` names the class tests X failed.  The equation residual must be
    within :meth:`Factorization.equation_bound`.  On any failure raise
    ``error`` with the failed conditions, the numbers of ``numbers()`` (each
    at the scale of X), the residual and its bound in the certificate.
    """
    failed = failed + ["solution_residual"] * (not f.equation_ok(x))
    if failed:
        raise error(
            f"the emitted solution failed its own check: {', '.join(failed)}",
            certificate={
                "failed_conditions": failed,
                **{key: _ldexp_exact(v, f.x_exp, key) for key, v in numbers().items()},
                "equation_residual": f.residual(x),
                "residual_bound": _ldexp_exact(f.equation_bound(spectral_norm(f.c)), f.c_exp, "bound"),
            },
        )
    return _ldexp_exact(x, f.x_exp, "X")


def _square_parameter(f: Factorization, y, name: str) -> np.ndarray:
    """The free parameter of a square family, as an ``n x n`` matrix with n the columns of A."""
    _check_same_shape(f)
    y = as_matrix(y)
    n = f.a.shape[1]
    if y.shape != (n, n):
        raise ShapeMismatch(f"parameter {name} must be {n}x{n}, got {y.shape}")
    return y


def hermitian_solution(f: Factorization, y) -> np.ndarray:
    """Member ``D + (I-P) D* + (I-P) Y (I-P)`` of the Hermitian family.

    Y must be Hermitian; the output is then Hermitian and solves AX = C.
    It is checked before it is returned: ``||X - X*||`` must be within the residual
    bound of ``||X||`` and the equation residual must pass
    :meth:`Factorization.equation_ok`, else :class:`NotSolvableHermitian`.
    """
    y = _square_parameter(f, y, "Y")
    if not (f.range_ok and f.ca_hermitian):
        raise NotSolvableHermitian(
            f"no Hermitian solution exists (verdict {f.verdict.value})",
            certificate=_failure_certificate(f),
        )
    y_spectrum = HermitianSpectrum(y, f.tol)
    if not y_spectrum.is_hermitian:
        raise ParameterNotHermitian(
            f"parameter Y must be Hermitian (deviation {y_spectrum.deviation:.3e})",
            certificate={"parameter_deviation": y_spectrum.deviation},
        )

    x = f.h0 + f.ip @ f.scaled(y, "Y") @ f.ip
    spectrum = HermitianSpectrum(x, f.tol)

    def numbers():
        return {
            "solution_deviation": spectrum.deviation,
            "deviation_bound": f.tol.residual_bound(spectral_norm(x)),
        }

    failed = ["solution_hermitian"] * (not spectrum.is_hermitian)
    return _checked(f, x, NotSolvableHermitian, failed, numbers)


def positive_solution(f: Factorization, z) -> np.ndarray:
    """Member ``X0 + (I-P) Z (I-P)`` of the positive family.

    Z must be PSD.  The free part lives in the complement of the row-space
    projector, which is what keeps ``A X = C`` true for every admissible Z.
    Reads only the range, ``C A*`` PSD and range-equality tests and
    ``(DP)^dagger``.  The output is checked before it is returned (PSD, and the
    equation residual by :meth:`Factorization.equation_ok`), else :class:`NotSolvablePositive`.
    """
    z = _square_parameter(f, z, "Z")
    if not f.positive:
        raise NotSolvablePositive(
            f"no PSD solution exists (verdict {f.verdict.value})",
            certificate=_failure_certificate(f),
        )
    if not is_psd(z, f.tol):
        raise ParameterNotPSD("parameter Z must be positive semidefinite")

    x = f.x0 + f.ip @ f.scaled(z, "Z") @ f.ip
    spectrum = HermitianSpectrum(x, f.tol)
    if spectrum.is_psd:
        return _checked(f, x, NotSolvablePositive, [])
    lowest = float(spectrum.eigenvalues[0])
    return _checked(f, x, NotSolvablePositive, ["solution_psd"], lambda: {"min_eigenvalue": lowest})


def block_psd_test(a11, a12, a22, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Positivity of the Hermitian block matrix ``[[A11, A12], [A12*, A22]]``.

    Three conditions, jointly equivalent to positivity of the assembled
    matrix: A11 PSD, the columns of A12 inside the range of A11, and the
    Schur complement ``A22 - A12* A11^dagger A12`` PSD.  The complement is
    judged at the scale of A22, not its own: it cancels to roundoff when the
    assembled matrix is singular.
    """
    a11 = as_matrix(a11)
    a12 = as_matrix(a12)
    a22 = as_matrix(a22)
    if a11.shape[0] != a11.shape[1] or a22.shape[0] != a22.shape[1]:
        raise ShapeMismatch("diagonal blocks must be square")
    if a12.shape != (a11.shape[0], a22.shape[0]):
        raise ShapeMismatch(
            f"off-diagonal block must be {(a11.shape[0], a22.shape[0])}, got {a12.shape}"
        )
    spectra = {"A11": HermitianSpectrum(a11, tol), "A22": HermitianSpectrum(a22, tol)}
    for name, spectrum in spectra.items():
        if not spectrum.is_hermitian:
            dev = spectrum.deviation
            raise NotHermitian(
                f"{name} must be Hermitian (deviation {dev:.3e})",
                certificate={"block": name, "deviation": dev},
            )
    # A11's eigenpairs, taken before its PSD test reads their values, give the
    # range condition and X = A11^dagger A12 for the Schur complement
    w, v = spectra["A11"].range_pairs
    if not spectra["A11"].is_psd:
        return False
    coeffs = v.conj().T @ a12
    if not _within_residual_bound(a12 - v @ coeffs, a12, tol):
        return False
    return HermitianSpectrum(a22 - a12.conj().T @ ((v / w) @ coeffs), tol, scale=a22).is_psd
