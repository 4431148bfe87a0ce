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
:func:`factorize` from a single SVD of ``A``; the builders check each
solution they emit before returning it.

Positive solvability admits two equivalent finite-dimensional tests, and
both are computed so they can cross-check each other: the least ``t`` with
``C C* <= t C A*`` is finite exactly when ``C A*`` is PSD and the ranges of
``D`` and ``D P`` coincide.  The range-equality test is authoritative.  When
it holds, the norm ``lambda`` of the correction term
``(I - P) D* (D P)^dagger D (I - P)`` is reported in closed form; it is the
limit of the compressed-resolvent norms ``||T_n||``, whose scan
:mod:`opeq.oracle` keeps as a cross-check.

Both live on the row space of A, as the paper's ``D = |A|^dagger U* C`` does:
with ``M = B* D`` and ``K = B* D B``, ``D = B M``, ``D P = B K B*`` and
``(D P)^dagger = B K^dagger B*``.  So one SVD of the ``r x r`` matrix K decides
the range equality and gives the correction term; no ``n x n`` SVD of D or of
``D P`` is taken.  Since ``R(D P) = D R(P)`` always lies inside ``R(D)``, the
equality is one inclusion, D inside the range of DP within the residual bound,
plus equal ranks: the bound is far above the rank cut, so a direction of D
whose singular value lies between the two passes the inclusion alone.  The
rank of M takes an SVD only when K's is below r, as M has r rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
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
    "SolvabilityReport",
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


@dataclass(frozen=True)
class SolvabilityReport:
    """Structured verdict for AX = C with the failing certificate when negative.

    ``t_min`` is the least ``t`` with ``C C* <= t C A*`` (None when no finite
    ``t`` exists).  ``lambda_estimate`` is the closed form
    ``||(I - P) D* (DP)^dagger D (I - P)||``, the limit of the
    compressed-resolvent norms ``||T_n||``; it is set exactly when the
    verdict is POSITIVE, since otherwise those norms diverge or are
    undefined.  Both serialize as the string ``"inf"`` when None.
    """

    range_ok: bool
    ca_star_hermitian: bool
    ca_star_psd: bool
    t_min: float | None
    dp_range_eq: bool
    lambda_estimate: float | None
    verdict: Verdict
    certificate: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict is Verdict.POSITIVE and not (
            self.range_ok and self.ca_star_psd and self.dp_range_eq
        ):
            raise ValueError("positive verdict requires range, PSD and range-equality flags")
        if self.verdict.at_least(Verdict.HERMITIAN) and not (
            self.range_ok and self.ca_star_hermitian
        ):
            raise ValueError("Hermitian verdict requires range and Hermitian flags")
        if (self.lambda_estimate is not None) != (self.verdict is Verdict.POSITIVE):
            raise ValueError("lambda_estimate is present exactly for a positive verdict")

    def to_json(self) -> dict:
        """Every field in order, with the verdict's value and "inf" for a None."""
        out = {item.name: getattr(self, item.name) for item in fields(self)}
        out["verdict"] = self.verdict.value
        return {key: "inf" if value is None else value for key, value in out.items()}


@dataclass(frozen=True, eq=False)
class Factorization:
    """The one factorization of ``(A, C, tol)`` that every decision reads.

    :func:`factorize` fills the fields from a single SVD of A: its norm and
    condition number ``||A|| ||A^dagger||``, the orthonormal row-space basis
    ``B`` (so ``P = B B*``) and the reduced solution ``D = A^dagger C``.  The
    rest are properties computed on first use, and cached when more than one
    decision reads them, so a caller pays only for what it reads.  D's
    row-space coordinates ``M = B* D`` carry its norm and rank, each from one
    SVD of M taken only where it is read.  The square-only data -- ``C A*``
    with one eigendecomposition for its PSD test and ``t_min``, and one SVD of
    the compression ``K = M B`` of ``DP`` for the range equality and
    ``(DP)^dagger`` -- are never computed for a general solution or a
    majorization.  Every equation residual ``A X - C``, D's included, is judged
    by one rule, :meth:`equation_ok`.  Each threshold test asks
    :func:`~opeq.matcore._within_residual_bound`, which takes a zgesdd norm
    only when Frobenius bounds cannot settle it and returns only the verdict;
    each number a certificate prints (``range_residual``, the deviation of
    ``C A*``, ``range_equality``) is an exact norm of its own, taken on first
    read.  No residual matrix is kept; nor is anything of an X it checks, so
    each check of an X reads that X as it is then.  ``a`` and ``c`` are held as
    given and must not be changed while the factorization is in use.
    """

    a: np.ndarray
    c: np.ndarray
    tol: ToleranceConfig
    a_norm: float
    a_cond: float
    row_basis: np.ndarray
    d: np.ndarray

    def equation_bound(self, c_norm: float) -> float:
        """The largest ``||A X - C||`` that passes, given ``||C||``.

        The residual bound of ``||C||`` plus the roundoff of forming
        ``D = A^dagger C`` and ``A D``, ``16 n eps ||A|| ||A^dagger|| ||C||``
        with n the larger side of A: over random pairs of condition number up
        to 3e9, D's residual stayed below half of it.  That roundoff passes
        ``residual_atol ||C||`` from a condition number of about
        ``residual_atol / eps``, while a C outside R(A) by more still fails.
        """
        return self.tol.residual_bound(c_norm) + _ROUNDOFF * max(self.a.shape) * self.a_cond * c_norm

    def equation_ok(self, x) -> bool:
        """``||A X - C||`` within :meth:`equation_bound`, screened by Frobenius bounds."""
        return _within_residual_bound(self.a @ x - self.c, self.c, self.tol, self.equation_bound)

    @cached_property
    def range_ok(self) -> bool:
        """R(C) inside R(A): D solves ``A X = C`` by :meth:`equation_ok`."""
        return self.equation_ok(self.d)

    @cached_property
    def range_residual(self) -> float:
        """``||A D - C||``, which the certificate of a failed range test prints."""
        return spectral_norm(self.a @ self.d - self.c)

    @property
    def p(self) -> np.ndarray:
        """Orthogonal projector onto the row space of A."""
        return self.row_basis @ self.row_basis.conj().T

    @cached_property
    def ip(self) -> np.ndarray:
        """Its complement ``I - P``: exactly zero when A has full column rank."""
        n = self.a.shape[1]
        if self.row_basis.shape[1] == n:
            return np.zeros((n, n), dtype=np.complex128)
        return np.eye(n, dtype=np.complex128) - self.p

    @cached_property
    def ca(self) -> np.ndarray:
        """``C A*``, whose Hermitian and PSD tests decide the Hermitian class."""
        return self.c @ self.a.conj().T

    @cached_property
    def _ca_spectrum(self) -> HermitianSpectrum:
        """The one deviation and eigendecomposition of ``C A*`` that its three tests read.

        Its Hermitian and PSD tests are judged at ``||C|| ||A||``, the size of
        the roundoff in forming the product, not at ``||C A*||``: ``C A*``
        cancels to roundoff where ``P X P`` is small for a solution X.
        """
        return HermitianSpectrum(self.ca, self.tol, scale=self.a_norm * self.c)

    @property
    def ca_hermitian(self) -> bool:
        return self._ca_spectrum.is_hermitian

    @property
    def ca_psd(self) -> bool:
        return self._ca_spectrum.is_psd

    @property
    def t_min(self) -> float | None:
        """Least t with ``C C* <= t C A*``; None when ``C A*`` is not PSD or no finite t exists."""
        if not self.ca_psd:
            return None
        return self._ca_spectrum.dominating_scale(self.c @ self.c.conj().T)

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

    @property
    def d_norm(self) -> float:
        """``||D|| = ||M||``, from one SVD of the ``r x k`` matrix M."""
        return _norm2(self.m)

    def _outside_range_dp(self) -> np.ndarray:
        """``M - U_K U_K* M``: D outside the range of DP, in row-space coordinates."""
        return self.m - self._k_svd[0] @ (self._k_svd[0].conj().T @ self.m)

    @cached_property
    def range_equality(self) -> dict:
        """Ranks of D and of DP, and D's residual outside the range of DP."""
        return {
            "rank_d": self.rank_d,
            "rank_dp": int(self._k_svd[1].size),
            "d_outside_range_dp": spectral_norm(self._outside_range_dp()),
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
    def h0(self) -> np.ndarray:
        """``D + (I - P) D*``, the Hermitian family's member at ``Y = 0``."""
        return self.d + self.ip @ self.d.conj().T

    @property
    def x0_correction(self) -> np.ndarray:
        """``(I - P) D* (DP)^dagger D (I - P) = E* K^dagger E``; its norm is the reported lambda.

        ``E = B* D (I - P) = M - K B*``, formed as ``M (I - P)``, exactly zero when
        A has full column rank.
        """
        e = self.m @ self.ip
        return e.conj().T @ _pinv_from_svd(*self._k_svd[:3]) @ e

    @property
    def x0(self) -> np.ndarray:
        """The positive family's member at ``Z = 0``."""
        return self.h0 + self.x0_correction


def factorize(a, c, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Factorization:
    """Validate A and C, which must share their row count, and factorize them once."""
    a = as_matrix(a)
    c = as_matrix(c)
    if a.shape[0] != c.shape[0]:
        raise ShapeMismatch(
            f"A has {a.shape[0]} rows but C has {c.shape[0]}; ranges live in different spaces"
        )
    u, s, vh = truncated_svd(a, tol)
    d = _pinv_from_svd(u, s, vh) @ c
    basis = vh.conj().T
    # reduced_solution hands D out; read-only, so no caller can change it under f
    d.flags.writeable = basis.flags.writeable = False
    a_norm, a_cond = (float(s[0]), float(s[0] / s[-1])) if s.size else (0.0, 0.0)
    return Factorization(a=a, c=c, tol=tol, a_norm=a_norm, a_cond=a_cond, row_basis=basis, d=d)


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
    return f.d


def general_solution(f: Factorization, y) -> np.ndarray:
    """Member ``D + (I - P) Y`` of the general solution family.

    It is checked before it is returned: the equation residual must pass
    :meth:`Factorization.equation_ok`, else :class:`NotSolvable`.
    """
    y = as_matrix(y)
    d = reduced_solution(f)
    if y.shape != d.shape:
        raise ShapeMismatch(f"parameter Y must have shape {d.shape}, got {y.shape}")
    return _checked(f, d + f.ip @ y, NotSolvable, [])


def recover_parameter(f: Factorization, x) -> np.ndarray:
    """Invert the general parametrization: the Y with X = D + (I - P) Y.

    Returns ``Y = X - D``; feeding it back through :func:`general_solution`
    reproduces X, which makes the parametrization onto the full solution set.
    """
    x = as_matrix(x)
    shape = (f.a.shape[1], f.c.shape[1])
    if x.shape != shape:
        raise ShapeMismatch(f"X must have shape {shape}, got {x.shape}")
    if not f.equation_ok(x):
        resid = spectral_norm(f.a @ x - f.c)
        raise NotASolution(
            f"AX differs from C by {resid:.3e}", certificate={"equation_residual": resid}
        )
    return x - reduced_solution(f)


def _verdict(f: Factorization) -> Verdict:
    if not f.range_ok:
        return Verdict.UNSOLVABLE
    if f.ca_psd and f.dp_range_eq:
        return Verdict.POSITIVE
    if f.ca_hermitian:
        return Verdict.HERMITIAN
    return Verdict.GENERAL


def _failure_certificate(f: Factorization) -> dict:
    """Every failed criterion, with the numbers behind it."""
    failed = []
    certificate = {}
    if not f.range_ok:
        failed.append("range_inclusion")
        certificate["range_residual"] = f.range_residual
    if not f.ca_hermitian:
        failed.append("ca_star_hermitian")
        certificate["ca_star_deviation"] = f._ca_spectrum.deviation
    if not f.ca_psd:
        failed.append("ca_star_psd")
    if not f.dp_range_eq:
        failed.append("dp_range_eq")
        certificate.update(f.range_equality)
    certificate["failed_conditions"] = failed
    return certificate


def solvability_report(f: Factorization) -> SolvabilityReport:
    """Full solvability classification of AX = C over square parameter space.

    Populates every criterion: range inclusion, Hermitian-ness and
    positivity of ``C A*``, the least majorization scale ``t_min`` with
    ``C C* <= t C A*``, the range equality ``R(D) = R(DP)``, and, for a
    positive verdict, the closed-form lambda.  The verdict is decided by the
    exact finite-dimensional tests (range, PSD, range equality); ``t_min``
    offers the independent route, finite precisely when those hold, so the
    two can be checked against each other.
    """
    _check_same_shape(f)
    verdict = _verdict(f)
    positive = verdict is Verdict.POSITIVE
    return SolvabilityReport(
        range_ok=f.range_ok,
        ca_star_hermitian=f.ca_hermitian,
        ca_star_psd=f.ca_psd,
        t_min=f.t_min,
        dp_range_eq=f.dp_range_eq,
        lambda_estimate=spectral_norm(f.x0_correction) if positive else None,
        verdict=verdict,
        certificate={} if positive else _failure_certificate(f),
    )


def _checked(f: Factorization, x, error, failed: list, numbers=dict) -> np.ndarray:
    """Return the emitted X if it solves AX = C and passed its class tests.

    ``failed`` names the class tests X failed.  The equation residual must be
    within :meth:`Factorization.equation_bound`.  On any failure raise
    ``error`` with the failed conditions, the numbers of ``numbers()``, the
    residual and its bound in the certificate.
    """
    failed = failed + ["solution_residual"] * (not f.equation_ok(x))
    if failed:
        raise error(
            f"the emitted solution failed its own check: {', '.join(failed)}",
            certificate={
                "failed_conditions": failed,
                **numbers(),
                "equation_residual": spectral_norm(f.a @ x - f.c),
                "residual_bound": f.equation_bound(spectral_norm(f.c)),
            },
        )
    return x


def hermitian_solution(f: Factorization, y) -> np.ndarray:
    """Member ``D + (I-P) D* + (I-P) Y (I-P)`` of the Hermitian family.

    Y must be Hermitian; the output is then Hermitian and solves AX = C.
    It is checked before it is returned: ``||X - X*||`` must be within the residual
    bound of ``||X||`` and the equation residual must pass
    :meth:`Factorization.equation_ok`, else :class:`NotSolvableHermitian`.
    """
    _check_same_shape(f)
    y = as_matrix(y)
    n = f.a.shape[1]
    if y.shape != (n, n):
        raise ShapeMismatch(f"parameter Y must be {n}x{n}, got {y.shape}")
    if not (f.range_ok and f.ca_hermitian):
        raise NotSolvableHermitian(
            f"no Hermitian solution exists (verdict {_verdict(f).value})",
            certificate=_failure_certificate(f),
        )
    y_spectrum = HermitianSpectrum(y, f.tol)
    if not y_spectrum.is_hermitian:
        raise ParameterNotHermitian(
            f"parameter Y must be Hermitian (deviation {y_spectrum.deviation:.3e})",
            certificate={"parameter_deviation": y_spectrum.deviation},
        )

    x = f.h0 + f.ip @ y @ f.ip

    def numbers():
        return {
            "solution_deviation": hermitian_deviation(x),
            "deviation_bound": f.tol.residual_bound(spectral_norm(x)),
        }

    failed = ["solution_hermitian"] * (not _within_residual_bound(x - x.conj().T, x, f.tol))
    return _checked(f, x, NotSolvableHermitian, failed, numbers)


def positive_solution(f: Factorization, z) -> np.ndarray:
    """Member ``X0 + (I-P) Z (I-P)`` of the positive family.

    Z must be PSD.  The free part lives in the complement of the row-space
    projector, which is what keeps ``A X = C`` true for every admissible Z.
    Reads only the range, ``C A*`` PSD and range-equality tests and
    ``(DP)^dagger``.  The output is checked before it is returned (PSD, and the
    equation residual by :meth:`Factorization.equation_ok`), else :class:`NotSolvablePositive`.
    """
    _check_same_shape(f)
    z = as_matrix(z)
    n = f.a.shape[1]
    if z.shape != (n, n):
        raise ShapeMismatch(f"parameter Z must be {n}x{n}, got {z.shape}")
    if not (f.range_ok and f.ca_psd and f.dp_range_eq):
        raise NotSolvablePositive(
            f"no PSD solution exists (verdict {_verdict(f).value})",
            certificate=_failure_certificate(f),
        )
    if not is_psd(z, f.tol):
        raise ParameterNotPSD("parameter Z must be positive semidefinite")

    x = f.x0 + f.ip @ z @ f.ip
    spectrum = HermitianSpectrum(x, f.tol)
    if spectrum.is_psd:
        return _checked(f, x, NotSolvablePositive, [])
    lowest = float(spectrum.eigh[0][0])
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
    if not spectra["A11"].is_psd:
        return False
    # A11's eigenpairs give the range condition, and X = A11^dagger A12 for the Schur complement
    w, v = spectra["A11"].range_pairs
    coeffs = v.conj().T @ a12
    if not _within_residual_bound(a12 - v @ coeffs, a12, tol):
        return False
    return HermitianSpectrum(a22 - a12.conj().T @ ((v / w) @ coeffs), tol, scale=a22).is_psd
