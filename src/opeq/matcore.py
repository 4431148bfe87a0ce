"""Dense complex-matrix primitives with explicit tolerance control.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``; :func:`as_matrix`
is the single validation gate (finite entries, two axes).  :func:`sqrt_psd`
also takes a ``(k, n, n)`` stack, validated by the same rules.  Every
floating-point judgment call -- what counts as rank, as positive, as a zero
residual -- goes through a :class:`ToleranceConfig` so the decision
thresholds are visible and overridable.

The wire format shared by all modules is
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with ``data`` row-major
of length ``r * c``.  ``rows`` and ``cols`` are positive integers.  Each
entry is a list or tuple of two finite numbers: floats, integers of any size
that converts to a finite float, or booleans (read as 1 and 0).  The parser
rejects anything else -- strings, ``null``, lists of another length, NaN,
infinity, integers too large for a float -- naming the first bad entry as
``data[k]``.  Text in the layout that ``json.dumps`` gives the format is read
without a Python list per entry, to the same result (:func:`_matrix_from_text`).
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import re
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import MatrixFormatError, NotPSD, ShapeMismatch

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "matrix_to_wire",
    "spectral_norm",
    "spectral_norms",
    "max_spectral_norm",
    "hermitian_deviation",
    "truncated_svd",
    "row_space_projector",
    "sqrt_psd",
    "HermitianSpectrum",
    "is_psd",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds of every floating-point decision, and the three rules that apply them.

    Each setting is a number strictly between 0 and 1 (any
    :class:`numbers.Real` but a bool, kept as a Python float), and each rule
    is the setting times the norm of the matrix a decision judges, so a
    verdict does not change when its inputs are scaled: Douglas's criteria
    are homogeneous in ``(A, C)``.  A zero norm gives a zero threshold, so
    the test of a zero matrix is exact: only an exact zero passes a residual
    test against it, and only a nonnegative eigenvalue its floor.  Each rule
    takes a float or an array (elementwise), so a batched test runs the code
    of a single one.

    :meth:`residual_bound` -- ``residual_atol * norm``
        A residual or Hermitian deviation passes when it is at most this.
        ``norm`` is that of ``C`` for the range residual ``A D - C`` and the
        equation residuals, which add the roundoff of forming D,
        ``16 n eps ||A|| ||A^dagger|| ||C||``
        (:meth:`opeq.douglas.Factorization.equation_bound`), ``||M|| = ||D||``
        for the range equality (D's row-space coordinates ``M`` outside the
        range of ``DP``), ``||C|| ||A||`` for the Hermitian
        test of ``C A*``, and of the matrix itself for every other Hermitian
        test (:func:`is_psd`, :func:`sqrt_psd`, the Hermitian family's
        parameter Y and its X, the compressed ``DP``, the Penrose
        identities), ``||A||`` for the polar identity, the node value
        for the off-diagonal part in ``algebra_membership``, and ``||P(t)|| =
        1`` for the ``perturb`` residual.  The property suite of
        :mod:`opeq.oracle` judges each route at the norm of what it
        reproduces: ``||X||`` for the partial-isometry route and the
        parameter round trip, ``||A* A||`` for the square-root round trip,
        ``||D||`` for the normal-equation route and for ``D - P D``, each
        projector's norm for the kernel match ``N(D) = N(C)``, ``||C||`` for
        the leak of C outside the range of the factorization's ``U_r`` in its
        own route to the least majorization scale, with the roundoff term of
        the equation residuals added, ``||D||^2`` for that scale's gap to
        ``Factorization.majorization_scale``, ``||C C*||`` for the leak of
        ``C C*`` outside the range of ``C A*``, and ``||X||`` for the excess
        of ``t_min`` over it.  The tests of :mod:`opeq.douglas`,
        :mod:`opeq.oracle`, :mod:`opeq.projpair` and :class:`HermitianSpectrum`
        ask :func:`_within_residual_bound`, and :func:`sqrt_psd` screens its
        stack the same way: Frobenius bounds settle the test, and zgesdd
        norms are taken only when they cannot, so each verdict is the one
        exact norms give.  A test returns only its verdict; a norm is taken
        exactly where it is printed, and for ``||X||`` against ``t_min``, a
        number not a matrix.
    :meth:`eigenvalue_floor` -- ``-psd_atol * top``
        The least eigenvalue of ``(M + M*)/2`` passes when it is at least
        this, ``top`` being the largest ``|w|``; :func:`sqrt_psd` clamps the
        eigenvalues between it and 0 to 0.
    :meth:`rank_cut` -- ``rank_rtol * top``
        A singular value, or a clamped eigenvalue of a PSD matrix, counts
        toward the rank when it is above this, ``top`` being the largest, or
        for the compression ``K`` of ``DP``, and for ``M`` where their ranks
        are compared, the Frobenius lower bound of ``||M||`` when that is
        larger, since K carries M's roundoff; the
        eigenvalues of ``A* A`` that :func:`opeq.oracle.lsq_solve` inverts are
        those.

    Two PSD tests take their scale from other matrices, since what they
    judge cancels to roundoff: ``C A*`` is judged at ``||C|| ||A||``, the size
    of the roundoff in forming it, as it cancels where ``P X P`` is small for
    a solution X, with ``||A||`` multiplying the rule of C's own norm
    (:class:`HermitianSpectrum`'s ``factor``), so no scaled copy of C is
    formed and a threshold overflows only where it is itself above the
    largest float; and ``block_psd_test`` judges the Schur complement
    ``A22 - A12* A11^dagger A12`` at the norm of ``A22``, as the complement
    cancels when the block matrix is singular.  The ``T_n`` scan of
    :mod:`opeq.oracle` reads the fields as rules of its own: it converges
    when a doubling moves the norm by less than ``residual_atol * (1 +
    estimate)``, diverges on growth by ``1 + psd_atol`` per doubling, and
    matches lambda within that same bound.  The ``1 +`` is an absolute floor
    the shared rule lacks, and the scan needs it where lambda is 0: there the
    ``T_n`` norms are roundoff that doubles with n (about 3e-20 on ``A = U
    diag(1, 0.7, 0) V*``, ``C = A V diag(1.3, 0, 0.9) V*``), which a bound
    relative to the estimate alone calls unsettled on every such pair.
    """

    rank_rtol: float = 1e-10
    psd_atol: float = 1e-10
    residual_atol: float = 1e-8

    def __post_init__(self):
        for setting in fields(self):
            value = getattr(self, setting.name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0.0 < value < 1.0):
                raise ValueError(
                    f"{setting.name} must be a number strictly between 0 and 1, got {value!r}"
                )
            # kept as the Python float it equals, so each rule computes in float64
            object.__setattr__(self, setting.name, float(value))

    def residual_bound(self, norm):
        """``residual_atol * norm``: the largest residual that passes."""
        return self.residual_atol * norm

    def eigenvalue_floor(self, top):
        """``-psd_atol * top``: the least eigenvalue that passes."""
        return -self.psd_atol * top

    def rank_cut(self, top):
        """``rank_rtol * top``: the values above it count toward the rank."""
        return self.rank_rtol * top


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a 2-D complex128 array.

    Raises :class:`MatrixFormatError` for wrong dimensionality or non-finite
    entries.
    """
    return _as_complex_array(m, (2,), "a 2-D matrix")


def _as_complex_array(m, ndims, what) -> np.ndarray:
    """``m`` as a finite complex128 array with one of the axis counts ``ndims``."""
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"not a complex matrix: {exc}") from exc
    if a.ndim not in ndims:
        raise MatrixFormatError(f"expected {what}, got {a.ndim} axes")
    # a complex entry is finite exactly when both of its parts are
    if not np.isfinite(a).all():
        raise MatrixFormatError("matrix entries must be finite (no NaN/Inf)")
    return a


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared matrix wire format into an array.

    ``data`` is converted by one ``np.array`` call; only when numpy cannot
    type it as a ``(rows*cols, 2)`` array of finite booleans, integers or
    floats does :func:`_parse_entries` walk it entry by entry, to convert
    integers beyond 64 bits or to name the first bad entry.
    """
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix JSON must be an object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise MatrixFormatError(f"matrix JSON missing key {exc}") from exc
    # booleans are ints to isinstance, and valid only as entries
    if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in (rows, cols)):
        raise MatrixFormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(f"data must hold exactly rows*cols = {rows * cols} entries")
    try:
        pairs = np.array(data)
    except (ValueError, TypeError, OverflowError):  # ragged, or not numbers
        pairs = None
    if (
        pairs is None
        or pairs.shape != (rows * cols, 2)
        or pairs.dtype.kind not in "biuf"
        or not np.all(np.isfinite(pairs))
    ):
        return _parse_entries(data).reshape(rows, cols)
    # a contiguous (k, 2) float64 array is (re, im) pairs in complex128's layout;
    # the view keeps every bit, signed zeros included
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(rows, cols)


# The canonical layout, as matrix_to_json and json.dumps write it: these keys in
# this order and JSON whitespace between any two tokens.  A size of more than
# 18 digits goes the general way, which keeps int() within its digit limit.
_WS = "[ \t\n\r]*"
_SIZE = "([1-9][0-9]{0,17})"
_CANONICAL_HEAD = re.compile(
    _WS.join(["", r"\{", '"rows"', ":", _SIZE, ",", '"cols"', ":", _SIZE, ",", '"data"', ":", r"\["])
)
# what a canonical text keeps once its numbers and whitespace are dropped
_SKELETON_HEAD = '{"rows":,"cols":,"data":['
_DROP_NUMBERS = str.maketrans("", "", "0123456789+-.eE \t\n\r")
# the braces become brackets and the rest of the skeleton but its commas becomes
# spaces, which turns a canonical text into the JSON list [rows, cols, re, im, ...]
_FLATTEN = str.maketrans('{}[]":rowscldat', "[]" + " " * 13)


def _matrix_from_text(text: str) -> np.ndarray:
    """``matrix_from_json(json.loads(text))``: the same array bits, or the same exception.

    Text in the canonical layout is read as one flat list of numbers, so no
    Python list is built per entry.  Anything else -- other key orders, extra
    keys, a BOM, trailing text, or any check below failing -- goes through
    ``json.loads`` and :func:`matrix_from_json`, the one source of errors.
    """
    matrix = _canonical_matrix(text)
    return matrix_from_json(json.loads(text)) if matrix is None else matrix


def _canonical_matrix(text: str) -> np.ndarray | None:
    """The matrix of a canonical ``text``, or None when the flat reading does not apply.

    What is left once the numbers and whitespace are dropped must be the
    header and ``rows*cols`` ``[,]`` pairs exactly.  The brackets then become
    spaces, so a slot that does not hold exactly one number fails to parse.
    ``json`` still parses every token, so ``-0``, big integers and ``1e400``
    keep their meaning, and the array must pass the dtype and finiteness
    checks of :func:`matrix_from_json`.  Only the text and one working copy of
    it are held at a time.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    skeleton = text.translate(_DROP_NUMBERS)
    k = rows * cols
    # the length first, so that no string sized by the header alone is built
    if len(skeleton) != len(_SKELETON_HEAD) + 4 * k + 1 or skeleton != (
        _SKELETON_HEAD + "[,]," * (k - 1) + "[,]]}"
    ):
        return None
    del skeleton
    try:
        values = json.loads(text.translate(_FLATTEN))
    except ValueError:
        return None
    del values[:2]  # rows and cols
    try:
        pairs = np.array(values)
    except OverflowError:  # numpy may refuse an integer past 64 bits
        return None
    del values
    if pairs.dtype.kind not in "biuf" or not np.all(np.isfinite(pairs)):
        return None
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def _parse_entries(data) -> np.ndarray:
    """``data`` converted one entry at a time; the first bad entry raises."""
    values = np.empty(len(data), dtype=np.complex128)
    for k, entry in enumerate(data):
        ok = (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(isinstance(part, (int, float)) for part in entry)
        )
        try:
            value = complex(float(entry[0]), float(entry[1])) if ok else None
        except OverflowError:  # an integer too large for a float
            value = None
        if value is None or not cmath.isfinite(value):
            raise MatrixFormatError(f"data[{k}] must be a finite [re, im] pair")
        values[k] = value
    return values


def matrix_to_wire(m) -> dict:
    """The wire format of a matrix with ``data`` left as a ``(rows*cols, 2)`` float64 array.

    :func:`matrix_to_json` is this with ``data`` as nested lists; a writer
    that formats the array itself skips building those lists.
    """
    a = as_matrix(m)
    v = a.ravel()
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": np.stack([v.real, v.imag], axis=1),
    }


def matrix_to_json(m) -> dict:
    """Serialize a matrix to the shared wire format."""
    wire = matrix_to_wire(m)
    wire["data"] = wire["data"].tolist()
    return wire


def _norm2(a) -> float:
    """Largest singular value of a 2-D array from one zgesdd call; 0.0 when it is empty.

    This is the SVD call of numpy's matrix 2-norm, without its axis handling,
    so the bits are the same.
    """
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def spectral_norm(m) -> float:
    """Operator norm (largest singular value): one zgesdd call.

    It has the bits of the same matrix's entry of :func:`spectral_norms`.
    """
    return _norm2(as_matrix(m))


def hermitian_deviation(m) -> float:
    """Operator norm of M - M*: one zgesdd call."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("Hermitian deviation needs a square matrix")
    return _norm2(a - a.conj().T)


def _rank_of(s, tol: ToleranceConfig) -> int:
    """Count of singular values ``s`` (descending) above the rank cut of ``s[0]``."""
    return int(np.count_nonzero(s > tol.rank_cut(s[0]))) if s.size else 0


def truncated_svd(m, tol: ToleranceConfig = DEFAULT_TOLERANCES):
    """Thin SVD ``(U, s, Vh)`` of M cut to its rank.

    Singular values below ``rank_rtol * sigma_max`` are dropped with their
    vectors, so the zero matrix has rank 0 and empty factors.
    :func:`row_space_projector` reads it, and
    :func:`opeq.douglas.factorize` keeps A's, from which D, the oracle's
    pseudoinverse and polar factor of A and its route to the least
    majorization scale are read, so A is decomposed once per input.
    """
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = _rank_of(s, tol)
    return u[:, :r], s[:r], vh[:r, :]


def _pinv_from_svd(u, s, vh) -> np.ndarray:
    """Moore-Penrose pseudoinverse from the factors of a :func:`truncated_svd`.

    The singular values it cut are read as exactly zero, so the zero matrix
    maps to the zero matrix of transposed shape.
    """
    return (vh.conj().T / s) @ u.conj().T


def row_space_projector(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projector onto the row space (range of M*) of M."""
    b = truncated_svd(m, tol)[2].conj().T
    return b @ b.conj().T


def spectral_norms(stack) -> np.ndarray:
    """Operator norm of each matrix of a ``(k, r, c)`` stack: one batched SVD.

    The batched call runs zgesdd once per matrix, so each norm has the bits
    :func:`spectral_norm` gives for that matrix alone.
    """
    return np.max(np.linalg.svd(stack, compute_uv=False), axis=-1, initial=0.0)


# relative widening of both Frobenius bounds; far above the rounding of a sum
# of squares and of zgesdd, so a matrix within rounding of a decision always
# gets its exact norm
_BOUND_SLACK = 1e-6
# above this Frobenius norm, the squares that underflow to subnormals or zero
# are far below the rounding of the sum
_FROBENIUS_FLOOR = 1e-150


def _trusted(fro):
    """Whether a computed Frobenius norm (a float or an array) may bound a 2-norm."""
    return (fro >= _FROBENIUS_FLOOR) & (fro < math.inf)


def _lower_factor(rows, cols) -> float:
    """``(1 - slack) / sqrt(min(r, c))``: the lower bound over the Frobenius norm."""
    return (1.0 - _BOUND_SLACK) / math.sqrt(max(1, min(rows, cols)))


def _norm_bounds(stack):
    """Bounds ``(lo, hi)`` on the zgesdd 2-norm of each matrix of a ``(k, r, c)`` stack.

    ``||M||_F / sqrt(min(r, c)) <= ||M||_2 <= ||M||_F``, each widened by
    ``_BOUND_SLACK``.  The Frobenius norm is a plain sum of squares, which
    overflows above about 1e154 and drops squares below the least subnormal,
    so a matrix whose Frobenius norm is not :func:`_trusted` gets
    ``(0, inf)``; an exactly zero one gets ``(0, 0)``.  A 2x2 matrix has its
    2-norm in closed form, ``s1^2 = (F^2 + sqrt(F^2 - 2|det|) sqrt(F^2 + 2|det|)) / 2``,
    and both of its bounds come from that, widened by the same slack, wherever
    it is finite; written as a product of two roots, no step exceeds ``2 F^2``,
    so it overflows only where ``F^2`` is within a factor 2 of overflow itself.
    """
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    _, rows, cols = stack.shape
    parts = stack.view(np.float64)
    squares = np.einsum("kij,kij->k", parts, parts)
    fro = np.sqrt(squares)
    sure = _trusted(fro)
    lo = np.where(sure, fro * _lower_factor(rows, cols), 0.0)
    hi = np.where(sure, fro * (1.0 + _BOUND_SLACK), np.inf)
    if rows == cols == 2:
        # untrusted matrices may overflow here; tight leaves them out
        with np.errstate(over="ignore", invalid="ignore"):
            det2 = 2.0 * np.abs(stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0])
            # rounding can leave F^2 - 2|det| (that is (s1 - s2)^2) an ulp below zero
            spread = np.sqrt(np.maximum(squares - det2, 0.0)) * np.sqrt(squares + det2)
            top = np.sqrt(0.5 * (squares + spread))
        tight = sure & (top < np.inf)
        lo = np.where(tight, top * (1.0 - _BOUND_SLACK), lo)
        hi = np.where(tight, top * (1.0 + _BOUND_SLACK), hi)
    if not sure.all():
        hi[~parts.any(axis=(1, 2))] = 0.0
    return lo, hi


def _single_norm_bounds(x):
    """Bounds ``(lo, hi)`` on the zgesdd 2-norm of one 2-D array, or ``(x, x)`` for a float.

    The rule of :func:`_norm_bounds` without the 2x2 closed form, from one
    ``vdot``: a stack of one costs most of an SVD of a small matrix.
    """
    if isinstance(x, float):
        return x, x
    fro = math.sqrt(np.vdot(x, x).real)
    if _trusted(fro):
        return fro * _lower_factor(*x.shape), fro * (1.0 + _BOUND_SLACK)
    return 0.0, (math.inf if x.any() else 0.0)


def _within_residual_bound(m, r, tol: ToleranceConfig, rule=None) -> bool:
    """``||M|| <= rule(||R||)``, decided as zgesdd's norms decide it.

    ``rule`` is ``tol.residual_bound`` unless given; any rule nondecreasing in
    the norm is screened the same way.  ``m`` and ``r`` are each a 2-D array
    or an exact norm (a float; ``0.0`` makes the test exact).  The test passes
    when the upper bound of ``||M||`` is within the rule of the lower bound of
    ``||R||``, and fails when the lower bound of ``||M||`` is above the rule of
    the upper bound of ``||R||`` (:func:`_single_norm_bounds`).  Only an
    undecided test takes the norms from zgesdd, so the verdict always has the
    bits of ``spectral_norm(m) <= rule(spectral_norm(r))``.  It returns the
    verdict alone: a caller that prints a norm takes it with
    :func:`spectral_norm` where it prints it.
    """
    rule = tol.residual_bound if rule is None else rule
    m_lo, m_hi = _single_norm_bounds(m)
    r_lo, r_hi = _single_norm_bounds(r)
    if m_hi <= rule(r_lo):
        return True
    if m_lo > rule(r_hi):
        return False
    return _exact_norm(m) <= rule(_exact_norm(r))


def _exact_norm(x) -> float:
    """The zgesdd 2-norm of a 2-D array; a float is already one."""
    return x if isinstance(x, float) else _norm2(x)


def max_spectral_norm(stack, floor: float = 0.0) -> float:
    """``max(floor, ||M||)`` over the matrices M of a ``(k, r, c)`` stack.

    Only the matrices whose Frobenius bound can still reach the max -- above
    ``floor`` and above every other matrix's lower bound -- go to one
    :func:`spectral_norms` call, and no call is made when none is left.  Each
    norm has the bits of the full batch's, so the result is
    ``max(floor, np.max(spectral_norms(stack)))`` bit for bit.  A grid walked
    block by block with the running max as ``floor`` reaches zgesdd only
    where that max can still grow.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    lo, hi = _norm_bounds(stack)
    reach = np.flatnonzero(hi > max(floor, np.max(lo, initial=0.0)))
    if not reach.size:
        return floor
    return max(floor, float(np.max(spectral_norms(stack[reach]))))


def sqrt_psd(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Hermitian PSD square root of one matrix or a stack.

    ``m`` is a square matrix or a stack ``(k, n, n)`` of them; the result has
    the same shape.  Each matrix is tested on its own: a Hermitian deviation
    ``||M - M*||`` above ``residual_bound(||M||)`` raises :class:`NotPSD`,
    eigenvalues of ``(M + M*)/2`` in ``[eigenvalue_floor(max|lambda|), 0)``
    are clamped to zero (roundoff from upstream products), and anything more
    negative raises :class:`NotPSD`.  For a stack the certificate carries the
    ``index`` of the first failing matrix.  A single matrix is the stack of
    one, so both shapes run the same batched calls.  A matrix passes the
    Hermitian test without an SVD when ``||M - M*||_F`` is within the bound
    of ``||M||_F / sqrt(n)`` (see :func:`_norm_bounds`); the others take both
    2-norms from one SVD call each, none when there are no others, so a
    certificate carries the exact deviation.  2x2 matrices take their
    eigenvalues and roots in closed form, elementwise over the stack
    (:func:`_sqrt_2x2`); other sizes take them from one ``eigh``.
    """
    a = _as_complex_array(m, (2, 3), "a matrix or a stack of matrices")
    stacked = a.ndim == 3
    if not stacked:
        a = a[np.newaxis]
    if a.shape[1] != a.shape[2]:
        raise ShapeMismatch("Hermitian deviation needs a square matrix")

    def failure(i, message, certificate):
        if stacked:
            return NotPSD(f"matrix {i} of the stack {message}", certificate={**certificate, "index": i})
        return NotPSD(f"matrix {message}", certificate=certificate)

    a_star = a.conj().swapaxes(1, 2)
    skew = a - a_star
    unsure = []  # an exactly Hermitian stack, such as P + Q' of perturb, passes unscreened
    if skew.any():
        unsure = np.flatnonzero(_norm_bounds(skew)[1] > tol.residual_bound(_norm_bounds(a)[0]))
    if len(unsure):
        dev = spectral_norms(skew[unsure])
        bad = np.flatnonzero(dev > tol.residual_bound(spectral_norms(a[unsure])))
        if bad.size:
            j = int(bad[0])
            raise failure(
                int(unsure[j]),
                f"is not Hermitian (deviation {dev[j]:.3e})",
                {"hermitian_deviation": float(dev[j])},
            )
    roots_of = _sqrt_2x2 if a.shape[1] == 2 else _sqrt_eigh
    lowest, top, roots = roots_of(0.5 * (a + a_star))
    floor = tol.eigenvalue_floor(top)
    bad = np.flatnonzero(lowest < floor)
    if bad.size:
        i = int(bad[0])
        raise failure(
            i,
            f"has eigenvalue {lowest[i]:.6e} below -psd_atol*norm = {floor[i]:.6e}",
            {"min_eigenvalue": float(lowest[i]), "floor": float(floor[i])},
        )
    return roots if stacked else roots[0]


def _sqrt_eigh(h):
    """``(lowest, top, roots)`` of a ``(k, n, n)`` Hermitian stack from one ``eigh``.

    ``lowest`` is each matrix's least eigenvalue and ``top`` its largest
    ``|w|``, both 0 for an empty matrix; ``roots`` are the square roots with
    the negative eigenvalues clamped to 0.
    """
    w, v = np.linalg.eigh(h)
    lowest = np.min(w, axis=-1, initial=0.0)
    top = np.max(np.abs(w), axis=-1, initial=0.0)
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2)
    return lowest, top, roots


def _sqrt_2x2(h):
    """:func:`_sqrt_eigh` of a ``(k, 2, 2)`` Hermitian stack, in closed form.

    With ``m`` the mean of the diagonal and ``r = hypot((h11 - h22)/2, |h12|)``,
    the eigenvalues are ``low = m - r`` and ``high = m + r``; ``low`` is what
    the eigenvalue floor reads.  The root is ``(H + r1 r2 I) / (r1 + r2)``
    (Higham, *Functions of Matrices*, SIAM 2008, section 6.1), with ``r1 =
    sqrt(high)`` and ``r2 = sqrt(small)``, where the small eigenvalue ``small
    = det / high`` comes from the determinant, so that it is not lost to
    cancellation.  A negative ``small`` is clamped to 0: the root is then
    ``r1`` times the projector ``(H - small I) / (high - small)``, as for
    eigenvalues clamped by :func:`_sqrt_eigh`, and a zero matrix has the zero
    root.  Each matrix is first scaled by ``4^-k``, an exact power of two
    near its largest entry, and its root by ``2^k`` back, so no product
    overflows or underflows.
    """
    parts = np.ascontiguousarray(h).view(np.float64)
    # frexp's exponent e puts the largest entry in [2^(e-1), 2^e); k is e // 2
    k = np.frexp(np.max(np.abs(parts), axis=(1, 2), initial=0.0))[1] // 2
    scaled = np.ldexp(parts, -2 * k[:, np.newaxis, np.newaxis]).view(np.complex128)
    h11, h22, h12 = scaled[:, 0, 0].real, scaled[:, 1, 1].real, scaled[:, 0, 1]
    mean = 0.5 * (h11 + h22)
    radius = np.hypot(0.5 * (h11 - h22), np.abs(h12))
    high, low = mean + radius, mean - radius
    det = h11 * h22 - (h12.real * h12.real + h12.imag * h12.imag)
    positive = high > 0.0
    r1 = np.sqrt(high, where=positive, out=np.zeros_like(high))
    small = np.divide(det, high, where=positive, out=np.zeros_like(high))
    r2 = np.sqrt(np.maximum(small, 0.0))
    clamped = small < 0.0
    shift = np.where(clamped, -small, r1 * r2)
    total = np.divide(high - small, r1, where=clamped, out=r1 + r2)[:, np.newaxis, np.newaxis]
    scaled[:, 0, 0] += shift
    scaled[:, 1, 1] += shift
    roots = np.divide(scaled, total, where=total > 0.0, out=np.zeros_like(scaled))
    roots = np.ldexp(roots.view(np.float64), k[:, np.newaxis, np.newaxis]).view(np.complex128)
    top = np.maximum(np.abs(high), np.abs(low))
    return np.ldexp(low, 2 * k), np.ldexp(top, 2 * k), roots


class HermitianSpectrum:
    """The Hermitian and PSD tests of one square M at one ``tol``, and what they read.

    ``||M - M*||`` and the spectrum of ``(M + M*)/2`` are computed on first use
    and kept, and so are both verdicts and :attr:`range_pairs`.  The PSD test
    reads :attr:`eigenvalues` only: one ``eigvalsh``, or the values of
    :attr:`eigh` when a reader has already taken the pairs.  Pairs are taken
    only by readers of eigenvectors, such as :attr:`range_pairs`, so a reader
    of both takes the pairs before the PSD test and decomposes M once.
    :func:`is_psd` is :attr:`is_psd` on a fresh instance.
    Both tests judge M at its own norm, ``||M||`` for the Hermitian test and
    ``max|w|`` for the eigenvalue floor, unless ``scale`` gives another: a
    2-D array whose norm it is, or that norm as a float, times ``factor``.
    The factor multiplies each threshold, not the scale, so no scaled copy of
    a matrix is formed and a threshold overflows only where it is itself
    above the largest float.  Each test asks
    :func:`_within_residual_bound`, so exact norms are taken only when
    Frobenius bounds cannot settle it, and :attr:`deviation`, which a
    certificate prints, is taken on its own.
    """

    def __init__(self, m, tol: ToleranceConfig, scale=None, factor: float = 1.0):
        self.m = as_matrix(m)
        if self.m.shape[0] != self.m.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {self.m.shape}")
        self.tol = tol
        self.scale = scale
        self.factor = factor
        self._values = None  # the values of eigh once taken, else of one eigvalsh

    @cached_property
    def deviation(self) -> float:
        return hermitian_deviation(self.m)

    @cached_property
    def is_hermitian(self) -> bool:
        """``||M - M*||`` within the residual bound of the scale."""
        scale = self.m if self.scale is None else self.scale
        bound = self.tol.residual_bound
        return _within_residual_bound(
            self.m - self.m.conj().T, scale, self.tol, lambda norm: self.factor * bound(norm)
        )

    @cached_property
    def eigh(self):
        """Eigenpairs ``(w, V)`` of ``(M + M*)/2``, for readers of eigenvectors."""
        self._values, v = np.linalg.eigh(0.5 * (self.m + self.m.conj().T))
        return self._values, v

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``(M + M*)/2``: :attr:`eigh`'s once taken, else one ``eigvalsh``."""
        if self._values is None:
            self._values = np.linalg.eigvalsh(0.5 * (self.m + self.m.conj().T))
        return self._values

    @cached_property
    def is_psd(self) -> bool:
        """See :func:`is_psd`: the Hermitian test, then ``w[0]`` against the floor of the scale."""
        if not self.m.any():
            return True
        if not self.is_hermitian:
            return False
        w = self.eigenvalues
        scale = float(np.max(np.abs(w))) if self.scale is None else self.scale
        floor = self.tol.eigenvalue_floor
        return _within_residual_bound(
            float(-w[0]), scale, self.tol, lambda top: -self.factor * floor(top)
        )

    @cached_property
    def range_pairs(self):
        """Eigenpairs ``(w, V)`` that span the range of a PSD ``M``.

        The eigenvalues are clamped at 0 and kept above the rank cut of the
        largest; ``V`` holds their eigenvectors as columns, so ``V diag(1/w) V*``
        is ``M^dagger`` and ``V V*`` the projector onto the range.
        """
        w, v = self.eigh
        w = np.clip(w, 0.0, None)
        keep = w > self.tol.rank_cut(np.max(w, initial=0.0))
        return w[keep], v[:, keep]


def is_psd(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Positive-semidefinite test.

    True iff ``||M - M*||`` is within the residual bound of ``||M||`` and the
    least eigenvalue of the symmetrization is at least its eigenvalue floor
    (:class:`ToleranceConfig`).  It reads eigenvalues only, from one
    ``eigvalsh``.  An all-zero M passes without one; any other M is judged at
    its own scale, however small, so a subnormal negative eigenvalue on an
    otherwise zero M fails.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return HermitianSpectrum(a, tol).is_psd
