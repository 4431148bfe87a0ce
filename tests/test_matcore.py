import json
import math

import numpy as np
import pytest

from conftest import complex_gaussian, count_lapack, rank_deficient, random_psd
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq.errors import MatrixFormatError, NotPSD, ShapeMismatch


def factor_pinv(m, tol=mc.DEFAULT_TOLERANCES):
    """``A^+ = B S^-1 U_r*`` from the truncated SVD a factorization of A keeps: D's pseudoinverse."""
    u, s, b = dg.factorize(m, m, tol).svd
    return mc._pinv_from_svd(u, s, b.conj().T)


def factor_polar(m, tol=mc.DEFAULT_TOLERANCES):
    """The partial isometry ``U = U_r B*`` of ``A = U |A|``, from the same factors."""
    u, _, b = dg.factorize(m, m, tol).svd
    return u @ b.conj().T


def eigen_oracle_pinv(m):
    """Independent pseudoinverse via an eigendecomposition of M* M."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(m.conj().T @ m)
    keep = w > 1e-12 * max(w.max(), 0.0)
    sigma = np.sqrt(w[keep])
    v = v[:, keep]
    u = m @ v / sigma
    return (v / sigma) @ u.conj().T


# ---------------------------------------------------------------------------
# tolerance config and wire format


def test_tolerance_defaults():
    tol = mc.ToleranceConfig()
    assert tol.rank_rtol == 1e-10
    assert 0 < tol.psd_atol < 1 and 0 < tol.residual_atol < 1


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
def test_tolerance_validation(bad):
    with pytest.raises(ValueError):
        mc.ToleranceConfig(rank_rtol=bad)
    with pytest.raises(ValueError):
        mc.ToleranceConfig(psd_atol=bad)
    with pytest.raises(ValueError):
        mc.ToleranceConfig(residual_atol=bad)


@pytest.mark.parametrize("value", [np.float32(1e-10), np.float64(1e-10)])
def test_tolerance_reads_a_numpy_float_as_a_python_float(value):
    tol = mc.ToleranceConfig(rank_rtol=value, psd_atol=value, residual_atol=value)
    for setting in (tol.rank_rtol, tol.psd_atol, tol.residual_atol):
        assert type(setting) is float and setting == float(value)
    # so each rule computes in float64, as it does for a Python float
    assert type(tol.residual_bound(3.0)) is float and tol.residual_bound(3.0) == float(value) * 3.0


@pytest.mark.parametrize("bad", [np.int64(0), True, float("nan"), np.float32("nan"), "1e-10"])
def test_tolerance_rejects_a_non_number_bool_or_nan(bad):
    for name in ("rank_rtol", "psd_atol", "residual_atol"):
        with pytest.raises(ValueError, match=f"{name} must be a number strictly between 0 and 1"):
            mc.ToleranceConfig(**{name: bad})


# each rule, of a float and of an array: the value exactly at the threshold
# passes, and the next float on the failing side fails
RULE_TOL = mc.ToleranceConfig(rank_rtol=1e-6, psd_atol=3e-10, residual_atol=7e-9)
TOPS = np.array([0.0, 0.5, 1.0, 3.0, 7.25e5])


def test_residual_bound_of_a_float_and_an_array():
    expected = 7e-9 * TOPS
    bounds = RULE_TOL.residual_bound(TOPS)
    np.testing.assert_array_equal(bounds, expected)
    assert np.all(expected <= bounds)
    assert not np.any(np.nextafter(expected, np.inf) <= bounds)
    for norm, bound in zip(TOPS.tolist(), expected.tolist()):
        value = RULE_TOL.residual_bound(norm)
        assert type(value) is float
        assert bound <= value and not np.nextafter(bound, np.inf) <= value


def test_residual_bound_needs_a_norm_and_is_exact_at_zero():
    # every bound is relative to a norm the caller gives, and a zero norm tests exactly
    with pytest.raises(TypeError):
        RULE_TOL.residual_bound()
    with pytest.raises(TypeError):
        RULE_TOL.eigenvalue_floor()
    assert RULE_TOL.residual_bound(0.25) == 7e-9 * 0.25
    assert RULE_TOL.residual_bound(0.0) == 0.0 and RULE_TOL.eigenvalue_floor(0.0) == 0.0


@pytest.mark.parametrize("norm", [0.0, 0.5, 3.0, 7.25e5])
def test_range_inclusion_passes_at_its_residual_bound(norm):
    # the range test of a factorization is this decision on ||A D - C|| and ||C||;
    # zgesdd gives a 1x1 matrix's norm exactly, so the matrix forms meet the same edge
    def range_ok(residual):
        as_floats = mc._within_residual_bound(residual, norm, RULE_TOL)
        as_matrices = mc._within_residual_bound(np.array([[residual]]), np.array([[norm]]), RULE_TOL)
        assert as_floats is as_matrices
        return as_floats

    bound = 7e-9 * norm
    assert mc.spectral_norm(np.array([[bound]])) == bound
    assert range_ok(bound)
    assert not range_ok(np.nextafter(bound, np.inf))


def test_eigenvalue_floor_of_a_float_and_an_array():
    expected = -3e-10 * TOPS
    floors = RULE_TOL.eigenvalue_floor(TOPS)
    np.testing.assert_array_equal(floors, expected)
    assert np.all(expected >= floors)
    assert not np.any(np.nextafter(expected, -np.inf) >= floors)
    for top, floor in zip(TOPS.tolist(), expected.tolist()):
        value = RULE_TOL.eigenvalue_floor(top)
        assert type(value) is float
        assert floor >= value and not np.nextafter(floor, -np.inf) >= value


@pytest.mark.parametrize("top", [0.5, 3.0, 7.25e5])
def test_is_psd_passes_at_its_eigenvalue_floor(top):
    # eigh returns a real diagonal's entries exactly
    floor = -3e-10 * top
    assert mc.is_psd(np.diag([floor, top]), RULE_TOL)
    assert not mc.is_psd(np.diag([np.nextafter(floor, -np.inf), top]), RULE_TOL)


def test_is_psd_of_a_matrix_that_is_not_square_is_false(monkeypatch):
    log = count_lapack(monkeypatch)
    assert mc.is_psd(np.ones((2, 3))) is False and log == []


def test_is_psd_of_a_zero_matrix_takes_no_eigendecomposition(monkeypatch):
    log = count_lapack(monkeypatch)
    zeros = [np.zeros((n, n)) for n in (1, 3, 8)] + [np.full((2, 2), -0.0 - 0.0j), np.zeros((0, 0))]
    assert all(mc.is_psd(z, RULE_TOL) for z in zeros)
    assert log == []
    # one nonzero entry is enough to need the eigenvalues, and the matrix is
    # judged at its own scale: a subnormal below zero is negative
    tiny = np.zeros((3, 3))
    tiny[2, 2] = -5e-324
    assert not mc.is_psd(tiny, RULE_TOL) and [name for name, _, _ in log] == ["eigvalsh"]
    tiny[2, 2] = 5e-324
    assert mc.is_psd(tiny, RULE_TOL) and [name for name, _, _ in log] == ["eigvalsh", "eigvalsh"]


def near_floor_hermitian(rng, n, multiple, tol):
    """Exactly Hermitian ``U diag(w) U*``: least ``multiple * eigenvalue_floor(1)``, top 1 if n > 1."""
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    least = multiple * tol.eigenvalue_floor(1.0)
    w = np.concatenate([[least], rng.uniform(0.1, 1.0, max(n - 2, 0)), [1.0]])[:n]
    m = (u * w) @ u.conj().T
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 40])
def test_values_only_psd_test_matches_mpmath(n):
    # the verdict of the rounded matrix's exact eigenvalues, to 50 digits, is
    # the values-only test's wherever the least eigenvalue is more than n eps
    # top from the floor; with n = 1 the least eigenvalue is the top, so its sign decides
    mpmath = pytest.importorskip("mpmath")
    tol = mc.DEFAULT_TOLERANCES
    rng = np.random.default_rng(300 + n)
    for multiple in (0.5, 2.0, -0.5, -2.0):
        m = near_floor_hermitian(rng, n, multiple, tol)
        with mpmath.workdps(50):
            w = mpmath.eighe(mpmath.matrix(m.tolist()), eigvals_only=True)
            top = max(abs(x) for x in w)
            floor = -mpmath.mpf(tol.psd_atol) * top
            assert abs(w[0] - floor) > n * np.finfo(np.float64).eps * top
            exact = bool(w[0] >= floor)
        assert mc.HermitianSpectrum(m, tol).is_psd is mc.is_psd(m, tol) is exact
        assert exact is (multiple < 0.0 if n == 1 else multiple != 2.0)


@pytest.mark.parametrize("first", ["eigh", "range_pairs"])
def test_eigenvalues_are_those_of_eigh_once_the_pairs_are_taken(first, monkeypatch):
    # the PSD test then reads them too, with no eigvalsh of its own; M is
    # Hermitian to roundoff, so its symmetrization is not M itself
    rng = np.random.default_rng(31)
    log = count_lapack(monkeypatch)
    for n in (2, 3, 8, 40):
        m = near_floor_hermitian(rng, n, -2.0, mc.DEFAULT_TOLERANCES)
        m = m + 1e-13 * complex_gaussian(rng, n, n)
        expected = np.linalg.eigh(0.5 * (m + m.conj().T))[0]
        spectrum = mc.HermitianSpectrum(m, mc.DEFAULT_TOLERANCES)
        getattr(spectrum, first)
        log.clear()
        assert spectrum.eigenvalues.tobytes() == expected.tobytes()
        assert spectrum.is_psd and [name for name, _, _ in log if name != "svd"] == []


def test_rank_cut_of_a_float_and_an_array():
    expected = 1e-6 * TOPS
    np.testing.assert_array_equal(RULE_TOL.rank_cut(TOPS), expected)
    for top, cut in zip(TOPS.tolist(), expected.tolist()):
        assert RULE_TOL.rank_cut(top) == cut


@pytest.mark.parametrize("top", [0.5, 3.0, 7.25e5])
def test_rank_and_range_pairs_cut_at_the_same_value(top):
    # a value exactly at the cut is dropped; the next float above counts
    cut = 1e-6 * top
    above = np.nextafter(cut, np.inf)
    assert mc._rank_of(np.array([top, cut]), RULE_TOL) == 1
    assert mc._rank_of(np.array([top, above]), RULE_TOL) == 2
    assert mc.truncated_svd(np.diag([top, cut]), RULE_TOL)[1].size == 1
    assert mc.truncated_svd(np.diag([top, above]), RULE_TOL)[1].size == 2
    assert mc.HermitianSpectrum(np.diag([cut, top]), RULE_TOL).range_pairs[0].tolist() == [top]
    kept = mc.HermitianSpectrum(np.diag([above, top]), RULE_TOL).range_pairs[0]
    assert kept.tolist() == [above, top]


def test_rules_on_an_empty_spectrum():
    empty = np.zeros((0, 0))
    assert mc._rank_of(np.zeros(0), RULE_TOL) == 0
    assert mc.is_psd(empty, RULE_TOL)
    w, v = mc.HermitianSpectrum(empty, RULE_TOL).range_pairs
    assert w.shape == (0,) and v.shape == (0, 0)
    assert mc.sqrt_psd(np.zeros((3, 0, 0)), RULE_TOL).shape == (3, 0, 0)
    # an all-zero PSD matrix has an empty range
    assert mc.HermitianSpectrum(np.zeros((2, 2)), RULE_TOL).range_pairs[0].shape == (0,)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    m = complex_gaussian(rng, 3, 4)
    obj = mc.matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 4 and len(obj["data"]) == 12
    back = mc.matrix_from_json(json.loads(json.dumps(obj)))
    np.testing.assert_allclose(back, m)


@pytest.mark.parametrize(
    "obj",
    [
        42,
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[1, 0]] * 3},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
        {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": ["x"]},
        {"rows": 1, "cols": 1, "data": [[10**400, 0]]},
        {"rows": True, "cols": True, "data": [[2, 0]]},
        {"rows": 2, "cols": True, "data": [[2, 0], [1, 0]]},
    ],
)
def test_matrix_json_rejects_garbage(obj):
    with pytest.raises(MatrixFormatError):
        mc.matrix_from_json(obj)


# the edge values of the float wire format: signed zero, the least subnormal,
# and the switch points of float.__repr__ between fixed and exponent notation
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.0, 1e16, 1e22, 123456789.0]


def float_reprs(m):
    """Each real and imaginary part of m as float.__repr__ writes it (tells -0.0 from 0.0)."""
    return [repr(v) for v in np.asarray(m).ravel().view(np.float64).tolist()]


@pytest.mark.parametrize(
    "bad", ["1", None, [1.0, 2.0, 3.0], [float("nan"), 0.0], [10**400, 0], [1.0], [[1.0], 2.0]]
)
def test_matrix_json_names_the_first_bad_entry(bad):
    data = [[1.0, 0.0], [2, -3], bad, "a later bad entry"]
    with pytest.raises(MatrixFormatError, match=r"^data\[2\] must be a finite \[re, im\] pair$"):
        mc.matrix_from_json({"rows": 2, "cols": 2, "data": data})


@pytest.mark.parametrize(
    "data",
    [
        [[True, False], (2, -3), [1.5, -0.0], [0, 2**63 - 1]],  # typed by numpy as float64
        [[True, False], [False, True]],  # bool
        [[2, -3], (0, -(2**63))],  # int64
        [[2**63 + 1025, 0], [2**64 - 1, 1]],  # past int64
        [[10**30, -0.0], [1, 2]],  # past 64 bits: read one entry at a time
        [[v, -v] for v in EDGE_VALUES],
    ],
)
def test_matrix_json_reads_entries_as_complex_of_floats(data):
    m = mc.matrix_from_json({"rows": 1, "cols": len(data), "data": data})
    expected = [complex(float(re), float(im)) for re, im in data]  # the per-entry reading
    assert m.shape == (1, len(data)) and m.dtype == np.complex128
    assert float_reprs(m) == float_reprs(np.array(expected))


def test_matrix_json_round_trip_is_exact():
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    m = np.empty((2, 7), dtype=np.complex128)
    m.real = values.reshape(2, 7)
    m.imag = values[::-1].reshape(2, 7)
    obj = mc.matrix_to_json(m)
    assert obj["data"] == [[float(z.real), float(z.imag)] for z in m.ravel()]
    back = mc.matrix_from_json(json.loads(json.dumps(obj)))
    assert float_reprs(back) == float_reprs(m)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(MatrixFormatError):
        mc.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(MatrixFormatError):
        mc.as_matrix(np.ones(3))


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 0)])
def test_as_matrix_rejects_either_nonfinite_part(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(MatrixFormatError):
        mc.as_matrix(m)


def test_as_matrix_keeps_signed_zero_and_subnormals():
    m = np.array([[-0.0, complex(5e-324, -0.0)], [complex(0.0, -5e-324), 1.0]])
    out = mc.as_matrix(m)
    assert out.view(np.float64).tobytes() == m.view(np.float64).tobytes()


# ---------------------------------------------------------------------------
# pseudoinverse


def test_pinv_projection_is_own_pinv():
    m = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(factor_pinv(m), m, atol=1e-14)


def test_pinv_matches_eigen_oracle():
    m = np.array([[2, 1], [0, 0]], dtype=complex)
    expected = eigen_oracle_pinv(m)
    np.testing.assert_allclose(expected, [[0.4, 0.0], [0.2, 0.0]], atol=1e-12)
    np.testing.assert_allclose(factor_pinv(m), expected, atol=1e-12)


def test_pinv_invertible_case():
    rng = np.random.default_rng(1)
    m = complex_gaussian(rng, 4, 4) + 4 * np.eye(4)
    np.testing.assert_allclose(factor_pinv(m) @ m, np.eye(4), atol=1e-8)


def test_pinv_zero_matrix():
    z = np.zeros((2, 3), dtype=complex)
    out = factor_pinv(z)
    assert out.shape == (3, 2)
    assert np.all(out == 0)


def test_penrose_identities_random():
    rng = np.random.default_rng(42)
    tol = mc.DEFAULT_TOLERANCES
    for _ in range(500):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m = rank_deficient(rng, rows, cols, r) if rng.random() < 0.5 else complex_gaussian(rng, rows, cols)
        mp = factor_pinv(m, tol)
        scale = max(1.0, mc.spectral_norm(m))
        assert mc.spectral_norm(m @ mp @ m - m) <= tol.residual_atol * scale
        assert mc.spectral_norm(mp @ m @ mp - mp) <= tol.residual_atol * scale
        assert mc.hermitian_deviation(m @ mp) <= tol.residual_atol
        assert mc.hermitian_deviation(mp @ m) <= tol.residual_atol


# ---------------------------------------------------------------------------
# PSD square root


def test_sqrt_psd_diagonal():
    np.testing.assert_allclose(mc.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_psd_matches_closed_form_at_half():
    # (P + Q)(1/2) for the canonical projection pair, against the explicit
    # entries alpha, beta, gamma evaluated at t = 1/2
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    m = np.array([[1 + c * c, s * c], [s * c, s * s]])
    np.testing.assert_allclose(m, [[1.5, 0.5], [0.5, 0.5]], atol=1e-15)
    rp, rm = math.sqrt(1 + c), math.sqrt(1 - c)
    expected = np.array(
        [
            [0.5 * (2 - s) * (rp + rm), 0.5 * s * (rp - rm)],
            [0.5 * s * (rp - rm), 0.5 * s * (rp + rm)],
        ]
    )
    np.testing.assert_allclose(mc.sqrt_psd(m), expected, atol=1e-10)


def test_sqrt_psd_zero():
    assert np.all(mc.sqrt_psd(np.zeros((3, 3))) == 0)


def test_sqrt_psd_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        s = mc.sqrt_psd(m)
        assert mc.spectral_norm(s @ s - m) <= 1e-9 * max(1.0, mc.spectral_norm(m))
        assert mc.is_psd(s)


def test_sqrt_psd_clamps_roundoff_negativity():
    m = np.diag([1.0, -1e-13])
    s = mc.sqrt_psd(m)
    np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-6)


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        mc.sqrt_psd(-np.eye(2))
    with pytest.raises(NotPSD):
        mc.sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (6, 6), "rank 1"])
def test_norms_have_the_bits_of_numpy_2_norm(shape):
    rng = np.random.default_rng(3)
    if shape == "rank 1":
        m = rank_deficient(rng, 6, 6, 1)
    else:
        m = complex_gaussian(rng, *shape)
    assert mc.spectral_norm(m) == float(np.linalg.norm(m, 2))
    if m.shape[0] == m.shape[1]:
        assert mc.hermitian_deviation(m) == float(np.linalg.norm(m - m.conj().T, 2))


def test_norms_of_an_empty_matrix_are_zero():
    assert mc.spectral_norm(np.zeros((0, 3))) == 0.0
    assert mc.spectral_norm(np.zeros((0, 0))) == 0.0
    assert mc.hermitian_deviation(np.zeros((0, 0))) == 0.0


def test_spectral_norms_of_a_stack():
    rng = np.random.default_rng(5)
    stack = np.array([complex_gaussian(rng, 3, 2) for _ in range(4)])
    np.testing.assert_array_equal(mc.spectral_norms(stack), [mc.spectral_norm(m) for m in stack])
    assert mc.spectral_norms(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


def test_sqrt_psd_stack_equals_single_calls():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5):
        stack = np.array([random_psd(rng, n, rank=int(rng.integers(1, n + 1))) for _ in range(9)])
        roots = mc.sqrt_psd(stack)
        assert roots.shape == stack.shape
        for m, root in zip(stack, roots):
            np.testing.assert_array_equal(root, mc.sqrt_psd(m))


def test_sqrt_psd_single_certificates_have_no_index():
    with pytest.raises(NotPSD) as negative:
        mc.sqrt_psd(-np.eye(2))
    assert str(negative.value).startswith("matrix has eigenvalue -1.000000e+00 below")
    assert negative.value.certificate == {"min_eigenvalue": -1.0, "floor": -1e-10}
    with pytest.raises(NotPSD) as skew:
        mc.sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))
    assert str(skew.value) == "matrix is not Hermitian (deviation 1.000e+00)"
    assert skew.value.certificate == {"hermitian_deviation": 1.0}


def test_sqrt_psd_stack_shape_checks():
    with pytest.raises(ShapeMismatch):
        mc.sqrt_psd(np.zeros((3, 2, 4)))
    with pytest.raises(MatrixFormatError):
        mc.sqrt_psd(np.zeros((2, 2, 2, 2)))
    bad = np.eye(2)[np.newaxis].repeat(3, axis=0)
    bad[1, 0, 0] = np.nan
    with pytest.raises(MatrixFormatError):
        mc.sqrt_psd(bad)


def haar_unitary_2x2(rng):
    q, r = np.linalg.qr(complex_gaussian(rng, 2, 2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def eigh_root(m):
    """The root from eigh: ``V diag(sqrt(max(w, 0))) V*``."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 1e-13, 1e-16, 0.0])
def test_two_by_two_root_matches_mpmath(delta, scale):
    # M = U diag(1, delta) U*, rounded to float; the reference is the root of
    # the rounded M, its eigenvalues clamped at 0, to 50 digits.  Near rank
    # one the small eigenvalue's root is far above roundoff, so both routes
    # miss by up to about 1e-8, and the closed form may miss by no more
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(71)
    unitaries = [haar_unitary_2x2(rng) for _ in range(60)]
    stack = np.array([scale * (u * [1.0, delta]) @ u.conj().T for u in unitaries])
    roots = mc.sqrt_psd(stack)
    worst_closed = worst_eigh = 0.0
    with mpmath.workdps(50):
        for m, root in zip(stack, roots):
            w, v = mpmath.eighe(mpmath.matrix(m.tolist()))
            ref = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
            closed, eigh = (mpmath.mnorm(mpmath.matrix(r.tolist()) - ref, "f") for r in (root, eigh_root(m)))
            worst_closed, worst_eigh = max(worst_closed, float(closed)), max(worst_eigh, float(eigh))
    assert 0.0 < worst_closed <= worst_eigh
    assert worst_closed <= 1e-8 * math.sqrt(scale)


def test_two_by_two_root_commutes_with_scales_by_powers_of_4():
    # each node is scaled near 1 by a power of 4 before its root is taken, so
    # scaling a node by 4^j scales its root by 2^j bit for bit, as long as the
    # entries stay normal; unscaled, det would overflow at 2^1000
    rng = np.random.default_rng(73)
    stack = np.array([random_psd(rng, 2, rank=rank) for rank in (1, 2, 1, 2)])
    roots = mc.sqrt_psd(stack)
    for j in (-500, -1, 1, 500):
        np.testing.assert_array_equal(mc.sqrt_psd(stack * 4.0**j), roots * 2.0**j)
    huge = mc.sqrt_psd(np.array([[1e200, 1e199], [1e199, 1e200]]))
    np.testing.assert_allclose(huge, 1e100 * mc.sqrt_psd(np.array([[1.0, 0.1], [0.1, 1.0]])), rtol=1e-15)


def test_two_by_two_root_at_the_eigenvalue_floor():
    rng = np.random.default_rng(72)
    u = haar_unitary_2x2(rng)
    # the least eigenvalue 1e-13 above and below the floor -1e-10 of a norm-1 node
    above, below = ((u * [1.0, -1e-10 + margin]) @ u.conj().T for margin in (1e-13, -1e-13))
    roots = mc.sqrt_psd(np.array([np.eye(2), above]))
    # clamped at 0, as eigh's eigenvalues are: the root is U diag(1, 0) U*
    np.testing.assert_allclose(roots[1], (u * [1.0, 0.0]) @ u.conj().T, rtol=0, atol=1e-15)
    assert mc.is_psd(roots[1], mc.ToleranceConfig(psd_atol=1e-14))
    with pytest.raises(NotPSD) as failed:
        mc.sqrt_psd(np.array([np.eye(2), above, below, below]))
    assert failed.value.certificate["index"] == 2
    assert failed.value.certificate["min_eigenvalue"] == pytest.approx(-1e-10 - 1e-13, rel=1e-6)
    # the closed form takes the eigenvalues of diag(1, -2^-33) without rounding,
    # so its least one can sit exactly on the floor
    edge = np.diag([1.0, -(2.0**-33)])
    at_floor = mc.ToleranceConfig(psd_atol=2.0**-33)
    np.testing.assert_array_equal(mc.sqrt_psd(edge, at_floor), np.diag([1.0, 0.0]))
    floor = -np.nextafter(2.0**-33, 0.0)
    with pytest.raises(NotPSD) as failed:
        mc.sqrt_psd(np.array([edge, edge]), mc.ToleranceConfig(psd_atol=-floor))
    assert failed.value.certificate == {"min_eigenvalue": -(2.0**-33), "floor": floor, "index": 0}


# ---------------------------------------------------------------------------
# Frobenius-screened norms, against the unscreened code they replace


def sqrt_psd_unscreened(m, tol=mc.DEFAULT_TOLERANCES):
    """``sqrt_psd`` with both 2-norms of every matrix taken by zgesdd."""
    a = np.asarray(m, dtype=complex)
    stacked = a.ndim == 3
    a = a if stacked else a[np.newaxis]

    def failure(i, message, certificate):
        if stacked:
            return NotPSD(f"matrix {i} of the stack {message}", certificate={**certificate, "index": i})
        return NotPSD(f"matrix {message}", certificate=certificate)

    a_star = a.conj().swapaxes(1, 2)
    dev = mc.spectral_norms(a - a_star)
    bad = np.flatnonzero(dev > tol.residual_bound(mc.spectral_norms(a)))
    if bad.size:
        i = int(bad[0])
        raise failure(
            i, f"is not Hermitian (deviation {dev[i]:.3e})", {"hermitian_deviation": float(dev[i])}
        )
    h = 0.5 * (a + a_star)
    if a.shape[1] == 2:
        # the closed form of sqrt_psd; test_two_by_two_root_matches_mpmath pins it
        lowest, top, roots = mc._sqrt_2x2(h)
    else:
        w, v = np.linalg.eigh(h)
        lowest = np.min(w, axis=-1, initial=0.0)
        top = np.max(np.abs(w), axis=-1, initial=0.0)
        roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2)
    floor = tol.psd_atol * top
    bad = np.flatnonzero(lowest < -floor)
    if bad.size:
        i = int(bad[0])
        raise failure(
            i,
            f"has eigenvalue {lowest[i]:.6e} below -psd_atol*norm = {-floor[i]:.6e}",
            {"min_eigenvalue": float(lowest[i]), "floor": float(-floor[i])},
        )
    return roots if stacked else roots[0]


def _sqrt_outcome(fn, m, tol):
    try:
        return fn(m, tol), None
    except NotPSD as exc:
        return None, (str(exc), exc.certificate)


def assert_screen_keeps_sqrt_psd(m, tol=mc.DEFAULT_TOLERANCES):
    """Same roots, or the same NotPSD message and certificate, as the unscreened code."""
    root, failure = _sqrt_outcome(mc.sqrt_psd, m, tol)
    ref_root, ref_failure = _sqrt_outcome(sqrt_psd_unscreened, m, tol)
    assert failure == ref_failure
    if ref_failure is None:
        np.testing.assert_array_equal(root, ref_root)
    return ref_failure


def assert_screen_keeps_max(stack, floor=0.0):
    """The screened max has the bits of the max of every zgesdd norm."""
    expected = max(floor, float(np.max(mc.spectral_norms(stack), initial=0.0)))
    got = mc.max_spectral_norm(stack, floor)
    assert type(got) is float and got.hex() == expected.hex()


def near_hermitian_stack(rng, n, k, skew):
    """k PSD matrices M of size n and random rank, each plus a skew-Hermitian part of norm skew*||M||."""
    stack = []
    for _ in range(k):
        m = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        g = complex_gaussian(rng, n, n)
        g = g - g.conj().T
        stack.append(m + skew * mc.spectral_norm(m) * g / mc.spectral_norm(g))
    return np.array(stack)


@pytest.mark.parametrize("n", range(1, 7))
def test_sqrt_psd_screen_matches_unscreened(n):
    rng = np.random.default_rng(40 + n)
    failures = set()
    # skews of 3e-9 and 1e-8 put deviations of 6e-9 and 2e-8 times ||M|| on
    # both sides of the residual bound
    for skew in (0.0, 1e-15, 1e-10, 3e-9, 1e-8, 1e-6):
        for scale in (1e-3, 1.0, 1e3):
            stack = scale * near_hermitian_stack(rng, n, 40, skew)
            failures.add(assert_screen_keeps_sqrt_psd(stack) is None)
            for m in stack[:6]:
                assert_screen_keeps_sqrt_psd(m)
    assert failures == {True, False}
    rank1 = np.array([random_psd(rng, n, rank=1) for _ in range(7)])
    assert assert_screen_keeps_sqrt_psd(rank1) is None
    assert assert_screen_keeps_sqrt_psd(np.array([rank_deficient(rng, n, n, 1) for _ in range(7)]))
    indefinite = np.array([m - 2 * mc.spectral_norm(m) * np.eye(n) for m in rank1])
    assert "min_eigenvalue" in assert_screen_keeps_sqrt_psd(indefinite)[1]
    for empty in (np.zeros((4, n, n)), np.zeros((0, n, n)), np.zeros((3, 0, 0))):
        assert assert_screen_keeps_sqrt_psd(empty) is None


@pytest.mark.parametrize("key", ["hermitian_deviation", "min_eigenvalue"])
def test_sqrt_psd_screen_finds_a_late_failure(key):
    # matrices 100 to 199 sit close enough to the bound that some take the
    # exact path and pass; the first failure is matrix 700
    rng = np.random.default_rng(47)
    stack = near_hermitian_stack(rng, 2, 2 * 512 + 37, 1e-10)
    stack[100:200] = near_hermitian_stack(rng, 2, 100, 3e-9)
    stack[700] = stack[900] = [[1, 1], [0, 1]] if key == "hermitian_deviation" else -np.eye(2)
    message, certificate = assert_screen_keeps_sqrt_psd(stack)
    assert certificate["index"] == 700 and key in certificate
    assert message.startswith("matrix 700 of the stack")


def skewed(n, diagonal, b):
    """``diagonal * I`` plus a skew part of 2-norm ``2 b``: ``[[d + i b]]`` or ``[[d, b], [-b, d]]``."""
    if n == 1:
        return np.array([[diagonal + 1j * b]])
    return np.array([[diagonal, b], [-b, diagonal]], dtype=complex)


@pytest.mark.parametrize(
    "n, diagonal, b",
    [
        (1, 0.5, 0.25e-8),  # deviation 0.5e-8 at 1e-8 * ||M||, ||M|| below 1
        (2, 0.5, 0.25e-8),  # the same, in a 2x2
        (2, 4.0, 2e-8),  # deviation 4e-8 at 1e-8 * ||M||
    ],
)
def test_sqrt_psd_screen_at_the_residual_bound(n, diagonal, b):
    tol = mc.DEFAULT_TOLERANCES
    m = skewed(n, diagonal, b)
    assert mc.hermitian_deviation(m) == tol.residual_bound(mc.spectral_norm(m))
    assert assert_screen_keeps_sqrt_psd(m) is None
    above = skewed(n, diagonal, np.nextafter(b, 1.0))
    deviation = mc.hermitian_deviation(above)
    assert deviation == np.nextafter(tol.residual_bound(mc.spectral_norm(above)), 1.0)
    assert assert_screen_keeps_sqrt_psd(above)[1] == {"hermitian_deviation": deviation}
    stack = np.array([np.eye(m.shape[0]), m, above])
    assert assert_screen_keeps_sqrt_psd(stack)[1]["index"] == 2


def test_screen_slack_covers_rounding():
    # the deviation i v v* has rank one, so its Frobenius and 2-norms agree and
    # their computed values can land an ulp apart either way; a bound or floor
    # set to the Frobenius value then decides by rounding alone
    rng = np.random.default_rng(2)
    rounded_below = 0
    for _ in range(40):
        v = 1e-4 * complex_gaussian(rng, 2, 1)
        m = 0.25 * np.eye(2) + 0.5j * (v @ v.conj().T)
        skew = m - m.conj().T
        fro = float(np.sqrt(np.sum(skew.real**2 + skew.imag**2)))
        rounded_below += mc.hermitian_deviation(m) > fro
        assert_screen_keeps_sqrt_psd(m, mc.ToleranceConfig(residual_atol=fro))
        assert_screen_keeps_max(skew[np.newaxis], fro)
    assert rounded_below > 0


def test_sqrt_psd_screen_survives_overflow_and_underflow():
    # a plain sum of squares gives an infinite deviation and norm to the first
    # and a zero deviation to the second, and either passes a naive screen
    huge = np.array([[1e200, 1e200], [0, 1e200]])
    assert assert_screen_keeps_sqrt_psd(huge)[1] == {"hermitian_deviation": 1e200}
    assert assert_screen_keeps_sqrt_psd(np.array([np.eye(2), huge]))[1]["index"] == 1
    tiny = np.array([[1, 1e-170], [0, 1]])
    strict = mc.ToleranceConfig(residual_atol=1e-300)
    assert assert_screen_keeps_sqrt_psd(tiny, strict)[1] == {"hermitian_deviation": 1e-170}
    assert assert_screen_keeps_sqrt_psd(tiny) is None
    # a huge Hermitian matrix still has its root
    assert assert_screen_keeps_sqrt_psd(np.array([[1e200, 1e199], [1e199, 1e200]])) is None


def test_sqrt_psd_screen_at_an_extreme_residual_atol():
    strict = mc.ToleranceConfig(residual_atol=1e-300)
    rng = np.random.default_rng(53)
    for n in (1, 2, 5):
        for skew in (0.0, 1e-17, 1e-12):
            assert_screen_keeps_sqrt_psd(near_hermitian_stack(rng, n, 20, skew), strict)
    # exactly Hermitian nodes, as P + Q on a grid, pass at any tolerance
    symmetric = near_hermitian_stack(rng, 3, 20, 0.0).real
    symmetric = symmetric + symmetric.swapaxes(1, 2)
    assert assert_screen_keeps_sqrt_psd(symmetric, strict) is None


@pytest.mark.parametrize("n", [2, 3])
def test_sqrt_psd_skips_the_screen_of_an_exactly_hermitian_stack(n, monkeypatch):
    calls = []

    def norm_bounds(stack):
        calls.append(len(stack))
        return norm_bounds_of_matcore(stack)

    norm_bounds_of_matcore = mc._norm_bounds
    monkeypatch.setattr(mc, "_norm_bounds", norm_bounds)
    rng = np.random.default_rng(59)
    psd = near_hermitian_stack(rng, n, 20, 0.0)
    psd = 0.5 * (psd + psd.conj().swapaxes(1, 2))  # M = M* bit for bit
    indefinite = psd - 2 * np.max(mc.spectral_norms(psd)) * np.eye(n)
    # the same roots, and the same certificate, as the unscreened code
    assert assert_screen_keeps_sqrt_psd(psd) is None
    assert "min_eigenvalue" in assert_screen_keeps_sqrt_psd(indefinite)[1]
    assert calls == []
    # a skew part of one ulp brings the screen back: the skew part and the stack
    psd[3, 0, 1] = np.nextafter(psd[3, 0, 1].real, np.inf) + 1j * psd[3, 0, 1].imag
    assert assert_screen_keeps_sqrt_psd(psd) is None
    assert calls == [20, 20]


@pytest.mark.parametrize("n", range(1, 7))
def test_max_spectral_norm_has_the_bits_of_every_norm(n):
    rng = np.random.default_rng(60 + n)
    for cols in (1, n, 6):
        for scale in (1e-160, 1e-3, 1.0, 1e150):
            stack = np.array([complex_gaussian(rng, n, cols) for _ in range(50)])
            assert_screen_keeps_max(scale * stack)
        assert_screen_keeps_max(np.array([rank_deficient(rng, n, cols, 1) for _ in range(50)]))
    assert_screen_keeps_max(np.zeros((5, n, n)))
    assert_screen_keeps_max(np.zeros((0, n, n)))
    assert_screen_keeps_max(np.zeros((3, n, 0)))
    # ties: one matrix, and unitary rotations of it, many times over
    m = complex_gaussian(rng, n, n)
    u = np.linalg.qr(complex_gaussian(rng, n, n))[0]
    assert_screen_keeps_max(np.array([m, u @ m, m @ u, m] * 20))


def test_max_spectral_norm_with_a_running_floor():
    # a slowly varying norm, walked in blocks with the running max as floor
    rng = np.random.default_rng(71)
    t = np.linspace(0.0, 1.0, 2 * 512 + 37)
    noise = np.array([complex_gaussian(rng, 2, 2) for _ in t])
    stack = np.sin(3 * t)[:, np.newaxis, np.newaxis] * complex_gaussian(rng, 2, 2) + 1e-3 * noise
    worst = 0.0
    for lo in range(0, t.size, 512):
        assert_screen_keeps_max(stack[lo : lo + 512], worst)
        worst = mc.max_spectral_norm(stack[lo : lo + 512], worst)
    assert worst == float(np.max(mc.spectral_norms(stack)))
    assert_screen_keeps_max(stack, 2 * worst)


def test_max_spectral_norm_survives_overflow_and_underflow():
    # a plain sum of squares makes the first stack's norms all 0.0, and the
    # max with them, and the second's infinite
    tiny = np.zeros((4, 2, 2), dtype=complex)
    tiny[2, 0, 1] = 1e-170
    assert mc.max_spectral_norm(tiny) == 1e-170
    assert_screen_keeps_max(tiny)
    huge = np.array([np.eye(2), [[1e200, 1e200], [0, 1e200]], 1e199 * np.eye(2)])
    assert_screen_keeps_max(huge)
    assert_screen_keeps_max(np.array([np.eye(2), [[1e308, 1e308], [1e308, 1e308]]]))


def test_max_spectral_norm_calls_zgesdd_only_where_the_max_can_grow(monkeypatch):
    log = count_lapack(monkeypatch)
    rng = np.random.default_rng(73)
    stack = np.array([complex_gaussian(rng, 2, 2) for _ in range(100)])
    top = mc.max_spectral_norm(stack)
    assert [name for name, _, _ in log] == ["svd"] and 0 < len(log[0][1][0]) < 100
    log.clear()
    assert mc.max_spectral_norm(stack, 2 * top) == 2 * top
    assert mc.max_spectral_norm(np.zeros((0, 2, 2))) == 0.0
    assert mc.max_spectral_norm(np.zeros((5, 2, 2))) == 0.0
    assert log == []


def test_two_by_two_bounds_are_tight_and_bracket_zgesdd():
    # Q - Q' on the grid has two equal singular values, where the Frobenius
    # bounds are a factor sqrt(2) apart; the closed form is within the slack
    rng = np.random.default_rng(75)
    g = np.array([complex_gaussian(rng, 2, 2) for _ in range(400)])
    unitaries = np.linalg.qr(g)[0]
    rank1 = g[:, :, :1] @ g[:, :1, :]
    for stack in (g, unitaries, 0.3 * unitaries + 1e-9 * g, rank1, rank1 + 1e-12 * g):
        for scale in (1e-148, 1e-3, 1.0, 1e150):
            lo, hi = mc._norm_bounds(scale * stack)
            norms = mc.spectral_norms(scale * stack)
            assert np.all(lo <= norms) and np.all(norms <= hi)
            assert np.all(hi <= norms * (1 + 3 * mc._BOUND_SLACK))
    # where F^2 + 2|det| overflows, and where the sum of squares does, the
    # Frobenius rule and then the exact path take over
    for m in ([[1e154, 0], [0, 1e154]], [[1e200, 1e200], [0, 1e200]], [[1e-170, 0], [0, 0]]):
        lo, hi = mc._norm_bounds(np.array([m], dtype=complex))
        assert lo[0] <= mc.spectral_norm(np.array(m)) <= hi[0]


# ---------------------------------------------------------------------------
# screened residual decisions, against the exact decision


def exact_decision(m, r, tol):
    def norm(x):
        return x if isinstance(x, float) else mc.spectral_norm(x)

    return norm(m) <= tol.residual_bound(norm(r))


def assert_screen_keeps_decision(m, r, tol=mc.DEFAULT_TOLERANCES):
    """The screened decision is the exact one, and the scalar bounds bracket zgesdd."""
    expected = exact_decision(m, r, tol)
    assert mc._within_residual_bound(m, r, tol) is expected
    for x in (m, r):
        if not isinstance(x, float):
            lo, hi = mc._single_norm_bounds(x)
            assert lo <= mc.spectral_norm(x) <= hi
    return expected


def near_the_bound(rng, tol, rows, cols, r):
    """A random ``rows x cols`` M whose norm is within 1e-16..10 relative of the bound of ``||R||``."""
    bound = tol.residual_bound(r if isinstance(r, float) else mc.spectral_norm(r))
    m = complex_gaussian(rng, rows, cols)
    offset = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-16, 1)
    return m * (bound * max(1.0 + offset, 0.0) / mc.spectral_norm(m))


@pytest.mark.parametrize("tol", [mc.DEFAULT_TOLERANCES, mc.ToleranceConfig(residual_atol=1e-300)])
def test_screened_decision_matches_the_exact_one(tol):
    rng = np.random.default_rng(81)
    outcomes = []
    for rows in range(1, 7):
        for cols in range(1, 7):
            for r_scale in (1e-3, 1.0, 1e4):
                r = r_scale * complex_gaussian(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
                for r_form in (r, mc.spectral_norm(r)):
                    m = near_the_bound(rng, tol, rows, cols, r_form)
                    outcomes.append(assert_screen_keeps_decision(m, r_form, tol))
                    outcomes.append(assert_screen_keeps_decision(mc.spectral_norm(m), r, tol))
    assert set(outcomes) == {True, False}


def test_screened_decision_far_from_the_bound_takes_no_norm(monkeypatch):
    # a factor 10 from the bound is beyond the looseness sqrt(6) of either
    # matrix's bounds, so no zgesdd norm is taken
    rng = np.random.default_rng(83)
    tol = mc.DEFAULT_TOLERANCES
    cases = []
    for rows in range(1, 7):
        r = 10.0 ** rng.uniform(-3, 4) * complex_gaussian(rng, rows, 7 - rows)
        m = complex_gaussian(rng, 7 - rows, rows)
        m *= tol.residual_bound(mc.spectral_norm(r)) / mc.spectral_norm(m)
        cases += [(0.1 * m, r, True), (10.0 * m, r, False)]
    log = count_lapack(monkeypatch)
    assert [mc._within_residual_bound(m, r, tol) for m, r, _ in cases] == [e for _, _, e in cases]
    assert log == []


@pytest.mark.parametrize("norm", [0.0, 0.5, 3.0, 7.25e5])
def test_screened_decision_at_the_bound(norm):
    # a 2x2 matrix at the bound, and the next float above it, with R a matrix of norm norm
    tol = mc.DEFAULT_TOLERANCES
    r = np.diag([norm, 0.25 * norm])
    bound = tol.residual_bound(norm)
    for value, expected in ((bound, True), (np.nextafter(bound, np.inf), False)):
        m = np.diag([value, 0.5 * value])
        assert mc.spectral_norm(m) == value
        assert assert_screen_keeps_decision(m, r, tol) is expected
        assert assert_screen_keeps_decision(m, norm, tol) is expected


def test_screened_decision_survives_overflow_underflow_and_empty():
    strict = mc.ToleranceConfig(residual_atol=1e-300)
    huge = np.array([[1e200, 1e200], [0, 1e200]], dtype=complex)
    tiny = np.zeros((3, 2), dtype=complex)
    tiny[1, 0] = 1e-170
    zero = np.zeros((2, 3), dtype=complex)
    empty = np.zeros((0, 3), dtype=complex)
    for tol in (mc.DEFAULT_TOLERANCES, strict):
        for m in (huge, 1e-9 * huge, 1e-8 * huge, tiny, zero, empty):
            for r in (huge, tiny, zero, empty, 0.0, 1e200):
                assert_screen_keeps_decision(m, r, tol)
    assert not mc._within_residual_bound(huge, huge, mc.DEFAULT_TOLERANCES)
    assert mc._within_residual_bound(1e-9 * huge, huge, mc.DEFAULT_TOLERANCES)
    # against a zero scale only an exact zero passes, however small the residual
    assert mc._within_residual_bound(tiny, 1.0, mc.DEFAULT_TOLERANCES)
    assert not mc._within_residual_bound(tiny, 1.0, strict)
    assert not mc._within_residual_bound(tiny, 0.0, mc.DEFAULT_TOLERANCES)
    assert mc._within_residual_bound(zero, 0.0, strict) and mc._within_residual_bound(empty, 0.0, strict)
    assert mc._single_norm_bounds(zero) == mc._single_norm_bounds(empty) == (0.0, 0.0)


def test_hermitian_test_reuses_a_deviation_already_taken(monkeypatch):
    # a deviation exactly at the bound of ||M||, which Frobenius bounds cannot settle
    m = skewed(2, 0.5, 0.25e-8)
    bound = mc.DEFAULT_TOLERANCES.residual_bound(mc.spectral_norm(m))
    spectrum = mc.HermitianSpectrum(m, mc.DEFAULT_TOLERANCES)
    log = count_lapack(monkeypatch)
    assert spectrum.is_hermitian and len(log) == 2
    # the undecided test keeps only its verdict, so the deviation is taken again
    assert spectrum.deviation == bound and len(log) == 3
    assert spectrum.is_hermitian and spectrum.is_psd
    assert [name for name, _, _ in log] == ["svd", "svd", "svd", "eigvalsh"]


def test_psd_test_reads_the_hermitian_verdict(monkeypatch):
    tests = []

    def within_residual_bound(m, r, tol, rule=None):
        tests.append(not isinstance(m, float))  # the Hermitian test judges M - M*, the PSD test a number
        return within_residual_bound_of_matcore(m, r, tol, rule)

    within_residual_bound_of_matcore = mc._within_residual_bound
    monkeypatch.setattr(mc, "_within_residual_bound", within_residual_bound)
    spectrum = mc.HermitianSpectrum(random_psd(np.random.default_rng(8), 4), mc.DEFAULT_TOLERANCES)
    assert spectrum.is_hermitian and spectrum.is_psd
    assert tests == [True, False]
    # both verdicts are kept
    assert spectrum.is_hermitian and spectrum.is_psd and tests == [True, False]


def test_each_spectrum_has_one_tolerance():
    # ||M - M*|| is 2e-10 against ||M|| near 1: Hermitian at residual_atol
    # 1e-8 and not at 1e-12, so PSD only at the first
    m = np.array([[1.0, 1e-10], [-1e-10, 0.5]])
    tols = [mc.ToleranceConfig(residual_atol=atol) for atol in (1e-8, 1e-12)]
    spectra = [mc.HermitianSpectrum(m, tol) for tol in tols]
    assert [mc.is_psd(m, tol) for tol in tols] == [True, False]
    assert [spectrum.is_psd for spectrum in spectra] == [True, False]
    assert [spectrum.is_hermitian for spectrum in spectra] == [True, False]


# ---------------------------------------------------------------------------
# polar partial isometry


def test_polar_projection_fixed_point():
    m = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(factor_polar(m), m, atol=1e-14)


def test_polar_scaling_drops_out():
    np.testing.assert_allclose(
        factor_polar(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14
    )


def test_polar_rank_two_initial_projection():
    rng = np.random.default_rng(11)
    a = rank_deficient(rng, 3, 3, 2)
    # rank via an SVD oracle, independent of the implementation's cutoff path
    assert int(np.sum(np.linalg.svd(a, compute_uv=False) > 1e-10)) == 2
    u = factor_polar(a)
    p = u.conj().T @ u
    assert mc.hermitian_deviation(p) <= 1e-12
    assert mc.spectral_norm(p @ p - p) <= 1e-12
    assert int(np.sum(np.linalg.svd(p, compute_uv=False) > 0.5)) == 2


def test_polar_consistency_random():
    rng = np.random.default_rng(13)
    tol = mc.DEFAULT_TOLERANCES
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = (
            rank_deficient(rng, rows, cols, int(rng.integers(1, min(rows, cols) + 1)))
            if rng.random() < 0.5
            else complex_gaussian(rng, rows, cols)
        )
        u = factor_polar(a, tol)
        scale = max(1.0, mc.spectral_norm(a))
        assert mc.spectral_norm(u @ mc.sqrt_psd(a.conj().T @ a, tol) - a) <= tol.residual_atol * scale
        assert mc.spectral_norm(u @ u.conj().T @ u - u) <= tol.residual_atol


# ---------------------------------------------------------------------------
# positivity test


def test_is_psd_positive_example():
    assert mc.is_psd(np.array([[2, 1], [1, 1]], dtype=complex))


@pytest.mark.parametrize("x33", [-100.0, -1.0, 0.0, 0.5, 1.0, 7.0, 100.0])
def test_is_psd_indefinite_corner(x33):
    assert not mc.is_psd(np.array([[0, 1], [1, x33]], dtype=complex))


def test_is_psd_negative_identity():
    assert not mc.is_psd(-np.eye(3))


def test_is_psd_rejects_non_hermitian():
    assert not mc.is_psd(np.array([[1, 1], [0, 1]], dtype=complex))


def test_is_psd_zero():
    assert mc.is_psd(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# range inclusion, decided by douglas.factorize, and majorization


def test_range_inclusion_fixture(rank1_pair):
    assert dg.factorize(*rank1_pair).range_ok


def test_range_inclusion_equal_ranges(hermitian_only_pair):
    a, c = hermitian_only_pair
    assert dg.factorize(a, c).range_ok
    assert dg.factorize(c, a).range_ok


def test_range_inclusion_disjoint():
    assert not dg.factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])).range_ok


def test_range_inclusion_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dg.factorize(np.eye(2), np.eye(3))


def test_range_inclusion_right_multiplication():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = rank_deficient(rng, rows, cols, int(rng.integers(1, min(rows, cols) + 1)))
        w = complex_gaussian(rng, cols, int(rng.integers(1, 7)))
        assert dg.factorize(a, a @ w).range_ok


def majorization_scales(a, c):
    """The factorization's least majorization scale and the oracle's reference for it."""
    f = dg.factorize(a, c)
    return f.majorization_scale, oc._majorization_scale(f)


def test_majorization_fixture(rank1_pair):
    a, c = rank1_pair
    np.testing.assert_allclose(c @ c.conj().T, np.diag([5.0, 0.0]))
    np.testing.assert_allclose(a @ a.conj().T, np.diag([1.0, 0.0]))
    mu, reference = majorization_scales(a, c)
    assert mu is not None and reference is not None
    assert mu == pytest.approx(5.0, abs=1e-10)
    assert reference == pytest.approx(5.0, abs=1e-10)
    # cross-check against the squared norm of the reduced solution
    d = factor_pinv(a) @ c
    assert mc.spectral_norm(d) ** 2 == pytest.approx(mu, rel=1e-10)


def test_majorization_self():
    rng = np.random.default_rng(23)
    a = complex_gaussian(rng, 3, 3)
    for mu in majorization_scales(a, a):
        assert mu is not None and mu == pytest.approx(1.0, rel=1e-9)


def test_majorization_infinite():
    # the CLI's payload on this pair, finite False and mu_star "inf", is
    # pinned by tests/test_cli.py::test_majorize_disjoint
    assert majorization_scales(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) == (None, None)


def test_majorization_zero_c():
    assert majorization_scales(np.eye(2), np.zeros((2, 2))) == (0.0, 0.0)


def test_majorization_cuts_at_the_rank_of_a():
    # A's small singular value 1e-7 is far above the rank cut 1e-10 of A's
    # singular values, though its square is below the rank cut of A A*
    for mu in majorization_scales(np.diag([1.0, 1e-7]), np.diag([0.0, 1e-7])):
        assert mu is not None
        assert abs(mu - 1.0) <= mc.DEFAULT_TOLERANCES.residual_bound(1.0)


def test_majorization_norm_identity_random():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rank_deficient(rng, n, n, int(rng.integers(1, n + 1)))
        c = a @ complex_gaussian(rng, n, n)
        d_norm_sq = mc.spectral_norm(factor_pinv(a) @ c) ** 2
        for mu in majorization_scales(a, c):
            assert mu is not None
            assert abs(mu - d_norm_sq) <= 1e-8 * max(1.0, d_norm_sq)


@pytest.mark.parametrize("kappa", [1e4, 1e7, 1e8, 1e9])
def test_majorization_reference_allows_the_roundoff_of_an_ill_conditioned_a(kappa):
    # A = U diag(1, 1/kappa, 0) V* and C = A V E22 V*: C lies in R(A), and its
    # leak outside the range of A's SVD is roundoff of size eps kappa ||C||,
    # which the reference, like the range test, allows through the equation bound
    for s in range(40):
        u, v = oc._unitaries(np.random.default_rng([9, s]), 3, 2)
        a = u @ np.diag([1.0, 1.0 / kappa, 0.0]) @ v.conj().T
        c = a @ v @ np.diag([0.0, 1.0, 0.0]) @ v.conj().T
        mu, reference = majorization_scales(a, c)
        assert mu is not None and reference is not None, s
        assert reference == pytest.approx(mu, rel=1e-14), s
