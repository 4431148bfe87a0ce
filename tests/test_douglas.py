import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import (
    built,
    complex_gaussian,
    count_lapack,
    oracle_pair,
    random_hermitian,
    random_psd,
    rank_deficient,
    reference_range_equality,
)
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq.errors import (
    NotASolution,
    NotHermitian,
    NotSolvable,
    NotSolvableHermitian,
    NotSolvablePositive,
    ParameterNotHermitian,
    ParameterNotPSD,
    ShapeMismatch,
)


def consistent_pair(rng, n, flavor="general"):
    a = rank_deficient(rng, n, n, int(rng.integers(1, n + 1)))
    if flavor == "hermitian":
        w = random_hermitian(rng, n)
    elif flavor == "positive":
        w = random_psd(rng, n)
    else:
        w = complex_gaussian(rng, n, n)
    return a, a @ w


# ---------------------------------------------------------------------------
# reduced solution


def test_reduced_solution_fixture(rank1_pair):
    a, c = rank1_pair
    d = dg.reduced_solution(dg.factorize(a, c))
    np.testing.assert_array_equal(d, c)
    assert mc.hermitian_deviation(d) > 0.5  # genuinely non-Hermitian


def test_reduced_solution_invertible():
    rng = np.random.default_rng(3)
    a = complex_gaussian(rng, 3, 3) + 3 * np.eye(3)
    c = complex_gaussian(rng, 3, 3)
    d = dg.reduced_solution(dg.factorize(a, c))
    np.testing.assert_allclose(d, np.linalg.solve(a, c), atol=1e-10)


def test_reduced_solution_three_by_three(hermitian_only_pair):
    a, c = hermitian_only_pair
    np.testing.assert_allclose(dg.reduced_solution(dg.factorize(a, c)), c, atol=1e-14)


def test_reduced_solution_certificate():
    with pytest.raises(NotSolvable) as info:
        dg.reduced_solution(dg.factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
    assert info.value.certificate["range_residual"] == pytest.approx(1.0, abs=1e-12)


def test_reduced_solution_lives_in_row_space():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, c = consistent_pair(rng, int(rng.integers(1, 6)))
        d = dg.reduced_solution(dg.factorize(a, c))
        p = mc.row_space_projector(a)
        assert mc.spectral_norm(d - p @ d) < 1e-10
        assert mc.spectral_norm(a @ d - c) <= 1e-8 * max(1.0, mc.spectral_norm(c))


def test_zero_operator_edge_cases():
    zero = np.zeros((2, 2), dtype=complex)
    f = dg.factorize(zero, zero)
    d = dg.reduced_solution(f)
    assert np.all(d == 0)
    # every parameter is a solution parameter: the projector complement is I
    y = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_allclose(dg.general_solution(f, y), y, atol=1e-14)
    with pytest.raises(NotSolvable):
        dg.reduced_solution(dg.factorize(zero, np.eye(2)))


# ---------------------------------------------------------------------------
# general family


def test_general_solution_zero_parameter(rank1_pair):
    a, c = rank1_pair
    x = dg.general_solution(dg.factorize(a, c), np.zeros((2, 2)))
    np.testing.assert_allclose(x, c, atol=1e-14)


def test_general_solution_fixture(rank1_pair):
    a, c = rank1_pair
    y = np.array([[9, 9], [1, 1]], dtype=complex)
    x = dg.general_solution(dg.factorize(a, c), y)
    np.testing.assert_allclose(x, np.array([[2, 1], [1, 1]]), atol=1e-14)
    np.testing.assert_allclose(a @ x, c, atol=1e-14)


def test_general_solution_random():
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        a, c = consistent_pair(rng, n)
        y = complex_gaussian(rng, n, n)
        x = dg.general_solution(dg.factorize(a, c), y)
        assert mc.spectral_norm(a @ x - c) <= 1e-8 * max(1.0, mc.spectral_norm(c))


def test_general_solution_shape_mismatch(rank1_pair):
    a, c = rank1_pair
    with pytest.raises(ShapeMismatch):
        dg.general_solution(dg.factorize(a, c), np.zeros((3, 3)))


def test_recover_parameter_reduced_is_zero(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    y = dg.recover_parameter(f, dg.reduced_solution(f))
    assert mc.spectral_norm(y) < 1e-12


def test_recover_parameter_fixture(rank1_pair):
    a, c = rank1_pair
    x = np.array([[2, 1], [1, 1]], dtype=complex)
    f = dg.factorize(a, c)
    y = dg.recover_parameter(f, x)
    np.testing.assert_allclose(y, np.array([[0, 0], [1, 1]]), atol=1e-14)
    np.testing.assert_allclose(dg.general_solution(f, y), x, atol=1e-14)


def test_recover_parameter_round_trip_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a, c = consistent_pair(rng, n)
        f = dg.factorize(a, c)
        x = dg.general_solution(f, complex_gaussian(rng, n, n))
        x_back = dg.general_solution(f, dg.recover_parameter(f, x))
        assert mc.spectral_norm(x_back - x) <= 1e-9 * max(1.0, mc.spectral_norm(x))


def test_general_solution_and_recover_parameter_take_no_svd(monkeypatch):
    rng = np.random.default_rng(47)
    a, c = consistent_pair(rng, 5)
    f = dg.factorize(a, c)
    y = complex_gaussian(rng, 5, 5)
    log = count_lapack(monkeypatch)
    x = dg.general_solution(f, y)
    # Frobenius bounds settle both checks of ||A X - C|| on this pair
    np.testing.assert_array_equal(dg.recover_parameter(f, x), x - 2.0**f.x_exp * f.d)
    assert log == []


def test_recover_parameter_rejects_an_x_changed_in_place():
    rng = np.random.default_rng(53)
    a, c = consistent_pair(rng, 4)
    f = dg.factorize(a, c)
    x = dg.general_solution(f, complex_gaussian(rng, 4, 4))
    x[0, 0] += 1e3
    with pytest.raises(NotASolution):
        dg.recover_parameter(f, x)
    # a caller's own X, and a read-only view of one, are read afresh each time
    mine = np.array(dg.general_solution(f, complex_gaussian(rng, 4, 4)))
    view = mine.view()
    view.flags.writeable = False
    for x in (mine, view):
        dg.recover_parameter(f, x)
        mine[0, 0] += 1e3
        with pytest.raises(NotASolution):
            dg.recover_parameter(f, x)
        mine[0, 0] -= 1e3


def test_recover_parameter_rejects_non_solution(rank1_pair):
    a, c = rank1_pair
    with pytest.raises(NotASolution):
        dg.recover_parameter(dg.factorize(a, c), np.eye(2))


def test_general_solution_checks_its_output():
    # a huge Y loses the equation to roundoff in (I - P) Y
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = u @ np.diag([1.0, 1.0, 0.0]) @ u.T
    c = a @ np.ones((3, 3))
    y = 1e12 * rng.standard_normal((3, 3))
    with pytest.raises(NotSolvable) as info:
        dg.general_solution(dg.factorize(a, c), y)
    certificate = info.value.certificate
    assert certificate["failed_conditions"] == ["solution_residual"]
    assert certificate["equation_residual"] > certificate["residual_bound"]


# ---------------------------------------------------------------------------
# solvability reports


def test_report_fixture(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    assert f.range_ok and f.ca_hermitian
    np.testing.assert_allclose(c @ a.conj().T, np.diag([2.0, 0.0]))
    assert f.verdict is dg.Verdict.POSITIVE
    assert f.t_min == pytest.approx(2.5, rel=1e-9)


def test_report_three_by_three(hermitian_only_pair):
    f = dg.factorize(*hermitian_only_pair)
    assert f.verdict is dg.Verdict.HERMITIAN
    assert f.range_ok and f.ca_hermitian and f.ca_psd
    assert not f.dp_range_eq
    assert f.t_min is None
    assert f.lambda_estimate is None
    assert "dp_range_eq" in dg.solvability_report(f)["certificate"]["failed_conditions"]


def test_report_non_hermitian_product():
    a = np.eye(2, dtype=complex)
    c = np.array([[0, 1], [0, 0]], dtype=complex)
    f = dg.factorize(a, c)
    assert not f.ca_hermitian
    assert f.verdict is dg.Verdict.GENERAL


@pytest.mark.parametrize("least, psd", [(-1e299, True), (-1e301, False)])
def test_c_a_star_is_judged_where_a_scaled_copy_of_c_overflows(least, psd):
    # ||A|| = 1e160 and ||C|| = 1e150: ||A|| C does not fit a float, but the
    # floor -psd_atol ||C|| ||A|| = -1e300 does, and so does C A* = diag(least, 1e301)
    a = np.diag([1e160, 1e151])
    c = np.diag([least / 1e160, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = dg.factorize(a, c)
        assert f.ca_hermitian and f.ca_psd is psd


def test_report_c_equals_a():
    rng = np.random.default_rng(43)
    a = rank_deficient(rng, 4, 4, 2)
    f = dg.factorize(a, a)
    assert f.verdict is dg.Verdict.POSITIVE
    assert f.t_min == pytest.approx(1.0, rel=1e-8)
    assert f.lambda_estimate == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_report_lambda_is_zero_when_a_has_full_column_rank(scale):
    # P = I, so I - P and with it the correction term are exactly zero
    rng = np.random.default_rng(47)
    for n in (1, 3, 5):
        a = scale * complex_gaussian(rng, n + 1, n)
        f = dg.factorize(a, a @ random_psd(rng, n))
        assert f.verdict is dg.Verdict.POSITIVE
        assert f.lambda_estimate == 0.0
        assert not f.ip.any()


def test_report_zero_c():
    f = dg.factorize(np.eye(3), np.zeros((3, 3)))
    assert f.verdict is dg.Verdict.POSITIVE
    assert f.t_min == 0.0


def test_report_unsolvable():
    f = dg.factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert f.verdict is dg.Verdict.UNSOLVABLE
    assert not f.range_ok
    assert dg.solvability_report(f)["certificate"]["range_residual"] > 0.5


def test_report_json_markers(hermitian_only_pair, rank1_pair):
    payload = dg.solvability_report(dg.factorize(*hermitian_only_pair))
    assert payload["t_min"] == "inf"
    assert payload["lambda_estimate"] == "inf"
    assert payload["verdict"] == "SolvableHermitian"
    # every flag of the report is the factorization's, in the order check prints
    for a, c in (hermitian_only_pair, rank1_pair):
        f = dg.factorize(a, c)
        payload = dg.solvability_report(f)
        assert list(payload) == [
            "range_ok",
            "ca_star_hermitian",
            "ca_star_psd",
            "t_min",
            "dp_range_eq",
            "lambda_estimate",
            "verdict",
            "certificate",
        ]
        values = [f.range_ok, f.ca_hermitian, f.ca_psd, f.t_min, f.dp_range_eq, f.lambda_estimate]
        values = ["inf" if value is None else value for value in values] + [f.verdict.value]
        assert list(payload.values())[:7] == values
        assert (payload["certificate"] == {}) is (f.verdict is dg.Verdict.POSITIVE)


def test_verdict_ordering():
    assert dg.Verdict.POSITIVE.at_least(dg.Verdict.HERMITIAN)
    assert dg.Verdict.HERMITIAN.at_least(dg.Verdict.GENERAL)
    assert not dg.Verdict.GENERAL.at_least(dg.Verdict.HERMITIAN)


def test_verdict_invariants_hold_over_random_pairs():
    # POSITIVE implies the range, PSD and range-equality flags; HERMITIAN or
    # higher implies the range and Hermitian flags; t_min and lambda are
    # present exactly on POSITIVE.  Every class is drawn, at three scales
    rng = np.random.default_rng(61)
    seen = Counter()
    for k in range(240):
        n = int(rng.integers(1, 6))
        flavor = ("general", "hermitian", "positive")[k % 3]
        if k % 4 == 3:
            a, c = rank_deficient(rng, n, n, max(1, n - 1)), complex_gaussian(rng, n, n)
        else:
            a, c = consistent_pair(rng, n, flavor)
        s = (1e-6, 1.0, 1e6)[(k // 3) % 3]
        f = dg.factorize(s * a, s * c)
        verdict = f.verdict
        seen[verdict] += 1
        if verdict is dg.Verdict.POSITIVE:
            assert f.range_ok and f.ca_psd and f.dp_range_eq, k
        if verdict.at_least(dg.Verdict.HERMITIAN):
            assert f.range_ok and f.ca_hermitian, k
        for value in (f.t_min, f.lambda_estimate):
            assert (value is not None) is (verdict is dg.Verdict.POSITIVE), k
        assert (verdict is dg.Verdict.UNSOLVABLE) is (not f.range_ok), k
    assert set(seen) == set(dg.Verdict)


def test_report_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dg.solvability_report(dg.factorize(np.eye(2), np.eye(3)))
    # rows agree, so A and C factorize, but the verdict needs a square parameter space
    f = dg.factorize(np.eye(2), np.ones((2, 3)))
    for decide in (dg.solvability_report, lambda f: f.verdict):
        with pytest.raises(ShapeMismatch, match="identical shape"):
            decide(f)


# ---------------------------------------------------------------------------
# Hermitian family


def test_hermitian_solution_zero_parameter(rank1_pair):
    a, c = rank1_pair
    x = dg.hermitian_solution(dg.factorize(a, c), np.zeros((2, 2)))
    np.testing.assert_allclose(x, np.array([[2, 1], [1, 0]]), atol=1e-14)
    np.testing.assert_allclose(a @ x, c, atol=1e-14)
    assert mc.hermitian_deviation(x) < 1e-14


def test_hermitian_solution_three_by_three(hermitian_only_pair):
    a, c = hermitian_only_pair
    for x33 in (-2.0, 0.0, 1.5):
        y = np.zeros((3, 3), dtype=complex)
        y[2, 2] = x33
        x = dg.hermitian_solution(dg.factorize(a, c), y)
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, x33]], dtype=complex)
        np.testing.assert_allclose(x, expected, atol=1e-12)
        assert not mc.is_psd(x)


def test_hermitian_solution_random_outputs():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a, c = consistent_pair(rng, n, "hermitian")
        x = dg.hermitian_solution(dg.factorize(a, c), random_hermitian(rng, n))
        scale = max(1.0, mc.spectral_norm(x))
        assert mc.hermitian_deviation(x) <= 1e-9 * scale
        assert mc.spectral_norm(a @ x - c) <= 1e-9 * max(1.0, mc.spectral_norm(c))


def test_hermitian_solution_rejects_bad_parameter(rank1_pair):
    a, c = rank1_pair
    with pytest.raises(ParameterNotHermitian):
        dg.hermitian_solution(dg.factorize(a, c), np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_solution_rejects_unsolvable():
    a = np.eye(2, dtype=complex)
    c = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotSolvableHermitian):
        dg.hermitian_solution(dg.factorize(a, c), np.zeros((2, 2)))
    with pytest.raises(NotSolvableHermitian):
        f = dg.factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        dg.hermitian_solution(f, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# positive family


def test_positive_solution_fixture(rank1_pair):
    a, c = rank1_pair
    x0 = dg.positive_solution(dg.factorize(a, c), np.zeros((2, 2)))
    np.testing.assert_allclose(x0, np.array([[2, 1], [1, 0.5]]), atol=1e-12)
    eigs = np.linalg.eigvalsh(x0)
    np.testing.assert_allclose(sorted(eigs), [0.0, 2.5], atol=1e-12)
    np.testing.assert_allclose(a @ x0, c, atol=1e-12)


def test_positive_solution_c_equals_a():
    rng = np.random.default_rng(53)
    a = rank_deficient(rng, 3, 3, 2)
    x0 = dg.positive_solution(dg.factorize(a, a), np.zeros((3, 3)))
    np.testing.assert_allclose(x0, mc.row_space_projector(a), atol=1e-10)


def test_positive_solution_random_parameters():
    rng = np.random.default_rng(59)
    a, c = consistent_pair(rng, 4, "positive")
    f = dg.factorize(a, c)
    assert f.verdict is dg.Verdict.POSITIVE
    for _ in range(200):
        z = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
        x = dg.positive_solution(dg.factorize(a, c), z)
        assert mc.is_psd(x)
        assert mc.spectral_norm(a @ x - c) <= 1e-8 * max(1.0, mc.spectral_norm(c))
        # norm bound: the least majorization scale never exceeds ||X||
        assert f.t_min <= mc.spectral_norm(x) + 1e-8


def test_positive_solution_rejects_three_by_three(hermitian_only_pair):
    a, c = hermitian_only_pair
    with pytest.raises(NotSolvablePositive):
        dg.positive_solution(dg.factorize(a, c), np.zeros((3, 3)))


def test_positive_solution_rejects_bad_parameter(rank1_pair):
    a, c = rank1_pair
    with pytest.raises(ParameterNotPSD):
        dg.positive_solution(dg.factorize(a, c), -np.eye(2))


def weak_axis_pair(x, scale):
    """``(A, A X)`` for ``A = scale * diag(1e-3, 1)``, so that ``P = I`` and ``D = X``.

    ``C A* = A X A*`` sees X's first row and column shrunk by 1e-3 and its
    first diagonal entry by 1e-6, relative to the rest.  A defect of X there
    can pass the criteria on ``C A*`` and still fail the builders' own check
    of X, at every scale.
    """
    a = scale * np.diag([1e-3, 1.0]).astype(complex)
    return a, a @ x


# relative to the norms: -1e-5 reaches C A* as -1e-11, within its eigenvalue
# floor, so the pair is judged POSITIVE; X0 is X itself, and its check refuses it
NEAR_PSD = np.diag([-1e-5, 1.0])
# relative to the norms: ||X - X*|| = 2e-6 reaches C A* as 2e-9, within its
# bound 1e-8, while X fails the same bound
NEAR_HERMITIAN = np.array([[1.0, 1e-6], [-1e-6, 1.0]])


def test_positive_solution_checks_its_output_at_small_scale():
    for scale in (1e-6, 1.0, 1e6):
        f = dg.factorize(*weak_axis_pair(NEAR_PSD, scale))
        assert f.verdict is dg.Verdict.POSITIVE
        with pytest.raises(NotSolvablePositive) as info:
            dg.positive_solution(f, np.zeros((2, 2)))
        certificate = info.value.certificate
        assert certificate["failed_conditions"] == ["solution_psd"]
        assert certificate["min_eigenvalue"] < 0.0
        assert "equation_residual" in certificate and "residual_bound" in certificate


def test_positive_solution_eigendecomposes_a_failing_output_once(monkeypatch):
    # the pair above: the PSD test and the certificate's least eigenvalue share one eigvalsh of X
    f = dg.factorize(*weak_axis_pair(NEAR_PSD, 1e-6))
    x = f.x0  # X for Z = 0; the criteria read below are taken before counting
    assert f.range_ok and f.ca_psd and f.dp_range_eq
    log = count_lapack(monkeypatch)
    with pytest.raises(NotSolvablePositive) as info:
        dg.positive_solution(f, np.zeros(x.shape))
    assert [name for name, _, _ in log if name != "svd"] == ["eigvalsh"]
    lowest = np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0]
    assert info.value.certificate["min_eigenvalue"] == 2.0**f.x_exp * float(lowest)


def test_hermitian_solution_checks_its_output_at_small_scale():
    for scale in (1e-6, 1.0, 1e6):
        f = dg.factorize(*weak_axis_pair(NEAR_HERMITIAN, scale))
        assert f.range_ok and f.ca_hermitian
        with pytest.raises(NotSolvableHermitian) as info:
            dg.hermitian_solution(f, np.zeros((2, 2)))
        certificate = info.value.certificate
        assert certificate["failed_conditions"] == ["solution_hermitian"]
        assert certificate["solution_deviation"] > certificate["deviation_bound"]


def bordered_near_hermitian_pair(tol):
    """The weak-axis pair of NEAR_HERMITIAN, with a range residual of 0.9 times its bound in a third row."""
    a2, c2 = weak_axis_pair(NEAR_HERMITIAN, 1.0)
    a, c = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    a[:2, :2], c[:2, :2] = a2, c2
    c[2, 2] = 0.9 * tol.residual_bound(mc.spectral_norm(c2))
    return a, c


def test_undecided_failing_checks_read_the_norms_they_took(monkeypatch):
    # ||X - X*|| = 1.2e-8 against ||X|| = 1: over the bound 1e-8, and within
    # the looseness of the Frobenius bounds, so the check takes both norms
    x = np.array([[1.0, 0.6e-8], [-0.6e-8, 1.0]])
    f = dg.factorize(*weak_axis_pair(x, 1.0))
    assert f.range_ok and f.ca_hermitian
    log = count_lapack(monkeypatch)
    with pytest.raises(NotSolvableHermitian) as info:
        dg.hermitian_solution(f, np.zeros((2, 2)))
    certificate = info.value.certificate
    assert certificate["solution_deviation"] > certificate["deviation_bound"]
    taken = [args[0] for name, args, _ in log if name == "svd"]
    # ||X|| is taken twice: by the undecided check, which keeps only its
    # verdict, and by the certificate's deviation bound
    assert sum(np.array_equal(m, f.h0) for m in taken) == 2
    assert certificate["deviation_bound"] == 2.0**f.x_exp * f.tol.residual_bound(mc.spectral_norm(f.h0))

    # D = diag(1, 0) + 5e-11 e_2 e_3*: DP = diag(1, 0, 0), so in row-space
    # coordinates M = B* D is 5e-11 outside the range of K = B* D B, over a
    # bound of 4e-11 and within the Frobenius looseness of 2x3 matrices
    tol = mc.ToleranceConfig(residual_atol=4e-11)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0], c[1, 2] = 1.0, 5e-11
    f = dg.factorize(np.diag([1.0, 1.0, 0.0]), c, tol)
    assert f._k_svd[1].size == 1
    d_outside = f._outside_range_dp()
    exact = mc.spectral_norm(d_outside)
    log.clear()
    certificate = dg.solvability_report(f)["certificate"]
    assert certificate["failed_conditions"] == ["dp_range_eq"]
    assert certificate["d_outside_range_dp"] == 2.0**f.x_exp * exact
    # two SVDs of the residual: one by the undecided test, one for the certificate
    assert sum(name == "svd" and np.array_equal(args[0], d_outside) for name, args, _ in log) == 2


def test_every_test_against_the_norm_of_c_reads_it_once_taken(monkeypatch):
    # the range residual of the bordered pair, in a row that A cannot reach, is
    # undecided by the Frobenius bounds of 3x3 matrices, so the range test takes ||C||
    tol = mc.DEFAULT_TOLERANCES
    a, c = bordered_near_hermitian_pair(tol)
    log = count_lapack(monkeypatch)
    f = dg.factorize(a, c, tol)
    assert f.range_ok and f.ca_hermitian
    with pytest.raises(NotSolvableHermitian) as info:
        dg.hermitian_solution(f, np.zeros((3, 3)))
    certificate = info.value.certificate
    assert certificate["failed_conditions"] == ["solution_hermitian"]
    # ||C|| is taken three times: by the range test and by the check of X,
    # both undecided, and by the certificate's residual bound; the Hermitian
    # test of C A* is settled without it
    assert sum(name == "svd" and np.array_equal(args[0], c) for name, args, _ in log) == 3
    assert certificate["residual_bound"] == f.equation_bound(mc.spectral_norm(c))


# ---------------------------------------------------------------------------
# the factorization every decision reads


def test_factorization_invariants(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    p = np.eye(2) - f.ip
    assert mc.hermitian_deviation(p) < 1e-12
    assert mc.spectral_norm(p @ p - p) < 1e-12
    np.testing.assert_allclose(p @ f.d, f.d, atol=1e-12)
    np.testing.assert_allclose(p, f.row_basis @ f.row_basis.conj().T, atol=1e-14)
    np.testing.assert_allclose(f.e, f.m @ (np.eye(2) - p), atol=1e-14)
    np.testing.assert_allclose(2.0**f.x_exp * f.x0, np.array([[2, 1], [1, 0.5]]), atol=1e-12)
    # at full column rank I - P is exactly zero, and so is E
    full = dg.factorize(np.diag([1.0, 2.0]), c)
    assert full.e.shape == (2, 2) and not full.e.any()


def test_square_only_decisions_reject_column_mismatch():
    # A and C share their rows, so factorize accepts them and the general
    # family exists; C A* and DP, which need C shaped like A, are never formed
    a = np.eye(2, dtype=complex)
    c = np.ones((2, 3), dtype=complex)
    f = dg.factorize(a, c)
    np.testing.assert_allclose(dg.general_solution(f, np.zeros((2, 3))), c, atol=1e-14)
    for decide in (
        dg.solvability_report,
        lambda f: dg.hermitian_solution(f, np.zeros((2, 2))),
        lambda f: dg.positive_solution(f, np.zeros((2, 2))),
    ):
        with pytest.raises(ShapeMismatch):
            decide(f)


def test_report_lapack_calls_do_not_grow_with_n(monkeypatch):
    log = count_lapack(monkeypatch)
    counts = []
    for n in (12, 40):
        rng = np.random.default_rng(83)
        a = rank_deficient(rng, n, n, 3 * n // 4)
        c = a @ random_psd(rng, n)
        log.clear()
        report = dg.solvability_report(dg.factorize(a, c))
        assert report["verdict"] == dg.Verdict.POSITIVE.value
        counts.append(Counter(name for name, _, _ in log))
    # one SVD each of A and of the r x r compression K of DP; every threshold
    # test is settled by Frobenius bounds (the T_n scan alone used to add 41
    # SVDs); one eigvalsh of C A* for its PSD test, and one of the stacked
    # r x r pair whose top eigenvalues are t_min and lambda; no eigh
    assert counts[0] == counts[1] == Counter(svd=2, eigvalsh=2)


@pytest.mark.parametrize("ratio", [1.0, 1.5])
def test_range_certificate_reads_the_norm_its_test_took(ratio, monkeypatch):
    # a range residual at or above its bound, inside the band where Frobenius
    # bounds cannot decide, so the test takes ||A D - C|| from zgesdd once
    tol = mc.DEFAULT_TOLERANCES
    a = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c = np.diag([2.0, 1.0, ratio * tol.residual_bound(2.0)]).astype(complex)
    f = dg.factorize(a, c, tol)
    residual = f.a @ f.d - f.c
    exact = 2.0**f.c_exp * mc.spectral_norm(residual)
    log = count_lapack(monkeypatch)
    assert f.range_ok is (ratio == 1.0)
    assert f.range_residual == exact
    if not f.range_ok:
        assert dg.solvability_report(f)["certificate"]["range_residual"] == exact
    # two SVDs of the residual: one by the test, one for range_residual
    assert sum(name == "svd" and np.array_equal(args[0], residual) for name, args, _ in log) == 2


def test_parameter_certificate_reads_the_norm_its_test_took(rank1_pair, monkeypatch):
    # ||Y - Y*|| = 1.2e-8 over the bound 1e-8 of ||Y|| = 1, with a lower
    # Frobenius bound of 1.2e-8 / sqrt(2) below it: undecided, so the test
    # takes one SVD of Y - Y*, and the certificate's deviation another
    f = dg.factorize(*rank1_pair)
    y = np.diag([1.0 + 0.6e-8j, 0.0])
    skew = y - y.conj().T
    exact = mc.hermitian_deviation(y)
    log = count_lapack(monkeypatch)
    with pytest.raises(ParameterNotHermitian) as info:
        dg.hermitian_solution(f, y)
    assert info.value.certificate["parameter_deviation"] == exact
    assert sum(name == "svd" and np.array_equal(args[0], skew) for name, args, _ in log) == 2


def frobenius_settles(m, r, tol, rule=None):
    """Whether Frobenius bounds decide ``||M|| <= rule(||R||)`` without zgesdd.

    ``rule`` is ``tol.residual_bound`` unless given.
    """
    rule = tol.residual_bound if rule is None else rule
    m_lo, m_hi = mc._single_norm_bounds(m)
    r_lo, r_hi = mc._single_norm_bounds(r)
    return m_hi <= rule(r_lo) or m_lo > rule(r_hi)


# Each failing certificate path, on an input whose test Frobenius bounds
# settle and on one they leave undecided.  A path returns the test behind the
# failure as (M, R, tol) or (M, R, tol, rule), the numbers it printed, and the
# exact norms of the matrices those numbers describe, recomputed by the test.


def range_path(settled):
    tol = mc.DEFAULT_TOLERANCES
    a = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c = np.diag([2.0, 1.0, (10.0 if settled else 1.5) * tol.residual_bound(2.0)]).astype(complex)
    f = dg.factorize(a, c, tol)
    with pytest.raises(NotSolvable) as info:
        dg.reduced_solution(f)
    printed = [info.value.certificate["range_residual"]]
    printed.append(dg.solvability_report(f)["certificate"]["range_residual"])
    residual = f.a @ f.d - f.c
    return (residual, f.c, tol, f.equation_bound), printed, [2.0**f.c_exp * mc.spectral_norm(residual)] * 2


def ca_star_path(settled):
    # A = I, so C A* = C, judged at ||C||
    tol = mc.DEFAULT_TOLERANCES
    b = 0.5 if settled else 0.6e-8
    f = dg.factorize(np.eye(2), np.array([[1.0, b], [-b, 1.0]]), tol)
    certificate = dg.solvability_report(f)["certificate"]
    assert certificate["failed_conditions"] == ["ca_star_hermitian", "ca_star_psd"]
    ca = f.c @ f.a.conj().T
    test = (ca - ca.conj().T, f.a_norm * f.c, tol)
    return test, [certificate["ca_star_deviation"]], [2.0 ** (f.a_exp + f.c_exp) * mc.hermitian_deviation(ca)]


def range_equality_path(settled):
    # D = diag(1, 0) + 5e-11 e_2 e_3*: D is 5e-11 outside the range of DP
    tol = mc.ToleranceConfig(residual_atol=1e-12 if settled else 4e-11)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0], c[1, 2] = 1.0, 5e-11
    f = dg.factorize(np.diag([1.0, 1.0, 0.0]), c, tol)
    certificate = dg.solvability_report(f)["certificate"]
    assert certificate["failed_conditions"] == ["dp_range_eq"]
    residual = f._outside_range_dp()
    return (residual, f.m, tol), [certificate["d_outside_range_dp"]], [2.0**f.x_exp * mc.spectral_norm(residual)]


def equation_residual_path(settled):
    # settled: a huge Y loses the equation to roundoff in (I - P) Y; undecided:
    # X = H0 carries the range residual of the bordered pair, and fails as not Hermitian
    tol = mc.DEFAULT_TOLERANCES
    if settled:
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = u @ np.diag([1.0, 1.0, 0.0]) @ u.T
        f = dg.factorize(a, a @ np.ones((3, 3)), tol)
        y = (1e12 * rng.standard_normal((3, 3))).astype(complex)
        x = f.d + f.ip @ f.scaled(y)
        with pytest.raises(NotSolvable) as info:
            dg.general_solution(f, y)
    else:
        f = dg.factorize(*bordered_near_hermitian_pair(tol), tol)
        y = np.zeros((3, 3), dtype=complex)
        x = f.h0 + f.ip @ y @ f.ip
        with pytest.raises(NotSolvableHermitian) as info:
            dg.hermitian_solution(f, y)
    certificate = info.value.certificate
    residual = f.a @ x - f.c
    printed = [certificate["equation_residual"], certificate["residual_bound"]]
    exact = [2.0**f.c_exp * mc.spectral_norm(residual), 2.0**f.c_exp * f.equation_bound(mc.spectral_norm(f.c))]
    return (residual, f.c, tol, f.equation_bound), printed, exact


def solution_deviation_path(settled):
    # ||X - X*|| is 2e-6 against ||X|| near 1, or 1.2e-8 within the looseness of the bounds
    tol = mc.DEFAULT_TOLERANCES
    b = 1e-6 if settled else 0.6e-8
    f = dg.factorize(*weak_axis_pair(np.array([[1.0, b], [-b, 1.0]]), 1.0), tol)
    y = np.zeros((2, 2), dtype=complex)
    x = f.h0 + f.ip @ y @ f.ip
    with pytest.raises(NotSolvableHermitian) as info:
        dg.hermitian_solution(f, y)
    certificate = info.value.certificate
    assert certificate["failed_conditions"] == ["solution_hermitian"]
    printed = [certificate["solution_deviation"], certificate["deviation_bound"]]
    exact = [2.0**f.x_exp * mc.hermitian_deviation(x), 2.0**f.x_exp * tol.residual_bound(mc.spectral_norm(x))]
    return (x - x.conj().T, x, tol), printed, exact


def parameter_deviation_path(settled):
    tol = mc.DEFAULT_TOLERANCES
    f = dg.factorize(np.diag([1.0, 0.0]), np.array([[2.0, 1.0], [0.0, 0.0]]), tol)
    y = np.diag([1.0 + (1e-3j if settled else 0.6e-8j), 0.0])
    with pytest.raises(ParameterNotHermitian) as info:
        dg.hermitian_solution(f, y)
    printed = [info.value.certificate["parameter_deviation"]]
    return (y - y.conj().T, y, tol), printed, [mc.hermitian_deviation(y)]


def not_a_solution_path(settled):
    tol = mc.DEFAULT_TOLERANCES
    f = dg.factorize(np.eye(2), np.eye(2), tol)
    x = np.eye(2, dtype=complex)
    x[0, 1] = 1e-3 if settled else 1.2e-8
    with pytest.raises(NotASolution) as info:
        dg.recover_parameter(f, x)
    residual = f.a @ f.scaled(x) - f.c
    test = (residual, f.c, tol, f.equation_bound)
    return test, [info.value.certificate["equation_residual"]], [2.0**f.c_exp * mc.spectral_norm(residual)]


CERTIFICATE_PATHS = {
    "range": range_path,
    "ca_star": ca_star_path,
    "range_equality": range_equality_path,
    "equation_residual": equation_residual_path,
    "solution_deviation": solution_deviation_path,
    "parameter_deviation": parameter_deviation_path,
    "not_a_solution": not_a_solution_path,
}


@pytest.mark.parametrize("settled", [True, False], ids=["settled", "undecided"])
@pytest.mark.parametrize("path", list(CERTIFICATE_PATHS))
def test_every_certificate_number_is_the_exact_norm_of_its_matrix(path, settled):
    test, printed, exact = CERTIFICATE_PATHS[path](settled)
    assert frobenius_settles(*test) is settled
    assert [value.hex() for value in printed] == [value.hex() for value in exact]


def test_factorize_runs_one_full_svd_of_a(monkeypatch):
    rng = np.random.default_rng(89)
    a = rank_deficient(rng, 8, 8, 5)
    c = a @ complex_gaussian(rng, 8, 8)
    log = count_lapack(monkeypatch)
    f = dg.factorize(a, c)
    assert all(name == "svd" for name, _, _ in log)
    full = [args[0] for _, args, kwargs in log if kwargs.get("compute_uv", True)]
    # of the equilibrated A, exactly 2^-a_exp A
    assert len(full) == 1 and full[0] is f.a and np.array_equal(2.0**f.a_exp * f.a, a)


def test_factorization_keeps_the_truncated_svd_of_a_read_only():
    # A's norm, condition number and row-space basis are read from the kept
    # factors, with the bits of a truncated SVD of A taken on its own
    rng = np.random.default_rng(97)
    a = rank_deficient(rng, 6, 4, 3)
    f = dg.factorize(a, a @ complex_gaussian(rng, 4, 2))
    assert [field.name for field in dataclasses.fields(f)] == ["a", "c", "tol", "svd", "d", "a_exp", "c_exp"]
    u, s, vh = mc.truncated_svd(f.a)
    for kept, own in zip(f.svd, (u, s, vh.conj().T)):
        np.testing.assert_array_equal(kept, own)
        assert not kept.flags.writeable
    assert f.row_basis is f.svd[2]
    assert (f.a_norm, f.a_cond) == (float(s[0]), float(s[0] / s[-1]))
    assert not f.d.flags.writeable
    rank0 = dg.factorize(np.zeros((3, 2)), np.zeros((3, 1)))
    assert [factor.shape for factor in rank0.svd] == [(3, 0), (0,), (2, 0)]
    assert (rank0.a_norm, rank0.a_cond) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# block positivity test


def test_block_psd_rank_one():
    one = np.array([[1.0]])
    assert dg.block_psd_test(one, one, one)


def test_block_psd_range_condition_fails():
    a11 = np.diag([1.0, 0.0])
    a12 = np.array([[0.0], [1.0]])
    a22 = np.array([[5.0]])
    assert not dg.block_psd_test(a11, a12, a22)


def test_block_psd_agrees_with_eigen_oracle():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            full = random_psd(rng, d1 + d2, rank=int(rng.integers(1, d1 + d2 + 1)))
        else:
            full = random_hermitian(rng, d1 + d2)
        a11, a12, a22 = full[:d1, :d1], full[:d1, d1:], full[d1:, d1:]
        by_blocks = dg.block_psd_test(a11, a12, a22)
        by_eigen = bool(np.linalg.eigvalsh(full)[0] >= -1e-10 * max(1.0, mc.spectral_norm(full)))
        assert by_blocks == by_eigen


def test_block_psd_reads_each_hermitian_deviation_once(monkeypatch):
    rng = np.random.default_rng(73)
    full = random_psd(rng, 5)
    log = count_lapack(monkeypatch)
    assert dg.block_psd_test(full[:3, :3], full[:3, 3:], full[3:, 3:])
    # the Hermitian tests of A11, A22 and the Schur complement and the range
    # test are settled by Frobenius bounds, with no SVD; A11's range and
    # pseudoinverse read its one eigh, whose values its PSD test reuses, and
    # the Schur complement's PSD test reads one values-only eigvalsh
    assert Counter(name for name, _, _ in log) == Counter(eigh=1, eigvalsh=1)


def test_block_psd_judges_the_schur_complement_at_the_scale_of_a22():
    # a rank-2 PSD matrix split after its rank: the Schur complement is zero up
    # to roundoff, which fails the PSD test at its own scale but not at A22's
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = complex_gaussian(rng, 4, 2)
        full = g @ g.conj().T
        a11, a12, a22 = full[:2, :2], full[:2, 2:], full[2:, 2:]
        schur = a22 - a12.conj().T @ np.linalg.pinv(a11) @ a12
        assert not mc.is_psd(schur)
        assert dg.block_psd_test(a11, a12, a22)


def test_block_psd_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        dg.block_psd_test(np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 1)), np.eye(1))


def test_block_psd_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dg.block_psd_test(np.eye(2), np.zeros((3, 1)), np.eye(1))


def test_positive_routes_agree_on_thousand_instances():
    # the least majorization scale of the n x n route is finite exactly when
    # CA* is PSD and the ranges of D and DP coincide; both routes computed on
    # every instance
    rng = np.random.default_rng(79)
    disagreements = 0
    for k in range(1000):
        if k % 4 == 3:
            # pattern with CA* PSD but the range equality broken
            n = int(rng.integers(3, 7))
            a = np.zeros((n, n), dtype=complex)
            c = np.zeros((n, n), dtype=complex)
            s1, s2 = rng.uniform(0.3, 2.0, size=2)
            a[0, 0], a[1, 1] = s1, s2
            c[0, 0], c[1, 2] = s1, s2
            u, _ = np.linalg.qr(complex_gaussian(rng, n, n))
            v, _ = np.linalg.qr(complex_gaussian(rng, n, n))
            a, c = u @ a @ v.conj().T, u @ c @ v.conj().T
        else:
            n = int(rng.integers(1, 7))
            flavor = ("general", "hermitian", "positive")[k % 3]
            a, c = consistent_pair(rng, n, flavor)
        f = dg.factorize(a, c)
        if (reference_range_equality(f)[2] is not None) != (f.ca_psd and f.dp_range_eq):
            disagreements += 1
    assert disagreements == 0


# ---------------------------------------------------------------------------
# range equality in row-space coordinates: D = B M and DP = B K B*, so one
# truncated SVD of the r x r compression K decides R(D) = R(DP) and gives (DP)^dagger


def _flavoured_pair(rng, n, rank, flavor):
    """A of the given rank with C = A X: X PSD, or a Hermitian-only pattern (n >= 3), or X general."""
    if flavor == "hermitian_only" and n >= 3:
        return built(oc._hermitian_but_never_positive, rng, n)
    a = rank_deficient(rng, n, n, rank)
    if flavor == "positive":
        return a, a @ random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
    if flavor == "hermitian_only":
        return a, a @ random_hermitian(rng, n)
    return a, a @ complex_gaussian(rng, n, n)


def test_row_space_route_matches_the_n_by_n_reference():
    rng = np.random.default_rng(113)
    flavors = ("positive", "hermitian_only", "general")
    positives = 0
    for k in range(360):
        n = int(rng.integers(1, 9))
        a, c = _flavoured_pair(rng, n, int(rng.integers(0, n + 1)), flavors[k % 3])
        s = (1e-6, 1.0, 1e6)[(k // 3) % 3]
        f = dg.factorize(s * a, s * c)
        equal, lam, t_min = reference_range_equality(f)
        assert f.dp_range_eq is equal, k
        if not f.range_ok:
            expected = dg.Verdict.UNSOLVABLE
        elif f.ca_psd and equal:
            expected = dg.Verdict.POSITIVE
        else:
            expected = dg.Verdict.HERMITIAN if f.ca_hermitian else dg.Verdict.GENERAL
        assert f.verdict is expected, k
        if expected is dg.Verdict.POSITIVE:
            # the reference reads the equilibrated pair; lambda and t_min are at the input's scale
            lam, t_min = 2.0**f.x_exp * lam, 2.0**f.x_exp * t_min
            assert abs(f.lambda_estimate - lam) <= f.tol.residual_bound(lam), k
            assert abs(f.t_min - t_min) <= f.tol.residual_bound(t_min), k
            positives += 1
        else:
            assert f.t_min is None, k
    assert positives > 60


def test_range_equality_reads_one_svd_of_the_compression(monkeypatch):
    # n = 12, rank 5: the one SVD the range test takes is of the 5 x 5 K
    rng = np.random.default_rng(127)
    a = rank_deficient(rng, 12, 12, 5)
    f = dg.factorize(a, a @ random_psd(rng, 12))
    log = count_lapack(monkeypatch)
    assert f.dp_range_eq
    assert [(name, args[0].shape) for name, args, _ in log] == [("svd", (5, 5))]
    # A of rank 0 leaves K empty: neither the test nor t_min and lambda take a call
    f = dg.factorize(np.zeros((3, 3)), np.zeros((3, 3)))
    log.clear()
    assert f.dp_range_eq and f._k_svd[1].size == 0
    assert f.verdict is dg.Verdict.POSITIVE
    assert f.lambda_estimate == 0.0 and f.t_min == 0.0
    assert log == []


def test_range_equality_counts_a_roundoff_compression_as_rank_zero():
    # DP is exactly zero while D is not: K is the roundoff of a rotation, far
    # below the rank cut of ||M||, so DP has rank 0 and the ranges differ
    a0, x = CANCELLING
    for k, (a, c) in enumerate(_rotated_pairs(a0.astype(complex), x, 20, seed=131)):
        f = dg.factorize(a, c)
        assert not f.dp_range_eq, k
        assert f.range_equality["rank_dp"] == 0 and f.range_equality["rank_d"] == 1, k


# A = diag(1, 1, 0) and C = E11 + eps E23: D = C and DP = E11, so D has rank 2
# and DP rank 1 at every eps above the rank cut, while D lies within eps of
# the range of DP
RISK_EPS = 1e-9  # above the rank cut 1e-10, under the residual bound 1e-8


def risk_pair():
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0], c[1, 2] = 1.0, RISK_EPS
    return np.diag([1.0, 1.0, 0.0]).astype(complex), c


def test_range_equality_within_the_residual_bound_needs_equal_ranks():
    f = dg.factorize(*risk_pair())
    assert f.range_equality["rank_d"] == 2 and f.range_equality["rank_dp"] == 1
    assert f.range_equality["d_outside_range_dp"] == pytest.approx(RISK_EPS, rel=1e-12)
    # the inclusion alone holds within its bound, but the ranks differ: X0 would
    # have the eigenvalue -eps, below the floor -1e-10, so the pair is not POSITIVE
    assert mc._within_residual_bound(f._outside_range_dp(), f.m, f.tol)
    assert f.verdict is dg.Verdict.HERMITIAN and not f.dp_range_eq
    # t_min is read where the range equality holds, so it is None here; the
    # n x n route's leak test sees the eps direction only squared in C C*
    # (1e-18), below its residual bound, and calls it finite
    assert f.t_min is None and reference_range_equality(f)[2] == 1.0
    certificate = dg.solvability_report(f)["certificate"]
    assert certificate["failed_conditions"] == ["dp_range_eq"]
    assert certificate["rank_d"] == 2 and certificate["rank_dp"] == 1
    with pytest.raises(NotSolvablePositive) as info:
        dg.positive_solution(f, np.zeros((3, 3)))
    assert info.value.certificate["failed_conditions"] == ["dp_range_eq"]
    assert not mc.is_psd(f.x0, f.tol)


def test_rank_of_d_takes_an_svd_of_m_only_below_full_rank_k(monkeypatch):
    rng = np.random.default_rng(139)
    a = rank_deficient(rng, 6, 6, 4)
    log = count_lapack(monkeypatch)
    # K = B* X B of a positive definite X has rank r = 4, so M does too
    f = dg.factorize(a, a @ random_psd(rng, 6, rank=6))
    log.clear()
    assert f.dp_range_eq and f.rank_d == 4
    assert [args[0].shape for name, args, _ in log if name == "svd"] == [(4, 4)]
    # the risk pair's K has rank 1 < r = 2: one values-only SVD of the 2 x 3 M
    f = dg.factorize(*risk_pair())
    log.clear()
    assert not f.dp_range_eq
    assert [args[0].shape for name, args, _ in log if name == "svd"] == [(2, 2), (2, 3)]


# ---------------------------------------------------------------------------
# criterion transfer checks (reduced solution compression vs C A*)


def test_dp_ca_transfer_random():
    rng = np.random.default_rng(73)
    tol = mc.DEFAULT_TOLERANCES
    for _ in range(200):
        n = int(rng.integers(1, 7))
        flavor = ("general", "hermitian", "positive")[int(rng.integers(3))]
        a, c = consistent_pair(rng, n, flavor)
        f = dg.factorize(a, c)
        dp = dg.reduced_solution(f) @ mc.row_space_projector(a)
        # DP at its own scale, C A* at the scale its criteria are decided at
        assert mc.HermitianSpectrum(dp, tol).is_hermitian == f.ca_hermitian
        assert mc.is_psd(dp, tol) == f.ca_psd


# ---------------------------------------------------------------------------
# metamorphic laws: Douglas's criteria are homogeneous and basis-free, so the
# verdict must not change when (A, C) is scaled or rotated


def _repro_pairs():
    """The 300 pairs ``oracle._consistent_pair`` draws from seeds 0-299, flavors cycled."""
    flavors = ("general", "hermitian", "positive")
    spec = oc.TrialSpec(dim_max=6)
    return [
        oracle_pair(np.random.default_rng(seed), spec, flavors[seed % 3]) for seed in range(300)
    ]


@pytest.fixture(scope="module")
def repro_factorizations():
    return [(a, c, dg.factorize(a, c)) for a, c in _repro_pairs()]


METAMORPHIC_SCALES = (1e-6, 1e-3, 1e3, 1e6)


def _relatively_close(x, y, scale=0.0):
    """Both None, or both numbers within ``1e-6`` of the larger of them and ``scale``."""
    if x is None or y is None:
        return x is y
    return abs(x - y) <= 1e-6 * max(abs(x), abs(y), scale)


def test_verdicts_do_not_change_under_two_sided_scaling(repro_factorizations):
    changed, positives = [], 0
    for k, (a, c, base) in enumerate(repro_factorizations):
        for s in METAMORPHIC_SCALES:
            f = dg.factorize(s * a, s * c)
            if f.verdict is not base.verdict:
                changed.append((k, s, base.verdict.value, f.verdict.value))
                continue
            # C C* and C A* both scale by s^2, and D does not change; lambda, a
            # norm of D's size, can be roundoff of it when (I - P) D = 0
            assert _relatively_close(f.t_min, base.t_min), (k, s)
            d_norm = 2.0**f.x_exp * mc.spectral_norm(f.d)  # ||D|| at the input's scale
            assert _relatively_close(f.lambda_estimate, base.lambda_estimate, d_norm), (k, s)
            if f.verdict is dg.Verdict.POSITIVE:
                dg.positive_solution(f, np.zeros((a.shape[1], a.shape[1])))
                positives += 1
    assert changed == []
    assert positives > 0


@pytest.mark.parametrize("side", ["a", "c"])
def test_verdicts_do_not_change_under_one_sided_scaling(repro_factorizations, side):
    changed = []
    for k, (a, c, base) in enumerate(repro_factorizations):
        for s in METAMORPHIC_SCALES:
            scaled = (s * a, c) if side == "a" else (a, s * c)
            verdict = dg.factorize(*scaled).verdict
            if verdict is not base.verdict:
                changed.append((k, s, base.verdict.value, verdict.value))
    assert changed == []


def _random_unitary(rng, n):
    return np.linalg.qr(complex_gaussian(rng, n, n))[0]


def _rotated_pairs(a, x, count, seed):
    """``(A, A X)``, then ``count`` pairs ``(A', A' X')`` for ``A' = U A V*`` and ``X' = V X V*``.

    Each rotated C is formed from the rotated factors, so it carries the
    roundoff of ``V X V*`` and of the product, as a C computed in that basis would.
    """
    rng = np.random.default_rng(seed)
    yield a, a @ x
    for _ in range(count):
        u, v = _random_unitary(rng, a.shape[0]), _random_unitary(rng, a.shape[1])
        rotated = u @ a @ v.conj().T
        yield rotated, rotated @ (v @ x @ v.conj().T)


# A = diag(1, 0) and the Hermitian X = [[0, 1], [1, 0]]: P X P = 0, so
# C A* = A X A* is exactly zero, and roundoff of size eps ||C|| ||A|| once
# rotated.  D = P X is not zero while D P is, so the pair is HERMITIAN only.
CANCELLING = (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _ill_conditioned(eps):
    """``A = diag(1, eps)`` and the PSD ``X = [[eps^2, eps], [eps, 1]]``.

    ``||C A*||`` is about ``2 eps^2`` and ``||C|| ||A||`` about ``2 eps``: the
    roundoff that a rotation leaves in C reaches ``C A*`` at the larger scale.
    """
    return np.diag([1.0, eps]), np.array([[eps * eps, eps], [eps, 1.0]])


@pytest.mark.parametrize(
    "a, x, expected",
    [
        (*CANCELLING, dg.Verdict.HERMITIAN),
        (*_ill_conditioned(1e-4), dg.Verdict.POSITIVE),
        (*_ill_conditioned(1e-6), dg.Verdict.POSITIVE),
    ],
    ids=["c_a_star_cancels", "cond_1e4", "cond_1e6"],
)
def test_verdicts_hold_where_c_a_star_is_small_next_to_its_factors(a, x, expected):
    # C A* is judged at ||C|| ||A||, the size of the roundoff in C and in
    # forming C A*; judged at its own norm, these pairs turn GENERAL or
    # HERMITIAN once rotated
    changed = []
    for k, (a_k, c_k) in enumerate(_rotated_pairs(a.astype(complex), x, 20, seed=109)):
        for s in (1.0,) + METAMORPHIC_SCALES:
            f = dg.factorize(s * a_k, s * c_k)
            verdict = f.verdict
            if verdict is not expected:
                changed.append((k, s, verdict.value))
            elif verdict is dg.Verdict.POSITIVE:
                dg.positive_solution(f, np.zeros((2, 2)))
    assert changed == []


KAPPAS = (1e6, 1e7, 1e8, 1e9)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_range_test_holds_for_ill_conditioned_a(kappa):
    # A = U diag(1, 1/kappa) V* has full rank, so R(C) lies in R(A) for every C;
    # C = A V [[kappa^-2, kappa^-1], [kappa^-1, 1]] V* is A times a PSD X.  The
    # residual A D - C carries roundoff of about eps kappa ||C||, which a bound
    # of residual_atol ||C|| alone misses from 1e8 up
    rng = np.random.default_rng([137, KAPPAS.index(kappa)])
    core = np.array([[kappa**-2, 1.0 / kappa], [1.0 / kappa, 1.0]])
    verdicts = []
    for _ in range(40):
        u, v = _random_unitary(rng, 2), _random_unitary(rng, 2)
        a = u @ np.diag([1.0, 1.0 / kappa]) @ v.conj().T
        f = dg.factorize(a, a @ v @ core @ v.conj().T)
        verdicts.append(f.verdict)
        if f.range_ok:  # the general builder checks its X by the same rule
            dg.general_solution(f, np.zeros((2, 2)))
    assert dg.Verdict.UNSOLVABLE not in verdicts


@pytest.mark.parametrize("kappa", KAPPAS)
def test_c_a_star_tests_hold_for_ill_conditioned_a(kappa):
    # A = U diag(1, kappa^-1/2, 1/kappa, 0) V* and C = A X0 with X0 - I/2 PSD:
    # POSITIVE at every kappa.  C A* is decided on H = U_r* C A* U_r, formed
    # from C B: formed as S K S, it carries K's roundoff, about
    # eps ||A^dagger|| ||C||, times S on both sides, eps kappa ||A|| ||C||,
    # which passes the Hermitian test's residual_atol ||A|| ||C|| near kappa = 1e8
    rng = np.random.default_rng([139, KAPPAS.index(kappa)])
    verdicts = []
    for _ in range(40):
        u, v = _random_unitary(rng, 4), _random_unitary(rng, 4)
        a = (u[:, :3] * np.geomspace(1.0, 1.0 / kappa, 3)) @ v[:, :3].conj().T
        verdicts.append(dg.factorize(a, a @ (random_psd(rng, 4) + 0.5 * np.eye(4))).verdict)
    assert verdicts == [dg.Verdict.POSITIVE] * 40


@pytest.mark.parametrize("kappa", (1e4, 1e6, 1e8, 1e9))
def test_range_test_rejects_c_outside_the_range_of_ill_conditioned_a(kappa):
    # A = diag(1, 1/kappa, 0) and C = 10 e2 e1* + e3 e1*: D = 10 kappa e2 e1*, so
    # ||A|| ||D|| = 10 kappa, while C is 1 outside R(A); the roundoff the range
    # test allows, 16 n eps kappa ||C||, is 2e-4 at kappa = 1e9
    a = np.diag([1.0, 1.0 / kappa, 0.0]).astype(complex)
    c = np.zeros((3, 3), dtype=complex)
    c[1, 0], c[2, 0] = 10.0, 1.0
    f = dg.factorize(a, c)
    assert not f.range_ok
    assert f.verdict is dg.Verdict.UNSOLVABLE
    assert f.range_residual == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(NotSolvable):
        dg.general_solution(f, np.zeros((3, 3)))


def test_verdicts_do_not_change_under_unitary_congruence(repro_factorizations):
    rng = np.random.default_rng(101)
    changed = []
    for k, (a, c, base) in enumerate(repro_factorizations):
        u, v = _random_unitary(rng, a.shape[0]), _random_unitary(rng, a.shape[1])
        verdict = dg.factorize(u @ a @ v.conj().T, u @ c @ v.conj().T).verdict
        if verdict is not base.verdict:
            changed.append((k, base.verdict.value, verdict.value))
    assert changed == []
