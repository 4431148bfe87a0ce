import csv
import io
import math
from collections import Counter

import numpy as np
import pytest

from conftest import count_lapack, inv_sqrt_sum, sqrt_sum_closed_form
from opeq import matcore as mc
from opeq import projpair as pp
from opeq.errors import BadEpsilon, BadGridSize, MatrixFormatError, NotPSD

INV_ROOT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def grid():
    return pp.Grid(1000)


@pytest.fixture(scope="module")
def pair(grid):
    return pp.canonical_pair(grid)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_basic():
    g = pp.Grid(5)
    np.testing.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.n_points == 5


@pytest.mark.parametrize("n", [3, 5, 1000, 1001, 5000])
def test_grid_points_are_the_read_only_linspace(n):
    g = pp.Grid(n)
    assert g.points.tobytes() == np.linspace(0.0, 1.0, n).tobytes()
    assert not g.points.flags.writeable
    with pytest.raises(ValueError):
        g.points[1] = 0.5


@pytest.mark.parametrize("n", [0, 1, 2, -3, 2.5, 1000.0])
def test_grid_rejects(n):
    with pytest.raises(BadGridSize):
        pp.Grid(n)


def test_grid_rejects_a_point_array():
    # a grid is fixed by its node count; its points are never handed in
    with pytest.raises(BadGridSize):
        pp.Grid(np.array([0.0, 0.1, 1.0]))
    with pytest.raises(BadGridSize):
        pp.Grid(np.linspace(0.0, 1.0, 5))


def test_gridfunction_shape_checks():
    g = pp.Grid(4)
    with pytest.raises(MatrixFormatError):
        pp.GridFunction(g, np.zeros((3, 2, 2)))
    with pytest.raises(MatrixFormatError):
        pp.GridFunction(g, np.zeros((4, 2, 2)), first=1)
    with pytest.raises(MatrixFormatError):
        pp.GridFunction(g, np.zeros((5, 2, 2)), first=-1)


# ---------------------------------------------------------------------------
# canonical pair


def test_rotating_projection_endpoints():
    g = pp.Grid(1001)  # node 500 is t = 1/2 exactly
    _, q = pp.canonical_pair(g)
    np.testing.assert_allclose(q.values[0], np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(q.values[-1], np.diag([0.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(q.values[500], 0.5 * np.ones((2, 2)), atol=1e-15)


def test_pointwise_projection_law(pair):
    for f in pair:
        vals = f.values
        prod = np.einsum("kij,kjl->kil", vals, vals)
        assert np.max(np.abs(prod - vals)) < 1e-12
        assert np.max(np.abs(vals - np.conj(np.transpose(vals, (0, 2, 1))))) < 1e-12
        assert pp.algebra_membership(f)


# ---------------------------------------------------------------------------
# closed-form square root and inverse


def test_sqrt_sum_endpoints(grid):
    s = sqrt_sum_closed_form(grid.points)
    np.testing.assert_allclose(s[0], np.diag([math.sqrt(2.0), 0.0]), atol=1e-15)
    np.testing.assert_allclose(s[-1], np.eye(2), atol=1e-8)


def test_sqrt_sum_squares_to_sum(grid, pair):
    p, q = pair
    s = sqrt_sum_closed_form(grid.points)
    squared = np.einsum("kij,kjl->kil", s, s)
    assert np.max(np.abs(squared - (p.values + q.values))) < 1e-9


def test_sqrt_sum_matches_generic_root(grid, pair):
    p, q = pair
    s = sqrt_sum_closed_form(grid.points)
    worst = max(
        mc.spectral_norm(s[k] - mc.sqrt_psd(p.values[k] + q.values[k]))
        for k in range(grid.n_points)
    )
    assert worst < 1e-9


def test_determinant_identity(grid, pair):
    p, q = pair
    dets = np.linalg.det(p.values + q.values).real
    s = np.sin(0.5 * np.pi * grid.points)
    assert np.max(np.abs(dets - s * s)) < 1e-12


def test_inv_sqrt_sum_endpoint(grid):
    inv = inv_sqrt_sum(grid.points[1:])
    np.testing.assert_allclose(inv[-1], np.eye(2), atol=1e-8)


def test_inv_sqrt_sum_is_inverse(grid):
    s = sqrt_sum_closed_form(grid.points)
    inv = inv_sqrt_sum(grid.points[1:])
    prod = np.einsum("kij,kjl->kil", s[1:], inv)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-9


# ---------------------------------------------------------------------------
# the unique candidate solution and the nonexistence certificate


def test_pointwise_solution_at_one(grid):
    x = pp.pointwise_solution(grid)
    np.testing.assert_allclose(x.values[-1], np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-8)


def test_pointwise_solution_limits(grid):
    x = pp.pointwise_solution(grid)
    first = x.values[0]
    step = grid.points[1]
    assert abs(first[1, 0].real - (-INV_ROOT2)) < 2.0 * step
    assert abs(first[0, 0].real - INV_ROOT2) < 2.0 * step
    assert np.max(np.abs(x.values[:, :, 1])) == 0.0  # second column identically zero


def test_pointwise_solution_residual(grid, pair):
    p, q = pair
    x = pp.pointwise_solution(grid)
    assert pp.equation_residual_max(p, q, x) < 1e-9


def test_pointwise_solution_unique(grid, pair):
    # independent route: solve the 2x2 linear system at every positive node
    p, q = pair
    x = pp.pointwise_solution(grid)
    worst = 0.0
    for k in range(1, grid.n_points):
        root = mc.sqrt_psd(p.values[k] + q.values[k])
        other = np.linalg.solve(root, p.values[k])
        worst = max(worst, mc.spectral_norm(other - x.values[k - 1]))
    assert worst < 1e-8


def test_certificate_values(grid):
    cert = pp.nonexistence_certificate(grid)
    assert cert.boundary_value == 0.0
    assert cert.grid_resolution == 1000
    assert 0.705 <= cert.gap <= 0.7072
    assert cert.interior_limit == pytest.approx(-INV_ROOT2, abs=5e-3)


def test_certificate_gap_is_read_from_its_values():
    cert = pp.nonexistence_certificate(pp.Grid(1000))
    assert cert.gap == abs(cert.interior_limit - cert.boundary_value)
    assert cert.to_json() == {
        "boundary_value": 0.0,
        "interior_limit": cert.interior_limit,
        "gap": cert.gap,
        "grid_resolution": 1000,
    }
    with pytest.raises(TypeError):
        pp.NonexistenceCertificate(
            boundary_value=0.0, interior_limit=-0.7, gap=0.7, grid_resolution=1000
        )


def test_certificate_coarse():
    cert = pp.nonexistence_certificate(pp.Grid(100))
    assert cert.gap >= 0.69


def test_certificate_gap_monotone():
    gaps = [pp.nonexistence_certificate(pp.Grid(n)).gap for n in (100, 200, 500, 1000)]
    assert all(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_certificate_needs_resolution():
    with pytest.raises(BadGridSize):
        pp.nonexistence_certificate(pp.Grid(50))


def test_near_solution_fails_membership(grid):
    # extend the candidate to t = 0 by its interior limit: the boundary value
    # is then off-diagonal and membership must fail
    x = pp.pointwise_solution(grid)
    limit = np.array([[INV_ROOT2, 0.0], [-INV_ROOT2, 0.0]], dtype=complex)
    extended = pp.GridFunction(grid, np.concatenate([limit[None], x.values]))
    assert not pp.algebra_membership(extended)


def test_membership_needs_a_value_at_zero(grid):
    # the table of a first=1 function starts at t_1; with a diagonal value
    # there and at t = 1 it is still not a member, as nothing is given at t = 0
    x = pp.pointwise_solution(grid)
    assert x.first == 1
    diagonal = np.broadcast_to(np.eye(2, dtype=complex), x.values.shape)
    assert not pp.algebra_membership(pp.GridFunction(grid, diagonal, first=1))
    assert pp.algebra_membership(pp.GridFunction(grid, np.concatenate([diagonal[:1], diagonal])))


# ---------------------------------------------------------------------------
# the perturbation that restores solvability


def test_snap_eps(grid):
    assert pp.snap_eps(grid, 0.1) == pytest.approx(100.0 / 999.0)
    assert 0.0 < pp.snap_eps(grid, 0.9999) < 1.0
    assert 0.0 < pp.snap_eps(grid, 1e-9) < 1.0
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(BadEpsilon):
            pp.snap_eps(grid, bad)


def test_perturbed_projection_frozen_left(grid):
    eps_hat, qp, _ = pp.perturbation(grid, 0.1)
    assert eps_hat == pp.snap_eps(grid, 0.1)
    for k, t in enumerate(grid.points):
        if t > eps_hat:
            break
        np.testing.assert_allclose(qp.values[k], np.diag([1.0, 0.0]), atol=1e-15)


def test_perturbed_projection_is_projection(grid):
    _, qp, _ = pp.perturbation(grid, 0.1)
    prod = np.einsum("kij,kjl->kil", qp.values, qp.values)
    assert np.max(np.abs(prod - qp.values)) < 1e-12
    assert pp.algebra_membership(qp)


def test_perturbation_distance(grid, pair):
    _, q = pair
    _, qp, _ = pp.perturbation(grid, 0.1)
    dist = pp.sup_distance(q, qp)
    assert dist == pytest.approx(math.sin(0.05 * math.pi), abs=0.01)
    assert dist <= math.sin(0.05 * math.pi) + 2.0 * grid.points[1]


def test_perturbation_distance_decreases(grid, pair):
    _, q = pair
    dists = [pp.sup_distance(q, pp.perturbation(grid, e)[1]) for e in (0.2, 0.1, 0.05)]
    assert dists[0] > dists[1] > dists[2]


def test_perturbed_solution_boundary(grid):
    _, _, x = pp.perturbation(grid, 0.1)
    np.testing.assert_allclose(x.values[0], np.diag([INV_ROOT2, 0.0]), atol=1e-15)
    assert pp.algebra_membership(x)


def test_perturbed_solution_continuous_at_eps(grid):
    eps_hat, _, x = pp.perturbation(grid, 0.1)
    k = int(round(eps_hat * (grid.n_points - 1)))
    assert x.values[k][1, 0].real == pytest.approx(-INV_ROOT2, abs=1e-12)
    # adjacent nodes on both sides stay within a spacing-scaled jump bound
    for j in (k - 1, k + 1):
        assert mc.spectral_norm(x.values[j] - x.values[k]) < 10.0 * grid.points[1]


def test_perturbed_solution_residual(grid, pair):
    p, _ = pair
    for eps in (0.2, 0.1, 0.05, 0.9999):
        _, qp, x = pp.perturbation(grid, eps)
        assert pp.equation_residual_max(p, qp, x) < 1e-8
        assert pp.algebra_membership(x)


# ---------------------------------------------------------------------------
# blocked residual check

BLOCK = pp._BLOCK_NODES


def residual_per_node(p, q, x):
    """The residual check with every node's root from eigh and its norm from zgesdd."""
    nodes = slice(x.first, None)
    w, v = np.linalg.eigh(p.values[nodes] + q.values[nodes])
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2)
    return float(np.max(mc.spectral_norms(roots @ x.values - p.values[nodes])))


@pytest.fixture(scope="module")
def blocked_grid():
    # neither N nor N - 1 is a multiple of the block size: the last block is partial
    return pp.Grid(2 * BLOCK + 37)


def test_residual_matches_per_node_reference(blocked_grid):
    assert_residual_matches_per_node(blocked_grid)


def test_residual_matches_per_node_reference_at_100000_nodes():
    assert_residual_matches_per_node(pp.Grid(100_000))


def assert_residual_matches_per_node(grid):
    p, q = pp.canonical_pair(grid)
    _, qp, x = pp.perturbation(grid, 0.1)
    assert abs(pp.equation_residual_max(p, qp, x) - residual_per_node(p, qp, x)) <= 1e-15
    xs = pp.pointwise_solution(grid)
    assert abs(pp.equation_residual_max(p, q, xs) - residual_per_node(p, q, xs)) <= 1e-15


def _spoiled_q(grid, node, value):
    _, q = pp.canonical_pair(grid)
    vals = q.values.copy()
    vals[node] = value
    return pp.GridFunction(grid, vals)


@pytest.mark.parametrize(
    "value, key",
    [
        # P + Q = [[1, 1], [0, 0]] at the spoiled node
        (np.array([[0, 1], [0, 0]]), "hermitian_deviation"),
        # P + Q = diag(-1, 0)
        (np.diag([-2.0, 0.0]), "min_eigenvalue"),
    ],
)
def test_checks_survive_batching(blocked_grid, value, key):
    node = BLOCK + 5  # inside the second block
    p, _ = pp.canonical_pair(blocked_grid)
    q_bad = _spoiled_q(blocked_grid, node, value)
    with pytest.raises(NotPSD) as stacked:
        mc.sqrt_psd(p.values + q_bad.values)
    assert stacked.value.certificate["index"] == node
    assert key in stacked.value.certificate
    for x in (pp.perturbation(blocked_grid, 0.1)[2], pp.pointwise_solution(blocked_grid)):
        with pytest.raises(NotPSD) as residual:
            pp.equation_residual_max(p, q_bad, x)
        assert residual.value.certificate["index"] == node
        assert key in residual.value.certificate


def test_not_psd_message_prints_the_node_as_a_float():
    grid = pp.Grid(1000)
    p, _ = pp.canonical_pair(grid)
    # P + Q = diag(1, -1) at node 700, in the second block
    q_bad = _spoiled_q(grid, 700, np.diag([0.0, -1.0]))
    with pytest.raises(NotPSD) as residual:
        pp.equation_residual_max(p, q_bad, pp.perturbation(grid, 0.1)[2])
    assert str(residual.value) == "P + Q is not PSD at grid node 700 (t = 0.7007007007007007)"
    assert residual.value.certificate == {"min_eigenvalue": -1.0, "floor": -1e-10, "index": 700}


def svd_matrices(log):
    """The number of matrices each logged ``svd`` call was handed."""
    return [len(args[0]) for name, args, _ in log if name == "svd"]


@pytest.mark.parametrize("n", [1000, 4000])
def test_residual_lapack_calls_scale_with_blocks(monkeypatch, n):
    log = count_lapack(monkeypatch)
    grid = pp.Grid(n)
    p, _ = pp.canonical_pair(grid)
    pp.equation_residual_max(p, *pp.perturbation(grid, 0.1)[1:])
    calls = Counter(name for name, _, _ in log)
    # the 2x2 roots are taken in closed form
    assert calls["eigh"] == 0
    # P + Q' is exactly Hermitian, so every node passes the Hermitian screen;
    # of the residuals, only the largest, just right of eps, where P + Q' is
    # nearly singular, can reach the max under the closed-form 2x2 bounds
    assert svd_matrices(log) == [1]


@pytest.mark.parametrize("n, matrices", [(1000, [1]), (4000, [1])])
def test_sup_distance_lapack_calls(monkeypatch, n, matrices):
    grid = pp.Grid(n)
    _, q = pp.canonical_pair(grid)
    _, qp, _ = pp.perturbation(grid, 0.1)
    log = count_lapack(monkeypatch)
    distance = pp.sup_distance(q, qp)
    # ||Q - Q'|| peaks at eps, in the first block; its two singular values are
    # equal, so its Frobenius norm is sqrt(2) times its 2-norm, but the
    # closed-form 2x2 bounds are within the slack of it, and no other node
    # can reach the peak
    assert [name for name, _, _ in log] == ["svd"] * len(matrices)
    assert svd_matrices(log) == matrices
    assert distance == float(np.max(mc.spectral_norms(q.values - qp.values)))


def test_sup_distance_rejects_functions_starting_at_different_nodes():
    grid = pp.Grid(600)
    p, _ = pp.canonical_pair(grid)
    x = pp.pointwise_solution(grid)
    with pytest.raises(MatrixFormatError, match="start at nodes 0 and 1"):
        pp.sup_distance(p, x)
    assert pp.sup_distance(x, x) == 0.0
    shifted = pp.GridFunction(grid, x.values + np.eye(2), first=1)
    assert pp.sup_distance(x, shifted) == pytest.approx(1.0)


def test_csv_export(grid):
    x = pp.pointwise_solution(grid)
    buf = io.StringIO()
    pp.write_csv(x, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,re11,im11,re12,im12,re21,im21,re22,im22"
    assert len(lines) == grid.n_points  # header + one row per positive node
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(1.0, abs=1e-8)  # x11(1) = 1
    assert float(last[5]) == pytest.approx(0.0, abs=1e-8)  # x21(1) = 0


def csv_per_entry(f):
    """The CSV as written one ``repr(float(...))`` entry at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(pp.CSV_HEADER)
    for t, value in zip(f.points, f.values):
        row = [repr(float(t))]
        for i in (0, 1):
            for j in (0, 1):
                row.append(repr(float(value[i, j].real)))
                row.append(repr(float(value[i, j].imag)))
        writer.writerow(row)
    return buf.getvalue()


def test_csv_bytes_match_per_entry_format():
    grid = pp.Grid(BLOCK + 45)  # the rows cross a block boundary
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((grid.n_points, 2, 2)) + 1j * rng.standard_normal((grid.n_points, 2, 2))
    vals[0] = [[-0.0, 1e-300], [-1e-300j, complex(-0.0, -0.0)]]
    vals[BLOCK] = [[5e-324, -5e-324j], [1e300 + 1e-300j, 0.1 + 0.2j]]
    # a constant column, and one whose values all compare equal to 0.0 but one
    # is -0.0: a constant column must be told by the bits of its values
    constant = vals.copy()
    constant[:, 0, 0] = 0.1
    constant[:, 0, 1] = 0.0
    constant[BLOCK + 7, 0, 1] = -0.0
    written = {}
    for f in (
        pp.GridFunction(grid, vals),
        pp.GridFunction(grid, constant),
        pp.pointwise_solution(grid),
        *pp.perturbation(grid, 0.1)[1:],
        *pp.canonical_pair(grid),
    ):
        buf = io.StringIO()
        pp.write_csv(f, buf)
        assert buf.getvalue() == csv_per_entry(f)
        written.setdefault(type(f), buf.getvalue().splitlines())
    assert written[pp.GridFunction][1] == "0.0,-0.0,0.0,1e-300,0.0,-0.0,-1e-300,-0.0,-0.0"
    assert written[pp.GridFunction][BLOCK + 1].split(",")[1:5] == ["5e-324", "0.0", "-0.0", "-5e-324"]
