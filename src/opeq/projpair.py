"""Two projections in an algebra of 2x2 matrix functions on [0, 1].

The model: continuous functions from [0, 1] into 2x2 complex matrices whose
values at both endpoints are diagonal, discretized on the uniform grid
``Grid(n)`` of [0, 1], which its node count n alone fixes.  The canonical
pair of pointwise projections is

    P(t) = [[1, 0], [0, 0]],    Q(t) = [[c^2, s c], [s c, s^2]],

with ``c = cos(pi t / 2)`` and ``s = sin(pi t / 2)``.  ``P + Q`` is
invertible for t > 0 (its determinant is ``s^2``) but singular at t = 0, and
the unique candidate solution of ``(P + Q)^{1/2} X = P`` on (0, 1] has

    x21(t) = (-sqrt(1 + c) + sqrt(1 - c)) / 2  ->  -1/sqrt(2)   as t -> 0,

while membership in the diagonal-boundary algebra forces ``x21(0) = 0``.
That quantified clash is the :class:`NonexistenceCertificate`.  Replacing Q
by the perturbation that freezes it at its t = 0 value on ``[0, eps]`` and
reparametrizes the rest restores solvability with an explicit solution,
continuous across ``t = eps``; the perturbation distance is
``sin(pi*eps/2)``, so it can be made as small as desired.

Grid functions are value tables, one 2x2 matrix per node.  Quantities that
are singular at t = 0 are a :class:`GridFunction` with ``first=1``, whose
table starts at the first positive node.  Membership in the algebra
(diagonal endpoint values) is a checked predicate, never silently enforced:
the whole point of the nonexistence certificate is to exhibit the
near-solution that violates it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BadEpsilon, BadGridSize, MatrixFormatError, NotPSD
from .matcore import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _within_residual_bound,
    max_spectral_norm,
    sqrt_psd,
)

__all__ = [
    "Grid",
    "GridFunction",
    "NonexistenceCertificate",
    "canonical_pair",
    "pointwise_solution",
    "nonexistence_certificate",
    "snap_eps",
    "perturb_q",
    "perturbed_solution",
    "algebra_membership",
    "sup_distance",
    "equation_residual_max",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = ["t", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]

# nodes per block of sup_distance and equation_residual_max and per write in
# write_csv; blocks keep the temporaries small for any grid size.  The
# residual check is elementwise arithmetic with a fixed cost per numpy call, so
# larger blocks run it faster (at 10^5 nodes, 110 ms at 512 against 63 ms at
# 8192), but 8192 raised the peak RSS of perturb plus twoproj at 5000 nodes
# from 67 to 71 MB
_BLOCK_NODES = 512


@dataclass(frozen=True)
class Grid:
    """``Grid(n)``: the uniform grid 0 = t_0 < t_1 < ... < t_{n-1} = 1 of n >= 3 nodes.

    ``points`` is ``np.linspace(0.0, 1.0, n)``, read-only.  ``n`` may be any
    integer type (:func:`operator.index`); anything else raises
    :class:`BadGridSize`.
    """

    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            n = operator.index(self.n_points)
        except TypeError:  # not an integer
            n = 0
        if n < 3:
            raise BadGridSize(f"need an integer number of points >= 3, got {self.n_points!r}")
        pts = np.linspace(0.0, 1.0, n)
        pts.setflags(write=False)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class GridFunction:
    """A 2x2 matrix value at every node of a grid from index ``first`` on.

    ``values[k]`` belongs to ``grid.points[first + k]``; ``first=1`` leaves a
    function undefined at t = 0.
    """

    grid: Grid
    values: np.ndarray
    first: int = 0

    def __post_init__(self):
        if not 0 <= self.first < self.grid.n_points:
            raise MatrixFormatError(f"first must index a grid node, got {self.first!r}")
        vals = np.asarray(self.values, dtype=np.complex128)
        n_values = self.grid.n_points - self.first
        if vals.shape != (n_values, 2, 2):
            raise MatrixFormatError(f"values must have shape ({n_values}, 2, 2), got {vals.shape}")
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise MatrixFormatError("grid-function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def points(self) -> np.ndarray:
        return self.grid.points[self.first :]


@dataclass(frozen=True)
class NonexistenceCertificate:
    """Quantified obstruction to solving ``(P + Q)^{1/2} X = P`` in the algebra.

    The boundary constraint pins ``x21(0)`` to ``boundary_value`` (zero, by
    diagonality), while the unique candidate solution approaches
    ``interior_limit`` at the smallest positive node.  A positive :attr:`gap`
    certifies unsolvability at this resolution.
    """

    boundary_value: float
    interior_limit: float
    grid_resolution: int

    @property
    def gap(self) -> float:
        """``|interior_limit - boundary_value|``."""
        return abs(self.interior_limit - self.boundary_value)

    def to_json(self) -> dict:
        return {**asdict(self), "gap": self.gap}


def _cos_sin(points: np.ndarray):
    half_pi = 0.5 * np.pi
    return np.cos(half_pi * points), np.sin(half_pi * points)


def _rotating_projection(grid: Grid, u: np.ndarray) -> GridFunction:
    """``[[c^2, s c], [s c, s^2]]`` with ``c, s`` the cosine and sine of ``pi u / 2``."""
    c, s = _cos_sin(u)
    vals = np.empty((grid.n_points, 2, 2), dtype=np.complex128)
    vals[:, 0, 0] = c * c
    vals[:, 0, 1] = s * c
    vals[:, 1, 0] = s * c
    vals[:, 1, 1] = s * s
    return GridFunction(grid, vals)


def canonical_pair(grid: Grid) -> tuple[GridFunction, GridFunction]:
    """The constant projection P and the rotating projection Q."""
    p_vals = np.zeros((grid.n_points, 2, 2), dtype=np.complex128)
    p_vals[:, 0, 0] = 1.0
    return GridFunction(grid, p_vals), _rotating_projection(grid, grid.points)


def _solution_columns(points: np.ndarray):
    c, _ = _cos_sin(points)
    root_plus = np.sqrt(1.0 + c)
    root_minus = np.sqrt(1.0 - c)
    return 0.5 * (root_plus + root_minus), 0.5 * (-root_plus + root_minus)


def pointwise_solution(grid: Grid) -> GridFunction:
    """The unique X(t) with ``(P + Q)^{1/2} X = P`` at each positive node.

    Equals ``(P + Q)^{-1/2} P``: first column ``(x11, x21)``, second column
    zero.  ``x11 -> 1/sqrt(2)`` and ``x21 -> -1/sqrt(2)`` as t -> 0.  X is
    singular at t = 0, so the result has ``first=1``.
    """
    pts = grid.points[1:]
    x11, x21 = _solution_columns(pts)
    vals = np.zeros((pts.size, 2, 2), dtype=np.complex128)
    vals[:, 0, 0] = x11
    vals[:, 1, 0] = x21
    return GridFunction(grid, vals, first=1)


def nonexistence_certificate(grid: Grid) -> NonexistenceCertificate:
    """Certify that ``(P + Q)^{1/2} X = P`` has no solution in the algebra.

    Reads the candidate solution's lower-left entry at the smallest positive
    node instead of extrapolating; needs at least 100 nodes so the reading is
    close to the interior limit.
    """
    if grid.n_points < 100:
        raise BadGridSize(
            f"certificate needs a grid of at least 100 points, got {grid.n_points}"
        )
    _, x21 = _solution_columns(grid.points[1:2])
    return NonexistenceCertificate(
        boundary_value=0.0, interior_limit=float(x21[0]), grid_resolution=grid.n_points
    )


def snap_eps(grid: Grid, eps: float) -> float:
    """Snap eps to the nearest interior grid node.

    Raises :class:`BadEpsilon` unless eps is a real number (any
    :class:`numbers.Real`) with ``0 < eps < 1``; the snapped value is always
    strictly inside (0, 1) as well.
    """
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and 0.0 < eps < 1.0):
        raise BadEpsilon(f"eps must lie strictly inside (0, 1), got {eps!r}")
    idx = int(round(float(eps) * (grid.n_points - 1)))
    idx = min(max(idx, 1), grid.n_points - 2)
    return float(grid.points[idx])


def perturb_q(grid: Grid, eps: float) -> GridFunction:
    """Projection Q' at distance about ``sin(pi*eps/2)`` from Q.

    Q' freezes Q at its t = 0 value on ``[0, eps]`` and traverses the
    original path on ``[eps, 1]`` (linearly reparametrized), so it is again
    a pointwise projection with diagonal endpoint values.  ``eps`` snaps to
    the nearest interior node, keeping the piecewise definition exact on
    grid nodes.
    """
    eps_hat = snap_eps(grid, eps)
    pts = grid.points
    u = np.where(pts >= eps_hat, (pts - eps_hat) / (1.0 - eps_hat), 0.0)
    return _rotating_projection(grid, u)


def perturbed_solution(grid: Grid, eps: float) -> GridFunction:
    """Solution X of ``(P + Q')^{1/2} X = P`` that belongs to the algebra.

    On ``[0, eps]`` the equation only constrains the first row, so the free
    lower-left entry is ramped linearly from 0 to ``-1/sqrt(2)``, where it
    meets the unique solution of the reparametrized equation on ``[eps, 1]``
    continuously.  The result has diagonal values at both endpoints.
    """
    eps_hat = snap_eps(grid, eps)
    pts = grid.points
    n = grid.n_points
    inv_root2 = 1.0 / math.sqrt(2.0)
    vals = np.zeros((n, 2, 2), dtype=np.complex128)
    left = pts < eps_hat
    vals[left, 0, 0] = inv_root2
    vals[left, 1, 0] = -pts[left] / (eps_hat * math.sqrt(2.0))
    right = ~left
    u = (pts[right] - eps_hat) / (1.0 - eps_hat)
    x11, x21 = _solution_columns(u)
    vals[right, 0, 0] = x11
    vals[right, 1, 0] = x21
    return GridFunction(grid, vals)


def algebra_membership(f: GridFunction, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff the values at t = 0 and t = 1 are diagonal within tolerance.

    A value is diagonal when its off-diagonal part is within the residual
    bound of the value's norm.  A function with ``first > 0`` has no value at
    t = 0, so it is not a member.
    """
    if f.first:
        return False
    ends = (f.values[0], f.values[-1])
    return all(_within_residual_bound(v - np.diag(np.diag(v)), v, tol) for v in ends)


def sup_distance(f: GridFunction, g: GridFunction) -> float:
    """Max over nodes of the operator-norm distance between values.

    Both functions must start at the same node, else
    :class:`~opeq.errors.MatrixFormatError`.  The nodes are processed in
    blocks of ``_BLOCK_NODES``, each one
    :func:`opeq.matcore.max_spectral_norm` call with the running max as its
    floor, so only nodes whose distance can still raise the max reach zgesdd
    and the temporaries stay the size of one block.
    """
    if f.grid.n_points != g.grid.n_points:
        raise MatrixFormatError("grid functions live on different grids")
    if f.first != g.first:
        raise MatrixFormatError(f"grid functions start at nodes {f.first} and {g.first}")
    worst = 0.0
    for lo in range(0, f.values.shape[0], _BLOCK_NODES):
        nodes = slice(lo, lo + _BLOCK_NODES)
        worst = max_spectral_norm(f.values[nodes] - g.values[nodes], worst)
    return worst


def equation_residual_max(
    p: GridFunction,
    q: GridFunction,
    x: GridFunction,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Max over nodes of ``||(P + Q)^{1/2} X - P||``.

    The square root is recomputed numerically from ``P + Q``
    (:func:`opeq.matcore.sqrt_psd`, with its Hermitian and eigenvalue
    checks, in its closed form for 2x2 matrices), never taken from the
    closed forms used to build candidate solutions, so the check stays
    independent of them.  The nodes are processed in blocks of
    ``_BLOCK_NODES``: one stacked ``sqrt_psd`` call, the products ``root X``
    entry by entry over the block, and one
    :func:`opeq.matcore.max_spectral_norm` call, with the running max as its
    floor, per block, so no LAPACK call is made per node while the
    temporaries stay the size of one block.  Nodes before ``x.first`` are
    skipped.  A node where ``P + Q`` is not PSD raises
    :class:`NotPSD` whose certificate ``index`` is that node's grid index.
    """
    worst = 0.0
    for lo in range(0, x.values.shape[0], _BLOCK_NODES):
        nodes = slice(lo + x.first, lo + x.first + _BLOCK_NODES)
        p_vals = p.values[nodes]
        try:
            root = sqrt_psd(p_vals + q.values[nodes], tol)
        except NotPSD as exc:
            node = nodes.start + exc.certificate["index"]
            raise NotPSD(
                f"P + Q is not PSD at grid node {node} (t = {float(p.grid.points[node])!r})",
                certificate={**exc.certificate, "index": node},
            ) from exc
        x_rows = x.values[lo : lo + _BLOCK_NODES, np.newaxis]
        # (root X)_ij = root_i0 X_0j + root_i1 X_1j, without a zgemm per node
        product = root[:, :, :1] * x_rows[:, :, 0] + root[:, :, 1:] * x_rows[:, :, 1]
        worst = max_spectral_norm(product - p_vals, worst)
    return worst


def write_csv(f, stream) -> None:
    """Write node-by-node entries as CSV: t, then re/im of all four entries.

    Each block of ``_BLOCK_NODES`` nodes is a float table with one row per
    CSV column, formatted a column at a time with ``float.__repr__``, so every
    value is written exactly; a column whose values all have the same bits
    (signed zeros told apart) is formatted once.  Lines end in ``\\r\\n``, as
    the csv module ends them, and each block is one write.
    """
    stream.write(",".join(CSV_HEADER) + "\r\n")
    points = f.points
    for lo in range(0, points.size, _BLOCK_NODES):
        values = f.values[lo : lo + _BLOCK_NODES].reshape(-1, 4)
        table = np.empty((len(CSV_HEADER), values.shape[0]))
        table[0] = points[lo : lo + _BLOCK_NODES]
        table[1::2] = values.real.T
        table[2::2] = values.imag.T
        columns = [_column_reprs(column) for column in table]
        stream.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _column_reprs(column):
    """``float.__repr__`` of each value of a 1-D float64 array, in order."""
    bits = column.view(np.uint64)
    if np.all(bits == bits[0]):
        return [float.__repr__(float(column[0]))] * column.size
    return map(float.__repr__, column.tolist())
