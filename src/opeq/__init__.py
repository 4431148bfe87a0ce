"""Solvability and solution families for the operator equation AX = C.

Four layers:

- :mod:`opeq.matcore` -- single-matrix primitives (truncated SVD, PSD square
  root, PSD test) and the matrix wire format, behind a single tolerance
  configuration;
- :mod:`opeq.douglas` -- the solvability criteria, the two least scales of
  ``C C* <= mu A A*`` and ``C C* <= t C A*``, and the general / Hermitian /
  positive solution families, all read from one
  :class:`~opeq.douglas.Factorization` per ``(A, C, tol)``, which keeps the
  one truncated SVD of A that D and the oracle's routes are read from;
- :mod:`opeq.projpair` -- a discretized algebra of 2x2 matrix functions on
  [0, 1] with diagonal boundary values, where ``(P + Q)^{1/2} X = P`` is
  provably unsolvable and an arbitrarily small perturbation of Q, built with
  its solution by :func:`~opeq.projpair.perturbation`, repairs it;
- :mod:`opeq.oracle` -- deliberately naive verifiers, the ``T_n`` scan that
  cross-checks the closed-form lambda, and the seeded randomized property
  suite.

The ``opeq`` console script exposes all of it; see ``opeq --help``.
"""

from .errors import (
    BadEpsilon,
    BadGridSize,
    MatrixFormatError,
    NotASolution,
    NotHermitian,
    NotPSD,
    NotSolvable,
    NotSolvableHermitian,
    NotSolvablePositive,
    OpeqError,
    ParameterNotHermitian,
    ParameterNotPSD,
    PreconditionFailed,
    ShapeMismatch,
)
from .matcore import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_matrix,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
    sqrt_psd,
)
from .douglas import (
    Factorization,
    Verdict,
    block_psd_test,
    factorize,
    general_solution,
    hermitian_solution,
    positive_solution,
    recover_parameter,
    reduced_solution,
    solvability_report,
)
from .projpair import (
    Grid,
    GridFunction,
    NonexistenceCertificate,
    algebra_membership,
    canonical_pair,
    nonexistence_certificate,
    perturbation,
    pointwise_solution,
)
from .oracle import (
    TrialSpec,
    lsq_solve,
    positive_search,
    property_suite,
)

__version__ = "0.1.0"
