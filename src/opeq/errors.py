"""Exception types shared across the package.

Every typed failure carries an optional ``certificate`` dict with the
numbers that justify the verdict (residual norms, offending eigenvalues,
ranks), so negative answers stay auditable all the way up to the CLI.
"""

from __future__ import annotations


class OpeqError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = dict(certificate) if certificate else {}


class MatrixFormatError(OpeqError):
    """Input is not a valid finite complex matrix (parse or shape problem)."""


class ShapeMismatch(OpeqError):
    """Operands have incompatible dimensions."""


class NotHermitian(OpeqError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(OpeqError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotSolvable(OpeqError):
    """AX = C has no solution: the range inclusion test failed."""


class NotASolution(OpeqError):
    """The supplied X does not satisfy AX = C within tolerance."""


class NotSolvableHermitian(OpeqError):
    """AX = C has no Hermitian solution."""


class ParameterNotHermitian(OpeqError):
    """The free parameter of a Hermitian family must itself be Hermitian."""


class NotSolvablePositive(OpeqError):
    """AX = C has no positive semidefinite solution."""


class ParameterNotPSD(OpeqError):
    """The free parameter of a positive family must be positive semidefinite."""


class PreconditionFailed(OpeqError):
    """An operation was called outside its stated domain."""


class BadGridSize(OpeqError):
    """Grid resolution outside the supported range."""


class BadEpsilon(OpeqError):
    """Perturbation size must lie strictly inside (0, 1)."""
