"""Error types raised by qcorr.

Everything derives from QcorrError (itself a ValueError) so callers can
catch the whole family with one except clause.
"""


class QcorrError(ValueError):
    """Base class for all qcorr validation and consistency errors."""


class NotHermitianError(QcorrError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(QcorrError):
    """Hermitian matrix has an eigenvalue below the negativity tolerance."""


class NoConvergenceError(QcorrError):
    """An iterative solver stopped before its convergence test passed."""


class DimMismatchError(QcorrError):
    """Operands have incompatible dimensions."""


class BadSubsystemError(QcorrError):
    """Subsystem index set is empty, out of range, or not a proper subset."""


class BadPermutationError(QcorrError):
    """Indices do not form a permutation of the subsystems."""


class InvalidPovmError(QcorrError):
    """Effects are not PSD or do not sum to the identity."""


class StateAnnihilatedError(QcorrError):
    """A filter mapped the state to (numerically) zero."""


class OutOfRangeError(QcorrError):
    """Scalar argument outside its documented domain."""


class StateFormatError(QcorrError):
    """State file failed to parse or validate."""


class ConsistencyError(QcorrError):
    """An internal cross-check between two computation routes failed."""
