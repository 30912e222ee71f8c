"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for values that fail their construction-time contracts,
and ``NumericalError`` for computations that fail despite valid inputs.
"""


class CmacgError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CmacgError, ValueError):
    """A value failed a construction-time invariant or a call precondition."""


class DimensionMismatch(ValidationError):
    """Operand shapes are individually valid but mutually inconsistent."""


class NotOnManifold(ValidationError):
    """A matrix is not semi-unitary within the required tolerance; ``frame`` is its index
    where it is one of a stack."""

    def __init__(self, message: str, residual: float | None = None, frame: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.frame = frame


class DomainError(ValidationError):
    """A scalar argument lies outside the domain of a special function."""


class SingularTransform(ValidationError):
    """A transformation matrix is singular or numerically near-singular."""


class InsufficientSample(ValidationError):
    """Too few samples for the requested statistical procedure."""


class NumericalError(CmacgError):
    """Base class for failures of numerical routines on valid inputs."""


class NonConvergence(NumericalError):
    """An iteration failed to reach its tolerance within the step budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IllConditioned(NumericalError):
    """A matrix is too ill-conditioned for the requested operation."""


class RankDeficient(NumericalError):
    """A matrix is numerically rank-deficient; caller may resample or abort."""


class CholeskyFailure(NumericalError):
    """A Cholesky factorization failed; signals an internal invariant bug."""
