"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3.  A batched call that fails at one of its points
marks the error with that point's index (``failed_at``), so a sweep can name
the axis value.
"""


class ParameterError(ValueError):
    """A system parameter violates its admissible range."""


class DomainError(ValueError):
    """A function argument is outside the mathematical domain."""


class ConfigError(ValueError):
    """An experiment configuration file or preset is invalid."""


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures."""


class ConvergenceError(NumericalError):
    """Quadrature or series evaluation failed to meet its tolerance."""


class InsufficientSamplesError(NumericalError):
    """A Monte Carlo estimate is too noisy for the requested use."""


class DegenerateCaseError(NumericalError):
    """A formula degenerates (e.g. an underflowing denominator)."""


def failed_at(point: int, error: Exception) -> Exception:
    """Mark ``error`` as raised at index ``point`` of a batched call."""
    error.point = point
    return error
