"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3.  A batched call that fails at one of its points
marks the error with that point's index (``failed_at``), so a sweep can name
the axis value.
"""

from typing import Callable


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


#: A check over a batch: a boolean array of which points fail it, and the
#: error of point i.
Check = tuple[object, Callable[[int], Exception]]


def raise_first(*checks: Check) -> None:
    """Raise the error of the first point that fails any of ``checks``,
    marked with its index; a point runs the checks in the order given."""
    first = None
    for bad, error in checks:
        if bad.any():
            hit = int(bad.argmax())
            if first is None or hit < first[0]:
                first = (hit, error)
    if first is not None:
        point, error = first
        raise failed_at(point, error(point))
