"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3.  A batched call that fails at one of its points
marks the error with that point's index (``failed_at``), so a sweep can name
the axis value: ``raise_first`` raises for the first point that fails any of
its checks, and ``overflows`` is the one check of a product formed under
``np.errstate``.
"""

from typing import Callable

import numpy as np


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


#: A check over a batch: a boolean array of which points fail it, one entry
#: or one row of entries per point, and the error of point i.
Check = tuple[object, Callable[[int], Exception]]


def raise_first(*checks: Check) -> None:
    """Raise the error of the first point that fails any of ``checks``,
    marked with its index.  A check holds one entry or one row of entries
    per point, and a point fails it if any entry of its row fails; a point
    runs the checks in the order given."""
    first = None
    for bad, error in checks:
        if bad.ndim > 1:
            bad = bad.any(axis=1)
        if bad.any():
            hit = int(bad.argmax())
            if first is None or hit < first[0]:
                first = (hit, error)
    if first is not None:
        point, error = first
        raise failed_at(point, error(point))


def overflows(what: str, value, gamma) -> Check:
    """The check that fails a point whose ``value``, a product or quotient
    formed under ``np.errstate``, is not finite.  ``value`` holds one entry
    per point, or one row per point; the error, a DomainError, names
    ``what`` and the SNR ``gamma`` (shaped like ``value``) of the point's
    first overflowed entry."""
    bad = ~np.isfinite(value)
    gammas = np.broadcast_to(gamma, bad.shape)
    return bad, lambda i: DomainError(f"{what} overflows at gamma={gammas[i][bad[i]][0]}")
