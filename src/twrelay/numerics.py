"""Shared numerical machinery.

Adaptive quadrature on finite and semi-infinite intervals and
tail-bounded series accumulation.

Quadrature delegates to QUADPACK (``scipy.integrate.quad``), which is built
from nested low/high-order Gauss-Kronrod rule pairs on adaptively bisected
panels, so the error estimate comes for free from the rule pair.  This
module owns the semi-infinite map, the tolerance policy, and the failure
reporting used by the rest of the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from scipy import integrate

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must lie in (0, 1); got {self.rel_tol}")
        if self.abs_tol < 0:
            raise DomainError(f"abs_tol must be nonnegative; got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1; got {self.max_subdivisions}"
            )


DEFAULT_QUAD = QuadSpec()


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


class SeriesResult(NamedTuple):
    total: float
    terms_used: int
    tail_estimate: float
    converged: bool


def _run_quadpack(f, a: float, b: float, spec: QuadSpec, points=None) -> QuadResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        out = integrate.quad(
            f,
            a,
            b,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            points=points,
            full_output=True,
        )
    value, estimate, info = out[0], out[1], out[2]
    if len(out) > 3:
        # QUADPACK gave up; report the panel carrying the largest error.
        last = info.get("last", 0)
        detail = ""
        if last and "elist" in info:
            worst = int(info["elist"][:last].argmax())
            detail = (
                f"; worst subinterval [{info['alist'][worst]:.6g}, "
                f"{info['blist'][worst]:.6g}] with error {info['elist'][worst]:.3g}"
            )
        raise ConvergenceError(
            f"quadrature failed on [{a:.6g}, {b:.6g}]: {out[3]}{detail}"
        )
    if estimate > max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {estimate:.3g} exceeds tolerance for "
            f"value {value:.6g} on [{a:.6g}, {b:.6g}]"
        )
    return QuadResult(value, estimate)


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUAD,
    *,
    scale: float = 1.0,
    points: Iterable[float] | None = None,
) -> QuadResult:
    """Integrate ``f`` over (a, b) adaptively.

    ``b`` may be ``math.inf``: the tail past the last breakpoint ``lo`` is
    then mapped onto (0, 1) by z = lo + scale*t/(1-t), which suits the
    exponentially decaying integrands of this package; ``scale`` sets the
    decay length.  ``points`` are interior breakpoints the integration is
    split at (e.g. sign changes or knees).

    Returns ``(value, error_estimate)``; raises :class:`ConvergenceError`
    when the achieved estimate cannot meet ``max(abs_tol, rel_tol*|value|)``.
    """
    if math.isinf(b):
        if scale <= 0 or not math.isfinite(scale):
            raise DomainError(f"transform scale must be positive; got {scale}")
        lo, total, err = a, 0.0, 0.0
        for p in sorted(points or []):
            if lo < p < math.inf:
                r = _run_quadpack(f, lo, p, spec)
                total += r.value
                err += r.error_estimate
                lo = p

        def transformed(t: float) -> float:
            w = 1.0 - t
            return f(lo + scale * t / w) * scale / (w * w)

        r = _run_quadpack(transformed, 0.0, 1.0, spec)
        return QuadResult(total + r.value, err + r.error_estimate)

    pts = sorted(p for p in (points or []) if a < p < b) or None
    return _run_quadpack(f, a, b, spec, points=pts)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite series this package evaluates."""

    max_terms: int = 200
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1; got {self.max_terms}")
        if not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must lie in (0, 1); got {self.rel_tol}")


DEFAULT_SERIES = SeriesControl()


def series_accumulate(
    term: Callable[[int], float], control: SeriesControl
) -> SeriesResult:
    """Sum ``term(0) + term(1) + ...`` until the tail is negligible.

    Stops once three consecutive terms fall below ``rel_tol`` times the
    running partial sum (terms are assumed eventually decreasing on the
    supported regimes).  Exhausting ``max_terms`` is flagged via
    ``converged=False``; the partial sum is still returned.
    """
    total = 0.0
    small_streak = 0
    last = 0.0
    for k in range(control.max_terms):
        last = term(k)
        if not math.isfinite(last):
            raise ConvergenceError(f"series term {k} is not finite: {last}")
        total += last
        if abs(last) <= control.rel_tol * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return SeriesResult(total, k + 1, abs(last), True)
        else:
            small_streak = 0
    return SeriesResult(total, control.max_terms, abs(last), False)
