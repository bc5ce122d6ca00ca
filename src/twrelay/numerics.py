"""Shared numerical machinery: one integration rule and tail-bounded
series accumulation.

Every closed-form integral in the package, the outage boundary strips, the
capacity survival integrals and the capacity-series factors, runs on one
primitive: the n-point Gauss-Legendre rule in a log variable t = ln z
(:func:`log_rule`).  The integrands of this package have an exp(-k/z)
boundary layer, a 1/(1+z) knee or a Gamma-shaped bulk, all of which are
smooth on the log scale, so a fixed node set over a window that drops only
negligible mass reaches about 1e-13 relative without adaptivity or error
estimates.  The adaptive QUADPACK reference the tests hold it against lives
in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError


class SeriesResult(NamedTuple):
    total: float
    terms_used: int
    tail_estimate: float
    converged: bool


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre three-term recurrence, from the usual
    cosine guesses; six steps reach full precision for n = 64 and 128.  It
    avoids the eigenvalue solve of ``numpy.polynomial.legendre.leggauss``,
    whose first LAPACK call adds about 1 MB to the resident size of every
    process that imports this module.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


#: The one node count: 128 nodes hold every integral of the package to
#: about 1e-13 relative on its window (64 nodes left survival integrals
#: 3e-6 off mpmath).
RULE_NODES = 128
_NODES, _WEIGHTS = _gauss_legendre(RULE_NODES)


def log_rule(ln_lo, ln_hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w of the Gauss-Legendre rule on [ln_lo, ln_hi].

    With t = ln z, int_{e^ln_lo}^{e^ln_hi} f(z) dz is approximated by
    sum(w * e^t * f(e^t)).  The bounds broadcast: array bounds give one row
    of nodes per element, shape ``bounds.shape + (RULE_NODES,)``.
    """
    ln_lo = np.asarray(ln_lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(ln_hi, dtype=float)[..., None] - ln_lo)
    return ln_lo + half * (_NODES + 1.0), half * _WEIGHTS


def log_integral(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, splits=()
) -> float:
    """int_lo^hi f(z) dz for 0 < lo < hi by :func:`log_rule`, one panel
    between each pair of consecutive ends among lo, the ``splits`` inside
    (lo, hi), and hi; ``f`` maps an array of nodes to integrand values.

    A pole of f off the real line, or a kink on it, next to the middle of
    a panel slows the rule down; at a panel end it does not, so the
    callers split there.
    """
    ends = np.log([lo, *sorted(p for p in splits if lo < p < hi), hi])
    t, w = log_rule(ends[:-1], ends[1:])
    z = np.exp(t)
    return float(np.sum(w * z * f(z)))


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
