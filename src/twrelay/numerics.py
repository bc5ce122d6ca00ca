"""Shared numerical machinery: one integration rule.

Every closed-form integral in the package, the outage boundary strips, the
capacity survival integrals and the capacity-series factors, runs on one
primitive: the n-point Gauss-Legendre rule in a log variable t = ln z
(:func:`log_rule`).  The integrands of this package have an exp(-k/z)
boundary layer, a 1/(1+z) knee or a Gamma-shaped bulk, all of which are
smooth on the log scale, so a fixed node set over a window that drops only
negligible mass reaches about 1e-13 relative without adaptivity or error
estimates.  :func:`log_integral` integrates one row of nodes per element of
its bounds, all rows in array passes of a bounded size.  The adaptive
QUADPACK reference the tests hold it against lives in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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


#: Elements of one temporary array in an array pass (64 kB of floats).
#: Longer batches run in slabs of rows, so the size of a sweep does not show
#: in the peak resident size.
SLAB_ELEMENTS = 1 << 13


def slabs(rows: int, row_elements: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``row_elements`` elements each,
    as many rows per slice as fit in SLAB_ELEMENTS (at least one)."""
    step = max(1, SLAB_ELEMENTS // row_elements)
    return [slice(i, i + step) for i in range(0, rows, step)]


def log_integral(f: Callable[..., np.ndarray], lo, hi, splits=(), args=()):
    """Per element of the bounds, int_lo^hi f(z) dz for 0 < lo <= hi by
    :func:`log_rule`, one panel between each pair of consecutive ends among
    lo, the ``splits`` (in increasing order) and hi.

    The bounds, each split and each of ``args`` broadcast to one shape; a
    split outside [lo, hi] is moved to the nearer end, where its panel is
    empty, and lo = hi gives 0.  ``f(z, *args)`` maps the nodes, shape
    ``(rows, panels, RULE_NODES)``, and each argument's values for those
    rows, shape ``(rows, 1, 1)``, to integrand values.  A pole of f off the
    real line, or a kink on it, next to the middle of a panel slows the rule
    down; at a panel end it does not, so the callers split there.
    """
    lo, hi, *rest = np.broadcast_arrays(lo, hi, *splits, *args)
    shape, lo, hi = lo.shape, np.ravel(lo), np.ravel(hi)
    rest = [np.ravel(r) for r in rest]
    cuts, args = rest[: len(splits)], rest[len(splits):]
    ends = np.log(np.stack([lo, *(np.clip(p, lo, hi) for p in cuts), hi], axis=-1))
    out = np.empty(lo.size)
    for rows in slabs(lo.size, ends.shape[-1] * RULE_NODES):
        t, w = log_rule(ends[rows, :-1], ends[rows, 1:])
        z = np.exp(t)
        values = w * z * f(z, *(a[rows, None, None] for a in args))
        out[rows] = np.sum(values.reshape(len(z), -1), axis=-1)
    return out.reshape(shape)[()]
