"""Shared numerical machinery: one integration rule.

Every closed-form integral in the package, the outage boundary strips, the
capacity survival integrals and the capacity-series factors, runs on one
primitive: the n-point Gauss-Legendre rule in a log variable t = ln z
(:func:`log_rule`).  The integrands of this package have an exp(-k/z)
boundary layer, a 1/(1+z) knee or a Gamma-shaped bulk, all of which are
smooth on the log scale, so a fixed node set over a window that drops only
negligible mass reaches about 1e-13 relative without adaptivity or error
estimates.  :func:`log_integral` integrates one row of nodes per element of
its bounds, all rows in array passes of a bounded size, and a row that
repeats the row before it once (:func:`distinct_rows`).  The adaptive
QUADPACK reference the tests hold it against lives in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


#: The one node count: 128 nodes hold every integral of the package to
#: about 1e-13 relative on its window (64 nodes left survival integrals
#: 3e-6 off mpmath).
RULE_NODES = 128

# The 128-point Gauss-Legendre rule on [-1, 1], frozen from
# ``tests/helpers._gauss_legendre(128)``: Newton's method on the Legendre
# recurrence, which the tests rerun bit for bit.  The rule is symmetric, so
# the table holds the 64 positive nodes, largest first, and their weights.
_HALF_NODES = np.array((
    0.9998248879471319, 0.999077459977376, 0.997733248625514, 0.9957927585349812,
    0.9932571129002129, 0.9901278184917344, 0.9864067427245862, 0.9820961084357185,
    0.9771984914639074, 0.9717168187471366, 0.9656543664319652, 0.9590147578536999,
    0.9518019613412644, 0.9440202878302202, 0.9356743882779164, 0.9267692508789478,
    0.9173101980809605, 0.9073028834017568, 0.8967532880491582, 0.8856677173453972,
    0.8740527969580318, 0.8619154689395485, 0.8492629875779689, 0.8361029150609068,
    0.8224431169556439, 0.8082917575079137, 0.7936572947621933, 0.7785484755064119,
    0.7629743300440948, 0.746944166797062, 0.7304675667419088, 0.7135543776835874,
    0.6962147083695144, 0.6784589224477192, 0.660297632272646, 0.6417416925623075,
    0.6228021939105849, 0.6034904561585486, 0.5838180216287631, 0.5637966482266181,
    0.5434383024128103, 0.5227551520511755, 0.5017595591361445, 0.48046407240417205,
    0.4588814198335522, 0.43702450103710416, 0.414906379552275, 0.39254027503326744,
    0.369939555349859, 0.3471177285976355, 0.32408843502441337, 0.3008654388776772,
    0.2774626201779044, 0.2538939664226943, 0.23017356422666, 0.2063155909020792,
    0.18233430598533718, 0.15824404271422493, 0.1340591994611878, 0.10979423112764375,
    0.08546364050451549, 0.061081969604139565, 0.03666379096873349, 0.012223698960615766,
))
_HALF_WEIGHTS = np.array((
    0.0004493809602922429, 0.001045812679340525, 0.0016425030186689989, 0.002238288430962617,
    0.002832751471458051, 0.0034255260409102434, 0.004016254983738681, 0.004604584256702957,
    0.005190161832676298, 0.0057726375428657165, 0.006351663161707208, 0.006926892566898786,
    0.007497981925634747, 0.008064589890486031, 0.008626377798616726, 0.009183009871660921,
    0.009734153415006837, 0.010279479015832201, 0.010818660739503069, 0.011351376324080427,
    0.011877307372740255, 0.012396139543950892, 0.012907562739267322, 0.013411271288616322,
    0.013906964132951978, 0.014394345004166845, 0.014873122602147298, 0.015343010768865132,
    0.015803728659399323, 0.016255000909785173, 0.016696557801589202, 0.017128135423111392,
    0.017549475827117723, 0.0179603271850087, 0.01836044393733136, 0.018749586940544703,
    0.01912752360995098, 0.019494028058706543, 0.019848881232830885, 0.020191871042130025,
    0.02052279248696013, 0.02084144778075112, 0.021147646468221322, 0.02144120553920844,
    0.021721949538052107, 0.021989710668460474, 0.02224432889379978, 0.022485652032744982,
    0.022713535850236433, 0.022927844143686843, 0.02312844882438705, 0.023315229994062762,
    0.023488076016535932, 0.023646883584447633, 0.023791557781003354, 0.023922012136703495,
    0.024038168681024038, 0.024139957989019255, 0.024227319222815253, 0.02430020016797183,
    0.024358557264690682, 0.024402355633849585, 0.024431569097850044, 0.024446180196262525,
))

_NODES = np.concatenate((_HALF_NODES, -_HALF_NODES[::-1]))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS, _HALF_WEIGHTS[::-1]))


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


def distinct_rows(*columns) -> tuple[np.ndarray, np.ndarray]:
    """The rows to compute, and the row each row reads its value from: of
    the rows of the equal-length 1-D float ``columns`` (row i holds their
    i-th values), one that repeats the row before it bit for bit reads that
    row's value.  For any f that maps each row on its own,
    ``f(*(c[first] for c in columns))[source]`` is ``f(*columns)``.  A
    point's two directions are consecutive rows of its batch's raveled
    (points, 2) arrays, so a point whose directions follow one law
    computes one of them."""
    fresh = np.ones(columns[0].size, dtype=bool)
    bits = [c.view(np.int64) for c in columns]
    fresh[1:] = ~np.logical_and.reduce([b[1:] == b[:-1] for b in bits])
    return np.flatnonzero(fresh), np.cumsum(fresh) - 1


def log_integral(f: Callable[..., np.ndarray], lo, hi, splits=(), args=()):
    """Per element of the bounds, int_lo^hi f(z) dz for 0 < lo <= hi by
    :func:`log_rule`, one panel between each pair of consecutive ends among
    lo, the ``splits`` (in increasing order) and hi.

    The bounds, each split and each of ``args`` broadcast to one shape; a
    split outside [lo, hi] is moved to the nearer end, where its panel is
    empty, and lo = hi gives 0.  ``f(z, *args)`` maps the nodes, shape
    ``(rows, panels, RULE_NODES)``, and each argument's values for those
    rows, shape ``(rows, 1, 1)``, to integrand values, or to several
    integrands stacked on a leading axis, one integral each on the same
    nodes: the result then carries that axis first.  An element whose
    bounds, splits and arguments repeat the element before it, in raveled
    order, is integrated once (:func:`distinct_rows`).  A pole of f off
    the real line, or a kink on it, next to the middle of a panel slows the
    rule down; at a panel end it does not, so the callers split there.
    """
    lo, hi, *rest = np.broadcast_arrays(lo, hi, *splits, *args)
    shape, columns = lo.shape, [np.ravel(v) for v in (lo, hi, *rest)]
    first, source = distinct_rows(*columns)
    lo, hi, *rest = (c[first] for c in columns)
    cuts, args = rest[: len(splits)], rest[len(splits):]
    ends = np.log(np.stack([lo, *(np.clip(p, lo, hi) for p in cuts), hi], axis=-1))
    row_nodes = (ends.shape[-1] - 1) * RULE_NODES
    sums = []
    # an empty batch still maps its empty nodes once, for the shape of f's values
    for rows in slabs(lo.size, ends.shape[-1] * RULE_NODES) or [slice(0, 0)]:
        t, w = log_rule(ends[rows, :-1], ends[rows, 1:])
        z = np.exp(t)
        values = w * z * f(z, *(a[rows, None, None] for a in args))
        sums.append(np.sum(values.reshape(values.shape[:-2] + (row_nodes,)), axis=-1))
    out = np.concatenate(sums, axis=-1)[..., source]
    return out.reshape(out.shape[:-1] + shape)[()]
