"""Monte Carlo ground-truth oracles.

Empirical outage probability, ergodic capacity, and a finite-difference
diversity estimate, each for a whole batch of points in one pass.  The
points are a ``SystemParams`` (with its ``TargetRates``, or its
multiplexing gain) whose fields are floats or columns, as in
:mod:`twrelay.analytic`; each estimator returns one ``Estimate`` whose
``mean`` and ``std_err`` are floats for one point and lists of one float
per point for a batch.

Determinism contract: draws are organized into fixed chunks of 2^16 samples;
chunk k uses the substream ``SeedSequence(entropy=seed, spawn_key=(k,))`` and
the reduction always runs in chunk-index order, so results are bit-identical
for any worker count.  A chunk gives each point its kernel's result (an
outage count, or the sum and the sum of squares of the sum rates); these are
added as one array over the points, onto zeros, chunk by chunk in index
order, and each estimate's means and standard errors are array arithmetic on
the totals.  Within a chunk, the unit-mean exponentials behind g1
are drawn as one block, then those behind g2.

All points of a call share each chunk's draws: the chunk is drawn once,
scaled to ``g1 = omega1*e1`` and ``g2 = omega2*e2`` once per distinct pair of
fading means, and every point is evaluated on it before the next chunk.
Scaling a unit draw is how numpy's ``exponential(omega)`` makes its samples,
so each point's estimate is bit-identical to a call for that point alone.
:mod:`twrelay.model` forms the SNR parts; how the points share them is
this module's plan, and each point but a weaker one (below) divides its
numerators by its denominators itself, as ``model.end_to_end_snrs`` does
for one point.  The plan: a call sorts its points once by ``((omega1,
omega2), (b, c), weaker, (a1, a2), index)``, read off the batch's columns,
and each chunk runs them in that order, forming a shared part again only
where the key it rests on changes.  The fading means set the scaled gains
and their product g1*g2, and (b, c) the SNR denominators ``b*g_i + c``.
A point with a = P1/sigma2 = P2/sigma2 (every preset's) divides one
numerator a*g1*g2 by both, shared by consecutive points on the same gains
with the same a (a lambda sweep's two-direction points).
An outage point whose two thresholds are also equal is ``weaker``: its
outage is where the weaker SNR a*g1*g2 / max(den1, den2) is below tau.
Correctly rounded division is monotone in the divisor, so the quotient by
the larger denominator is min(gamma1, gamma2) bit for bit.  The
denominators are at least c > 0, so an SNR is NaN only where num is NaN,
or where num = inf meets an infinite denominator; max(den1, den2) is then
inf, and that quotient is NaN too, as ``np.minimum`` gives.  So
``num / max(den1, den2) < tau`` is ``(gamma1 < tau) | (gamma2 < tau)``
element by element.  A weaker point forms no numerator: its (b, c) forms
the quotient q = g1*g2 / max(den1, den2) once, shared by every weaker
point there, and each counts its outage by two compares of q, with the
ends of the band fl(tau/a)*(1 -/+ 16u), u = 2^-53.  Each compare crosses
four roundings that the exact form does not share (the band's end,
fl(tau/a), a*g1*g2, and q or the last quotient; monotone rounding makes
the fifth free), so outside the band the two agree, with 12u to spare
(``_Quotient`` gives the bound).  The guard keeps that relative bound
valid: fl(tau/a) in [2^-1000, 2^1000], tau*min(c, 1) >= 2^-1000 and
a*max(g1*g2) <= 2^1000 over the half.  Only the draws inside the band,
and every draw of a point outside the guard, take the multiply, divide
and compare above, so each count is that of ``a*g1*g2 / max(den1, den2)
< tau`` bit for bit.  The maximum overwrites den1 and q goes in gamma1,
so the sort runs weaker points after their (b, c)'s two-direction points.

A part gets a buffer of its own only where two or more points read it; a
buffer the plan does not need is never written, so its pages never become
resident.  The last fading means scale the draws in place, as no later
point reads them.  Where every point on the fading means has one key
(weaker, a1, a2) with a1 = a2 (one a: a lambda sweep's, or a d1 sweep's
single point per means), g1*g2 is formed in num, and a numerator, if one
is held, is scaled there in place (``one``).  Each point forms its (b, c)'s
denominator pair in one step, where (b, c) changes.  If the first point of
the (b, c) is weaker, all are, as the sort runs two-direction points
first: den1 takes the first denominator and gamma1 the second, as scratch
for the maximum, which overwrites den1, and then q.  Otherwise the pair
goes in den1 and den2 where several points on the same gains share it (an
SNR sweep's), or where the point has P1 != P2, as it forms its two
numerators in its SNR buffers.  A two-direction point alone on its (b, c)
(neither neighbour in the sorted plan shares its fading means and (b, c))
with a1 = a2, as each point of a capacity lambda sweep is, forms the pair
in its SNR buffers and divides the numerator into them in place
(``lone``).  A weaker point outside the certificate forms its SNR in
gamma2.  A point's own work is its quotients, or its two compares, and
its kernel.

A chunk runs in two halves, the top split of numpy's pairwise ``np.sum``
over its draws (``_halves``; a chunk of at most 128 draws runs whole):
e1 is drawn whole, then e2 one half at a time from the same generator,
which yields the same values as one whole draw, and every point runs on a
half before the next.  A point's outage counts add as ints and its sums of
rates and of their squares as ``s_lo + s_hi``, which is how ``np.sum`` over
the whole chunk adds them, so every bit is as for the whole chunk.

A chunk runs in a workspace: a chunk-sized buffer for e1, and half-sized
buffers for e2, the scaled gains, the product, the numerator, the shared
denominators, the SNR pair and the outage masks, which every ufunc writes
into with ``out=``.  The float buffers are carved from one block, each
starting on a 64-byte cache line with its length rounded up to 8 floats:
numpy aligns its own arrays to 16 bytes only, so the vector loads of its
ufunc loops would split cache lines.  A call runs its chunks in
``min(workers, chunks)`` lanes, each owning one workspace that it reuses
for its every chunk and that is dropped when the call returns, so a chunk
allocates no arrays whatever its number of points.
The buffered kernels run the same ufuncs in the same order on the same
values as the plain array expressions, so their results are bit-identical.

The calling thread runs lane 0, and each further lane runs on a plain
``threading.Thread`` of this process: numpy releases the interpreter lock
while it draws exponentials and evaluates ufuncs on whole chunks, so threads
overlap the sampling without the start-up and pickling cost of worker
processes.  A lane that raises keeps its error; once every lane has joined,
the error of the lowest-numbered lane that raised is re-raised.  A point
whose numerator scale a*omega1*omega2 is not finite raises DomainError
before any draw.  Below that, a product of rare large draws may still pass
the float range: each lane runs under one ``np.errstate`` that lets it
overflow to inf, an SNR above every threshold, and lets inf meet inf as
NaN, which is no outage.
"""

from __future__ import annotations

import math
import threading
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InsufficientSamplesError,
    ParameterError,
    failed_at,
    overflows,
    raise_first,
)
from .model import (
    SystemParams,
    TargetRates,
    as_columns,
    check_multiplexing_gain,
    check_symmetric_powers,
    db_to_linear,
    derived_coeffs,
    gain_product,
    snr_denominators,
    snr_numerator,
    snr_scales,
    symmetric_growth,
)

CHUNK_DRAWS = 1 << 16

#: The diversity stencil's SNRs sit this far above and below a point's SNR.
DIVERSITY_STEP_DB = 0.25

LN2 = math.log(2.0)


class Estimate(NamedTuple):
    """Monte Carlo means with their standard errors, each a float for one
    point or a list of one float per point, and their provenance: the
    samples drawn per point and the seed, shared by every point of a call."""

    mean: float
    std_err: float
    n: int
    seed: int

    @classmethod
    def shaped(cls, means: list, errs: list, shape: tuple, n: int, seed: int) -> "Estimate":
        """The estimate of a call whose input has ``shape``, from its
        per-point ``means`` and ``errs``."""
        return cls(np.reshape(means, shape).tolist(), np.reshape(errs, shape).tolist(), n, seed)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )


def _chunk_sizes(n: int) -> list[int]:
    full, rem = divmod(n, CHUNK_DRAWS)
    sizes = [CHUNK_DRAWS] * full
    if rem:
        sizes.append(rem)
    return sizes


#: numpy sums at most this many floats without splitting them in two.
_PAIRWISE_BLOCK = 128


def _halves(size: int) -> list[tuple[int, int]]:
    """The (start, stop) of the pieces a chunk of ``size`` draws runs in:
    the two halves that numpy's pairwise ``np.sum`` over ``size`` floats
    first splits them into, or the whole chunk, which it does not split."""
    if size <= _PAIRWISE_BLOCK:
        return [(0, size)]
    h = size // 2 - (size // 2) % 8
    return [(0, h), (h, size)]


class _Workspace(NamedTuple):
    """The buffers one chunk runs in, as the module's plan uses them: its
    unit draws, the gains scaled for one pair of fading means, their
    product, the numerator of the scale held on those gains (also the
    product, where the means' points have one key), the shared denominators
    (den1 also their maximum), the SNR pair (gamma1 also the weaker points'
    quotient and the scratch second denominator, gamma2 the SNR of a weaker
    point outside the certificate, and both a lone point's denominators),
    and the two per-direction outage masks; e1 holds a chunk, the rest one
    of its ``_halves``.  The float buffers are carved from one block, each
    at a cache-line boundary; a plan writes only those it needs."""

    e1: np.ndarray
    e2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    prod: np.ndarray
    num: np.ndarray
    den1: np.ndarray
    den2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    miss1: np.ndarray
    miss2: np.ndarray

    @classmethod
    def empty(cls, size: int) -> "_Workspace":
        # the larger of the _halves of n > 128 draws is at most ceil(n/2) + 7
        half = min(size, max(_PAIRWISE_BLOCK, (size + 1) // 2 + 7))
        line = 8  # floats per 64-byte cache line
        halves = len(cls._fields) - 3  # the float buffers but e1
        strides = [-(-length // line) * line for length in (size, half)]
        block = np.empty(strides[0] + halves * strides[1] + line)
        start = -(block.ctypes.data // 8) % line
        floats = [block[start:start + size]]
        for k in range(halves):
            at = start + strides[0] + k * strides[1]
            floats.append(block[at:at + half])
        return cls(*floats, np.empty(half, dtype=bool), np.empty(half, dtype=bool))

    def cut(self, start: int, stop: int) -> "_Workspace":
        """e1's draws ``start:stop`` and the first ``stop - start`` elements
        of every other buffer, as views."""
        return _Workspace(self.e1[start:stop], *(buf[:stop - start] for buf in self[1:]))


#: The certified compares' band around fl(tau/a), 16u = 2^-49 on either side;
#: ``_Quotient`` says why it suffices.
_BAND = 2.0 ** -49

#: The range where fl(tau/a), tau*min(c, 1) and a*max(g1*g2) keep the
#: certified compares clear of underflow and overflow.
_TINY, _HUGE = 2.0 ** -1000, 2.0 ** 1000


class _Quotient(NamedTuple):
    """A weaker point's SNR a*g1*g2 / max(den1, den2), held as the quotient
    ``q = g1*g2 / max(den1, den2)`` that every weaker point on its gains and
    (b, c) shares, the parts it is formed from (``prod``, ``den`` and the
    half's largest product ``top``) and the point's ``scale`` a.

    The SNR is below tau where ``q < tau/a``, up to rounding.  In the
    standard model (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 2), a rounded product or quotient is its exact
    value times (1 + d), |d| <= u = 2^-53, plus at most 2^-1075 where it is
    subnormal, and round to nearest is monotone.  With P = g1*g2 and
    D = max(den1, den2), both floats, the SNR is fl(fl(a*P)/D).  If
    fl(P/D) < lo = fl(fl(tau/a)*(1 - 16u)), then P/D < lo, so
    fl(a*P)/D < tau*(1 + u)^3*(1 - 16u) + 2^-1075/D <= tau*(1 - u), which
    rounds below tau.  If fl(P/D) >= hi = fl(fl(tau/a)*(1 + 16u)), then
    P/D >= hi*(1 - u), so fl(a*P)/D >= tau*(1 - u)^4*(1 + 16u) - 2^-1075/D
    >= tau, which rounds to tau or more.  Both steps need tau/a normal,
    which fl(tau/a) in [2^-1000, 2^1000] gives; 12u*tau*D >= 2^-1075, which
    tau*min(c, 1) >= 2^-1000 gives, as D >= c; and a*P finite, which
    a*max(P) <= 2^1000 over the half (``top``) gives.  So where no draw
    falls in [lo, hi), that is, where the counts below lo and below hi are
    equal, the count below lo is the SNR's.  The draws in the band take the
    exact SNR, and a point outside the guard (``band`` None, or a*top past
    2^1000) forms it at every draw.
    """

    q: np.ndarray
    prod: np.ndarray
    den: np.ndarray
    top: float
    scale: float

    def snr(self, at=..., out=None) -> np.ndarray:
        """The weaker SNR a*g1*g2 / max(den1, den2) at the draws ``at``."""
        return np.divide(snr_numerator(self.scale, self.prod[at], out=out), self.den[at],
                         out=out)

    def count_below(self, tau: float, band, ws: _Workspace) -> int:
        """The draws whose weaker SNR is below ``tau``, certified by the
        compares of ``q`` with ``band`` = (lo, hi) where it holds."""
        if band is not None and self.scale * self.top <= _HUGE:
            lo, hi = band
            below = int(np.count_nonzero(np.less(self.q, lo, out=ws.miss1)))
            if below == np.count_nonzero(np.less(self.q, hi, out=ws.miss1)):
                return below
            near = np.flatnonzero((lo <= self.q) & (self.q < hi))
            return below + int(np.count_nonzero(self.snr(near) < tau))
        return int(np.count_nonzero(np.less(self.snr(out=ws.gamma2), tau, out=ws.miss1)))


def _bands(params: SystemParams, tau: np.ndarray) -> list:
    """Per point of the (points,) columns, the band (lo, hi) of a weaker
    point's certified compares, fl(tau/a)*(1 -/+ 16u) with a = P2/sigma2,
    or None where ``_Quotient``'s certificate fails on tau/a or tau*c."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = tau / snr_scales(params)[0]
        holds = ((_TINY <= t) & (t <= _HUGE)
                 & (tau * np.minimum(derived_coeffs(params).c, 1.0) >= _TINY))
    return [(lo, hi) if ok else None for lo, hi, ok in zip(
        (t * (1.0 - _BAND)).tolist(), (t * (1.0 + _BAND)).tolist(), holds.tolist())]


def _outage_count(taus, gammas, ws: _Workspace) -> int:
    """The draws in outage for thresholds ``taus`` = (tau1, tau2, band):
    where either SNR of the pair ``gammas`` is below its threshold, or, for
    a weaker point, where its ``_Quotient``'s SNR is below tau1."""
    if isinstance(gammas, _Quotient):
        return gammas.count_below(taus[0], taus[2], ws)
    miss = np.less(gammas[0], taus[0], out=ws.miss1)
    np.logical_or(miss, np.less(gammas[1], taus[1], out=ws.miss2), out=miss)
    return int(np.count_nonzero(miss))


def _rate_sums(_, gammas, ws: _Workspace) -> tuple[float, float]:
    """Sum and sum of squares of the chunk's sum rates R1 + R2; overwrites
    the SNRs."""
    for gamma in gammas:
        np.multiply(0.5 / LN2, np.log1p(gamma, out=gamma), out=gamma)
    total = np.add(*gammas, out=gammas[0])
    square = np.square(total, out=gammas[1])
    return float(np.add.reduce(total)), float(np.add.reduce(square))


def _numerators(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Each point's SNR scales (P2/sigma2, P1/sigma2) and the numerator
    scales a*omega1*omega2 of its two directions, as (points, 2) arrays of
    the (points,) columns ``params``; a scale past the float range is inf."""
    with np.errstate(over="ignore"):
        a = np.stack(snr_scales(params), axis=1)
        return a, a * (params.omega1 * params.omega2)[:, None]


def _map_points(kernel, total: np.ndarray, params: SystemParams, extras: list,
                n: int, seed: int, workers: int, weaker=False) -> np.ndarray:
    """``total`` plus, per point of the (points,) columns ``params``, its
    ``kernel(extra, gammas, workspace)`` results, with the point's ``extras``
    entry, summed over the chunks in chunk order.  The points run along
    ``total``'s last axis, and the parts of a kernel result that is a tuple
    along its first.  ``gammas`` is the SNR pair, or the ``_Quotient`` of a
    point that the bool column ``weaker`` marks and whose two scales are
    equal.

    A chunk runs the call's plan (see the module docstring) one of its
    ``_halves`` at a time, each point on its own floats, with a buffer for
    a part only where two or more points read it.  Lane j of
    ``lanes = min(workers, chunks)`` runs chunks j, j+lanes, j+2*lanes, ...
    in workspace j.  The workspaces are made on the calling thread, which
    also runs lane 0; lanes 1, 2, ... run on threads named
    ``twrelay-mc-lane-<j>``, all joined before this returns or raises.  A
    point whose a*omega1*omega2 is not finite raises DomainError first.
    """
    if not extras:
        return total
    a, scales = _numerators(params)
    raise_first(overflows("a*omega1*omega2", scales, a))
    b, c = derived_coeffs(params)
    keys = sorted(zip(zip(params.omega1.tolist(), params.omega2.tolist()),
                      zip(b.tolist(), c.tolist()),
                      (weaker & (a[:, 0] == a[:, 1])).tolist(), *a.T.tolist(), range(len(a))))
    # lone: alone on its (b, c) with a1 = a2, so unless weak its denominators go in its
    # SNR buffers; one: every point on its means has one (weak, a, a) key, so g1*g2
    # goes in num, where a held numerator is formed in place
    parts = [None, *(key[:2] for key in keys), None]
    on_means = {means: {key[2:5] for key in group}
                for means, group in groupby(keys, lambda key: key[0])}
    plan = [(*key, key[3] == key[4] and parts[j] != parts[j + 1] != parts[j + 2],
             key[3] == key[4] and len(on_means[key[0]]) == 1) for j, key in enumerate(keys)]
    last_means = plan[-1][0]
    sizes = _chunk_sizes(n)
    lanes = min(workers, len(sizes))
    workspaces = [_Workspace.empty(sizes[0]) for _ in range(lanes)]
    chunks = [[[None] * len(plan) for _ in _halves(size)] for size in sizes]

    def run_half(ws: _Workspace, results: list) -> None:
        snrs, shared = (ws.gamma1, ws.gamma2), (ws.den1, ws.den2)
        means = coeffs = held = None
        for point_means, point_coeffs, weak, a1, a2, i, lone, one in plan:
            if point_means != means:
                means, coeffs, held, top = point_means, None, None, None
                g1, g2 = (ws.e1, ws.e2) if means == last_means else (ws.g1, ws.g2)
                np.multiply(means[0], ws.e1, out=g1)
                np.multiply(means[1], ws.e2, out=g2)
                prod = gain_product(g1, g2, out=ws.num if one else ws.prod)
            if a1 == a2 and a1 != held and not weak:
                held = a1
                snr_numerator(a1, prod, out=ws.num)  # in place where one
            if point_coeffs != coeffs:  # always at a lone point, the one reader of its key
                coeffs, quotient = point_coeffs, None
                # a weak first point: all here are weak, and gamma1 is den2's scratch
                pair = snr_denominators(coeffs, g1, g2, out=(
                    (ws.den1, ws.gamma1) if weak else snrs if lone else shared))
            if weak:
                if quotient is None:  # the (b, c)'s first weak point forms its quotient
                    top = float(np.maximum.reduce(prod)) if top is None else top
                    den = np.maximum(*pair, out=pair[0])
                    quotient = (np.divide(prod, den, out=ws.gamma1), prod, den, top)
                results[i] = kernel(extras[i], _Quotient(*quotient, a1), ws)
                continue
            nums = (ws.num, ws.num) if a1 == a2 else [
                snr_numerator(scale, prod, out=gamma) for scale, gamma in zip((a1, a2), snrs)]
            gammas = tuple(np.divide(num, den, out=gamma)
                           for num, den, gamma in zip(nums, pair, snrs))
            results[i] = kernel(extras[i], gammas, ws)

    errors: list[BaseException | None] = [None] * lanes

    def lane(j: int) -> None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
                for chunk in range(j, len(sizes), lanes):
                    rng = _chunk_rng(seed, chunk)
                    rng.standard_exponential(sizes[chunk], out=workspaces[j].e1[:sizes[chunk]])
                    for results, (start, stop) in zip(chunks[chunk], _halves(sizes[chunk])):
                        ws = workspaces[j].cut(start, stop)
                        rng.standard_exponential(stop - start, out=ws.e2)
                        run_half(ws, results)
        except BaseException as exc:  # re-raised once every lane has joined
            errors[j] = exc

    threads = [threading.Thread(target=lane, args=(j,), name=f"twrelay-mc-lane-{j}")
               for j in range(1, lanes)]
    for thread in threads:
        thread.start()
    lane(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    for halves in chunks:
        # one or two addends: their sum is a + b in any order
        total = total + np.transpose(np.sum(halves, axis=0))
    return total


def _validate_n(n: int) -> int:
    if n < 1:
        raise ParameterError(f"sample count must be >= 1; got {n}")
    return int(n)


def estimate_outage(
    params: SystemParams, targets: TargetRates, n: int, seed: int, workers: int = 1,
) -> Estimate:
    """Per point, the fraction of rounds where either direction misses its
    target rate."""
    n = _validate_n(n)
    shape, params, (tau1, tau2) = as_columns(params, targets.tau1, targets.tau2)
    taus = list(zip(tau1.tolist(), tau2.tolist(), _bands(params, tau1)))
    counts = _map_points(_outage_count, np.zeros(len(taus), dtype=np.int64), params, taus,
                         n, seed, workers, weaker=tau1 == tau2)
    p = counts / n
    var = p * (1.0 - p) * n / (n - 1) if n > 1 else np.zeros_like(p)
    return Estimate.shaped(p, np.sqrt(var / n), shape, n, seed)


def _mean_and_error(s: np.ndarray, q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the sample mean and its standard error from the sum ``s``
    and the sum of squares ``q`` of its ``n`` samples."""
    mean = s / n
    var = np.maximum(q - n * mean * mean, 0.0) / (n - 1) if n > 1 else np.zeros_like(mean)
    return mean, np.sqrt(var / n)


def estimate_capacity(params: SystemParams, n: int, seed: int, workers: int = 1) -> Estimate:
    """Per point, the sample mean of the sum rate R1 + R2 over fading rounds."""
    n = _validate_n(n)
    shape, params, _ = as_columns(params)
    s, q = _map_points(_rate_sums, np.zeros((2, params.p1.size)), params,
                       [None] * params.p1.size, n, seed, workers)
    return Estimate.shaped(*_mean_and_error(s, q, n), shape, n, seed)


def estimate_diversity_fd(
    params: SystemParams, r, n: int, seed: int, workers: int = 1,
) -> Estimate:
    """Per point, a central finite difference of -ln(P_out) in ln(gamma) at
    the point's own SNR gamma = P/sigma2, with multiplexing gain ``r``.

    The powers must be symmetric (``model.check_symmetric_powers``) and
    ``r`` positive (``model.check_multiplexing_gain``).  The stencil sits
    DIVERSITY_STEP_DB above and below each point's SNR in dB, with gamma
    its ``model.db_to_linear``, P1 = P2 = gamma*sigma2 and both thresholds
    tau = (1+gamma)^r - 1 by ``model.symmetric_growth``, as ``analytic.dmt``
    forms its own; every other parameter is the point's own.  All stencil
    evaluations run in one ``estimate_outage`` call on the same seed (common
    random numbers).  The error propagation below treats the two stencil
    counts as independent, but they share their draws, so the error is too
    wide: about 7 times at the benchmark's ``val_dmt_snr`` sweep (lambda
    0.75, r 0.5, 5-20 dB).  A stencil point with fewer than 100 outage
    events raises ``InsufficientSamplesError`` naming its SNR in dB, for the first point
    with one, its higher stencil point checked first; the error's ``point``
    is that point's index.  So does one with fewer than 100 samples out of
    outage, where nearly every draw is an outage and the difference would
    read 0.  A stencil point whose SNR, power or threshold is not a positive
    finite float, or whose a*omega1*omega2 is not finite, raises
    ``DomainError`` the same way, before any sampling.
    """
    shape, base, (r,) = as_columns(params, r)
    check_symmetric_powers(base)
    check_multiplexing_gain(r)
    # every point twice, its higher stencil point first
    twice = SystemParams(*(np.repeat(v, 2) for v in base))
    r = np.repeat(r, 2)
    with np.errstate(over="ignore"):
        snrs = (base.p1 / base.sigma2).tolist()
    # an SNR that underflows to 0 sits at -inf dB, where the check below fails it
    stencil_db = [(10.0 * math.log10(snr) if snr > 0.0 else -math.inf) + sign * DIVERSITY_STEP_DB
                  for snr in snrs for sign in (+1.0, -1.0)]
    gamma = np.array([db_to_linear(db) for db in stencil_db])
    with np.errstate(over="ignore"):
        power = gamma * twice.sigma2
    grown = symmetric_growth(r, gamma)
    # one row per point, its higher stencil point first; tau = grown - 1 must be positive
    bad = ~((0.0 < power) & (power < math.inf) & (1.0 < grown) & (grown < math.inf)).reshape(-1, 2)
    rows_db = np.reshape(stencil_db, (-1, 2))
    stencil = twice._replace(p1=power, p2=power)
    a, scales = _numerators(stencil)  # a row of 4: both directions of both stencil points
    raise_first((bad, lambda i: DomainError(
        f"diversity stencil point gamma_db={rows_db[i][bad[i]][0]:.6g} (r={r[2 * i]:g}): its "
        "SNR, power or threshold is not a positive finite float")),
        overflows("a*omega1*omega2", scales.reshape(-1, 4), a.reshape(-1, 4)))
    tau, rate = grown - 1.0, 0.5 * np.log2(grown)
    outage = estimate_outage(stencil, TargetRates(rate, rate, tau, tau), n, seed, workers=workers)
    for k, (mean, point_db) in enumerate(zip(outage.mean, stencil_db)):
        for count, what in ((mean * n, "outage events"), ((1.0 - mean) * n, "non-outage samples")):
            if count < 100:
                raise failed_at(k // 2, InsufficientSamplesError(
                    f"only {count:.0f} {what} at gamma_db={point_db:.3g}; "
                    "need >= 100 to difference"))
    means, errs = [], []
    for hi, lo, hi_err, lo_err, gamma_hi, gamma_lo in zip(
        outage.mean[::2], outage.mean[1::2], outage.std_err[::2], outage.std_err[1::2],
        gamma[::2].tolist(), gamma[1::2].tolist(),
    ):
        dlog = math.log(gamma_hi / gamma_lo)
        means.append(-(math.log(hi) - math.log(lo)) / dlog)
        errs.append(math.sqrt((hi_err / hi) ** 2 + (lo_err / lo) ** 2) / dlog)
    return Estimate.shaped(means, errs, shape, n, seed)
