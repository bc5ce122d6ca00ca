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
The points with the same fading means also share the gain product g1*g2,
and those among them with the same ``derived_coeffs`` (b, c) share the SNR
denominators ``b*g_i + c``.  A point whose directions share their scale
a = P1/sigma2 = P2/sigma2 (every preset's) divides one numerator a*g1*g2 by
both denominators, and consecutive points with the same a (a lambda sweep's)
share it.  An outage point whose two thresholds are also equal needs only
the weaker direction's SNR (``model.weaker_snr``): the numerator over
max(den1, den2), formed once per (b, c), which is min(gamma1, gamma2) bit
for bit, so its count is that of the two-direction test.  A point's own
work is its quotients and its kernel.

A chunk runs in two halves, the top split of numpy's pairwise ``np.sum``
over its draws (``_halves``; a chunk of at most 128 draws runs whole):
e1 is drawn whole, then e2 one half at a time from the same generator,
which yields the same values as one whole draw, and every point runs on a
half before the next.  A point's outage counts add as ints and its sums of
rates and of their squares as ``s_lo + s_hi``, which is how ``np.sum`` over
the whole chunk adds them, so every bit is as for the whole chunk.

A chunk runs in a workspace: a chunk-sized buffer for e1, and half-sized
buffers for e2, the scaled gains, the product, the numerator, the
denominators, the SNR pair and the outage masks, which every ufunc writes
into with ``out=``.  A
call runs its chunks in ``min(workers, chunks)`` lanes, each owning one
workspace that it reuses for its every chunk and that is dropped when the
call returns, so a chunk allocates no arrays whatever its number of points.
The buffered kernels run the same ufuncs in the same order on the same
values as the plain array expressions, so their results are bit-identical.

A call with one lane runs it on the calling thread; more lanes run on a
thread pool in this process: numpy releases the interpreter lock while it
draws exponentials and evaluates ufuncs on whole chunks, so threads overlap
the sampling without the start-up and pickling cost of worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InsufficientSamplesError,
    ParameterError,
    failed_at,
)
from .model import (
    DerivedCoeffs,
    SystemParams,
    TargetRates,
    as_columns,
    check_multiplexing_gain,
    check_symmetric_powers,
    db_to_linear,
    derived_coeffs,
    end_to_end_snrs,
    gain_product,
    larger_denominator,
    snr_denominators,
    snr_numerator,
    snr_scales,
    symmetric_growth,
    weaker_snr,
)

CHUNK_DRAWS = 1 << 16

#: The diversity stencil's SNRs sit this far above and below a point's SNR.
DIVERSITY_STEP_DB = 0.25

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Estimate:
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
    """The buffers one chunk runs in: its unit draws, the gains scaled for a
    group of points, their product, the numerator of the latest shared
    scale, the denominators (den1 also their maximum), the SNR pair (gamma1
    also the weaker SNR), and the two per-direction outage masks; e1 holds a
    chunk, the rest one of its ``_halves``."""

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
        return cls(*(
            np.empty(size if name == "e1" else half,
                     dtype=bool if name.startswith("miss") else float)
            for name in cls._fields
        ))

    def cut(self, start: int, stop: int) -> "_Workspace":
        """e1's draws ``start:stop`` and the first ``stop - start`` elements
        of every other buffer, as views."""
        return _Workspace(self.e1[start:stop], *(buf[:stop - start] for buf in self[1:]))


def _outage_count(taus, gammas, ws: _Workspace) -> int:
    """The draws where an SNR of ``gammas`` is below its threshold in
    ``taus``: the pair's, or the weaker SNR's alone, which meets the first
    of two equal thresholds."""
    miss = np.less(gammas[0], taus[0], out=ws.miss1)
    if len(gammas) == 2:
        np.logical_or(miss, np.less(gammas[1], taus[1], out=ws.miss2), out=miss)
    return int(np.count_nonzero(miss))


def _rate_sums(_, gammas, ws: _Workspace) -> tuple[float, float]:
    """Sum and sum of squares of the chunk's sum rates R1 + R2; overwrites
    the SNRs."""
    for gamma in gammas:
        np.multiply(0.5 / LN2, np.log1p(gamma, out=gamma), out=gamma)
    total = np.add(*gammas, out=gammas[0])
    return float(np.sum(total)), float(np.sum(np.multiply(total, total, out=gammas[1])))


def _map_points(kernel, total: np.ndarray, params: SystemParams, extras: list,
                n: int, seed: int, workers: int, weaker: list | None = None) -> np.ndarray:
    """``total`` plus, per point of the (points,) columns ``params``, its
    ``kernel(extra, gammas, workspace)`` results, with the point's ``extras``
    entry, summed over the chunks in chunk order.  The points run along
    ``total``'s last axis, and the parts of a kernel result that is a tuple
    along its first.  ``gammas`` is the SNR pair, or ``(weaker_snr,)`` for a
    point that ``weaker`` marks as needing only the weaker SNR and whose two
    scales are equal.

    A chunk evaluates point by point, each on its own floats, one of its
    ``_halves`` at a time.  Points are grouped by fading means, which share
    one scaling of each chunk and its gain product, and within that by
    ``derived_coeffs``, which share the SNR denominators.  A point whose two
    scales are equal divides the numerator in the workspace, formed again
    only where its scale is not that of the last one formed on the group's
    gains.  A weaker-SNR point divides it by the larger denominator, formed
    over den1 once per subgroup, after the subgroup's other points.  Each
    point's scales and coefficients are formed once per call.  Lane j of
    ``lanes = min(workers, chunks)`` runs chunks j, j+lanes, j+2*lanes, ...
    in workspace j.  The workspaces are made on the calling thread, which
    also runs a lone lane; more run on a thread pool.
    """
    if not extras:
        return total
    points = [SystemParams(*row) for row in zip(*(v.tolist() for v in vars(params).values()))]
    scales = [snr_scales(point) for point in points]
    weak = [w and a1 == a2 for w, (a1, a2) in zip(weaker or [False] * len(points), scales)]
    groups: dict[tuple[float, float], dict[DerivedCoeffs, list[int]]] = {}
    for i, point in enumerate(points):
        subgroups = groups.setdefault((point.omega1, point.omega2), {})
        subgroups.setdefault(derived_coeffs(point), []).append(i)
    for subgroups in groups.values():
        for members in subgroups.values():
            members.sort(key=weak.__getitem__)  # max(den1, den2) overwrites den1
    sizes = _chunk_sizes(n)
    lanes = min(workers, len(sizes))
    workspaces = [_Workspace.empty(sizes[0]) for _ in range(lanes)]
    chunks = [[[None] * len(points) for _ in _halves(size)] for size in sizes]

    def run_half(ws: _Workspace, results: list) -> None:
        e1, e2 = ws.e1, ws.e2
        for k, ((omega1, omega2), subgroups) in enumerate(groups.items()):
            # the last group scales the draws in place: no later group reads them
            g1, g2 = (e1, e2) if k == len(groups) - 1 else (ws.g1, ws.g2)
            np.multiply(omega1, e1, out=g1)
            np.multiply(omega2, e2, out=g2)
            prod = gain_product(g1, g2, out=ws.prod)
            held = None  # the scale of the numerator in ws.num on these gains
            for coeffs, members in subgroups.items():
                dens = snr_denominators(coeffs, g1, g2, out=(ws.den1, ws.den2))
                den = None
                for i in members:
                    a1, a2 = scales[i]
                    num = None
                    if a1 == a2:
                        if a1 != held:
                            held = a1
                            snr_numerator(a1, prod, out=ws.num)
                        num = ws.num
                    if weak[i]:
                        if den is None:
                            den = larger_denominator(dens, out=ws.den1)
                        gammas = (weaker_snr(points[i], g1, g2, num=num, den=den, out=ws.gamma1),)
                    else:
                        gammas = end_to_end_snrs(points[i], g1, g2, prod=prod, dens=dens, num=num,
                                                 out=(ws.gamma1, ws.gamma2))
                    results[i] = kernel(extras[i], gammas, ws)

    def lane(j: int) -> None:
        for chunk in range(j, len(sizes), lanes):
            rng = _chunk_rng(seed, chunk)
            rng.standard_exponential(sizes[chunk], out=workspaces[j].e1[:sizes[chunk]])
            for results, (start, stop) in zip(chunks[chunk], _halves(sizes[chunk])):
                ws = workspaces[j].cut(start, stop)
                rng.standard_exponential(stop - start, out=ws.e2)
                run_half(ws, results)

    if lanes == 1:
        lane(0)
    else:
        with ThreadPoolExecutor(lanes) as pool:
            list(pool.map(lane, range(lanes)))  # re-raises a lane's error
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
    taus = list(zip(tau1.tolist(), tau2.tolist()))
    counts = _map_points(_outage_count, np.zeros(len(taus), dtype=np.int64), params, taus,
                         n, seed, workers, weaker=[t1 == t2 for t1, t2 in taus])
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
    finite float raises ``DomainError`` the same way, before any sampling.
    """
    shape, base, (r,) = as_columns(params, r)
    check_symmetric_powers(base)
    check_multiplexing_gain(r)
    # every point twice, its higher stencil point first
    twice = SystemParams(*(np.repeat(v, 2) for v in vars(base).values()))
    r = np.repeat(r, 2)
    stencil_db = [10.0 * math.log10(p1 / sigma2) + sign * DIVERSITY_STEP_DB
                  for p1, sigma2 in zip(base.p1.tolist(), base.sigma2.tolist())
                  for sign in (+1.0, -1.0)]
    gamma = np.array([db_to_linear(db) for db in stencil_db])
    with np.errstate(over="ignore"):
        power = gamma * twice.sigma2
    grown = symmetric_growth(r, gamma)
    bad = ~((0.0 < power) & (power < math.inf) & (grown < math.inf))
    if bad.any():
        k = int(bad.argmax())
        raise failed_at(k // 2, DomainError(
            f"diversity stencil point gamma_db={stencil_db[k]:.6g} (r={r[k]:g}): its SNR, "
            "power or threshold is not a positive finite float"))
    tau, rate = grown - 1.0, 0.5 * np.log2(grown)
    outage = estimate_outage(replace(twice, p1=power, p2=power),
                             TargetRates(rate, rate, tau, tau), n, seed, workers=workers)
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
