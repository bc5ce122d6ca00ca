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
for any worker count.  Within a chunk, the unit-mean exponentials behind g1
are drawn as one block, then those behind g2.

All points of a call share each chunk's draws: the chunk is drawn once,
scaled to ``g1 = omega1*e1`` and ``g2 = omega2*e2`` once per distinct pair of
fading means, and every point is evaluated on it before the next chunk.
Scaling a unit draw is how numpy's ``exponential(omega)`` makes its samples,
so each point's estimate is bit-identical to a call for that point alone.
The points with the same fading means also share the gain product g1*g2,
and those among them with the same ``derived_coeffs`` (b, c) share the SNR
denominators ``b*g_i + c``; a point's own work is its ``a*g1*g2/den`` and
its kernel.

A chunk runs in a workspace: chunk-sized buffers for the draws, the scaled
gains, the product, the denominators, the SNR pair and the outage masks,
which every ufunc writes into with ``out=``.  A call makes one workspace per
worker thread, lends it to one chunk at a time, and drops it when it
returns, so a chunk allocates no arrays whatever its number of points.  The
buffered kernels run the same ufuncs in the same order on the same values
as the plain array expressions, so their results are bit-identical.

With ``workers > 1`` the chunks run on a thread pool in this process: numpy
releases the interpreter lock while it draws exponentials and evaluates
ufuncs on whole chunks, so threads overlap the sampling without the start-up
and pickling cost of worker processes.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InsufficientSamplesError,
    ParameterError,
    failed_at,
    raise_first,
)
from .model import (
    DerivedCoeffs,
    SystemParams,
    TargetRates,
    as_columns,
    check_symmetric_powers,
    derived_coeffs,
    end_to_end_snrs,
    gain_product,
    snr_denominators,
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


def _draw_exponentials(seed: int, chunk: int, size: int, out=(None, None)):
    """The chunk's unit-mean draws behind g1 and g2, in that order, written
    into ``out`` when given."""
    rng = _chunk_rng(seed, chunk)
    return tuple(rng.standard_exponential(size, out=o) for o in out)


class _Workspace(NamedTuple):
    """The buffers one chunk runs in: its unit draws, the gains scaled for a
    group of points, their product, the denominators, the SNR pair, and the
    two per-direction outage masks."""

    e1: np.ndarray
    e2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    prod: np.ndarray
    den1: np.ndarray
    den2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    miss1: np.ndarray
    miss2: np.ndarray

    @classmethod
    def empty(cls, size: int) -> "_Workspace":
        return cls(*(
            np.empty(size, dtype=bool if name.startswith("miss") else float)
            for name in cls._fields
        ))

    def cut(self, size: int) -> "_Workspace":
        """The first ``size`` elements of every buffer, as views."""
        return _Workspace(*(buf[:size] for buf in self))


def _outage_count(taus, gammas, ws: _Workspace) -> int:
    miss1 = np.less(gammas[0], taus[0], out=ws.miss1)
    miss2 = np.less(gammas[1], taus[1], out=ws.miss2)
    return int(np.count_nonzero(np.logical_or(miss1, miss2, out=miss1)))


def _rate_sums(_, gammas, ws: _Workspace) -> tuple[float, float]:
    """Sum and sum of squares of the chunk's sum rates R1 + R2; overwrites
    the SNRs."""
    for gamma in gammas:
        np.multiply(0.5 / LN2, np.log1p(gamma, out=gamma), out=gamma)
    total = np.add(*gammas, out=gammas[0])
    return float(np.sum(total)), float(np.sum(np.multiply(total, total, out=gammas[1])))


def _chunk_results(args) -> list:
    """``kernel(extra, gammas, workspace)`` for every point on one chunk's
    draws, with the point's ``extras`` entry, run in a workspace taken from
    ``pool`` and given back after."""
    kernel, points, extras, groups, pool, seed, chunk, size = args
    whole = pool.get()
    try:
        ws = whole.cut(size)
        e1, e2 = _draw_exponentials(seed, chunk, size, out=(ws.e1, ws.e2))
        results = [None] * len(points)
        for k, ((omega1, omega2), subgroups) in enumerate(groups.items()):
            # the last group scales the draws in place: no later group reads them
            g1, g2 = (e1, e2) if k == len(groups) - 1 else (ws.g1, ws.g2)
            np.multiply(omega1, e1, out=g1)
            np.multiply(omega2, e2, out=g2)
            prod = gain_product(g1, g2, out=ws.prod)
            for members in subgroups.values():
                dens = snr_denominators(points[members[0]], g1, g2, out=(ws.den1, ws.den2))
                for i in members:
                    gammas = end_to_end_snrs(
                        points[i], g1, g2, prod=prod, dens=dens, out=(ws.gamma1, ws.gamma2),
                    )
                    results[i] = kernel(extras[i], gammas, ws)
        return results
    finally:
        pool.put(whole)


def _map_chunks(func, arglist, workers: int):
    if workers <= 1 or len(arglist) <= 1:
        return [func(a) for a in arglist]
    with ThreadPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
        return list(pool.map(func, arglist))


def _chunk_tasks(kernel, params: SystemParams, extras: list, n: int, seed: int, workers: int):
    """The ``_chunk_results`` argument of every chunk, in chunk order.

    ``params`` holds (points,) columns, and ``extras`` one kernel argument
    per point.  A chunk evaluates point by point, each on its own floats.
    Points are grouped by fading means, which share one scaling of each
    chunk and its gain product, and within that by ``derived_coeffs``, which
    share the SNR denominators.  The chunks share ``min(workers, chunks)``
    workspaces.
    """
    points = [SystemParams(*row) for row in zip(*(v.tolist() for v in vars(params).values()))]
    groups: dict[tuple[float, float], dict[DerivedCoeffs, list[int]]] = {}
    for i, point in enumerate(points):
        subgroups = groups.setdefault((point.omega1, point.omega2), {})
        subgroups.setdefault(derived_coeffs(point), []).append(i)
    sizes = _chunk_sizes(n)
    pool = queue.SimpleQueue()
    for _ in range(min(workers, len(sizes))):
        pool.put(_Workspace.empty(sizes[0]))
    return [(kernel, points, extras, groups, pool, seed, k, size)
            for k, size in enumerate(sizes)]


def _map_points(kernel, params: SystemParams, extras: list, n: int, seed: int, workers: int):
    """Per point of the (points,) columns ``params``, its ``kernel`` result
    on every chunk, in chunk order."""
    if not extras:
        return []
    tasks = _chunk_tasks(kernel, params, extras, n, seed, workers)
    return list(zip(*_map_chunks(_chunk_results, tasks, workers)))


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
    means, errs = [], []
    taus = list(zip(tau1.tolist(), tau2.tolist()))
    for counts in _map_points(_outage_count, params, taus, n, seed, workers):
        p = sum(counts) / n
        var = p * (1.0 - p) * n / (n - 1) if n > 1 else 0.0
        means.append(p)
        errs.append(math.sqrt(var / n))
    return Estimate.shaped(means, errs, shape, n, seed)


def _mean_and_error(s: float, q: float, n: int) -> tuple[float, float]:
    """The sample mean and its standard error from the sum ``s`` and the sum
    of squares ``q`` of ``n`` samples."""
    mean = s / n
    var = max(q - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def estimate_capacity(params: SystemParams, n: int, seed: int, workers: int = 1) -> Estimate:
    """Per point, the sample mean of the sum rate R1 + R2 over fading rounds."""
    n = _validate_n(n)
    shape, params, _ = as_columns(params)
    means, errs = [], []
    for parts in _map_points(_rate_sums, params, [None] * params.p1.size, n, seed, workers):
        s = q = 0.0
        for part_s, part_q in parts:
            s += part_s
            q += part_q
        mean, err = _mean_and_error(s, q, n)
        means.append(mean)
        errs.append(err)
    return Estimate.shaped(means, errs, shape, n, seed)


def estimate_diversity_fd(
    params: SystemParams, r, n: int, seed: int, workers: int = 1,
) -> Estimate:
    """Per point, a central finite difference of -ln(P_out) in ln(gamma) at
    the point's own SNR gamma = P/sigma2, with multiplexing gain ``r``.

    The powers must be symmetric
    (``model.check_symmetric_powers``).  The stencil sits DIVERSITY_STEP_DB
    above and below each point's SNR, with P1 = P2 = gamma*sigma2 and
    thresholds tau = (1+gamma)^r - 1 re-derived at each stencil point; every
    other parameter is the point's own.  All stencil evaluations run in one
    ``estimate_outage`` call on the same seed (common random numbers), so the
    independence-based error propagation below is conservative.  A stencil
    point with fewer than 100 outage events raises ``InsufficientSamplesError``
    naming its SNR in dB, for the first point with one, its higher stencil
    point checked first; the error's ``point`` is that point's index.  So does
    one with fewer than 100 samples out of outage, where nearly every draw is
    an outage and the difference would read 0.  A stencil point whose SNR,
    power or threshold is not a positive finite float raises ``DomainError``
    the same way, before any sampling.
    """
    shape, base, (r,) = as_columns(params, r)
    check_symmetric_powers(base)
    raise_first((r <= 0, lambda i: ParameterError(
        f"multiplexing gain must be positive (r = 0 gives tau = 0 and an "
        f"undefined log-derivative); got {r[i]}"
    )))
    stencil = []  # (gamma_db, gamma) of each point's higher, then lower SNR
    powers, rates = [], []
    for index, (p1, sigma2, r_i) in enumerate(zip(base.p1.tolist(), base.sigma2.tolist(),
                                                  r.tolist())):
        db = 10.0 * math.log10(p1 / sigma2)
        for sign in (+1.0, -1.0):
            point_db = db + sign * DIVERSITY_STEP_DB
            try:
                gamma = 10.0 ** (point_db / 10.0)
                power = gamma * sigma2
                targets = TargetRates.from_multiplexing_gain(r_i, gamma) if power > 0.0 else None
            except OverflowError:  # of 10^(dB/10) or of tau = (1+gamma)^r - 1
                power = math.inf
            if not 0.0 < power < math.inf:
                raise failed_at(index, DomainError(
                    f"diversity stencil point gamma_db={point_db:.6g} (r={r_i:g}): its SNR, "
                    "power or threshold is not a positive finite float"
                ))
            stencil.append((point_db, gamma))
            powers.append(power)
            rates.append(vars(targets).values())
    # every point twice, its higher stencil point first
    twice = SystemParams(*(np.repeat(v, 2) for v in vars(base).values()))
    outage = estimate_outage(replace(twice, p1=np.array(powers), p2=np.array(powers)),
                             TargetRates(*map(np.array, zip(*rates))),
                             n, seed, workers=workers)
    for k, (mean, (point_db, _)) in enumerate(zip(outage.mean, stencil)):
        if mean * n < 100:
            raise failed_at(k // 2, InsufficientSamplesError(
                f"only {mean * n:.0f} outage events at gamma_db="
                f"{point_db:.3g}; need >= 100 to difference"
            ))
        if (1.0 - mean) * n < 100:
            raise failed_at(k // 2, InsufficientSamplesError(
                f"only {(1.0 - mean) * n:.0f} non-outage samples at gamma_db="
                f"{point_db:.3g}; need >= 100 to difference"
            ))
    means, errs = [], []
    for hi, lo, hi_err, lo_err, (_, gamma_hi), (_, gamma_lo) in zip(
        outage.mean[::2], outage.mean[1::2], outage.std_err[::2], outage.std_err[1::2],
        stencil[::2], stencil[1::2],
    ):
        dlog = math.log(gamma_hi / gamma_lo)
        means.append(-(math.log(hi) - math.log(lo)) / dlog)
        errs.append(math.sqrt((hi_err / hi) ** 2 + (lo_err / lo) ** 2) / dlog)
    return Estimate.shaped(means, errs, shape, n, seed)
