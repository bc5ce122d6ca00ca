"""Monte Carlo ground-truth oracles.

Empirical outage probability, ergodic capacity, and a finite-difference
diversity estimate, each for a whole sequence of points in one pass.

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
Only one chunk's arrays are live per thread.

With ``workers > 1`` the chunks run on a thread pool in this process: numpy
releases the interpreter lock while it draws exponentials and evaluates
ufuncs on whole chunks, so threads overlap the sampling without the start-up
and pickling cost of worker processes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, ParameterError, failed_at
from .model import (
    SystemParams,
    TargetRates,
    build_params,
    end_to_end_snrs,
    per_point,
)

CHUNK_DRAWS = 1 << 16

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_err: float
    n: int
    seed: int


class Estimates(tuple):
    """One ``Estimate`` per point of a call, all on the same draws."""

    @property
    def n(self) -> int:
        """Samples drawn by the call (0 when it has no points)."""
        return self[0].n if self else 0


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


def _draw_exponentials(seed: int, chunk: int, size: int):
    """The chunk's unit-mean draws behind g1 and g2, in that order."""
    rng = _chunk_rng(seed, chunk)
    return rng.standard_exponential(size), rng.standard_exponential(size)


def _outage_count(point, g1, g2) -> int:
    params, targets = point
    gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
    return int(np.count_nonzero((gamma1 < targets.tau1) | (gamma2 < targets.tau2)))


def _rate_sums(point, g1, g2) -> tuple[float, float]:
    """Sum and sum of squares of the chunk's sum rates R1 + R2."""
    (params,) = point
    gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
    total = 0.5 / LN2 * np.log1p(gamma1) + 0.5 / LN2 * np.log1p(gamma2)
    return float(np.sum(total)), float(np.sum(total * total))


def _chunk_results(args) -> list:
    """``kernel(point, g1, g2)`` for every point on one chunk's draws."""
    kernel, points, groups, seed, chunk, size = args
    e1, e2 = _draw_exponentials(seed, chunk, size)
    results = [None] * len(points)
    for k, ((omega1, omega2), members) in enumerate(groups.items()):
        # the last group scales the draws in place: no later group reads them
        out1, out2 = (e1, e2) if k == len(groups) - 1 else (None, None)
        g1 = np.multiply(omega1, e1, out=out1)
        g2 = np.multiply(omega2, e2, out=out2)
        for i in members:
            results[i] = kernel(points[i], g1, g2)
    return results


def _map_chunks(func, arglist, workers: int):
    if workers <= 1 or len(arglist) <= 1:
        return [func(a) for a in arglist]
    with ThreadPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
        return list(pool.map(func, arglist))


def _map_points(kernel, points: list[tuple], n: int, seed: int, workers: int):
    """Per point, its ``kernel`` result on every chunk, in chunk order.

    A point is a tuple whose first element is its ``SystemParams``; points
    with the same fading means share one scaling of each chunk.
    """
    if not points:
        return []
    groups: dict[tuple[float, float], list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault((point[0].omega1, point[0].omega2), []).append(i)
    args = [
        (kernel, points, groups, seed, k, size)
        for k, size in enumerate(_chunk_sizes(n))
    ]
    return list(zip(*_map_chunks(_chunk_results, args, workers)))


def _points(*columns) -> list[tuple]:
    """Zip per-point columns (see ``model.per_point``)."""
    return list(zip(*per_point(*columns)[0]))


def _validate_n(n: int) -> int:
    if n < 1:
        raise ParameterError(f"sample count must be >= 1; got {n}")
    return int(n)


def estimate_outage(
    params: SystemParams | Sequence[SystemParams],
    targets: TargetRates | Sequence[TargetRates],
    n: int,
    seed: int,
    workers: int = 1,
) -> Estimates:
    """Per point, the fraction of rounds where either direction misses its
    target rate.

    ``params`` and ``targets`` give one value per point; either may be a
    single value, which then holds at every point.
    """
    n = _validate_n(n)
    estimates = []
    for counts in _map_points(_outage_count, _points(params, targets), n, seed, workers):
        p = sum(counts) / n
        var = p * (1.0 - p) * n / (n - 1) if n > 1 else 0.0
        estimates.append(Estimate(mean=p, std_err=math.sqrt(var / n), n=n, seed=seed))
    return Estimates(estimates)


def _to_estimate(s: float, q: float, n: int, seed: int) -> Estimate:
    mean = s / n
    var = max(q - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    return Estimate(mean=mean, std_err=math.sqrt(var / n), n=n, seed=seed)


def estimate_capacity(
    params: SystemParams | Sequence[SystemParams],
    n: int,
    seed: int,
    workers: int = 1,
) -> Estimates:
    """Per point of ``params`` (or for the one value given), the sample mean
    of the sum rate R1 + R2 over fading rounds."""
    n = _validate_n(n)
    estimates = []
    for parts in _map_points(_rate_sums, _points(params), n, seed, workers):
        s = q = 0.0
        for part_s, part_q in parts:
            s += part_s
            q += part_q
        estimates.append(_to_estimate(s, q, n, seed))
    return Estimates(estimates)


def estimate_diversity_fd(
    params: SystemParams | Sequence[SystemParams],
    r: float | Sequence[float],
    gamma_db: float | Sequence[float],
    delta_db: float = 0.25,
    n: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimates:
    """Per point, a central finite difference of -ln(P_out) in ln(gamma) at
    finite SNR.

    ``params``, ``r`` and ``gamma_db`` give one value per point; any of them
    may be a single value, which then holds at every point.  Uses the
    symmetric setup P1 = P2 = gamma*sigma2 with thresholds
    tau = (1+gamma)^r - 1 re-derived at each stencil point.  All stencil
    evaluations run in one ``estimate_outage`` call on the same seed (common
    random numbers), so the independence-based error propagation below is
    conservative.  A stencil point with fewer than 100 outage events raises
    ``InsufficientSamplesError`` naming its gamma_db, for the first point
    with one, its higher stencil point checked first; the error's ``point``
    is that point's index.
    """
    points = _points(params, r, gamma_db)
    for _, r_i, _ in points:
        if r_i <= 0:
            raise ParameterError(
                f"multiplexing gain must be positive (r = 0 gives tau = 0 and an "
                f"undefined log-derivative); got {r_i}"
            )
    if delta_db <= 0:
        raise ParameterError(f"stencil width must be positive; got {delta_db}")
    stencil = []  # (gamma_db, gamma) of each point's higher, then lower SNR
    stencil_params, stencil_targets = [], []
    for base, r_i, db in points:
        for sign in (+1.0, -1.0):
            point_db = db + sign * delta_db
            gamma = 10.0 ** (point_db / 10.0)
            stencil.append((point_db, gamma))
            stencil_params.append(build_params(
                p1=gamma * base.sigma2,
                p2=gamma * base.sigma2,
                sigma2=base.sigma2,
                eta=base.eta,
                lam=base.lam,
                epsilon=base.epsilon,
                d1=base.d1,
                path_loss_exp=base.path_loss_exp,
            ))
            stencil_targets.append(TargetRates.from_multiplexing_gain(r_i, gamma))
    outage = estimate_outage(stencil_params, stencil_targets, n, seed, workers=workers)
    for k, (est, (point_db, _)) in enumerate(zip(outage, stencil)):
        if est.mean * n < 100:
            raise failed_at(k // 2, InsufficientSamplesError(
                f"only {est.mean * n:.0f} outage events at gamma_db="
                f"{point_db:.3g}; need >= 100 to difference"
            ))
    estimates = []
    for hi, lo, (_, gamma_hi), (_, gamma_lo) in zip(
        outage[::2], outage[1::2], stencil[::2], stencil[1::2]
    ):
        dlog = math.log(gamma_hi / gamma_lo)
        value = -(math.log(hi.mean) - math.log(lo.mean)) / dlog
        err = (
            math.sqrt((hi.std_err / hi.mean) ** 2 + (lo.std_err / lo.mean) ** 2) / dlog
        )
        estimates.append(Estimate(mean=value, std_err=err, n=n, seed=seed))
    return Estimates(estimates)
