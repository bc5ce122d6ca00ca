"""Monte Carlo ground-truth oracles.

Empirical outage probability, ergodic capacity, and a finite-difference
diversity estimate.

Determinism contract: draws are organized into fixed chunks of 2^16 samples;
chunk k uses the substream ``SeedSequence(entropy=seed, spawn_key=(k,))`` and
the reduction always runs in chunk-index order, so results are bit-identical
for any worker count.  Within a chunk, g1 is drawn as one block, then g2.

With ``workers > 1`` the chunks run on a thread pool in this process: numpy
releases the interpreter lock while it draws exponentials and evaluates
ufuncs on whole chunks, so threads overlap the sampling without the start-up
and pickling cost of worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, ParameterError
from .model import (
    SystemParams,
    TargetRates,
    build_params,
    end_to_end_snrs,
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


def _draw_gains(params: SystemParams, seed: int, chunk: int, size: int):
    rng = _chunk_rng(seed, chunk)
    g1 = rng.exponential(params.omega1, size)
    g2 = rng.exponential(params.omega2, size)
    return g1, g2


def _outage_chunk(args) -> int:
    params, tau1, tau2, seed, chunk, size = args
    g1, g2 = _draw_gains(params, seed, chunk, size)
    gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
    return int(np.count_nonzero((gamma1 < tau1) | (gamma2 < tau2)))


def _rate_chunk(args):
    params, seed, chunk, size = args
    g1, g2 = _draw_gains(params, seed, chunk, size)
    gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
    r1 = 0.5 / LN2 * np.log1p(gamma1)
    r2 = 0.5 / LN2 * np.log1p(gamma2)
    total = r1 + r2
    return (
        float(np.sum(r1)),
        float(np.sum(r1 * r1)),
        float(np.sum(r2)),
        float(np.sum(r2 * r2)),
        float(np.sum(total)),
        float(np.sum(total * total)),
    )


def _map_chunks(func, arglist, workers: int):
    if workers <= 1 or len(arglist) <= 1:
        return [func(a) for a in arglist]
    with ThreadPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
        return list(pool.map(func, arglist))


def _validate_n(n: int) -> int:
    if n < 1:
        raise ParameterError(f"sample count must be >= 1; got {n}")
    return int(n)


def estimate_outage(
    params: SystemParams,
    targets: TargetRates,
    n: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Fraction of rounds where either direction misses its target rate."""
    n = _validate_n(n)
    sizes = _chunk_sizes(n)
    args = [
        (params, targets.tau1, targets.tau2, seed, k, size)
        for k, size in enumerate(sizes)
    ]
    p = sum(_map_chunks(_outage_chunk, args, workers)) / n
    var = p * (1.0 - p) * n / (n - 1) if n > 1 else 0.0
    return Estimate(mean=p, std_err=math.sqrt(var / n), n=n, seed=seed)


def _rate_totals(params, n, seed, workers):
    sizes = _chunk_sizes(n)
    args = [(params, seed, k, size) for k, size in enumerate(sizes)]
    totals = [0.0] * 6
    for part in _map_chunks(_rate_chunk, args, workers):
        for i, v in enumerate(part):
            totals[i] += v
    return totals


def _to_estimate(s: float, q: float, n: int, seed: int) -> Estimate:
    mean = s / n
    var = max(q - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    return Estimate(mean=mean, std_err=math.sqrt(var / n), n=n, seed=seed)


def estimate_capacity(
    params: SystemParams,
    n: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Sample mean of the sum rate R1 + R2 over fading rounds."""
    n = _validate_n(n)
    totals = _rate_totals(params, n, seed, workers)
    return _to_estimate(totals[4], totals[5], n, seed)


def estimate_diversity_fd(
    params: SystemParams,
    r: float,
    gamma_db: float,
    delta_db: float = 0.25,
    n: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Central finite difference of -ln(P_out) in ln(gamma) at finite SNR.

    Uses the symmetric setup P1 = P2 = gamma*sigma2 with thresholds
    tau = (1+gamma)^r - 1 re-derived at each stencil point.  Both stencil
    evaluations reuse the same seed (common random numbers), so the
    independence-based error propagation below is conservative.
    """
    if r <= 0:
        raise ParameterError(
            f"multiplexing gain must be positive (r = 0 gives tau = 0 and an "
            f"undefined log-derivative); got {r}"
        )
    if delta_db <= 0:
        raise ParameterError(f"stencil width must be positive; got {delta_db}")
    estimates = []
    gammas = []
    for sign in (+1.0, -1.0):
        gamma = 10.0 ** ((gamma_db + sign * delta_db) / 10.0)
        point = build_params(
            p1=gamma * params.sigma2,
            p2=gamma * params.sigma2,
            sigma2=params.sigma2,
            eta=params.eta,
            lam=params.lam,
            epsilon=params.epsilon,
            d1=params.d1,
            path_loss_exp=params.path_loss_exp,
        )
        targets = TargetRates.from_multiplexing_gain(r, gamma)
        est = estimate_outage(point, targets, n, seed, workers=workers)
        if est.mean * n < 100:
            raise InsufficientSamplesError(
                f"only {est.mean * n:.0f} outage events at gamma_db="
                f"{gamma_db + sign * delta_db:.3g}; need >= 100 to difference"
            )
        estimates.append(est)
        gammas.append(gamma)
    hi, lo = estimates
    dlog = math.log(gammas[0] / gammas[1])
    value = -(math.log(hi.mean) - math.log(lo.mean)) / dlog
    err = (
        math.sqrt((hi.std_err / hi.mean) ** 2 + (lo.std_err / lo.mean) ** 2) / dlog
    )
    return Estimate(mean=value, std_err=err, n=n, seed=seed)
