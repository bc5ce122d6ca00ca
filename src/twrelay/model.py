"""Protocol model: parameters, derived coefficients, target rates and
end-to-end SNRs.

The round has two half-duplex stages of equal duration: both sources
transmit to the relay (which splits the received power, harvesting a
fraction ``lam`` and processing the rest), then the relay amplifies and
broadcasts with the harvested power.  After self-interference cancellation
the end-to-end SNR seen at source i reduces to

    gamma_i = (P_j / sigma2) * g1 * g2 / (b * g_i + c),

with b = 1 + epsilon*lam/(1 - lam) and c = 1/(eta*lam).  That rational
form is computed only here, by ``end_to_end_snrs`` from its shared parts
``gain_product`` and ``snr_denominators``; the tests check it against the
algebraically identical harvest-division form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, failed_at


@dataclass(frozen=True)
class SystemParams:
    """Full protocol parameterization (linear scale throughout)."""

    p1: float
    p2: float
    sigma2: float
    eta: float
    lam: float
    epsilon: float
    d1: float
    path_loss_exp: float
    omega1: float
    omega2: float


class DerivedCoeffs(NamedTuple):
    """Amplification-noise coefficient b >= 1 and harvest-inverse c > 0."""

    b: float
    c: float


@dataclass(frozen=True)
class TargetRates:
    """Target rates (bit/s/Hz) and their SNR thresholds tau = 2^(2T) - 1."""

    t1: float
    t2: float
    tau1: float
    tau2: float

    @classmethod
    def from_rates(cls, t1: float, t2: float) -> "TargetRates":
        if not (0.0 <= t1 < math.inf and 0.0 <= t2 < math.inf):
            raise ParameterError(f"target rates must be finite and >= 0; got ({t1}, {t2})")
        return cls(t1, t2, 2.0 ** (2.0 * t1) - 1.0, 2.0 ** (2.0 * t2) - 1.0)

    @classmethod
    def from_multiplexing_gain(cls, r: float, gamma: float) -> "TargetRates":
        """Symmetric targets T = r * (1/2) log2(1+gamma), i.e. tau = (1+gamma)^r - 1."""
        if r <= 0:
            raise ParameterError(f"multiplexing gain must be positive; got {r}")
        if gamma <= 0:
            raise ParameterError(f"SNR must be positive; got {gamma}")
        t = 0.5 * r * math.log2(1.0 + gamma)
        return cls.from_rates(t, t)


def build_params(
    p1: float,
    p2: float,
    sigma2: float,
    eta: float,
    lam: float,
    epsilon: float,
    d1: float,
    path_loss_exp: float,
) -> SystemParams:
    """Validate ranges and derive the fading means from the geometry.

    The two sources sit a unit distance apart with the relay at d1 from
    source 1, so omega1 = 1/d1^ple and omega2 = 1/(1-d1)^ple.  The powers,
    the noise, the fading means and c = 1/(eta*lam) must be positive finite
    floats; a value that is not raises ParameterError naming its inputs.
    """
    if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf and 0.0 < sigma2 < math.inf):
        raise ParameterError(
            f"p1, p2 and sigma2 must be positive finite floats; got ({p1}, {p2}, {sigma2})")
    if not 0 < eta <= 1:
        raise ParameterError(f"eta must lie in (0, 1]; got {eta}")
    if not 0 < lam < 1:
        raise ParameterError(f"lambda must lie strictly inside (0, 1); got {lam}")
    if not 0 <= epsilon <= 1:
        raise ParameterError(f"epsilon must lie in [0, 1]; got {epsilon}")
    if not 0 < d1 < 1:
        raise ParameterError(f"d1 must lie strictly inside (0, 1); got {d1}")
    if path_loss_exp <= 0:
        raise ParameterError(f"path_loss_exp must be positive; got {path_loss_exp}")
    loss1, loss2 = d1**path_loss_exp, (1.0 - d1) ** path_loss_exp
    # a loss that underflows to 0 gives an infinite mean
    omega1 = 1.0 / loss1 if loss1 else math.inf
    omega2 = 1.0 / loss2 if loss2 else math.inf
    if not (omega1 < math.inf and omega2 < math.inf):
        raise ParameterError(
            f"d1 = {d1} and path_loss_exp = {path_loss_exp} give fading means "
            f"({omega1}, {omega2}); they must be positive finite floats"
        )
    params = SystemParams(
        p1=float(p1),
        p2=float(p2),
        sigma2=float(sigma2),
        eta=float(eta),
        lam=float(lam),
        epsilon=float(epsilon),
        d1=float(d1),
        path_loss_exp=float(path_loss_exp),
        omega1=omega1,
        omega2=omega2,
    )
    try:
        c = derived_coeffs(params).c
    except ZeroDivisionError:  # eta*lam underflows to 0
        c = math.inf
    if not c < math.inf:
        raise ParameterError(
            f"eta = {eta} and lambda = {lam} give c = 1/(eta*lambda) = {c}; "
            "it must be a positive finite float"
        )
    return params


def per_point(*columns) -> tuple[list[list], bool]:
    """The columns of a batched call, each as one value per point, and
    whether any column was given per point.

    A sequence or a numpy array gives one value per element; any other
    value is a single value and holds at every point, so a call of single
    values is the batch of one.
    """
    def each(column) -> bool:
        return isinstance(column, (Sequence, np.ndarray)) and np.ndim(column) > 0

    lengths = {len(c) for c in columns if each(c)}
    if len(lengths) > 1:
        raise ParameterError(f"per-point sequences differ in length: {sorted(lengths)}")
    m = next(iter(lengths), 1)
    return [list(c) if each(c) else [c] * m for c in columns], bool(lengths)


def check_symmetric_powers(params: Sequence[SystemParams]) -> None:
    """Raise ParameterError, marked with its index, for the first point whose
    powers differ by more than 1e-12 relative: the diversity formula and its
    Monte Carlo estimate both assume P1 = P2."""
    for i, p in enumerate(params):
        if abs(p.p1 - p.p2) > 1e-12 * max(abs(p.p1), abs(p.p2)):
            raise failed_at(i, ParameterError(
                f"the diversity metric assumes symmetric powers; got ({p.p1}, {p.p2})"
            ))


def derived_coeffs(params: SystemParams) -> DerivedCoeffs:
    """b = 1 + epsilon*lam/(1-lam), c = 1/(eta*lam)."""
    return DerivedCoeffs(
        b=1.0 + params.epsilon * params.lam / (1.0 - params.lam),
        c=1.0 / (params.eta * params.lam),
    )


def gain_product(g1, g2, out=None):
    """g1*g2, the gain part of both SNR numerators: one value for every point
    on the same gains.  ``out`` is an array to write it into."""
    return np.multiply(g1, g2, out=out)


def snr_denominators(params: SystemParams, g1, g2, out=(None, None)):
    """The SNR denominators (b*g1 + c, b*g2 + c): one pair for every point on
    the same gains with the same ``derived_coeffs``.  ``out`` is a pair of
    arrays to write them into."""
    b, c = derived_coeffs(params)
    return tuple(np.add(np.multiply(b, g, out=o), c, out=o) for g, o in zip((g1, g2), out))


def end_to_end_snrs(
    params: SystemParams, g1, g2, *, prod=None, dens=None, out=(None, None)
) -> tuple:
    """End-to-end SNR pair (gamma1, gamma2) after the two-stage round.

    Takes scalar or array gains; zero gains give zero SNR.  Points that share
    their gains can share the work: ``prod`` is their ``gain_product`` and
    ``dens`` their ``snr_denominators``, and ``out`` is a pair of arrays to
    write gamma1 and gamma2 into.  Each part runs the same ufuncs in the same
    order whether it is passed or computed here, so the bits do not depend on
    which are given.
    """
    if prod is None:
        prod = gain_product(g1, g2)
    if dens is None:
        dens = snr_denominators(params, g1, g2)
    scales = (params.p2 / params.sigma2, params.p1 / params.sigma2)
    return tuple(
        np.divide(np.multiply(a, prod, out=o), den, out=o)
        for a, den, o in zip(scales, dens, out)
    )
