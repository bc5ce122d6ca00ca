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
``gain_product``, ``snr_numerator`` and ``snr_denominators``; the tests
check it against the algebraically identical harvest-division form.  Where
P1 = P2, ``weaker_snr`` gives min(gamma1, gamma2) as one quotient.

The model takes one point or a batch in the same form: each field of a
``SystemParams`` or ``TargetRates`` is either a float, which holds at every
point, or a 1-D column of one value per point (numpy broadcasting).
``build_params`` and ``TargetRates.from_rates`` check every point and raise
for the first one that fails, marked with its index (``errors.failed_at``).
``db_to_linear`` and ``symmetric_growth`` are the one dB-to-linear step and
the one (1+gamma)^r of the config, the closed-form diversity and its stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, raise_first

#: Python's float ``pow`` element by element.  numpy's array ``pow`` differs
#: from it by an ulp on some inputs, and the fading means and the rate
#: thresholds 2^(2T) - 1 have always been formed with Python's.
_pow = np.frompyfunc(pow, 2, 1)


@dataclass(frozen=True)
class SystemParams:
    """Full protocol parameterization (linear scale throughout); each field
    is a float or a column of one value per point."""

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


def _broadcast(*values) -> list[np.ndarray]:
    """``values`` as float arrays of one shape; columns whose lengths differ
    raise ParameterError."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    try:
        return np.broadcast_arrays(*arrays)
    except ValueError:
        lengths = sorted({len(v) for v in arrays if v.ndim})
        raise ParameterError(f"per-point columns differ in length: {lengths}") from None


def _shaped(values: np.ndarray, shape: tuple):
    """``values`` as the fields of a call of that input ``shape`` hold them:
    a float for one point, the array itself for a batch."""
    return values.reshape(shape) if shape else values.item()


@dataclass(frozen=True)
class TargetRates:
    """Target rates (bit/s/Hz) and their SNR thresholds tau = 2^(2T) - 1;
    each field is a float or a column of one value per point."""

    t1: float
    t2: float
    tau1: float
    tau2: float

    @classmethod
    def from_rates(cls, t1, t2) -> "TargetRates":
        t1, t2 = _broadcast(t1, t2)
        shape, t1, t2 = t1.shape, t1.reshape(-1), t2.reshape(-1)
        raise_first((~((0.0 <= t1) & (t1 < math.inf) & (0.0 <= t2) & (t2 < math.inf)),
                     lambda i: ParameterError(
                         f"target rates must be finite and >= 0; got ({t1[i]}, {t2[i]})")))
        taus = (np.asarray(_pow(2.0, 2.0 * t), dtype=float) - 1.0 for t in (t1, t2))
        return cls(*(_shaped(v, shape) for v in (t1, t2, *taus)))


def as_columns(params: SystemParams, *more) -> tuple[tuple, SystemParams, list[np.ndarray]]:
    """The input shape of a call on ``params`` and the per-point values
    ``more`` (thresholds, multiplexing gains): () for one point, (points,)
    for a batch; and ``params`` and ``more`` with every value a (points,)
    array, one point for a call of floats."""
    values = _broadcast(*vars(params).values(), *more)
    flat = [v.reshape(-1) for v in values]
    return values[0].shape, SystemParams(*flat[:10]), flat[10:]


def build_params(p1, p2, sigma2, eta, lam, epsilon, d1, path_loss_exp) -> SystemParams:
    """Validate ranges and derive the fading means from the geometry, for
    one point (floats) or a batch (any argument a column).

    The two sources sit a unit distance apart with the relay at d1 from
    source 1, so omega1 = 1/d1^ple and omega2 = 1/(1-d1)^ple.  The powers,
    the noise, the fading means and c = 1/(eta*lam) must be positive finite
    floats; the first point whose value is not raises ParameterError naming
    its inputs, marked with its index.
    """
    given = _broadcast(p1, p2, sigma2, eta, lam, epsilon, d1, path_loss_exp)
    shape = given[0].shape
    p1, p2, sigma2, eta, lam, epsilon, d1, ple = (v.reshape(-1) for v in given)
    ranges = (
        (~((0.0 < p1) & (p1 < math.inf) & (0.0 < p2) & (p2 < math.inf)
           & (0.0 < sigma2) & (sigma2 < math.inf)), lambda i: ParameterError(
            f"p1, p2 and sigma2 must be positive finite floats; "
            f"got ({p1[i]}, {p2[i]}, {sigma2[i]})")),
        (~((0.0 < eta) & (eta <= 1.0)),
         lambda i: ParameterError(f"eta must lie in (0, 1]; got {eta[i]}")),
        (~((0.0 < lam) & (lam < 1.0)),
         lambda i: ParameterError(f"lambda must lie strictly inside (0, 1); got {lam[i]}")),
        (~((0.0 <= epsilon) & (epsilon <= 1.0)),
         lambda i: ParameterError(f"epsilon must lie in [0, 1]; got {epsilon[i]}")),
        (~((0.0 < d1) & (d1 < 1.0)),
         lambda i: ParameterError(f"d1 must lie strictly inside (0, 1); got {d1[i]}")),
        (ple <= 0.0,
         lambda i: ParameterError(f"path_loss_exp must be positive; got {ple[i]}")),
    )
    # a point out of range gets stand-in values, so that pow stays real
    inside = ~np.logical_or.reduce([bad for bad, _ in ranges])
    d1_in, ple_in = np.where(inside, d1, 0.5), np.where(inside, ple, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a loss that underflows to 0 gives an infinite mean
        omega1, omega2 = (1.0 / np.asarray(_pow(base, ple_in), dtype=float)
                          for base in (d1_in, 1.0 - d1_in))
        c = 1.0 / (eta * lam)  # eta*lam may underflow to 0
    raise_first(
        *ranges,
        (~((omega1 < math.inf) & (omega2 < math.inf)), lambda i: ParameterError(
            f"d1 = {d1[i]} and path_loss_exp = {ple[i]} give fading means "
            f"({omega1[i]}, {omega2[i]}); they must be positive finite floats")),
        (~(c < math.inf), lambda i: ParameterError(
            f"eta = {eta[i]} and lambda = {lam[i]} give c = 1/(eta*lambda) = {c[i]}; "
            "it must be a positive finite float")),
    )
    return SystemParams(*(_shaped(v, shape) for v in (
        p1, p2, sigma2, eta, lam, epsilon, d1, ple, omega1, omega2)))


def check_symmetric_powers(params: SystemParams) -> None:
    """Raise ParameterError, marked with its index, for the first point whose
    powers differ by more than 1e-12 relative: the diversity formula and its
    Monte Carlo estimate both assume P1 = P2."""
    _, params, _ = as_columns(params)
    p1, p2 = params.p1, params.p2
    raise_first((np.abs(p1 - p2) > 1e-12 * np.maximum(np.abs(p1), np.abs(p2)),
                 lambda i: ParameterError(
                     f"the diversity metric assumes symmetric powers; got ({p1[i]}, {p2[i]})")))


def check_multiplexing_gain(r) -> None:
    """Raise ParameterError, marked with its index, for the first point whose
    multiplexing gain ``r`` (a float or a column) is not positive: r = 0
    gives tau = 0, and the diversity and its estimate are log-derivatives
    of an outage that is then 0."""
    r = np.asarray(r, dtype=float).reshape(-1)
    raise_first((r <= 0.0, lambda i: ParameterError(
        f"multiplexing gain must be positive; got {r[i]}")))


def db_to_linear(db: float) -> float:
    """10^(db/10) by Python's float ``pow``, for a config's SNRs and the
    diversity stencil's; inf past the float range, for the caller to judge."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def symmetric_growth(r, gamma) -> np.ndarray:
    """(1+gamma)^r per element of the arrays, inf past the float range: the
    symmetric threshold tau = (1+gamma)^r - 1 at multiplexing gain r, which
    ``analytic.dmt`` and its Monte Carlo stencil share bit for bit."""
    with np.errstate(over="ignore"):
        return (1.0 + gamma) ** r


def derived_coeffs(params: SystemParams) -> DerivedCoeffs:
    """b = 1 + epsilon*lam/(1-lam), c = 1/(eta*lam)."""
    return DerivedCoeffs(
        b=1.0 + params.epsilon * params.lam / (1.0 - params.lam),
        c=1.0 / (params.eta * params.lam),
    )


def snr_scales(params: SystemParams) -> tuple:
    """(P2/sigma2, P1/sigma2): the scales of gamma1 and gamma2."""
    return params.p2 / params.sigma2, params.p1 / params.sigma2


def gain_product(g1, g2, out=None):
    """g1*g2, the gain part of both SNR numerators: one value for every point
    on the same gains.  ``out`` is an array to write it into."""
    return np.multiply(g1, g2, out=out)


def snr_numerator(scale, prod, out=None):
    """scale*g1*g2 from the ``gain_product``: the numerator of every SNR of
    that scale on the same gains, both directions' where P1 = P2.  ``out`` is
    an array to write it into."""
    return np.multiply(scale, prod, out=out)


def snr_denominators(coeffs: DerivedCoeffs, g1, g2, out=(None, None)):
    """The SNR denominators (b*g1 + c, b*g2 + c): one pair for every point on
    the same gains with the same ``derived_coeffs``.  ``out`` is a pair of
    arrays to write them into."""
    b, c = coeffs
    return tuple(np.add(np.multiply(b, g, out=o), c, out=o) for g, o in zip((g1, g2), out))


def end_to_end_snrs(
    params: SystemParams, g1, g2, *, prod=None, dens=None, num=None, out=(None, None)
) -> tuple:
    """End-to-end SNR pair (gamma1, gamma2) after the two-stage round.

    Takes scalar or array gains; zero gains give zero SNR.  Points that share
    their gains can share the work: ``prod`` is their ``gain_product``,
    ``dens`` their ``snr_denominators``, ``num`` the ``snr_numerator`` of a
    point with P1 = P2, which both directions divide, and ``out`` is a pair
    of arrays to write gamma1 and gamma2 into.  Each part runs the same
    ufuncs in the same order whether it is passed or computed here, so the
    bits do not depend on which are given.
    """
    if dens is None:
        dens = snr_denominators(derived_coeffs(params), g1, g2)
    if num is not None:
        return tuple(np.divide(num, den, out=o) for den, o in zip(dens, out))
    if prod is None:
        prod = gain_product(g1, g2)
    return tuple(
        np.divide(snr_numerator(a, prod, out=o), den, out=o)
        for a, den, o in zip(snr_scales(params), dens, out)
    )


def larger_denominator(dens, out=None):
    """max(den1, den2) of a pair of ``snr_denominators``, for ``weaker_snr``.
    ``out`` is an array to write it into, which may be den1."""
    return np.maximum(*dens, out=out)


def weaker_snr(params: SystemParams, g1, g2, *, num=None, den=None, out=None):
    """min(gamma1, gamma2) of ``end_to_end_snrs``, bit for bit, for a point
    whose directions share their scale a = P1/sigma2 = P2/sigma2, as the one
    quotient num / max(den1, den2) with num = a*g1*g2.

    Correctly rounded division is monotone in the divisor, so the quotient
    by the larger denominator is the smaller SNR.  The denominators are at
    least c > 0, so an SNR is NaN only where num is NaN, or where num = inf
    meets an infinite denominator; max(den1, den2) is then inf, and this
    quotient is NaN too, as ``np.minimum`` gives.  So ``weaker_snr < tau``
    is ``(gamma1 < tau) | (gamma2 < tau)`` element by element.

    ``num`` is the point's ``snr_numerator`` and ``den`` the
    ``larger_denominator`` of its ``snr_denominators``, if already formed,
    and ``out`` an array to write the SNR into.  A point whose scales differ
    raises ParameterError.
    """
    if num is None:
        a1, a2 = snr_scales(params)
        if np.any(a1 != a2):
            raise ParameterError(f"the weaker SNR needs P1/sigma2 = P2/sigma2; got {a2}, {a1}")
        num = snr_numerator(a1, gain_product(g1, g2))
    if den is None:
        den = larger_denominator(snr_denominators(derived_coeffs(params), g1, g2))
    return np.divide(num, den, out=out)
