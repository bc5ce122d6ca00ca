"""Protocol model: parameters, derived coefficients, target rates and
end-to-end SNRs.

The round has two half-duplex stages of equal duration: both sources
transmit to the relay (which splits the received power, harvesting a
fraction ``lam`` and processing the rest), then the relay amplifies and
broadcasts with the harvested power.  After self-interference cancellation
the end-to-end SNR seen at source i reduces to

    gamma_i = (P_j / sigma2) * g1 * g2 / (b * g_i + c),

with b = 1 + epsilon*lam/(1 - lam) and c = 1/(eta*lam).  That rational
form has one implementation of each part: ``gain_product`` g1*g2,
``snr_numerator`` (P_j/sigma2)*g1*g2 and ``snr_denominators`` b*g_i + c.
``end_to_end_snrs`` is their quotient for one point; the tests check it
against the algebraically identical harvest-division form.  How points on
the same gains share the parts is :mod:`twrelay.mc`'s own plan.

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
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, raise_first

#: Python's float ``pow`` element by element, for the fading means and the
#: rate thresholds 2^(2T) - 1: it is correctly rounded more often than numpy's
#: array ``pow``.  Against mpmath at 200 bits on an AVX-512 CPU, numpy 2.4
#: missed the correctly rounded double on 188-249 of 4,000 random d1^ple or
#: 10^x, and Python on 2-5; ``np.power(10.0, [-17.0])`` is 9.999999999999999e-18.
_pow = np.frompyfunc(pow, 2, 1)


class SystemParams(NamedTuple):
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
    """``values`` as float arrays of one shape; values that do not broadcast
    raise ParameterError naming their lengths, or their shapes where the
    lengths agree."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    try:
        return np.broadcast_arrays(*arrays)
    except ValueError:
        lengths = sorted({len(v) for v in arrays if v.ndim})
        if len(lengths) > 1:
            raise ParameterError(f"per-point columns differ in length: {lengths}") from None
        shapes = sorted({v.shape for v in arrays if v.ndim})
        raise ParameterError(f"per-point values differ in shape: {shapes}") from None


def _shaped(values: np.ndarray, shape: tuple):
    """``values`` as the fields of a call of that input ``shape`` hold them:
    a float for one point, the array itself for a batch."""
    return values.reshape(shape) if shape else values.item()


class TargetRates(NamedTuple):
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
                         f"target rates must be finite and >= 0; got ({t1[i]}, {t2[i]})")),
                    # Python's 2.0 ** (2t) overflows exactly from t = 512 on
                    (~((t1 < 512.0) & (t2 < 512.0)), lambda i: ParameterError(
                        f"target rates ({t1[i]}, {t2[i]}) give thresholds 2^(2t) - 1 "
                        "past the float range")))
        taus = (np.asarray(_pow(2.0, 2.0 * t), dtype=float) - 1.0 for t in (t1, t2))
        return cls(*(_shaped(v, shape) for v in (t1, t2, *taus)))


def as_columns(params: SystemParams, *more) -> tuple[tuple, SystemParams, list[np.ndarray]]:
    """The input shape of a call on ``params`` and the per-point values
    ``more`` (thresholds, multiplexing gains): () for one point, (points,)
    for a batch; and ``params`` and ``more`` with every value a (points,)
    array, one point for a call of floats."""
    values = _broadcast(*params, *more)
    flat = [v.reshape(-1) for v in values]
    return values[0].shape, SystemParams(*flat[:10]), flat[10:]


def build_params(p1, p2, sigma2, eta, lam, epsilon, d1, path_loss_exp) -> SystemParams:
    """Validate ranges and derive the fading means from the geometry, for
    one point (floats) or a batch (any argument a column).

    The two sources sit a unit distance apart with the relay at d1 from
    source 1, so omega1 = 1/d1^ple and omega2 = 1/(1-d1)^ple.  The powers,
    the noise, the fading means and c = 1/(eta*lam) must be positive finite
    floats, and the SNRs P/sigma2 finite; the first point whose value is not
    raises ParameterError naming its inputs, marked with its index.
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
        snr1, snr2 = p1 / sigma2, p2 / sigma2
    raise_first(
        *ranges,
        (~((omega1 < math.inf) & (omega2 < math.inf)), lambda i: ParameterError(
            f"d1 = {d1[i]} and path_loss_exp = {ple[i]} give fading means "
            f"({omega1[i]}, {omega2[i]}); they must be positive finite floats")),
        (~(c < math.inf), lambda i: ParameterError(
            f"eta = {eta[i]} and lambda = {lam[i]} give c = 1/(eta*lambda) = {c[i]}; "
            "it must be a positive finite float")),
        (~((snr1 < math.inf) & (snr2 < math.inf)), lambda i: ParameterError(
            f"p1 = {p1[i]}, p2 = {p2[i]} and sigma2 = {sigma2[i]} give SNRs P/sigma2 = "
            f"({snr1[i]}, {snr2[i]}); they must be finite floats")),
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
    """10^(db/10) by Python's float ``pow``, which rounds correctly more often
    than numpy's (see ``_pow``), for a config's SNRs and the diversity
    stencil's; inf past the float range, for the caller to judge."""
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


def snr_denominators(coeffs: DerivedCoeffs, gains, out=None):
    """The SNR denominators b*g_i + c of the gain pair ``gains`` = (g1, g2),
    stacked on its leading axis: one pair for every point on the same gains
    with the same ``derived_coeffs``.  ``out`` is an array of that shape to
    write them into."""
    b, c = coeffs
    return np.add(np.multiply(b, gains, out=out), c, out=out)


def end_to_end_snrs(params: SystemParams, g1, g2) -> tuple:
    """End-to-end SNR pair (gamma1, gamma2) after the two-stage round: each
    direction's ``snr_numerator`` over its ``snr_denominators`` row.

    Takes scalar or array gains; zero gains give zero SNR.
    """
    coeffs = derived_coeffs(params)
    gains = np.stack(np.broadcast_arrays(g1, g2, *coeffs)[:2])  # a batch's (2, points)
    prod, dens = gain_product(*gains), snr_denominators(coeffs, gains)
    return tuple(np.divide(snr_numerator(a, prod), den) for a, den in zip(snr_scales(params), dens))
