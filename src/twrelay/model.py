"""Protocol model: parameters, derived coefficients, fading draws, harvested
relay power, end-to-end SNRs, achievable rates, and the non-cooperative
direct-link baseline.

The round has two half-duplex stages of equal duration: both sources
transmit to the relay (which splits the received power, harvesting a
fraction ``lam`` and processing the rest), then the relay amplifies and
broadcasts with the harvested power.  After self-interference cancellation
the end-to-end SNR seen at source i reduces to

    gamma_i = (P_j / sigma2) * g1 * g2 / (b * g_i + c),

with b = 1 + epsilon*lam/(1 - lam) and c = 1/(eta*lam).  That rational
form is the one computation of it here; the tests check it against the
algebraically identical harvest-division form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .specfun import tricomi_psi11

LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class DerivedCoeffs:
    """Amplification-noise coefficient b >= 1 and harvest-inverse c > 0."""

    b: float
    c: float


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of the squared channel gains |h1|^2, |h2|^2."""

    g1: float
    g2: float


@dataclass(frozen=True)
class TargetRates:
    """Target rates (bit/s/Hz) and their SNR thresholds tau = 2^(2T) - 1."""

    t1: float
    t2: float
    tau1: float
    tau2: float

    @classmethod
    def from_rates(cls, t1: float, t2: float) -> "TargetRates":
        if t1 < 0 or t2 < 0:
            raise ParameterError(f"target rates must be >= 0; got ({t1}, {t2})")
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
    source 1, so omega1 = 1/d1^ple and omega2 = 1/(1-d1)^ple.
    """
    if p1 <= 0:
        raise ParameterError(f"p1 must be positive; got {p1}")
    if p2 <= 0:
        raise ParameterError(f"p2 must be positive; got {p2}")
    if sigma2 <= 0:
        raise ParameterError(f"sigma2 must be positive; got {sigma2}")
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
    return SystemParams(
        p1=float(p1),
        p2=float(p2),
        sigma2=float(sigma2),
        eta=float(eta),
        lam=float(lam),
        epsilon=float(epsilon),
        d1=float(d1),
        path_loss_exp=float(path_loss_exp),
        omega1=1.0 / d1**path_loss_exp,
        omega2=1.0 / (1.0 - d1) ** path_loss_exp,
    )


def derived_coeffs(params: SystemParams) -> DerivedCoeffs:
    """b = 1 + epsilon*lam/(1-lam), c = 1/(eta*lam)."""
    return DerivedCoeffs(
        b=1.0 + params.epsilon * params.lam / (1.0 - params.lam),
        c=1.0 / (params.eta * params.lam),
    )


def sample_channel(params: SystemParams, rng: np.random.Generator) -> ChannelDraw:
    """Draw one pair of independent exponential power gains (g1 first)."""
    return ChannelDraw(
        g1=float(rng.exponential(params.omega1)),
        g2=float(rng.exponential(params.omega2)),
    )


def relay_power(params: SystemParams, draw: ChannelDraw) -> float:
    """Harvested transmit power P_r = eta*lam*(P1 g1 + P2 g2)."""
    return params.eta * params.lam * (params.p1 * draw.g1 + params.p2 * draw.g2)


def end_to_end_snrs(
    params: SystemParams, g1: np.ndarray, g2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end SNR pair (gamma1, gamma2) after the two-stage round.

    Takes scalar or array gains; zero gains give zero SNR.
    """
    coeffs = derived_coeffs(params)
    prod = g1 * g2
    gamma1 = (params.p2 / params.sigma2) * prod / (coeffs.b * g1 + coeffs.c)
    gamma2 = (params.p1 / params.sigma2) * prod / (coeffs.b * g2 + coeffs.c)
    return gamma1, gamma2


def achievable_rates(gamma1: float, gamma2: float) -> tuple[float, float]:
    """Half-duplex rates R_i = (1/2) log2(1 + gamma_i)."""
    if gamma1 < 0 or gamma2 < 0:
        raise ParameterError(f"SNRs must be >= 0; got ({gamma1}, {gamma2})")
    return 0.5 * math.log2(1.0 + gamma1), 0.5 * math.log2(1.0 + gamma2)


@dataclass(frozen=True)
class NonCoopBaseline:
    """Direct-link comparison scheme: no relay, same resource budget.

    Both sources exchange over the unit-distance direct channel (mean gain
    omega_direct = 1 under the same path-loss law) in two equal half-duplex
    slots, so the time/energy/bandwidth budget matches the relay round.
    The channel is reciprocal: one gain g ~ Exp(1) serves both directions
    within a round.  This time-sharing convention is a modeling choice, not
    a uniquely determined one.
    """

    params: SystemParams
    omega_direct: float = 1.0

    @property
    def snr_means(self) -> tuple[float, float]:
        """Mean direct-link SNR into S1 (powered by P2) and into S2."""
        return (
            self.params.p2 * self.omega_direct / self.params.sigma2,
            self.params.p1 * self.omega_direct / self.params.sigma2,
        )

    def outage(self, targets: TargetRates) -> float:
        """P(R1 < T1 or R2 < T2) over the shared reciprocal gain."""
        s2 = self.params.sigma2
        need = max(
            s2 * targets.tau1 / self.params.p2, s2 * targets.tau2 / self.params.p1
        )
        return 1.0 - math.exp(-need / self.omega_direct)

    def capacity(self) -> float:
        """Sum ergodic rate; per direction E[ln(1+rho g)] = e^(1/rho) E1(1/rho)."""
        total = 0.0
        for rho in self.snr_means:
            total += tricomi_psi11(1.0 / rho)
        return total / (2.0 * LN2)


def non_coop_baseline(params: SystemParams) -> NonCoopBaseline:
    return NonCoopBaseline(params=params)
