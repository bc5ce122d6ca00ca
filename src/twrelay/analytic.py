"""Closed-form performance evaluators.

Implements the fading CDF of the harvest-scaled product variable, exact
outage (corner-point decomposition), outage bounds and the first-order
high-SNR asymptote, ergodic capacity (the survival integral, a
hypergeometric series, and a bound chain that holds by construction), the
finite-SNR diversity-multiplexing tradeoff, and the non-cooperative
direct-link baseline.

Every integral here, the outage boundary strips, the capacity survival
integrals and the capacity-series factors, runs on the one fixed
Gauss-Legendre rule in a log variable of :mod:`twrelay.numerics`.  The
series is summed as arrays, a block of orders at a time, from tables built
at import; beyond its reach it raises ConvergenceError.

Index convention used throughout: direction i is the traffic *into* source
i, so it is powered by the opposite source j and thresholded by tau_i.  In
the rational SNR form gamma_i = (P_j/sigma2) * g1*g2 / (b*g_i + c), the
coefficient b multiplies the gain on source i's own side.  :func:`directions`
is the one place that pairs a direction with its power and gains; every
closed form below is a sum over its two rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateCaseError, DomainError, ParameterError
from .model import DerivedCoeffs, SystemParams, TargetRates, derived_coeffs
from .numerics import log_integral, log_rule
from .specfun import EULER_GAMMA, bessel_xk1, exp_integral_e1, tricomi_psi11

log = logging.getLogger(__name__)

LN2 = math.log(2.0)

#: Probabilities may leave [0, 1] by at most this much before the excursion
#: is treated as a formula-misuse error rather than float noise.
CLAMP_TOL = 1e-6


#: x*K1(x) <= 1 + (x^2/2)*(ln(x/2) + EULER_GAMMA - 1/2) holds for
#: 0 < x < 2*exp(5/4 - EULER_GAMMA) = 3.919...; the bound uses it below this.
_XK1_LOG_BOUND_MAX = 3.9

#: The two branches of that bound cross here; the minimum of them has a kink.
_XK1_UPPER_KINK = 1.1386957064214889


def _clamp_probability(value: float, context: str) -> float:
    if 0.0 <= value <= 1.0:
        return value
    excess = max(-value, value - 1.0)
    if excess > CLAMP_TOL:
        raise DomainError(f"{context} produced {value}, outside [0, 1] by {excess:.3g}")
    log.debug("%s clamped by %.3g", context, excess)
    return min(1.0, max(0.0, value))


class Direction(NamedTuple):
    """One direction's SNR law, gamma = a*X*Y/(b*X + c) with X ~ Exp(own)
    and Y ~ Exp(other), and its survival function

        P(gamma > z) = exp(-s*z) * xK1(2*sqrt(mu*z)).
    """

    a: float  # P_j/sigma2, the power that carries the direction
    own: float  # omega_i, the mean of the gain that b multiplies
    other: float  # omega_j
    s: float  # b/(a*other)
    mu: float  # c/(a*own*other)


def _direction(a: float, own: float, other: float, b: float, c: float) -> Direction:
    # own*other is the same float in both directions, so equal powers give
    # bit-equal mu.
    return Direction(a, own, other, b / (a * other), c / (a * (own * other)))


def _directions(params: SystemParams, coeffs: DerivedCoeffs) -> tuple[Direction, Direction]:
    b, c = coeffs
    return (
        _direction(params.p2 / params.sigma2, params.omega1, params.omega2, b, c),
        _direction(params.p1 / params.sigma2, params.omega2, params.omega1, b, c),
    )


def directions(params: SystemParams) -> tuple[Direction, Direction]:
    """The two directions of a round, direction 1 (into source 1) first."""
    return _directions(params, derived_coeffs(params))


def _survival(d: Direction, z: float) -> float:
    """P(gamma > z) for direction ``d``, z >= 0."""
    return math.exp(-d.s * z) * bessel_xk1(2.0 * math.sqrt(d.mu * z))


def cdf_z(z: float, a: float, b: float, c: float, omega1: float, omega2: float) -> float:
    """CDF of Z = a*X*Y/(b*X + c) with X ~ Exp(omega1), Y ~ Exp(omega2).

    F_Z(z) = 1 - exp(-z*b/(a*omega2)) * x*K1(x),  x = sqrt(4*z*c/(a*omega1*omega2)).

    Continuous at z = 0 through the x*K1(x) -> 1 limit; for c = 0 the
    Bessel factor degenerates to 1 and the CDF is plain exponential.
    """
    if a <= 0:
        raise DomainError(f"scale a must be positive; got {a}")
    if z < 0:
        raise DomainError(f"z must be >= 0; got {z}")
    if b < 0 or c < 0:
        raise DomainError(f"need b, c >= 0; got b={b}, c={c}")
    if omega1 <= 0 or omega2 <= 0:
        raise DomainError("fading means must be positive")
    d = _direction(a, omega1, omega2, b, c)
    return _clamp_probability(1.0 - _survival(d, z), "cdf_z")


class CornerPoint(NamedTuple):
    """Intersection of the two outage-boundary curves in the gain plane:
    x0 on the |h1|^2 axis (direction 1's own), y0 on the |h2|^2 axis."""

    x0: float
    y0: float


def _positive_quadratic_root(quad: float, lin: float, const: float) -> float:
    """Positive root of quad*x^2 + lin*x + const with quad > 0, const < 0.

    For lin > 0 the textbook form (-lin + disc)/(2*quad) cancels, so the root
    is taken from the product of the roots instead.
    """
    disc = math.sqrt(lin * lin - 4.0 * quad * const)
    if lin > 0.0:
        return 2.0 * const / (-lin - disc)
    return (-lin + disc) / (2.0 * quad)


def _corner_residual(b, c, eps1, eps2, x0, y0) -> float:
    r1 = y0 - eps1 * (b + c / x0)
    r2 = x0 - eps2 * (b + c / y0)
    return max(abs(r1) / y0, abs(r2) / x0)


def _corner_point(coeffs: DerivedCoeffs, dirs, taus) -> CornerPoint:
    (tau1, tau2), (one, two) = taus, dirs
    if tau1 <= 0 or tau2 <= 0:
        raise DomainError(f"corner point needs positive thresholds; got ({tau1}, {tau2})")
    b, c = coeffs.b, coeffs.c
    eps1, eps2 = tau1 / one.a, tau2 / two.a
    # Substituting Y(X) gives b*X^2 + (c - eps2*b^2 - eps2*c/eps1)*X - eps2*b*c = 0.
    x0 = _positive_quadratic_root(b, c - eps2 * b * b - eps2 * c / eps1, -eps2 * b * c)
    # The Y quadratic mirrors the X one with indices swapped; its linear
    # coefficient carries the cross-traffic term eps1*c/eps2.
    y0 = _positive_quadratic_root(b, c - eps1 * b * b - eps1 * c / eps2, -eps1 * b * c)
    residual = _corner_residual(b, c, eps1, eps2, x0, y0)
    if residual > 1e-9:
        raise DegenerateCaseError(
            f"corner point ({x0:.6g}, {y0:.6g}) violates the boundary system "
            f"by {residual:.3g} relative (tau=({tau1}, {tau2}), b={b}, c={c}, "
            f"eps=({eps1}, {eps2}))"
        )
    return CornerPoint(x0, y0)


def corner_point(params: SystemParams, tau1: float, tau2: float) -> CornerPoint:
    """Solve the boundary system Y = eps1*(b + c/X), X = eps2*(b + c/Y) with
    eps_i = tau_i/a_i, from the quadratic-root expressions obtained by
    substitution.  The result must satisfy both equations to 1e-9 relative.
    """
    coeffs = derived_coeffs(params)
    return _corner_point(coeffs, _directions(params, coeffs), (tau1, tau2))


def _segment_integral(k: float, omega: float, v: float) -> float:
    """I = int_0^v exp(-k/z - z/omega) dz by the log-variable rule.

    The rule runs in t = ln z on [k/700, min(v, 50*omega)].  Below k/700
    the integrand is under e^-700 and above 50*omega the tail is under
    omega*e^-50, so an empty interval means a negligible integral.  In ln z
    the exp(-k/z) boundary layer is smooth: on random strips the rule
    agrees with an mpmath reference to about 1e-14 absolute.
    """
    lo, hi = k / 700.0, min(v, 50.0 * omega)
    if lo >= hi:
        return 0.0
    return log_integral(lambda z: np.exp(-k / z - z / omega), lo, hi)


def _corner_mass(dirs, corner: CornerPoint) -> float:
    """P(|h1|^2 > X0, |h2|^2 > Y0) = exp(-X0/omega1 - Y0/omega2)."""
    one, two = dirs
    return math.exp(-corner.x0 / one.own - corner.y0 / two.own)


def _joint_outage(coeffs: DerivedCoeffs, dirs, taus) -> float:
    corner = _corner_point(coeffs, dirs, taus)
    total = 1.0 - _corner_mass(dirs, corner)
    for d, tau, v in zip(dirs, taus, corner):
        total -= math.exp(-d.s * tau) / d.own * _segment_integral(tau * d.mu * d.own, d.own, v)
    return _clamp_probability(total, "joint_outage")


def joint_outage(params: SystemParams, tau1: float, tau2: float) -> float:
    """P(gamma_1 < tau1, gamma_2 < tau2) via the corner-point decomposition:

        1 - exp(-X0/omega1 - Y0/omega2)
          - sum_i (1/own_i) exp(-s_i*tau_i) * I(tau_i*mu_i*own_i, own_i, V_i),

    where V_i is the corner coordinate on direction i's own axis (X0 for
    direction 1, Y0 for direction 2) and I integrates the boundary strip
    between the corner and the curve (see :func:`_segment_integral`).
    """
    if tau1 <= 0.0 or tau2 <= 0.0:
        return 0.0
    coeffs = derived_coeffs(params)
    return _joint_outage(coeffs, _directions(params, coeffs), (tau1, tau2))


def outage_exact(params: SystemParams, targets: TargetRates) -> float:
    """System outage by inclusion-exclusion over the two directions."""
    coeffs = derived_coeffs(params)
    dirs = _directions(params, coeffs)
    taus = (targets.tau1, targets.tau2)
    total = sum(1.0 - _survival(d, tau) for d, tau in zip(dirs, taus) if tau > 0.0)
    if min(taus) > 0.0:
        total -= _joint_outage(coeffs, dirs, taus)
    return _clamp_probability(total, "outage_exact")


def outage_bounds(params: SystemParams, targets: TargetRates) -> tuple[float, float]:
    """Closed-form lower/upper outage bounds.

    Both come from sandwiching the boundary-strip integrals I_i: dropping
    exp(-k/z) on the tail yields the upper bound, shifting the full-line
    integral by exp(-V/omega) the lower one.  With the corner mass
    M = exp(-X0/omega1 - Y0/omega2) and V_i, own_i as in
    :func:`joint_outage`, the lower bound is Bessel-free:

        P >= 1 + M - sum_i exp(-s_i*tau_i - V_i/own_i),

    and the upper bound multiplies each direction's survival
    P(gamma_i > tau_i) by the corner attenuation exp(-V_i/own_i):

        P <= 1 + M - sum_i P(gamma_i > tau_i) * exp(-V_i/own_i).

    At low SNR the two attenuated survival terms can sum to less than the
    corner mass, so the upper bound exceeds 1 (1.0027 at 1.76 dB in one
    valid config whose exact outage is 0.982); it is then returned as 1.
    The exact value and the lower bound keep the excursion check.
    """
    taus = (targets.tau1, targets.tau2)
    if min(taus) <= 0.0:
        value = outage_exact(params, targets)
        return value, value
    coeffs = derived_coeffs(params)
    dirs = _directions(params, coeffs)
    corner = _corner_point(coeffs, dirs, taus)
    lower = upper = 1.0 + _corner_mass(dirs, corner)
    for d, tau, v in zip(dirs, taus, corner):
        lower -= math.exp(-d.s * tau - v / d.own)
        upper -= _survival(d, tau) * math.exp(-v / d.own)
    return (
        _clamp_probability(lower, "outage lower bound"),
        _clamp_probability(min(1.0, upper), "outage upper bound"),
    )


def outage_high_snr(params: SystemParams, targets: TargetRates) -> float:
    """First-order high-SNR asymptote of the exact outage.

    Per direction, m_i = s_i*tau_i is the b part and kappa_i = mu_i*tau_i
    the harvest part of its marginal outage.  Label the directions weak (w)
    and strong (s) so that kappa_s <= kappa_w (the weak one has the larger
    tau_i/a_i), and let X = (kappa_w - kappa_s)/m_s.  Then

        P_out ~ m_w + kappa_w*(ln(1/kappa_w) + 1 - 2*EULER_GAMMA)
                + m_s*e^(-X) - (kappa_w - kappa_s)*E1(X),

    and the last two terms reduce to m_s when the two are equal.  The
    first two terms are the weak direction's marginal outage, expanded
    through x*K1(x) = 1 + (x^2/2)(ln(x/2) + EULER_GAMMA - 1/2) + O(x^4 ln x);
    the last two are the part of the strong direction's outage region that
    lies outside the weak one's: a strip of width O(1/SNR) in its other
    gain, beyond a corner at the O(1) gain own_s*X on its own axis
    whenever kappa_s != kappa_w.  The relative error vanishes as the SNR
    grows.

    The paper's limit 2 - e^(-m_1) - e^(-m_2) is the b-only part of this
    asymptote: it drops the kappa*ln(1/kappa) term, which is of the same
    order, so its relative gap grows with SNR.  The lower bound has no log
    term either, so the exact value, the bounds and these curves share
    only their absolute limit of 0.

    At low SNR the expression exceeds 1, so the contract clamps rather
    than errors.
    """
    one, two = directions(params)
    (m_s, kappa_s), (m_w, kappa_w) = (
        (one.s * targets.tau1, one.mu * targets.tau1),
        (two.s * targets.tau2, two.mu * targets.tau2),
    )
    if kappa_s > kappa_w:
        (m_s, kappa_s), (m_w, kappa_w) = (m_w, kappa_w), (m_s, kappa_s)
    if kappa_w <= 0.0:
        return 0.0
    value = m_w + kappa_w * (math.log(1.0 / kappa_w) + 1.0 - 2.0 * EULER_GAMMA)
    if kappa_s == kappa_w:
        value += m_s
    elif kappa_s > 0.0:
        x = (kappa_w - kappa_s) / m_s
        value += m_s * math.exp(-x) - (kappa_w - kappa_s) * exp_integral_e1(x)
    return min(1.0, max(0.0, value))


def _survival_integral(s: float, mu: float, xk1, kink: float | None = None) -> float:
    """int_0^inf exp(-s*z) * xk1(2*sqrt(mu*z)) / (1+z) dz for ``xk1`` equal
    to x*K1(x) or one of the bounds on it, each taking an array.

    The rule runs in t = ln z on [1e-17*min(1, 1/s), min(745/s, 745^2/(4*mu))].
    The integrand is at most 1 and the value scales with the decay length
    min(1, 1/s), so the part dropped below is under 1e-17 of it; above,
    e^(-s*z) or xk1(x) <= (1+x)e^-x at x = 745 is under e^-738.  The
    window is split at z = 1, below the pole of 1/(1+z) at t = i*pi, and
    at x = ``kink`` where ``xk1`` has one.
    """

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.exp(-s * z) * xk1(2.0 * np.sqrt(mu * z)) / (1.0 + z)

    splits = (1.0,) if kink is None else (1.0, kink * kink / (4.0 * mu))
    return log_integral(
        integrand, 1e-17 * min(1.0, 1.0 / s), 745.0 / max(s, 4.0 * mu / 745.0), splits
    )


def capacity_quadrature(params: SystemParams) -> float:
    """Ergodic capacity: (1/(2 ln 2)) * sum_i int_0^inf (1 - F_i(z))/(1+z) dz,
    each survival integral on the log-variable rule."""
    total = sum(_survival_integral(d.s, d.mu, bessel_xk1) for d in directions(params))
    return total / (2.0 * LN2)


#: Term budget and stop tolerance of :func:`capacity_direction_integral`.
SERIES_MAX_TERMS = 200
SERIES_REL_TOL = 1e-10

#: The series raises ConvergenceError once sum|term| exceeds this multiple
#: of |value|.  The terms cancel, so the value carries an error of about
#: eps*sum|term|; the limit is eps*sum|term| = 1.1e-5*|value|.  Against the
#: survival-integral rule on 1500 directions (mu/s 22-32, s 1e-8 to 1), no
#: value more than 1e-3 off passes at this limit (the worst that passes is
#: 6.2e-4 off), where at 1e11 one 1.9e-3 off would.
SERIES_CANCELLATION_LIMIT = 5e10

#: H_l, summed in index order, and ln l!, for l = 0..SERIES_MAX_TERMS.
_HARMONIC = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, SERIES_MAX_TERMS + 1))))
_LN_FACTORIAL = np.array([math.lgamma(l + 1.0) for l in range(SERIES_MAX_TERMS + 1)])

#: Terms computed in one array pass.
_SERIES_BLOCK = 32


def _factor_kernels():
    """The parts of the series-factor integrals that do not depend on s,
    one row per term l, of order n = l + 2: the rule's nodes x = ln u on
    [ln n - 40/(n-1) - 1, ln(n + 40 + 10*sqrt(n))], a window around the
    Gamma(n) bulk that drops a negligible part of the kernel's mass; u = e^x;
    and the weights times u * e^-u u^(n-1) / Gamma(n), the kernel with the
    Jacobian of x = ln u."""
    n = np.arange(2.0, SERIES_MAX_TERMS + 2.0)
    x, w = log_rule(np.log(n) - 40.0 / (n - 1.0) - 1.0, np.log(n + 40.0 + 10.0 * np.sqrt(n)))
    u = np.exp(x)
    return x, u, w * np.exp(n[:, None] * x - u - _LN_FACTORIAL[1:, None])


_FACTOR_X, _FACTOR_U, _FACTOR_KERNEL = _factor_kernels()


def _scaled_series_factors(s: float, terms: slice) -> tuple[np.ndarray, np.ndarray]:
    """Scaled ingredients of the capacity-series terms l in ``terms``.

    For n = l + 2 the two arrays hold ``s^(l+1) * Psi(n, n; s)`` and
    ``s^(l+1) * J_l(s) / (l+1)!``, where J_l(s) = int_0^inf exp(-s*z)
    z^(l+1) ln(z)/(1+z) dz.  Substituting u = s*z turns both into 1/s times
    integrals of the well-scaled kernel e^-u u^(n-1) / Gamma(n) / (1 + u/s),
    the second with the factor ln(u/s), so nothing here grows like
    s^-(l+1) even when s is tiny and l large.  Each row runs the rule of
    :func:`_factor_kernels`; against mpmath both factors agree to about
    3e-14 relative for s in [1e-6, 1e6] and n up to 200.
    """
    kernel = _FACTOR_KERNEL[terms] / (1.0 + _FACTOR_U[terms] / s)
    psi_scaled = kernel.sum(axis=1) / s
    j_scaled = (kernel * (_FACTOR_X[terms] - math.log(s))).sum(axis=1) / s
    return psi_scaled, j_scaled


@dataclass(frozen=True)
class CapacitySeries:
    """Truncated-series capacity value with its truncation diagnostics."""

    value: float
    terms_used: tuple[int, int]
    tail_estimate: float


def capacity_direction_integral(s: float, mu: float) -> tuple[float, int, float]:
    """One direction's survival integral int_0^inf (1-F)/(1+z) dz in series
    form, for 1 - F(z) = exp(-s*z) * xK1(2*sqrt(mu*z)):

        Psi(1,1;s) + sum_{l>=0} (mu^(l+1)/l!) *
            [ (ln mu + 2*EULER - H_l - H_{l+1}) * Psi(l+2, l+2; s)
              + J_l / (l+1)! ].

    Term l is exp((l+1)*ln(mu/s) - ln l!) times the bracket in the scaled
    factors of :func:`_scaled_series_factors`.  The terms are built
    ``_SERIES_BLOCK`` at a time and summed in index order up to the first
    of three consecutive |term| <= SERIES_REL_TOL * |partial sum|; a term
    that is not finite before that stop, or SERIES_MAX_TERMS terms without
    it, raise ConvergenceError.

    The terms scale like (mu/s)^l / l!, so the sum cancels from a peak near
    e^(mu/s): the factors' 3e-14 relative error becomes an error of roughly
    3e-14 * e^(mu/s) in the value.  A sum of |term| above
    SERIES_CANCELLATION_LIMIT times |value| raises ConvergenceError too,
    from mu/s of about 23 at s = 1 and about 29 at s = 1e-8.  For mu = 0
    every series term carries a factor mu and the integral collapses to
    Psi(1, 1; s).  Returns
    ``(value, terms_used, |last term|)``.
    """
    if mu < 0:
        raise DomainError(f"Bessel scale mu must be >= 0; got {mu}")
    base = tricomi_psi11(s)
    if mu == 0.0:
        return base, 0, 0.0
    ln_ratio = math.log(mu / s)
    offset = math.log(mu) + 2.0 * EULER_GAMMA
    total = magnitude = 0.0
    small = np.zeros(2, dtype=bool)  # the last two stop flags of the block before
    for start in range(0, SERIES_MAX_TERMS, _SERIES_BLOCK):
        stop = min(start + _SERIES_BLOCK, SERIES_MAX_TERMS)
        psi_scaled, j_scaled = _scaled_series_factors(s, slice(start, stop))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(np.arange(start + 1.0, stop + 1.0) * ln_ratio - _LN_FACTORIAL[start:stop])
            harmonic = offset - _HARMONIC[start:stop] - _HARMONIC[start + 1 : stop + 1]
            terms = scale * (harmonic * psi_scaled + j_scaled)
            size = np.abs(terms)
            partial = np.cumsum(np.concatenate(([total], terms)))[1:]
            magnitudes = magnitude + size.cumsum()
            small = np.concatenate((small[-2:], size <= SERIES_REL_TOL * np.abs(partial)))
        stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        end = stops[0] + 1 if stops.size else terms.size
        finite = np.isfinite(terms[:end])
        if not finite.all():
            raise ConvergenceError(
                f"capacity series term {start + np.argmin(finite)} is not finite "
                f"(s={s:.3g}, mu={mu:.3g}, mu/s={mu / s:.3g})"
            )
        if stops.size:
            value = base + float(partial[end - 1])
            if magnitudes[end - 1] > SERIES_CANCELLATION_LIMIT * abs(value):
                raise ConvergenceError(
                    f"capacity series cancels: sum|term| = {magnitudes[end - 1]:.3g} is "
                    f"{magnitudes[end - 1] / abs(value):.3g} times its value {value:.6g} "
                    f"(s={s:.3g}, mu={mu:.3g}, mu/s={mu / s:.3g})"
                )
            return value, int(start + end), float(size[end - 1])
        total, magnitude = partial[-1], magnitudes[-1]
    raise ConvergenceError(
        f"capacity series did not converge within {SERIES_MAX_TERMS} terms "
        f"(s={s:.3g}, mu={mu:.3g}; last term {abs(terms[-1]):.3g})"
    )


def capacity_series(params: SystemParams) -> CapacitySeries:
    """Ergodic capacity via the Bessel-series decomposition (both
    directions of :func:`capacity_direction_integral`, scaled by 1/(2 ln 2))."""
    total = 0.0
    terms_used = []
    tail = 0.0
    for d in directions(params):
        value, used, last = capacity_direction_integral(d.s, d.mu)
        total += value
        terms_used.append(used)
        tail = max(tail, last)
    return CapacitySeries(
        value=total / (2.0 * LN2), terms_used=tuple(terms_used), tail_estimate=tail
    )


@dataclass(frozen=True)
class CapacityBounds:
    lower: float
    tight_upper: float
    loose_upper: float


def _xk1_upper(x):
    """U(x) = min((1+x)e^-x, 1 + (x^2/2)(ln(x/2) + EULER_GAMMA - 1/2)) >= x*K1(x),
    the second branch taken only for 0 < x < 3.9; ``x`` may be an array.

    Both branches bound x*K1(x) from above:

    - In the power-log series x*K1(x) = 1 + sum_k u^(k+1)/(k!(k+1)!) *
      (2 ln(x/2) - psi(k+1) - psi(k+2)), u = x^2/4, the k = 0 term is the
      one kept; every later term is negative while 2 ln(x/2) <
      psi(2) + psi(3) = 5/2 - 2*EULER_GAMMA, that is while x < 3.92.
    - f(x) = e^x x K1(x)/(1+x) tends to 1 as x -> 0 and, since
      (x K1)' = -x K0, has f'/f = x/(1+x) - K0/K1, which is <= 0 whenever
      K1/K0 <= 1 + 1/x.  That holds for all x > 0: with u = cosh t in the
      integral forms of K0 and K1 and one integration by parts,
      x(K1 - K0) = int_1^inf e^(-xu) du / ((u+1) sqrt(u^2-1)) < K0/2.
      So f <= 1, i.e. x K1(x) <= (1+x)e^-x.

    The branches cross once, at x = 1.1387, and U <= 1 everywhere.
    """
    x = np.asarray(x, dtype=float)
    bound = (1.0 + x) * np.exp(-x)
    inside = (0.0 < x) & (x < _XK1_LOG_BOUND_MAX)
    xs = np.where(inside, x, 1.0)
    log_branch = 1.0 + 0.5 * xs * xs * (np.log(0.5 * xs) + EULER_GAMMA - 0.5)
    return np.where(inside, np.minimum(bound, log_branch), bound)


def capacity_bounds(params: SystemParams) -> CapacityBounds:
    """Capacity bound chain ``lower <= C_e <= tight_upper <= loose_upper``.

    Each bound replaces x*K1(x) inside the survival integral of
    :func:`capacity_quadrature` by a bound on it: the lower by its exp(-x)
    floor, the tight upper by :func:`_xk1_upper`, the loose upper by 1
    (giving the bare Psi(1,1;.) sum).  Since exp(-x) <= x*K1(x) <=
    _xk1_upper(x) <= 1 pointwise and the rule's weights are positive,
    ``lower <= C_e <= tight_upper`` holds exactly on the shared nodes, and
    ``tight_upper <= loose_upper`` to the rule's accuracy.
    """
    lower = 0.0
    tight = 0.0
    loose = 0.0
    for d in directions(params):
        lower += _survival_integral(d.s, d.mu, lambda x: np.exp(-x))
        tight += _survival_integral(d.s, d.mu, _xk1_upper, _XK1_UPPER_KINK)
        loose += tricomi_psi11(d.s)
    return CapacityBounds(
        lower=lower / (2.0 * LN2),
        tight_upper=tight / (2.0 * LN2),
        loose_upper=loose / (2.0 * LN2),
    )


def x0_symmetric(r: float, gamma: float, coeffs: DerivedCoeffs) -> float:
    """Corner coordinate under symmetric traffic (equal powers and targets):

        X0 = b*tau/(2*gamma) * (1 + sqrt(1 + 4*c*gamma/(b^2*tau))),

    with tau = (1+gamma)^r - 1.
    """
    if r <= 0:
        raise DomainError(f"multiplexing gain must be positive; got {r}")
    if gamma <= 0:
        raise DomainError(f"SNR must be positive; got {gamma}")
    b, c = coeffs.b, coeffs.c
    tau = (1.0 + gamma) ** r - 1.0
    return b * tau / (2.0 * gamma) * (
        1.0 + math.sqrt(1.0 + 4.0 * c * gamma / (b * b * tau))
    )


def dmt_coefficients(r: float, gamma: float, coeffs: DerivedCoeffs) -> tuple[float, float]:
    """SNR derivatives feeding the finite-SNR diversity formula.

    B = d/dgamma [((1+gamma)^r - 1)/gamma]; A = dX0/dgamma follows by the
    chain rule:

        A = B * [ (b/2)*(1 + S) - c*gamma / (b*tau*S) ],
        S = sqrt(1 + 4*c*gamma/(b^2*tau)).

    Both are verified against central finite differences in the test suite.
    """
    if r <= 0 or gamma <= 0:
        raise DomainError(f"need r > 0 and gamma > 0; got r={r}, gamma={gamma}")
    b, c = coeffs.b, coeffs.c
    tau = (1.0 + gamma) ** r - 1.0
    numer = r * gamma * (1.0 + gamma) ** (r - 1.0) - (1.0 + gamma) ** r + 1.0
    big_b = numer / gamma**2
    s_fac = math.sqrt(1.0 + 4.0 * c * gamma / (b * b * tau))
    big_a = big_b * (0.5 * b * (1.0 + s_fac) - c * gamma / (b * tau * s_fac))
    return big_a, big_b


def dmt(r: float, gamma: float, params: SystemParams) -> float:
    """Finite-SNR diversity gain d(r, gamma) = -d ln(P_out) / d ln(gamma).

    Evaluated on the closed-form lower-bound outage under symmetric traffic
    (P1 = P2, equal targets induced by the multiplexing gain r); requires a
    symmetric power setup.
    """
    if not math.isclose(params.p1, params.p2, rel_tol=1e-12):
        raise ParameterError(
            f"diversity formula assumes symmetric powers; got ({params.p1}, {params.p2})"
        )
    coeffs = derived_coeffs(params)
    b = coeffs.b
    tau = (1.0 + gamma) ** r - 1.0
    x0 = x0_symmetric(r, gamma, coeffs)
    big_a, big_b = dmt_coefficients(r, gamma, coeffs)
    weight = 1.0 / params.omega1 + 1.0 / params.omega2
    corner_mass = math.exp(-weight * x0)
    numer = big_a * weight * corner_mass
    denom = 1.0 + corner_mass
    for d in _directions(params, coeffs):
        mass = math.exp(-b * tau / (gamma * d.other) - x0 / d.own)
        numer -= (big_b * b / d.other + big_a / d.own) * mass
        denom -= mass
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegenerateCaseError(
            f"lower-bound outage underflowed to {denom} at gamma={gamma} "
            f"(r={r}); the log-derivative is undefined there"
        )
    return gamma * numer / denom


def non_coop_outage(params: SystemParams, targets: TargetRates) -> float:
    """Outage of the non-cooperative baseline: no relay, the sources exchange
    over the unit-distance direct link in two equal half-duplex slots, so
    the resource budget matches the relay round.  The link is reciprocal,
    one gain g ~ Exp(1) for both directions within a round, so

        P(R1 < T1 or R2 < T2) = 1 - exp(-max_i tau_i/a_i).

    This time-sharing convention is a modelling choice, not a uniquely
    determined one.
    """
    taus = (targets.tau1, targets.tau2)
    return 1.0 - math.exp(-max(tau / d.a for d, tau in zip(directions(params), taus)))


def non_coop_capacity(params: SystemParams) -> float:
    """Sum ergodic rate of the non-cooperative baseline: per direction
    E[ln(1 + a*g)] = e^(1/a) E1(1/a) = Psi(1, 1; 1/a), over 2 ln 2."""
    return sum(tricomi_psi11(1.0 / d.a) for d in directions(params)) / (2.0 * LN2)
