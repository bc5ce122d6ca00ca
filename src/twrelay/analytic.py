"""Closed-form performance evaluators.

Implements the fading CDF of the harvest-scaled product variable, exact
outage (corner-point decomposition), outage bounds and the first-order
high-SNR asymptote, ergodic capacity (the survival integral, a
hypergeometric series, and a bound chain that holds by construction), and
the finite-SNR diversity-multiplexing tradeoff.

Every integral here, the outage boundary strips, the capacity survival
integrals and the capacity-series factors, runs on the one fixed
Gauss-Legendre rule in a log variable of :mod:`twrelay.numerics`.  The
series is summed as arrays, a block of orders at a time, from tables built
at import; beyond its reach it raises ConvergenceError.

Index convention used throughout: direction i is the traffic *into* source
i, so it is powered by the opposite source j and thresholded by tau_i.  In
the rational SNR form gamma_i = (P_j/sigma2) * g1*g2 / (b*g_i + c), the
coefficient b multiplies the gain on source i's own side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
    return _clamp_probability(1.0 - _survival_z(z, a, b, c, omega1, omega2), "cdf_z")


def _survival_z(z: float, a: float, b: float, c: float, omega1: float, omega2: float) -> float:
    """1 - F_Z(z) of :func:`cdf_z`, without its argument checks."""
    return math.exp(-z * b / (a * omega2)) * bessel_xk1(
        math.sqrt(4.0 * z * c / (a * omega1 * omega2))
    )


def marginal_outage(
    params: SystemParams, coeffs: DerivedCoeffs, tau: float, direction: int
) -> float:
    """P(gamma_i < tau) for direction i in {1, 2}; a thin cdf_z wrapper."""
    if direction not in (1, 2):
        raise DomainError(f"direction must be 1 or 2; got {direction}")
    if tau < 0:
        raise DomainError(f"threshold must be >= 0; got {tau}")
    if direction == 1:
        a = params.p2 / params.sigma2
        om_b, om_other = params.omega1, params.omega2
    else:
        a = params.p1 / params.sigma2
        om_b, om_other = params.omega2, params.omega1
    return cdf_z(tau, a, coeffs.b, coeffs.c, om_b, om_other)


@dataclass(frozen=True)
class CornerPoint:
    """Intersection of the two outage-boundary curves in the gain plane."""

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


def _corner_residual(params, coeffs, tau1, tau2, x0, y0) -> float:
    a1 = params.sigma2 * tau1 / params.p2
    a2 = params.sigma2 * tau2 / params.p1
    r1 = y0 - a1 * (coeffs.b + coeffs.c / x0)
    r2 = x0 - a2 * (coeffs.b + coeffs.c / y0)
    return max(abs(r1) / y0, abs(r2) / x0)


def corner_point(
    params: SystemParams, coeffs: DerivedCoeffs, tau1: float, tau2: float
) -> CornerPoint:
    """Solve the boundary system Y = a1*(b + c/X), X = a2*(b + c/Y) with
    a_i = sigma2*tau_i/P_j, from the quadratic-root expressions obtained by
    substitution.  The result must satisfy both equations to 1e-9 relative.
    """
    if tau1 <= 0 or tau2 <= 0:
        raise DomainError(f"corner point needs positive thresholds; got ({tau1}, {tau2})")
    b, c = coeffs.b, coeffs.c
    a1 = params.sigma2 * tau1 / params.p2
    a2 = params.sigma2 * tau2 / params.p1
    # Substituting Y(X) gives b*X^2 + (c - a2*b^2 - a2*c/a1)*X - a2*b*c = 0.
    x0 = _positive_quadratic_root(b, c - a2 * b * b - a2 * c / a1, -a2 * b * c)
    # The Y quadratic mirrors the X one with indices swapped; its linear
    # coefficient carries the cross-traffic term a1*c/a2.
    y0 = _positive_quadratic_root(b, c - a1 * b * b - a1 * c / a2, -a1 * b * c)
    residual = _corner_residual(params, coeffs, tau1, tau2, x0, y0)
    if residual > 1e-9:
        raise DegenerateCaseError(
            f"corner point ({x0:.6g}, {y0:.6g}) violates the boundary system "
            f"by {residual:.3g} relative (tau=({tau1}, {tau2}), b={b}, c={c}, "
            f"P=({params.p1}, {params.p2}), sigma2={params.sigma2})"
        )
    return CornerPoint(x0=x0, y0=y0)


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


def joint_outage(
    params: SystemParams, coeffs: DerivedCoeffs, tau1: float, tau2: float
) -> float:
    """P(gamma_1 < tau1, gamma_2 < tau2) via the corner-point decomposition:

        1 - exp(-X0/omega1 - Y0/omega2)
          - sum_{i != j} (1/omega_j) exp(-sigma2*tau_j*b/(P_i*omega_i)) * I_i,

    where I_i integrates the boundary strip between the corner and the
    curve (see :func:`_segment_integral`).
    """
    if tau1 <= 0.0 or tau2 <= 0.0:
        return 0.0
    b, c = coeffs.b, coeffs.c
    corner = corner_point(params, coeffs, tau1, tau2)
    s2 = params.sigma2
    total = 1.0 - math.exp(-corner.x0 / params.omega1 - corner.y0 / params.omega2)
    strips = (
        # (tau_j, P_i, omega_i, omega_j, V_i): i = 1 integrates over the
        # |h2|^2 axis up to Y0; i = 2 over the |h1|^2 axis up to X0.
        (tau2, params.p1, params.omega1, params.omega2, corner.y0),
        (tau1, params.p2, params.omega2, params.omega1, corner.x0),
    )
    for tau_j, p_i, om_i, om_j, v in strips:
        k = s2 * tau_j * c / (p_i * om_i)
        pref = math.exp(-s2 * tau_j * b / (p_i * om_i)) / om_j
        total -= pref * _segment_integral(k, om_j, v)
    return _clamp_probability(total, "joint_outage")


def outage_exact(params: SystemParams, targets: TargetRates) -> float:
    """System outage by inclusion-exclusion over the two directions."""
    coeffs = derived_coeffs(params)
    m1 = marginal_outage(params, coeffs, targets.tau1, 1) if targets.tau1 > 0 else 0.0
    m2 = marginal_outage(params, coeffs, targets.tau2, 2) if targets.tau2 > 0 else 0.0
    if targets.tau1 <= 0.0 or targets.tau2 <= 0.0:
        joint = 0.0
    else:
        joint = joint_outage(params, coeffs, targets.tau1, targets.tau2)
    return _clamp_probability(m1 + m2 - joint, "outage_exact")


def outage_bounds(params: SystemParams, targets: TargetRates) -> tuple[float, float]:
    """Closed-form lower/upper outage bounds.

    Both come from sandwiching the boundary-strip integrals I_i: dropping
    exp(-k/z) on the tail yields the upper bound, shifting the full-line
    integral by exp(-V/omega) the lower one.  The lower bound is
    Bessel-free:

        P >= 1 + e^(-X0/om1 - Y0/om2) - e^(-s2*tau2*b/(P1*om1) - Y0/om2)
                                      - e^(-s2*tau1*b/(P2*om2) - X0/om1),

    and the upper bound multiplies each marginal survival term by the
    corner attenuation e^(-V/omega).

    At low SNR the two attenuated survival terms can sum to less than the
    corner mass, so the upper bound exceeds 1 (1.0027 at 1.76 dB in one
    valid config whose exact outage is 0.982); it is then returned as 1.
    The exact value and the lower bound keep the excursion check.
    """
    tau1, tau2 = targets.tau1, targets.tau2
    coeffs = derived_coeffs(params)
    if tau1 <= 0.0 or tau2 <= 0.0:
        value = outage_exact(params, targets)
        return value, value
    b, c = coeffs.b, coeffs.c
    s2 = params.sigma2
    corner = corner_point(params, coeffs, tau1, tau2)
    om1, om2 = params.omega1, params.omega2
    corner_mass = math.exp(-corner.x0 / om1 - corner.y0 / om2)
    # Marginal survival factors, direction 1 then direction 2.
    surv1 = _survival_z(tau1, params.p2 / s2, b, c, om1, om2)
    surv2 = _survival_z(tau2, params.p1 / s2, b, c, om2, om1)
    lower = (
        1.0
        + corner_mass
        - math.exp(-s2 * tau2 * b / (params.p1 * om1) - corner.y0 / om2)
        - math.exp(-s2 * tau1 * b / (params.p2 * om2) - corner.x0 / om1)
    )
    upper = (
        1.0
        + corner_mass
        - surv2 * math.exp(-corner.y0 / om2)
        - surv1 * math.exp(-corner.x0 / om1)
    )
    return (
        _clamp_probability(lower, "outage lower bound"),
        _clamp_probability(min(1.0, upper), "outage upper bound"),
    )


def outage_high_snr(params: SystemParams, targets: TargetRates) -> float:
    """First-order high-SNR asymptote of the exact outage.

    With eps1 = s2*tau1/P2 and eps2 = s2*tau2/P1 labelled so that
    eps1 <= eps2 (otherwise swap the indices, omega1 and omega2 with them),
    kappa = eps2*c/(om1*om2) and X = c*(eps2 - eps1)/(b*eps1):

        P_out ~ eps2*b/om1 + kappa*(ln(1/kappa) + 1 - 2*EULER_GAMMA)
                + (eps1*b/om2)*e^(-X/om1)
                - ((eps2 - eps1)*c/(om1*om2))*E1(X/om1),

    and the last two terms reduce to eps1*b/om2 when eps1 = eps2.  The
    first two terms are the weaker direction's marginal outage, expanded
    through x*K1(x) = 1 + (x^2/2)(ln(x/2) + EULER_GAMMA - 1/2) + O(x^4 ln x);
    the last two are the part of the other direction's outage region that
    lies outside it, a strip of width O(eps) over |h1|^2 > X that starts at
    an O(1) corner whenever eps1 != eps2.  The relative error vanishes as
    the SNR grows.

    The paper's limit 2 - e^(-eps2*b/om1) - e^(-eps1*b/om2) is the b-only
    part of this asymptote: it drops the kappa*ln(1/kappa) term, which is of
    the same order, so its relative gap grows with SNR.  The lower bound
    has no log term either, so the exact value, the bounds and these
    curves share only their absolute limit of 0.

    At low SNR the expression exceeds 1, so the contract clamps rather
    than errors.
    """
    coeffs = derived_coeffs(params)
    b, c = coeffs.b, coeffs.c
    eps1 = params.sigma2 * targets.tau1 / params.p2
    eps2 = params.sigma2 * targets.tau2 / params.p1
    om1, om2 = params.omega1, params.omega2
    if eps1 > eps2:
        eps1, eps2, om1, om2 = eps2, eps1, om2, om1
    if eps2 <= 0.0:
        return 0.0
    kappa = eps2 * c / (om1 * om2)
    value = eps2 * b / om1 + kappa * (math.log(1.0 / kappa) + 1.0 - 2.0 * EULER_GAMMA)
    if eps1 == eps2:
        value += eps1 * b / om2
    elif eps1 > 0.0:
        x = c * (eps2 - eps1) / (b * eps1 * om1)
        value += eps1 * b / om2 * math.exp(-x) - (
            (eps2 - eps1) * c / (om1 * om2) * exp_integral_e1(x)
        )
    return min(1.0, max(0.0, value))


def _direction_rates(params: SystemParams):
    """Per-direction (decay s, Bessel scale mu) of the SNR survival function:

    1 - F_i(z) = exp(-s*z) * xK1(2*sqrt(mu*z)).
    """
    coeffs = derived_coeffs(params)
    b, c = coeffs.b, coeffs.c
    out = []
    for p_j, om_other in ((params.p2, params.omega2), (params.p1, params.omega1)):
        a = p_j / params.sigma2
        out.append(
            (b / (a * om_other), c / (a * params.omega1 * params.omega2))
        )
    return out


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
    total = sum(_survival_integral(s, mu, bessel_xk1) for s, mu in _direction_rates(params))
    return total / (2.0 * LN2)


#: Term budget and stop tolerance of :func:`capacity_direction_integral`.
SERIES_MAX_TERMS = 200
SERIES_REL_TOL = 1e-10

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
    3e-14 * e^(mu/s) in the value.  For mu = 0 every series term carries a
    factor mu and the integral collapses to Psi(1, 1; s).  Returns
    ``(value, terms_used, |last term|)``.
    """
    if mu < 0:
        raise DomainError(f"Bessel scale mu must be >= 0; got {mu}")
    base = tricomi_psi11(s)
    if mu == 0.0:
        return base, 0, 0.0
    ln_ratio = math.log(mu / s)
    offset = math.log(mu) + 2.0 * EULER_GAMMA
    total = 0.0
    small = np.zeros(2, dtype=bool)  # the last two stop flags of the block before
    for start in range(0, SERIES_MAX_TERMS, _SERIES_BLOCK):
        stop = min(start + _SERIES_BLOCK, SERIES_MAX_TERMS)
        psi_scaled, j_scaled = _scaled_series_factors(s, slice(start, stop))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(np.arange(start + 1.0, stop + 1.0) * ln_ratio - _LN_FACTORIAL[start:stop])
            harmonic = offset - _HARMONIC[start:stop] - _HARMONIC[start + 1 : stop + 1]
            terms = scale * (harmonic * psi_scaled + j_scaled)
            partial = np.cumsum(np.concatenate(([total], terms)))[1:]
            small = np.concatenate((small[-2:], np.abs(terms) <= SERIES_REL_TOL * np.abs(partial)))
        stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        end = stops[0] + 1 if stops.size else terms.size
        finite = np.isfinite(terms[:end])
        if not finite.all():
            raise ConvergenceError(
                f"capacity series term {start + np.argmin(finite)} is not finite "
                f"(s={s:.3g}, mu={mu:.3g}, mu/s={mu / s:.3g})"
            )
        if stops.size:
            return base + float(partial[end - 1]), int(start + end), abs(float(terms[end - 1]))
        total = partial[-1]
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
    for s, mu in _direction_rates(params):
        value, used, last = capacity_direction_integral(s, mu)
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
    for s, mu in _direction_rates(params):
        lower += _survival_integral(s, mu, lambda x: np.exp(-x))
        tight += _survival_integral(s, mu, _xk1_upper, _XK1_UPPER_KINK)
        loose += tricomi_psi11(s)
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
    om1, om2 = params.omega1, params.omega2
    weight = 1.0 / om1 + 1.0 / om2
    corner_mass = math.exp(-weight * x0)
    numer = big_a * weight * corner_mass
    denom = 1.0 + corner_mass
    for om_i, om_j in ((om1, om2), (om2, om1)):
        mass = math.exp(-b * tau / (gamma * om_i) - x0 / om_j)
        numer -= (big_b * b / om_i + big_a / om_j) * mass
        denom -= mass
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegenerateCaseError(
            f"lower-bound outage underflowed to {denom} at gamma={gamma} "
            f"(r={r}); the log-derivative is undefined there"
        )
    return gamma * numer / denom
