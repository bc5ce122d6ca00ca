"""Closed-form performance evaluators, each over a whole batch of points.

Implements the fading CDF of the harvest-scaled product variable, exact
outage (corner-point decomposition), outage bounds and the first-order
high-SNR asymptote, ergodic capacity (the survival integral, a
hypergeometric series, and a bound chain that holds by construction), the
finite-SNR diversity-multiplexing tradeoff, and the non-cooperative
direct-link baseline.

Each evaluator takes a ``SystemParams`` (with its ``TargetRates``, or its
multiplexing gain) whose fields are floats, one point, or columns, one value
per point, where a float holds at every point.  It returns each of its
outputs in the shape of its input: a float for one point, a list of one
float per point for a batch.  The single call is the batch of one: every
formula runs as numpy array passes over all points of the call.  A point
that fails raises for the first failing point, marked with its index
(``errors.failed_at``).

Every integral here, the outage boundary strips, the capacity survival
integrals and the capacity-series factors, runs on the one fixed
Gauss-Legendre rule in a log variable of :mod:`twrelay.numerics`, one row
of nodes per element of a batch's (points, 2) direction arrays, in slabs of
rows.  The series is summed as arrays, a block of orders at a time for every
direction still running, from tables built at import; beyond its reach it
raises ConvergenceError.

Index convention used throughout: direction i is the traffic *into* source
i, so it is powered by the opposite source j and thresholded by tau_i.  In
the rational SNR form gamma_i = (P_j/sigma2) * g1*g2 / (b*g_i + c), the
coefficient b multiplies the gain on source i's own side.  A batch holds
its two directions as one ``Direction`` of (points, 2) arrays, direction 1
in column 0, and :func:`_batch` is the one place that pairs a direction
with its power and gains; every closed form below is a sum over that
direction axis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    Check,
    ConvergenceError,
    DegenerateCaseError,
    DomainError,
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
)
from .numerics import log_integral, log_rule, slabs
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

def _clamp_probability(values: np.ndarray, context: str) -> tuple[np.ndarray, Check]:
    """``values`` clipped to [0, 1], and the check that fails a point whose
    value leaves [0, 1] by more than CLAMP_TOL."""
    excess = np.maximum(-values, values - 1.0)
    if (excess > 0.0).any():
        log.debug("%s clamped by up to %.3g", context, np.max(excess))
    return np.minimum(np.maximum(values, 0.0), 1.0), (excess > CLAMP_TOL, lambda i: DomainError(
        f"{context} produced {float(values[i])}, outside [0, 1] by {excess[i]:.3g}"
    ))


def _overflows(what: str, value, gamma) -> Check:
    """The check that fails a point whose ``value``, a product formed under
    ``np.errstate(over="ignore")``, is not finite.  ``value`` holds one entry
    per point, or one row per point; the error names ``what`` and the SNR
    ``gamma`` (shaped like ``value``) of the point's first overflowed entry."""
    bad = ~np.isfinite(value)
    gammas = np.broadcast_to(gamma, bad.shape)
    if bad.ndim < 2:
        bad, gammas = bad.reshape(-1, 1), gammas.reshape(-1, 1)
    return bad.any(axis=1), lambda i: DomainError(
        f"{what} overflows at gamma={gammas[i][bad[i]][0]}")


class Direction(NamedTuple):
    """One direction's SNR law, gamma = a*X*Y/(b*X + c) with X ~ Exp(own)
    and Y ~ Exp(other), and its survival function

        P(gamma > z) = exp(-s*z) * xK1(2*sqrt(mu*z)).

    Inside this module a batch's two directions are one Direction whose
    fields are (points, 2) arrays, column 0 for direction 1 and column 1
    for direction 2; :func:`directions` returns them as two Directions.
    """

    a: float  # P_j/sigma2, the power that carries the direction
    own: float  # omega_i, the mean of the gain that b multiplies
    other: float  # omega_j
    s: float  # b/(a*other)
    mu: float  # c/(a*own*other)


def _direction(a, own, other, b, c) -> Direction:
    # own*other is the same float in both directions, so equal powers give
    # bit-equal mu.
    with np.errstate(over="ignore"):
        scale, joint = a * other, a * (own * other)
    raise_first(_overflows("a*omega_j", scale, a), _overflows("a*omega_i*omega_j", joint, a))
    return Direction(a, own, other, b / scale, c / joint)


class _Batch(NamedTuple):
    """b and c of each point, shape (points,), both directions, (points, 2),
    and the shape of the call's input: () for one point, (points,) for a batch."""

    b: np.ndarray
    c: np.ndarray
    d: Direction
    shape: tuple

    def shaped(self, values: np.ndarray):
        """One value per point in the shape of the input: a float for one
        point, a list for a batch."""
        return values.reshape(self.shape).tolist()


def _batch(params: SystemParams, *more) -> tuple:
    """The batch of ``params``, followed by ``more`` (per-point values such
    as thresholds) as (points,) arrays."""
    shape, columns, more = as_columns(params, *more)
    b, c = derived_coeffs(columns)
    own = np.stack((columns.omega1, columns.omega2), axis=1)
    # Direction 1 is carried by P2 and its own gain is |h1|^2; direction 2 mirrors it.
    a = np.stack((columns.p2, columns.p1), axis=1) / columns.sigma2[:, None]
    return (_Batch(b, c, _direction(a, own, own[:, ::-1], b[:, None], c[:, None]), shape),
            *more)


def _thresholded(params: SystemParams, targets: TargetRates) -> tuple[_Batch, np.ndarray]:
    """The batch of ``params`` and its thresholds (tau1, tau2), (points, 2)."""
    batch, tau1, tau2 = _batch(params, targets.tau1, targets.tau2)
    return batch, np.stack((tau1, tau2), axis=1)


def directions(params) -> tuple[Direction, Direction]:
    """The two directions of a round, direction 1 (into source 1) first;
    for a batch, each field holds one value per point."""
    (batch,) = _batch(params)
    one, two = np.moveaxis(np.stack(batch.d), -1, 0)  # each (fields, points)
    return Direction(*map(batch.shaped, one)), Direction(*map(batch.shaped, two))


def _survival(d: Direction, z):
    """P(gamma > z) for direction ``d``; 1 where z <= 0."""
    z = np.maximum(z, 0.0)
    return np.exp(-d.s * z) * bessel_xk1(2.0 * np.sqrt(d.mu * z))


def _positive_quadratic_root(quad, lin, const):
    """Positive root of quad*x^2 + lin*x + const with quad > 0, const < 0.

    For lin > 0 the textbook form (-lin + disc)/(2*quad) cancels, so the root
    is taken from the product of the roots instead.
    """
    disc = np.sqrt(lin * lin - 4.0 * quad * const)
    product = lin > 0.0  # one division per point: the form not taken may divide by 0
    return np.where(product, 2.0 * const, -lin + disc) / np.where(product, -lin - disc, 2.0 * quad)


def _corner_residual(b, c, eps1, eps2, x0, y0):
    r1 = y0 - eps1 * (b + c / x0)
    r2 = x0 - eps2 * (b + c / y0)
    return np.maximum(np.abs(r1) / y0, np.abs(r2) / x0)


def _corner_point(batch: _Batch, taus) -> tuple[np.ndarray, Check]:
    """The corner of every point, for positive thresholds, as a (points, 2)
    array of X0 (on direction 1's own axis) and Y0 (on direction 2's), and
    the check that it satisfies the boundary system to 1e-9 relative."""
    b, c, eps = batch.b[:, None], batch.c[:, None], taus / batch.d.a
    cross = eps[:, ::-1]
    # X0 solves b*X^2 + (c - eps2*b^2 - eps2*c/eps1)*X - eps2*b*c = 0 and Y0 the
    # same with indices swapped: column i takes its own eps and the other's, cross.
    corner = _positive_quadratic_root(b, c - cross * b * b - cross * c / eps, -cross * b * c)
    (x0, y0), (eps1, eps2) = corner.T, eps.T
    residual = _corner_residual(batch.b, batch.c, eps1, eps2, x0, y0)

    def error(i: int) -> Exception:
        return DegenerateCaseError(
            f"corner point ({x0[i]:.6g}, {y0[i]:.6g}) violates the boundary system "
            f"by {residual[i]:.3g} relative (tau=({taus[i, 0]}, {taus[i, 1]}), "
            f"b={batch.b[i]}, c={batch.c[i]}, eps=({eps1[i]}, {eps2[i]}))"
        )

    return corner, (residual > 1e-9, error)


def _segment_integral(k, omega, v):
    """I = int_0^v exp(-k/z - z/omega) dz by the log-variable rule, per
    element of k, omega and v.

    The rule runs in t = ln z on [k/700, min(v, 50*omega)].  Below k/700
    the integrand is under e^-700 and above 50*omega the tail is under
    omega*e^-50, so an empty interval means a negligible integral, and the
    strip is 0.  In ln z the exp(-k/z) boundary layer is smooth: on random
    strips the rule agrees with an mpmath reference to about 1e-14 absolute.
    """
    lo = k / 700.0
    return log_integral(
        lambda z, k, omega: np.exp(-k / z - z / omega),
        lo, np.maximum(lo, np.minimum(v, 50.0 * omega)), args=(k, omega),
    )


def _corner_mass(d: Direction, corner) -> tuple[np.ndarray, np.ndarray]:
    """V_i/own_i, V_i the corner coordinate on direction i's own axis, and the
    corner mass P(|h1|^2 > X0, |h2|^2 > Y0) = exp(-X0/omega1 - Y0/omega2)."""
    shift = corner / d.own
    return shift, np.exp(-shift[:, 0] - shift[:, 1])


def _lower_bound(d: Direction, taus, shift, mass) -> tuple[np.ndarray, np.ndarray]:
    """The lower-bound outage 1 + M - sum_i exp(-s_i*tau_i - V_i/own_i) of
    :func:`outage_bounds`, from the parts of :func:`_corner_mass`, and its terms."""
    terms = np.exp(-d.s * taus - shift)
    return 1.0 + mass - terms[:, 0] - terms[:, 1], terms


def _joint_thresholds(taus):
    """Which points have a joint outage region (both thresholds positive),
    and the thresholds with 1 in place of the other points' ones, so that
    every lane of the corner and strip arrays stays finite."""
    joint = (taus > 0.0).all(axis=1)
    return joint, np.where(joint[:, None], taus, 1.0)


def _joint_outage(batch: _Batch, taus) -> tuple[np.ndarray, list[Check]]:
    """P(gamma_1 < tau1, gamma_2 < tau2) via the corner-point decomposition:

        1 - exp(-X0/omega1 - Y0/omega2)
          - sum_i (1/own_i) exp(-s_i*tau_i) * I(tau_i*mu_i*own_i, own_i, V_i),

    where V_i is the corner coordinate on direction i's own axis (X0 for
    direction 1, Y0 for direction 2) and I integrates the boundary strip
    between the corner and the curve (see :func:`_segment_integral`); 0
    where a threshold is 0.  The strips of all points and both directions
    are one array pass.  Returns the values and the checks of the corner
    residual and of the excursion from [0, 1].
    """
    joint, taus = _joint_thresholds(taus)
    d = batch.d
    corner, residual = _corner_point(batch, taus)
    strips = np.exp(-d.s * taus) / d.own * _segment_integral(taus * d.mu * d.own, d.own, corner)
    _, mass = _corner_mass(d, corner)
    value, clamp = _clamp_probability(1.0 - mass - strips[:, 0] - strips[:, 1], "joint_outage")
    return np.where(joint, value, 0.0), [(joint & bad, error) for bad, error in (residual, clamp)]


def outage_exact(params, targets) -> float:
    """System outage by inclusion-exclusion over the two directions."""
    batch, taus = _thresholded(params, targets)
    joint, checks = _joint_outage(batch, taus)
    marginals = (1.0 - _survival(batch.d, taus)).sum(axis=1)
    value, clamp = _clamp_probability(marginals - joint, "outage_exact")
    raise_first(*checks, clamp)
    return batch.shaped(value)


def outage_bounds(params, targets) -> tuple[float, float]:
    """Closed-form lower/upper outage bounds: the pair (lower, upper).

    Both come from sandwiching the boundary-strip integrals I_i: dropping
    exp(-k/z) on the tail yields the upper bound, shifting the full-line
    integral by exp(-V/omega) the lower one.  With the corner mass
    M = exp(-X0/omega1 - Y0/omega2) and V_i, own_i as in
    :func:`_joint_outage`, the lower bound is Bessel-free:

        P >= 1 + M - sum_i exp(-s_i*tau_i - V_i/own_i),

    and the upper bound multiplies each direction's survival
    P(gamma_i > tau_i) by the corner attenuation exp(-V_i/own_i):

        P <= 1 + M - sum_i P(gamma_i > tau_i) * exp(-V_i/own_i).

    At low SNR the two attenuated survival terms can sum to less than the
    corner mass, so the upper bound exceeds 1 (1.0027 at 1.76 dB in one
    valid config whose exact outage is 0.982); it is then returned as 1.
    The exact value and the lower bound keep the excursion check.  A point
    with a zero threshold has no corner: both bounds are its exact outage.
    """
    batch, taus = _thresholded(params, targets)
    d = batch.d
    survivals = _survival(d, taus)
    exact, exact_check = _clamp_probability((1.0 - survivals).sum(axis=1), "outage_exact")
    joint, taus = _joint_thresholds(taus)
    corner, residual = _corner_point(batch, taus)
    shift, mass = _corner_mass(d, corner)
    lower, _ = _lower_bound(d, taus, shift, mass)
    attenuated = survivals * np.exp(-shift)
    upper = 1.0 + mass - attenuated[:, 0] - attenuated[:, 1]
    lower, lower_check = _clamp_probability(lower, "outage lower bound")
    upper, upper_check = _clamp_probability(np.minimum(1.0, upper), "outage upper bound")
    raise_first(
        (~joint & exact_check[0], exact_check[1]),
        *((joint & bad, error) for bad, error in (residual, lower_check, upper_check)),
    )
    return batch.shaped(np.where(joint, lower, exact)), batch.shaped(np.where(joint, upper, exact))


def outage_high_snr(params, targets) -> float:
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
    batch, taus = _thresholded(params, targets)
    d = batch.d
    m, kappa = d.s * taus, d.mu * taus
    one_is_weak = kappa[:, 0] > kappa[:, 1]  # on a tie direction 2 is the weak one
    (m_s, m_w), (kappa_s, kappa_w) = (np.where(one_is_weak, v[:, ::-1].T, v.T) for v in (m, kappa))
    live = kappa_w > 0.0
    kw = np.where(live, kappa_w, 1.0)
    value = m_w + kw * (np.log(1.0 / kw) + 1.0 - 2.0 * EULER_GAMMA)
    apart = live & (kappa_s > 0.0) & (kappa_s != kappa_w)
    gap = kappa_w - kappa_s
    x = np.where(apart, gap, 1.0) / np.where(apart, m_s, 1.0)
    strong = np.where(
        kappa_s == kappa_w, m_s,
        np.where(apart, m_s * np.exp(-x) - gap * exp_integral_e1(x), 0.0),
    )
    value = np.where(live, np.minimum(np.maximum(value + strong, 0.0), 1.0), 0.0)
    return batch.shaped(value)


def _sum_rate(nats: np.ndarray) -> np.ndarray:
    """Each point's rate in bit/s/Hz from its two directions' E[ln(1 + gamma_i)]:
    their sum over 2 ln 2, as each direction has half the round."""
    return nats.sum(axis=1) / (2.0 * LN2)


def _survival_integral(s, mu, xk1, kink: float | None = None):
    """int_0^inf exp(-s*z) * xk1(2*sqrt(mu*z)) / (1+z) dz per element of s
    and mu, for ``xk1`` equal to x*K1(x) or one of the bounds on it, each
    taking an array.

    The rule runs in t = ln z on [1e-17*min(1, 1/s), min(745/s, 745^2/(4*mu))].
    The integrand is at most 1 and the value scales with the decay length
    min(1, 1/s), so the part dropped below is under 1e-17 of it; above,
    e^(-s*z) or xk1(x) <= (1+x)e^-x at x = 745 is under e^-738.  The
    window is split at z = 1, below the pole of 1/(1+z) at t = i*pi, and
    at x = ``kink`` where ``xk1`` has one.
    """

    def integrand(z, s, mu):
        return np.exp(-s * z) * xk1(2.0 * np.sqrt(mu * z)) / (1.0 + z)

    splits = (1.0,)
    if kink is not None:
        at_kink = kink * kink / (4.0 * mu)
        splits = (np.minimum(1.0, at_kink), np.maximum(1.0, at_kink))
    return log_integral(
        integrand, 1e-17 * np.minimum(1.0, 1.0 / s), 745.0 / np.maximum(s, 4.0 * mu / 745.0),
        splits, args=(s, mu),
    )


def capacity_quadrature(params) -> float:
    """Ergodic capacity: (1/(2 ln 2)) * sum_i int_0^inf (1 - F_i(z))/(1+z) dz,
    each survival integral on the log-variable rule, all directions of all
    points in one pass."""
    (batch,) = _batch(params)
    d = batch.d
    return batch.shaped(_sum_rate(_survival_integral(d.s, d.mu, bessel_xk1)))


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

#: Terms computed in one array pass.  Every sum over the terms runs in index
#: order across blocks, so the block size changes no bit of a result; 16
#: covers nine in ten directions of the preset sweeps in one block.
_SERIES_BLOCK = 16


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


def _scaled_series_factors(s: np.ndarray, terms: slice) -> tuple[np.ndarray, np.ndarray]:
    """Scaled ingredients of the capacity-series terms l in ``terms``, one
    row per element of the 1-D array ``s``.

    For n = l + 2 the two arrays hold ``s^(l+1) * Psi(n, n; s)`` and
    ``s^(l+1) * J_l(s) / (l+1)!``, where J_l(s) = int_0^inf exp(-s*z)
    z^(l+1) ln(z)/(1+z) dz.  Substituting u = s*z turns both into 1/s times
    integrals of the well-scaled kernel e^-u u^(n-1) / Gamma(n) / (1 + u/s),
    the second with the factor ln(u/s), so nothing here grows like
    s^-(l+1) even when s is tiny and l large.  Each row runs the rule of
    :func:`_factor_kernels`; against mpmath both factors agree to about
    3e-14 relative for s in [1e-6, 1e6] and n up to 200.
    """
    kernel, x, u = _FACTOR_KERNEL[terms], _FACTOR_X[terms], _FACTOR_U[terms]
    psi_scaled = np.empty((s.size, len(kernel)))
    j_scaled = np.empty_like(psi_scaled)
    for rows in slabs(s.size, kernel.size):
        scale = s[rows, None, None]
        weighted = kernel / (1.0 + u / scale)
        psi_scaled[rows] = weighted.sum(axis=-1) / scale[..., 0]
        j_scaled[rows] = (weighted * (x - np.log(scale))).sum(axis=-1) / scale[..., 0]
    return psi_scaled, j_scaled


@dataclass(frozen=True)
class CapacitySeries:
    """Truncated-series capacity value with its truncation diagnostics: the
    value and the largest last |term| of a point's two directions, each a
    float or one per point, and the terms used by each direction of each
    point, in order."""

    value: float
    terms_used: tuple[int, ...]
    tail_estimate: float


def capacity_direction_integral(s, mu):
    """One direction's survival integral int_0^inf (1-F)/(1+z) dz in series
    form, for 1 - F(z) = exp(-s*z) * xK1(2*sqrt(mu*z)), per element of s
    and mu:

        Psi(1,1;s) + sum_{l>=0} (mu^(l+1)/l!) *
            [ (ln mu + 2*EULER - H_l - H_{l+1}) * Psi(l+2, l+2; s)
              + J_l / (l+1)! ].

    Term l is exp((l+1)*ln(mu/s) - ln l!) times the bracket in the scaled
    factors of :func:`_scaled_series_factors`.  The terms are built
    ``_SERIES_BLOCK`` at a time for every direction still running, and each
    direction's are summed in index order up to the first of three
    consecutive |term| <= SERIES_REL_TOL * |partial sum|, where it leaves
    the block; a term that is not finite before that stop, or
    SERIES_MAX_TERMS terms without it, raise ConvergenceError.

    The terms scale like (mu/s)^l / l!, so the sum cancels from a peak near
    e^(mu/s): the factors' 3e-14 relative error becomes an error of roughly
    3e-14 * e^(mu/s) in the value.  A sum of |term| above
    SERIES_CANCELLATION_LIMIT times |value| raises ConvergenceError too,
    from mu/s of about 23 at s = 1 and about 29 at s = 1e-8.  For mu = 0
    every series term carries a factor mu and the integral collapses to
    Psi(1, 1; s).  Returns ``(value, terms_used, |last term|)``, each shaped
    like ``s``; the error is that of the first failing element, marked with
    its index.
    """
    s, mu = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(mu, dtype=float))
    shape, s, mu = s.shape, s.ravel(), mu.ravel()
    raise_first((mu < 0.0, lambda i: DomainError(f"Bessel scale mu must be >= 0; got {mu[i]}")))
    value = tricomi_psi11(s)
    used = np.zeros(s.size, dtype=int)
    last = np.zeros(s.size)
    errors: dict[int, str] = {}

    def where(i: int) -> str:
        return f"s={s[i]:.3g}, mu={mu[i]:.3g}"

    rows = np.flatnonzero(mu > 0.0)
    ln_ratio = np.log(mu[rows] / s[rows])[:, None]
    offset = (np.log(mu[rows]) + 2.0 * EULER_GAMMA)[:, None]
    total, magnitude = np.zeros((rows.size, 1)), np.zeros((rows.size, 1))
    small = np.zeros((rows.size, 2), dtype=bool)  # the last two stop flags of the block before
    for start in range(0, SERIES_MAX_TERMS, _SERIES_BLOCK):
        if not rows.size:
            break
        stop = min(start + _SERIES_BLOCK, SERIES_MAX_TERMS)
        psi_scaled, j_scaled = _scaled_series_factors(s[rows], slice(start, stop))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(np.arange(start + 1.0, stop + 1.0) * ln_ratio - _LN_FACTORIAL[start:stop])
            harmonic = offset - _HARMONIC[start:stop] - _HARMONIC[start + 1 : stop + 1]
            terms = scale * (harmonic * psi_scaled + j_scaled)
            size = np.abs(terms)
            partial = np.cumsum(np.concatenate((total, terms), axis=1), axis=1)[:, 1:]
            magnitudes = np.cumsum(np.concatenate((magnitude, size), axis=1), axis=1)[:, 1:]
            small = np.concatenate((small, size <= SERIES_REL_TOL * np.abs(partial)), axis=1)
        stops = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
        stopped = stops.any(axis=1)
        end = np.where(stopped, stops.argmax(axis=1) + 1, stop - start)
        blown = ~np.isfinite(terms) & (np.arange(stop - start) < end[:, None])
        broken = blown.any(axis=1)
        for k in np.flatnonzero(broken):
            errors[rows[k]] = (
                f"capacity series term {start + blown[k].argmax()} is not finite "
                f"({where(rows[k])}, mu/s={mu[rows[k]] / s[rows[k]]:.3g})"
            )
        done = np.flatnonzero(stopped & ~broken)
        at = end[done] - 1
        finished = rows[done]
        value[finished] = value[finished] + partial[done, at]
        used[finished] = start + end[done]
        last[finished] = size[done, at]
        cancels = magnitudes[done, at] > SERIES_CANCELLATION_LIMIT * np.abs(value[finished])
        for k in np.flatnonzero(cancels):
            i, m = finished[k], magnitudes[done[k], at[k]]
            errors[i] = (
                f"capacity series cancels: sum|term| = {m:.3g} is "
                f"{m / abs(value[i]):.3g} times its value {value[i]:.6g} "
                f"({where(i)}, mu/s={mu[i] / s[i]:.3g})"
            )
        going = ~(stopped | broken)
        rows, ln_ratio, offset = rows[going], ln_ratio[going], offset[going]
        total, magnitude = partial[going, -1:], magnitudes[going, -1:]
        small, tail = small[going, -2:], size[going, -1]
    for i, t in zip(rows, tail if rows.size else ()):
        errors[i] = (
            f"capacity series did not converge within {SERIES_MAX_TERMS} terms "
            f"({where(i)}; last term {t:.3g})"
        )
    if errors:
        first = min(errors)
        raise failed_at(int(first), ConvergenceError(errors[first]))
    return value.reshape(shape), used.reshape(shape), last.reshape(shape)


def capacity_series(params) -> CapacitySeries:
    """Ergodic capacity via the Bessel-series decomposition (both
    directions of :func:`capacity_direction_integral`, scaled by 1/(2 ln 2))."""
    (batch,) = _batch(params)
    d = batch.d
    try:
        value, used, last = capacity_direction_integral(d.s, d.mu)
    except ConvergenceError as exc:  # its point indexes the flattened (points, 2) arrays
        raise failed_at(exc.point // 2, exc)
    return CapacitySeries(batch.shaped(_sum_rate(value)), tuple(used.ravel().tolist()),
                          batch.shaped(last.max(axis=1, initial=0.0)))


class CapacityBounds(NamedTuple):
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


def capacity_bounds(params) -> CapacityBounds:
    """Capacity bound chain ``lower <= C_e <= tight_upper <= loose_upper``.

    Each bound replaces x*K1(x) inside the survival integral of
    :func:`capacity_quadrature` by a bound on it: the lower by its exp(-x)
    floor, the tight upper by :func:`_xk1_upper`, the loose upper by 1
    (giving the bare Psi(1,1;.) sum).  Since exp(-x) <= x*K1(x) <=
    _xk1_upper(x) <= 1 pointwise and the rule's weights are positive,
    ``lower <= C_e <= tight_upper`` holds exactly on the shared nodes, and
    ``tight_upper <= loose_upper`` to the rule's accuracy.
    """
    (batch,) = _batch(params)
    d = batch.d
    lower = _survival_integral(d.s, d.mu, lambda x: np.exp(-x))
    tight = _survival_integral(d.s, d.mu, _xk1_upper, _XK1_UPPER_KINK)
    loose = tricomi_psi11(d.s)
    return CapacityBounds(*(batch.shaped(_sum_rate(v)) for v in (lower, tight, loose)))


def _positive_r_and_gamma(r, gamma) -> None:
    raise_first(
        (np.asarray(r) <= 0, lambda i: DomainError(
            f"multiplexing gain must be positive; got {np.ravel(r)[i]}")),
        (np.asarray(gamma) <= 0, lambda i: DomainError(
            f"SNR must be positive; got {np.ravel(gamma)[i]}")),
    )


def x0_symmetric(r, gamma, coeffs: DerivedCoeffs):
    """Corner coordinate under symmetric traffic (equal powers and targets):

        X0 = b*tau/(2*gamma) * (1 + sqrt(1 + 4*c*gamma/(b^2*tau))),

    with tau = (1+gamma)^r - 1, elementwise.  A product in it that passes the
    float range raises DomainError naming the product and its gamma.
    """
    _positive_r_and_gamma(r, gamma)
    b, c = coeffs.b, coeffs.c
    tau = (1.0 + gamma) ** r - 1.0
    with np.errstate(over="ignore"):
        scaled, spread = 4.0 * c * gamma, b * b * tau
    raise_first(_overflows("4*c*gamma", scaled, gamma), _overflows("b*b*tau", spread, gamma))
    return b * tau / (2.0 * gamma) * (1.0 + np.sqrt(1.0 + scaled / spread))


def dmt_coefficients(r, gamma, coeffs: DerivedCoeffs):
    """SNR derivatives feeding the finite-SNR diversity formula, elementwise.

    B = d/dgamma [((1+gamma)^r - 1)/gamma]; A = dX0/dgamma follows by the
    chain rule:

        A = B * [ (b/2)*(1 + S) - c*gamma / (b*tau*S) ],
        S = sqrt(1 + 4*c*gamma/(b^2*tau)).

    Both are verified against central finite differences in the test suite.
    A product in them that passes the float range raises DomainError naming
    the product and its gamma.
    """
    _positive_r_and_gamma(r, gamma)
    b, c = coeffs.b, coeffs.c
    tau = (1.0 + gamma) ** r - 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        numer = r * gamma * (1.0 + gamma) ** (r - 1.0) - (1.0 + gamma) ** r + 1.0
        square, scaled, spread = np.square(gamma), 4.0 * c * gamma, b * b * tau
    raise_first(*(_overflows(what, value, gamma) for what, value in (
        ("gamma**2", square), ("4*c*gamma", scaled), ("b*b*tau", spread),
        ("r*gamma*(1+gamma)^(r-1)", numer))))
    big_b = numer / square
    s_fac = np.sqrt(1.0 + scaled / spread)
    big_a = big_b * (0.5 * b * (1.0 + s_fac) - c * gamma / (b * tau * s_fac))
    return big_a, big_b


def dmt(params, r) -> float:
    """Finite-SNR diversity gain d(r, gamma) = -d ln(P_out) / d ln(gamma) at
    each point's own SNR gamma = P/sigma2, with multiplexing gain ``r``.

    Evaluated on the closed-form lower-bound outage under symmetric traffic
    (P1 = P2 = P, equal targets induced by r); powers that differ raise
    ParameterError (``model.check_symmetric_powers``), and a threshold
    (1+gamma)^r - 1, or a product of the corner or its derivatives, past the
    float range raises DomainError.
    """
    check_symmetric_powers(params)
    batch, r = _batch(params, r)
    b, c, d = batch.b, batch.c, batch.d
    gamma = d.a[:, 1]  # direction 2 carries P1/sigma2
    coeffs = DerivedCoeffs(b, c)
    with np.errstate(over="ignore"):
        tau = (1.0 + gamma) ** r - 1.0
    raise_first((~np.isfinite(tau), lambda i: DomainError(
        f"threshold (1+gamma)^r - 1 overflows at gamma={gamma[i]} (r={r[i]})")))
    x0 = x0_symmetric(r, gamma, coeffs)
    big_a, big_b = dmt_coefficients(r, gamma, coeffs)
    # Symmetric traffic: both thresholds are tau and the corner is (x0, x0).
    shift, mass = _corner_mass(d, x0[:, None])
    denom, terms = _lower_bound(d, tau[:, None], shift, mass)
    # d/dgamma of s_i*tau = (b/other_i)*(tau/gamma) and of x0/own_i, times the terms
    falls = ((big_b * b)[:, None] / d.other + big_a[:, None] / d.own) * terms
    numer = big_a * (1.0 / d.own).sum(axis=1) * mass - falls[:, 0] - falls[:, 1]
    raise_first(((denom <= 0.0) | ~np.isfinite(denom), lambda i: DegenerateCaseError(
        f"lower-bound outage underflowed to {denom[i]} at gamma={gamma[i]} "
        f"(r={r[i]}); the log-derivative is undefined there"
    )))
    return batch.shaped(gamma * numer / denom)


def non_coop_outage(params, targets) -> float:
    """Outage of the non-cooperative baseline: no relay, the sources exchange
    over the unit-distance direct link in two equal half-duplex slots, so
    the resource budget matches the relay round.  The link is reciprocal,
    one gain g ~ Exp(1) for both directions within a round, so

        P(R1 < T1 or R2 < T2) = 1 - exp(-max_i tau_i/a_i),

    formed as ``-expm1(-max_i tau_i/a_i)`` so that a small probability keeps
    its digits.
    This time-sharing convention is a modelling choice, not a uniquely
    determined one.
    """
    batch, taus = _thresholded(params, targets)
    return batch.shaped(-np.expm1(-(taus / batch.d.a).max(axis=1)))


def non_coop_capacity(params) -> float:
    """Sum ergodic rate of the non-cooperative baseline: per direction
    E[ln(1 + a*g)] = e^(1/a) E1(1/a) = Psi(1, 1; 1/a), over 2 ln 2."""
    (batch,) = _batch(params)
    return batch.shaped(_sum_rate(tricomi_psi11(1.0 / batch.d.a)))
