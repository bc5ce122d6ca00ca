"""Closed-form performance evaluators, each over a whole batch of points.

Implements the fading CDF of the harvest-scaled product variable, exact
outage (corner-point decomposition), outage bounds and the first-order
high-SNR asymptote, ergodic capacity (the survival integral, a
hypergeometric series, and a bound chain that holds by construction), the
finite-SNR diversity-multiplexing tradeoff (from one pass over the
threshold, corner and SNR derivatives of symmetric traffic,
:func:`_symmetric_corner`), and the non-cooperative direct-link baseline.

Each evaluator takes a ``SystemParams`` (with its ``TargetRates``, or its
multiplexing gain) whose fields are floats, one point, or columns, one value
per point, where a float holds at every point.  It returns each of its
outputs in the shape of its input: a float for one point, a list of one
float per point for a batch.  The single call is the batch of one: every
formula runs as numpy array passes over all points of the call.  A point
that fails raises for the first failing point, marked with its index
(``errors.raise_first``).

Every integral here, the outage boundary strips, the capacity survival
integrals and the capacity-series factors, runs on the one fixed
Gauss-Legendre rule in a log variable of :mod:`twrelay.numerics`, one row
of nodes per element of a batch's (points, 2) direction arrays, in slabs of
rows.  The series is summed as arrays, a block of orders at a time for every
direction still running, from tables built at import; beyond its reach it
raises ConvergenceError.

One integral per distinct direction: a direction whose integral inputs
repeat, bit for bit, those of the direction before it in raveled order
reads that one's value (``numerics.distinct_rows``).  Both directions of a
point follow one SNR law where P1 = P2 and omega1 = omega2, so the survival
integrals and the series run once for such a point, and the strips too
where also T1 = T2.  Measured shares of such points: every point of the
presets that integrate (fig1 7/7, fig2 19/19) and of the ``analytic-dense``
sweeps ``cap_lambda_20db``, ``cap_lambda_2db`` (37 each), ``cap_snr`` (31)
and ``out_snr`` (81); none of ``out_d1`` (0/91).  fig3, fig4 and ``dmt_r``
run no integral.

One set of shared parts per family: a sweep hands every closed form one
:class:`Shared`, whose parts are each formed by the first closed form that
reads it.  The outage forms share the thresholds, and the exact value and
the bounds one corner with its checks, mass and survivals; the capacity
forms share the batch and one Psi(1,1;s) for the series and the loose
bound.  Each capacity form integrates only its own integrands: x*K1(x)
for the capacity, and both integral bounds on one pass of their own.

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

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    Check,
    ConvergenceError,
    DegenerateCaseError,
    DomainError,
    ParameterError,
    overflows,
    raise_first,
)
from .model import (
    SystemParams,
    TargetRates,
    _broadcast,
    as_columns,
    check_multiplexing_gain,
    check_symmetric_powers,
    derived_coeffs,
    snr_scales,
    symmetric_growth,
)
from .numerics import distinct_rows, log_integral, log_rule, slabs
from .specfun import EULER_GAMMA, bessel_xk1, exp_integral_e1, tricomi_psi11

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
    return np.minimum(np.maximum(values, 0.0), 1.0), (excess > CLAMP_TOL, lambda i: DomainError(
        f"{context} produced {float(values[i])}, outside [0, 1] by {excess[i]:.3g}"
    ))


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
    # bit-equal mu.  An a at or near 0 puts s and mu past the float range.
    with np.errstate(over="ignore", divide="ignore"):
        scale, joint = a * other, a * (own * other)
        s, mu = b / scale, c / joint
    raise_first(overflows("a*omega_j", scale, a), overflows("a*omega_i*omega_j", joint, a),
                overflows("b/(a*omega_j)", s, a), overflows("c/(a*omega_i*omega_j)", mu, a))
    return Direction(a, own, other, s, mu)


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
    a = np.stack(snr_scales(columns), axis=1)
    return (_Batch(b, c, _direction(a, own, own[:, ::-1], b[:, None], c[:, None]), shape),
            *more)


def _thresholded(params: SystemParams, targets: TargetRates) -> tuple:
    """The batch of ``params``, its thresholds (tau1, tau2), (points, 2), and
    each direction's tau/a, m = s*tau and kappa = mu*tau, formed once here; a
    product past the float range raises DomainError naming it and gamma = a."""
    batch, tau1, tau2 = _batch(params, targets.tau1, targets.tau2)
    d, taus = batch.d, np.stack((tau1, tau2), axis=1)
    with np.errstate(over="ignore"):
        eps, m, kappa = taus / d.a, d.s * taus, d.mu * taus
    raise_first(overflows("tau/a", eps, d.a), overflows("s*tau", m, d.a),
                overflows("mu*tau", kappa, d.a))
    return batch, taus, eps, m, kappa


def directions(params) -> tuple[Direction, Direction]:
    """The two directions of a round, direction 1 (into source 1) first;
    for a batch, each field holds one value per point."""
    (batch,) = _batch(params)
    one, two = np.moveaxis(np.stack(batch.d), -1, 0)  # each (fields, points)
    return Direction(*map(batch.shaped, one)), Direction(*map(batch.shaped, two))


def _survival(m, kappa):
    """P(gamma > tau) = exp(-m) * xK1(2*sqrt(kappa)) of a direction whose
    s*tau is ``m`` and mu*tau is ``kappa``, for tau >= 0."""
    return np.exp(-m) * bessel_xk1(2.0 * np.sqrt(kappa))


def _positive_quadratic_root(quad, lin, const):
    """Positive root of quad*x^2 + lin*x + const with quad > 0, const < 0,
    and the discriminant lin^2 - 4*quad*const.  The caller runs it under
    ``np.errstate`` and checks the discriminant: past the float range, the
    root reads 0 or inf.

    For lin > 0 the textbook form (-lin + disc)/(2*quad) cancels, so the root
    is taken from the product of the roots instead.
    """
    square = lin * lin - 4.0 * quad * const
    disc = np.sqrt(square)
    product = lin > 0.0  # one division per point: the form not taken may divide by 0
    root = np.where(product, 2.0 * const, -lin + disc) / np.where(product, -lin - disc, 2.0 * quad)
    return root, square


def _corner_residual(b, c, eps1, eps2, x0, y0):
    r1 = y0 - eps1 * (b + c / x0)
    r2 = x0 - eps2 * (b + c / y0)
    return np.maximum(np.abs(r1) / y0, np.abs(r2) / x0)


def _corner_point(batch: _Batch, taus, joint) -> tuple[np.ndarray, list[Check]]:
    """The corner of every point, for positive thresholds, as a (points, 2)
    array of X0 (on direction 1's own axis) and Y0 (on direction 2's), and
    the checks, in order, that its cross quotient eps_j*c/eps_i and its
    discriminant are finite floats and that it satisfies the boundary system
    to 1e-9 relative.  It is all formed under ``np.errstate``, and the checks
    fail only points that are ``joint``, a (points,) mask: the others carry
    the stand-in thresholds of :func:`_joint_thresholds`."""
    b, c, a = batch.b[:, None], batch.c[:, None], batch.d.a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eps = taus / a
        cross = eps[:, ::-1]
        ratio = cross * c / eps
        # X0 solves b*X^2 + (c - eps2*b^2 - eps2*c/eps1)*X - eps2*b*c = 0 and Y0 the
        # same with indices swapped: column i takes its own eps and the other's, cross.
        corner, square = _positive_quadratic_root(b, c - cross * b * b - ratio, -cross * b * c)
        (x0, y0), (eps1, eps2) = corner.T, eps.T
        residual = _corner_residual(batch.b, batch.c, eps1, eps2, x0, y0)

    def error(i: int) -> Exception:
        return DegenerateCaseError(
            f"corner point ({x0[i]:.6g}, {y0[i]:.6g}) violates the boundary system "
            f"by {residual[i]:.3g} relative (tau=({taus[i, 0]}, {taus[i, 1]}), "
            f"b={batch.b[i]}, c={batch.c[i]}, eps=({eps1[i]}, {eps2[i]}))"
        )

    finite = (overflows("eps_j*c/eps_i", ratio, a),
              overflows("the corner's discriminant", square, a))
    return corner, [*((bad & joint[:, None], fail) for bad, fail in finite),
                    (joint & (residual > 1e-9), error)]


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


def _corner_parts(batch: _Batch, taus, eps, m, kappa) -> tuple:
    """What :func:`outage_exact` and :func:`outage_bounds` share, from the
    parts of :func:`_thresholded`: the batch, each direction's survival
    P(gamma_i > tau_i), (points, 2), the joint mask and thresholds of
    :func:`_joint_thresholds`, the corner and its checks
    (:func:`_corner_point`) and the parts of :func:`_corner_mass`."""
    joint, taus = _joint_thresholds(taus)
    corner, checks = _corner_point(batch, taus, joint)
    return (batch, _survival(m, kappa), joint, taus, corner, checks,
            *_corner_mass(batch.d, corner))


class Shared:
    """One batch, ``params`` with the ``targets`` of its outage forms, and
    the parts that a family's closed forms share (the module docstring),
    each formed once, by the first closed form that reads it.  Every closed
    form but :func:`dmt` takes one in place of its ``params`` (an outage
    form, with the Shared's own ``targets``); given plain ``params``, it
    makes its own.
    """

    def __init__(self, params, targets=None):
        self.params, self.targets = params, targets

    @cached_property
    def batch(self) -> _Batch:  # of the params alone, as the capacity forms read it
        return _batch(self.params)[0]

    @cached_property
    def thresholded(self) -> tuple:
        return _thresholded(self.params, self.targets)

    @cached_property
    def corner(self) -> tuple:
        return _corner_parts(*self.thresholded)

    @cached_property
    def psi11(self) -> np.ndarray:
        """Psi(1, 1; s) of each direction, (points, 2)."""
        return tricomi_psi11(self.batch.d.s)


def _shared(params, *targets) -> Shared:
    """``params`` if it is a Shared, else a new one of ``params`` and ``targets``."""
    if not isinstance(params, Shared):
        return Shared(params, *targets)
    if targets and targets[0] is not params.targets:
        raise ParameterError("a Shared's closed forms take its own targets")
    return params


def _system_outage(survivals, joint_outage) -> tuple[np.ndarray, Check]:
    """The system outage by inclusion-exclusion, the two marginal outages
    1 - P(gamma_i > tau_i) less ``joint_outage``, clamped to [0, 1], and its
    excursion check."""
    return _clamp_probability((1.0 - survivals).sum(axis=1) - joint_outage, "outage_exact")


def outage_exact(params, targets) -> float:
    """System outage by inclusion-exclusion over the two directions.

    The joint outage P(gamma_1 < tau1, gamma_2 < tau2) comes from the
    corner-point decomposition:

        1 - exp(-X0/omega1 - Y0/omega2)
          - sum_i (1/own_i) exp(-s_i*tau_i) * I(tau_i*mu_i*own_i, own_i, V_i),

    where V_i is the corner coordinate on direction i's own axis (X0 for
    direction 1, Y0 for direction 2) and I integrates the boundary strip
    between the corner and the curve (see :func:`_segment_integral`); it is
    0 where a threshold is 0.  The strips of all points and both directions
    are one array pass, in which a point with equal powers, fading means and
    thresholds integrates one strip for both directions.
    """
    batch, survivals, joint, taus, corner, checks, _, mass = _shared(params, targets).corner
    d = batch.d
    strips = np.exp(-d.s * taus) / d.own * _segment_integral(taus * d.mu * d.own, d.own, corner)
    both, (bad, error) = _clamp_probability(1.0 - mass - strips[:, 0] - strips[:, 1],
                                            "joint_outage")
    value, clamp = _system_outage(survivals, np.where(joint, both, 0.0))
    raise_first(*checks, (joint & bad, error), clamp)
    return batch.shaped(value)


def outage_bounds(params, targets) -> tuple[float, float]:
    """Closed-form lower/upper outage bounds: the pair (lower, upper).

    Both come from sandwiching the boundary-strip integrals I_i: dropping
    exp(-k/z) on the tail yields the upper bound, shifting the full-line
    integral by exp(-V/omega) the lower one.  With the corner mass
    M = exp(-X0/omega1 - Y0/omega2) and V_i, own_i as in
    :func:`outage_exact`, the lower bound is Bessel-free:

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
    batch, survivals, joint, taus, _, corner_checks, shift, mass = _shared(params, targets).corner
    exact, exact_check = _system_outage(survivals, 0.0)
    lower, _ = _lower_bound(batch.d, taus, shift, mass)
    attenuated = survivals * np.exp(-shift)
    upper = 1.0 + mass - attenuated[:, 0] - attenuated[:, 1]
    lower, lower_check = _clamp_probability(lower, "outage lower bound")
    upper, upper_check = _clamp_probability(np.minimum(1.0, upper), "outage upper bound")
    raise_first(
        (~joint & exact_check[0], exact_check[1]),
        *corner_checks,
        *((joint & bad, error) for bad, error in (lower_check, upper_check)),
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
    batch, _, _, m, kappa = _shared(params, targets).thresholded
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


def _xk1_floor(x):
    """exp(-x) <= x*K1(x), the lower capacity bound's stand-in for x*K1(x)."""
    return np.exp(-x)


def _survival_integral(d: Direction, xk1s: tuple, kink: float | None = None):
    """int_0^inf exp(-s*z) * xk1(2*sqrt(mu*z)) / (1+z) dz per element of the
    direction fields s and mu, for each ``xk1`` of ``xk1s``, x*K1(x) or a
    bound on it, each taking an array: shape (len(xk1s), points, 2), every
    integrand on the one table of nodes, and a point whose two directions
    follow one law integrated once (``numerics.log_integral``).

    The rule runs in t = ln z on [1e-17*min(1, 1/s), min(745/s, 745^2/(4*mu))].
    The integrand is at most 1 and the value scales with the decay length
    min(1, 1/s), so the part dropped below is under 1e-17 of it; above,
    e^(-s*z) or xk1(x) <= (1+x)e^-x at x = 745 is under e^-738.  The
    window is split at z = 1, below the pole of 1/(1+z) at t = i*pi, and
    at x = ``kink`` where ``xk1`` has one.  The window is formed under
    ``np.errstate``: a lower end that underflows to 0 (s above about 1e306)
    or a 4*mu/745 past the float range raises DomainError naming it and
    gamma = a.
    """
    s, mu = d.s, d.mu
    with np.errstate(over="ignore", divide="ignore"):
        lo, reach = 1e-17 * np.minimum(1.0, 1.0 / s), 4.0 * mu / 745.0
        ln_lo = np.log(lo)
    raise_first(overflows("ln(1e-17*min(1, 1/s))", ln_lo, d.a), overflows("4*mu/745", reach, d.a))

    def integrand(z, s, mu):
        decay, x, knee = np.exp(-s * z), 2.0 * np.sqrt(mu * z), 1.0 + z
        return np.stack([decay * xk1(x) / knee for xk1 in xk1s])

    splits = (1.0,)
    if kink is not None:
        at_kink = kink * kink / (4.0 * mu)
        splits = (np.minimum(1.0, at_kink), np.maximum(1.0, at_kink))
    return log_integral(integrand, lo, 745.0 / np.maximum(s, reach), splits, args=(s, mu))


def capacity_quadrature(params) -> float:
    """Ergodic capacity: (1/(2 ln 2)) * sum_i int_0^inf (1 - F_i(z))/(1+z) dz,
    each survival integral on the log-variable rule, all directions of all
    points in one pass."""
    batch = _shared(params).batch
    return batch.shaped(_sum_rate(_survival_integral(batch.d, (bessel_xk1,))[0]))


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


class CapacitySeries(NamedTuple):
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
    factors of :func:`_scaled_series_factors`.  The terms go into one
    table, a row per direction, ``_SERIES_BLOCK`` columns at a time for the
    directions still summing: the block loop only decides which stop, at the
    last of three consecutive |term| <= SERIES_REL_TOL * |partial sum| or at
    a term that is not finite.  Each direction's value, terms used, last
    |term| and sum|term| are then read off the table's sums in index order.
    An element whose s and mu repeat the element before it, in raveled
    order, reads that one's row (``numerics.distinct_rows``).

    The terms scale like (mu/s)^l / l!, so the sum cancels from a peak near
    e^(mu/s): the factors' 3e-14 relative error becomes an error of roughly
    3e-14 * e^(mu/s) in the value.  ConvergenceError is raised for a
    direction that stops at a term that is not finite, whose sum|term| is
    above SERIES_CANCELLATION_LIMIT times |value| (from mu/s of about 23 at
    s = 1 and about 29 at s = 1e-8), or that does not stop within
    SERIES_MAX_TERMS terms.  For mu = 0 every series term carries a factor
    mu and the integral collapses to Psi(1, 1; s).  Returns ``(value,
    terms_used, |last term|)``, each shaped like ``s``; an ``s`` and ``mu``
    of unequal lengths raise ParameterError.  A point is an element of
    ``s``, or a row of (points, 2) arrays; the one error is the first
    failing point's, marked with its index, and names that point's first
    failing direction.
    """
    s, mu = _broadcast(s, mu)
    flat = mu.ravel()
    raise_first((flat < 0.0,
                 lambda i: DomainError(f"Bessel scale mu must be >= 0; got {flat[i]}")))
    return _series(s, mu, tricomi_psi11(s))


def _series(s, mu, psi11):
    """:func:`capacity_direction_integral` of arrays ``s`` and ``mu`` of one
    shape with mu >= 0, from each element's Psi(1,1;s), ``psi11``."""
    shape, s, mu = s.shape, s.ravel(), mu.ravel()
    first, source = distinct_rows(s, mu)
    value, used, running, last, magnitude = (
        part[source] for part in _series_table(s[first], mu[first], np.ravel(psi11)[first]))
    at = np.maximum(used - 1, 0)
    blown = ~np.isfinite(last)
    with np.errstate(over="ignore", invalid="ignore"):
        cancels = magnitude > SERIES_CANCELLATION_LIMIT * np.abs(value)
    # one that never stops or blows up may read as cancelling too: error() names its kind
    failed = (running | blown | cancels).reshape(shape or 1)
    index = np.arange(s.size).reshape(failed.shape)

    def error(i: int) -> Exception:
        k = index[i][failed[i]][0]  # the point's first failing direction
        where, m = f"s={s[k]:.3g}, mu={mu[k]:.3g}", magnitude[k]
        if running[k]:
            return ConvergenceError(f"capacity series did not converge within "
                                    f"{SERIES_MAX_TERMS} terms ({where}; last term {last[k]:.3g})")
        return ConvergenceError((
            f"capacity series term {at[k]} is not finite" if blown[k] else
            f"capacity series cancels: sum|term| = {m:.3g} is {m / abs(value[k]):.3g} times "
            f"its value {value[k]:.6g}") + f" ({where}, mu/s={mu[k] / s[k]:.3g})")

    raise_first((failed, error))
    return value.reshape(shape), used.reshape(shape), last.reshape(shape)


def _series_table(s, mu, psi11) -> tuple:
    """The series of :func:`capacity_direction_integral` for 1-D ``s`` and
    ``mu``, from ``psi11``: per element its value, terms used, whether it
    is still running at SERIES_MAX_TERMS, its |last term| and sum|term|."""
    table = np.zeros((s.size, SERIES_MAX_TERMS), order="F")  # unwritten columns stay unmapped
    used = np.zeros(s.size, dtype=int)
    running = mu > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # mu = 0 sums no term
        ln_ratio, offset = np.log(mu / s)[:, None], (np.log(mu) + 2.0 * EULER_GAMMA)[:, None]
    for start in range(0, SERIES_MAX_TERMS, _SERIES_BLOCK):
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        stop = min(start + _SERIES_BLOCK, SERIES_MAX_TERMS)
        psi_scaled, j_scaled = _scaled_series_factors(s[rows], slice(start, stop))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(np.arange(start + 1.0, stop + 1.0) * ln_ratio[rows]
                           - _LN_FACTORIAL[start:stop])
            harmonic = offset[rows] - _HARMONIC[start:stop] - _HARMONIC[start + 1 : stop + 1]
            table[rows, start:stop] = terms = scale * (harmonic * psi_scaled + j_scaled)
            summed = table[rows, :stop]
            small = np.abs(summed) <= SERIES_REL_TOL * np.abs(np.cumsum(summed, axis=1))
        ends = np.zeros_like(small)  # the terms a direction may stop at
        ends[:, 2:] = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
        ends[:, start:] |= ~np.isfinite(terms)
        stopped = ends.any(axis=1)
        used[rows] = np.where(stopped, ends.argmax(axis=1) + 1, stop)
        running[rows] = ~stopped
    at = np.maximum(used - 1, 0)  # a direction with mu = 0 reads its zero column 0
    index, summed = np.arange(s.size), table[:, :at.max(initial=0) + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        value = psi11 + np.cumsum(summed, axis=1)[index, at]
        magnitude = np.cumsum(np.abs(summed), axis=1)[index, at]
    return value, used, running, np.abs(table[index, at]), magnitude


def capacity_series(params) -> CapacitySeries:
    """Ergodic capacity via the Bessel-series decomposition (both
    directions of :func:`capacity_direction_integral`, scaled by 1/(2 ln 2)),
    from the Psi(1,1;s) that the loose capacity bound reads too
    (:attr:`Shared.psi11`)."""
    shared = _shared(params)
    batch = shared.batch
    value, used, last = _series(batch.d.s, batch.d.mu, shared.psi11)
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
    (giving the bare Psi(1,1;.) sum), and exp(-x) <= x*K1(x) <=
    _xk1_upper(x) <= 1 pointwise.  The two integral bounds run on one pass
    over the tight bound's nodes, split at its kink, and the rule's weights
    are positive, so ``lower <= tight_upper`` holds exactly.  ``C_e`` is
    integrated on its own nodes and lies between them to the rule's
    accuracy: on 60 000 random points of the tests' wide box, with P2/P1
    from 0.01 to 100, the narrowest gaps were 1.8% below it and 1.0e-5
    relative above, both at 40-60 dB.  ``tight_upper <= loose_upper`` holds
    to the rule's accuracy; the loose bound is the series' Psi(1,1;s)
    (:class:`Shared`).
    """
    shared = _shared(params)
    batch = shared.batch
    lower, tight = _survival_integral(batch.d, (_xk1_floor, _xk1_upper), _XK1_UPPER_KINK)
    return CapacityBounds(*(batch.shaped(_sum_rate(v)) for v in (lower, tight, shared.psi11)))


def _symmetric_corner(r, gamma, b, c):
    """The threshold, corner and SNR derivatives of symmetric traffic (equal
    powers and targets), per element of the (points,) arrays:

        tau = (1+gamma)^r - 1,
        X0 = b*tau/(2*gamma) * (1 + S),    S = sqrt(1 + 4*c*gamma/(b^2*tau)),
        B = d/dgamma [tau/gamma] = (r*gamma*(1+gamma)^(r-1) - tau) / gamma^2,
        A = dX0/dgamma = B * [ (b/2)*(1 + S) - c*gamma / (b*tau*S) ],

    returned as ``(tau, X0, A, B)``; A and B are checked against central
    finite differences in the test suite.  (1+gamma)^r comes from
    ``model.symmetric_growth``, as the Monte Carlo stencil's does.  A
    threshold past the float range, or one that rounds to 0 (r*ln(1+gamma)
    below about 1e-16), raises DomainError before any division, and so does
    a product past the float range, naming the product and its gamma.
    """
    grown = symmetric_growth(r, gamma)
    tau = grown - 1.0
    raise_first(
        (~np.isfinite(tau), lambda i: DomainError(
            f"threshold (1+gamma)^r - 1 overflows at gamma={gamma[i]} (r={r[i]})")),
        (tau <= 0.0, lambda i: DomainError(
            f"threshold (1+gamma)^r - 1 rounds to 0 at gamma={gamma[i]} (r={r[i]})")),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, spread = 4.0 * c * gamma, b * b * tau
        square = np.square(gamma)
        numer = r * gamma * (1.0 + gamma) ** (r - 1.0) - grown + 1.0
    raise_first(overflows("4*c*gamma", scaled, gamma), overflows("b*b*tau", spread, gamma))
    raise_first(overflows("gamma**2", square, gamma),
                overflows("r*gamma*(1+gamma)^(r-1)", numer, gamma))
    s_fac = np.sqrt(1.0 + scaled / spread)
    big_b = numer / square
    big_a = big_b * (0.5 * b * (1.0 + s_fac) - c * gamma / (b * tau * s_fac))
    return tau, b * tau / (2.0 * gamma) * (1.0 + s_fac), big_a, big_b


def dmt(params, r) -> float:
    """Finite-SNR diversity gain d(r, gamma) = -d ln(P_out) / d ln(gamma) at
    each point's own SNR gamma = P/sigma2, with multiplexing gain ``r``.

    Evaluated on the closed-form lower-bound outage under symmetric traffic
    (P1 = P2 = P, equal targets induced by r), from the threshold, corner
    and derivatives of :func:`_symmetric_corner`.  Powers that differ or an
    ``r`` that is not positive raise ParameterError
    (``model.check_symmetric_powers``, ``model.check_multiplexing_gain``); a
    threshold (1+gamma)^r - 1 past the float range or rounded to 0, or a
    product of the corner or its derivatives past the float range, raises
    DomainError; a lower-bound outage that underflows raises
    DegenerateCaseError.
    """
    check_symmetric_powers(params)
    check_multiplexing_gain(r)
    batch, r = _batch(params, r)
    b, c, d = batch.b, batch.c, batch.d
    gamma = d.a[:, 1]  # direction 2 carries P1/sigma2
    tau, x0, big_a, big_b = _symmetric_corner(r, gamma, b, c)
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
    batch, _, eps, _, _ = _shared(params, targets).thresholded
    return batch.shaped(-np.expm1(-eps.max(axis=1)))


def non_coop_capacity(params) -> float:
    """Sum ergodic rate of the non-cooperative baseline: per direction
    E[ln(1 + a*g)] = e^(1/a) E1(1/a) = Psi(1, 1; 1/a), over 2 ln 2."""
    batch = _shared(params).batch
    return batch.shaped(_sum_rate(tricomi_psi11(1.0 / batch.d.a)))
