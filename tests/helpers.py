"""Shared test utilities: reference parameter sets and brute-force oracles."""

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple
from unittest import mock

import numpy as np
from scipy import integrate, optimize

from twrelay import analytic, mc
from twrelay.errors import (
    ConvergenceError,
    DegenerateCaseError,
    DomainError,
    NumericalError,
    ParameterError,
    raise_first,
)
from twrelay.model import (
    SystemParams,
    TargetRates,
    build_params,
    check_multiplexing_gain,
    derived_coeffs,
    end_to_end_snrs,
    gain_product,
    snr_denominators,
    snr_numerator,
    snr_scales,
)
from twrelay.specfun import EULER_GAMMA, exp_integral_e1
from twrelay.sweep import Column, SweepResult

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: mpmath values of the package's integrals, frozen by data/make_golden.py.
GOLDEN_INTEGRALS = json.loads(
    (Path(__file__).parent / "data" / "golden_integrals.json").read_text(encoding="utf-8")
)


def make_params(
    snr_db: float = 20.0,
    lam: float = 0.75,
    d1: float = 0.5,
    eta: float = 1.0,
    epsilon: float = 0.5,
    sigma2: float = 1.0,
    path_loss_exp: float = 3.0,
    p2_scale: float = 1.0,
) -> SystemParams:
    """Baseline setup: unit noise, symmetric powers at the given SNR."""
    p = sigma2 * 10.0 ** (snr_db / 10.0)
    return build_params(p, p * p2_scale, sigma2, eta, lam, epsilon, d1, path_loss_exp)


def stack(points: list):
    """The batch of one-point ``SystemParams`` or ``TargetRates``: each field
    the column of the points' values."""
    return type(points[0])(*(np.array(column) for column in zip(*points)))


def from_multiplexing_gain(r: float, gamma: float) -> TargetRates:
    """Symmetric targets T = r * (1/2) log2(1+gamma), i.e. tau = (1+gamma)^r - 1,
    of one point, through ``TargetRates.from_rates``."""
    check_multiplexing_gain(r)
    if gamma <= 0:
        raise ParameterError(f"SNR must be positive; got {gamma}")
    t = 0.5 * r * math.log2(1.0 + gamma)
    return TargetRates.from_rates(t, t)


def simpson_panels(f, a: float, b: float, panels: int) -> float:
    """Fixed composite Simpson rule; the brute-force quadrature oracle."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic of a sample against a scalar CDF."""
    xs = np.sort(samples)
    n = len(xs)
    theo = np.array([cdf(x) for x in xs])
    upper = np.abs(np.arange(1, n + 1) / n - theo).max()
    lower = np.abs(theo - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], the
    oracle of the table frozen in ``numerics``.

    Newton's method on the Legendre three-term recurrence, from the usual
    cosine guesses; six steps reach full precision for n = 64 and 128.  It
    avoids the eigenvalue solve of ``numpy.polynomial.legendre.leggauss``,
    whose first LAPACK call adds about 1 MB to the resident size of a process.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# The adaptive QUADPACK reference: an integrator independent of the
# package's fixed log-variable rule, held against it by the tests.


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must lie in (0, 1); got {self.rel_tol}")
        if self.abs_tol < 0:
            raise DomainError(f"abs_tol must be nonnegative; got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1; got {self.max_subdivisions}"
            )


DEFAULT_QUAD = QuadSpec()


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def _run_quadpack(f, a: float, b: float, spec: QuadSpec, points=None) -> QuadResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        out = integrate.quad(
            f,
            a,
            b,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            points=points,
            full_output=True,
        )
    value, estimate, info = out[0], out[1], out[2]
    if len(out) > 3:
        # QUADPACK gave up; report the panel carrying the largest error.
        last = info.get("last", 0)
        detail = ""
        if last and "elist" in info:
            worst = int(info["elist"][:last].argmax())
            detail = (
                f"; worst subinterval [{info['alist'][worst]:.6g}, "
                f"{info['blist'][worst]:.6g}] with error {info['elist'][worst]:.3g}"
            )
        raise ConvergenceError(
            f"quadrature failed on [{a:.6g}, {b:.6g}]: {out[3]}{detail}"
        )
    if estimate > max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {estimate:.3g} exceeds tolerance for "
            f"value {value:.6g} on [{a:.6g}, {b:.6g}]"
        )
    return QuadResult(value, estimate)


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUAD,
    *,
    scale: float = 1.0,
    points: Iterable[float] | None = None,
) -> QuadResult:
    """Integrate ``f`` over (a, b) adaptively.

    ``b`` may be ``math.inf``: the tail past the last breakpoint ``lo`` is
    then mapped onto (0, 1) by z = lo + scale*t/(1-t), which suits the
    exponentially decaying integrands of this package; ``scale`` sets the
    decay length.  ``points`` are interior breakpoints the integration is
    split at (e.g. sign changes or knees).

    Returns ``(value, error_estimate)``; raises :class:`ConvergenceError`
    when the achieved estimate cannot meet ``max(abs_tol, rel_tol*|value|)``.
    """
    if math.isinf(b):
        if scale <= 0 or not math.isfinite(scale):
            raise DomainError(f"transform scale must be positive; got {scale}")
        lo, total, err = a, 0.0, 0.0
        for p in sorted(points or []):
            if lo < p < math.inf:
                r = _run_quadpack(f, lo, p, spec)
                total += r.value
                err += r.error_estimate
                lo = p

        def transformed(t: float) -> float:
            w = 1.0 - t
            return f(lo + scale * t / w) * scale / (w * w)

        r = _run_quadpack(transformed, 0.0, 1.0, spec)
        return QuadResult(total + r.value, err + r.error_estimate)

    pts = sorted(p for p in (points or []) if a < p < b) or None
    return _run_quadpack(f, a, b, spec, points=pts)


def segment_integral_quadpack(k: float, omega: float, v: float) -> float:
    """Boundary-strip integral int_0^v exp(-k/z - z/omega) dz by QUADPACK;
    good to about 2e-10 absolute, where the exp(-k/z) layer fools its
    error estimate."""
    if v <= 0.0:
        return 0.0

    def integrand(z: float) -> float:
        return math.exp(-k / z - z / omega) if z > 0.0 else 0.0

    return quad_adaptive(integrand, 0.0, v).value


#: ``segment_integral_quadpack`` per element, in the array form of
#: ``analytic._segment_integral``.
_segment_integrals_quadpack = np.vectorize(segment_integral_quadpack, otypes=[float])


# Entry points into the closed forms' parts that only the tests use.


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
    d = analytic._direction(a, omega1, omega2, b, c)
    survival = analytic._survival(d.s * z, d.mu * z)
    value, check = analytic._clamp_probability(np.array([1.0 - survival]), "cdf_z")
    raise_first(check)
    return float(value[0])


class CornerPoint(NamedTuple):
    """Intersection of the two outage-boundary curves in the gain plane:
    x0 on the |h1|^2 axis (direction 1's own), y0 on the |h2|^2 axis."""

    x0: float
    y0: float


def _thresholds(params, tau1, tau2):
    """The batch of ``params`` and the thresholds (tau1, tau2), (points, 2)."""
    batch, tau1, tau2 = analytic._batch(params, tau1, tau2)
    return batch, np.stack((tau1, tau2), axis=1)


def corner_point(params, tau1, tau2) -> CornerPoint:
    """Solve the boundary system Y = eps1*(b + c/X), X = eps2*(b + c/Y) with
    eps_i = tau_i/a_i, from the quadratic-root expressions of
    ``analytic._corner_point``.  The result must satisfy both equations to
    1e-9 relative; each coordinate is a float, or a list for a batch.
    """
    batch, taus = _thresholds(params, tau1, tau2)
    raise_first(((taus <= 0.0).any(axis=1), lambda i: DomainError(
        f"corner point needs positive thresholds; got ({taus[i, 0]}, {taus[i, 1]})"
    )))
    corner, checks = analytic._corner_point(batch, taus, np.ones(len(taus), dtype=bool))
    raise_first(*checks)
    return CornerPoint(*map(batch.shaped, corner.T))


def joint_outage(params, tau1: float, tau2: float) -> float:
    """P(gamma_1 < tau1, gamma_2 < tau2) of one point by inclusion-exclusion
    over ``analytic.outage_exact``: the two one-way outages less the system
    outage at (tau1, tau2)."""
    rates = (0.5 * math.log2(1.0 + tau) for tau in (tau1, tau2))
    system = analytic.outage_exact(params, TargetRates(*rates, tau1, tau2))
    one_ways = (analytic.outage_exact(params, one_way(tau1, 1))
                + analytic.outage_exact(params, one_way(tau2, 2)))
    return one_ways - system


class SymmetricCorner(NamedTuple):
    """Threshold, corner coordinate and its SNR derivatives of one point
    under symmetric traffic."""

    tau: float
    x0: float
    a: float
    b: float


def symmetric_corner(r: float, gamma: float, coeffs) -> SymmetricCorner:
    """``analytic._symmetric_corner`` of one point, as floats."""
    values = analytic._symmetric_corner(
        np.array([float(r)]), np.array([float(gamma)]), coeffs.b, coeffs.c)
    return SymmetricCorner(*(float(v[0]) for v in values))


def outage_exact_quadpack(params, targets) -> float:
    """``analytic.outage_exact`` with every boundary strip on QUADPACK."""
    with mock.patch.object(analytic, "_segment_integral", _segment_integrals_quadpack):
        return analytic.outage_exact(params, targets)


def joint_outage_quadpack(params, tau1: float, tau2: float) -> float:
    """``joint_outage`` with every boundary strip on QUADPACK."""
    with mock.patch.object(analytic, "_segment_integral", _segment_integrals_quadpack):
        return joint_outage(params, tau1, tau2)


def one_way(tau: float, direction: int) -> TargetRates:
    """Threshold ``tau`` on direction 1 or 2 and 0 on the other, so that
    ``outage_exact`` gives that direction's marginal outage."""
    rate = 0.5 * math.log2(1.0 + tau)
    if direction == 1:
        return TargetRates(rate, 0.0, tau, 0.0)
    return TargetRates(0.0, rate, 0.0, tau)


def corner_residual(params, tau1: float, tau2: float, x0: float, y0: float) -> float:
    """``analytic._corner_residual`` of a candidate corner (x0, y0) of the
    boundary system of ``params`` at thresholds (tau1, tau2)."""
    coeffs = derived_coeffs(params)
    eps1, eps2 = (tau / d.a for d, tau in zip(analytic.directions(params), (tau1, tau2)))
    return analytic._corner_residual(coeffs.b, coeffs.c, eps1, eps2, x0, y0)


# Oracles and variants that only the tests use.


def draw_exponentials(seed: int, chunk: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit-mean draws behind g1 and g2 of ``twrelay.mc``'s chunk
    ``chunk`` of ``size`` samples, each as one whole block, in that order."""
    rng = mc._chunk_rng(seed, chunk)
    return rng.standard_exponential(size), rng.standard_exponential(size)


def outage_counts(params: list, targets: list, n: int, seed: int) -> list[int]:
    """Per one-point ``SystemParams`` and ``TargetRates``, the outage count
    of ``twrelay.mc`` over ``n`` draws, formed draw by draw as its plan did
    before it shared one quotient: a point with P1 = P2 and tau1 = tau2
    multiplies a*g1*g2, divides it by max(den1, den2) and compares the
    weaker SNR with tau; any other point compares both SNRs.  NaN, where inf
    meets inf, is no outage."""
    counts = [0] * len(params)
    with np.errstate(all="ignore"):
        for k, size in enumerate(mc._chunk_sizes(n)):
            e1, e2 = draw_exponentials(seed, k, size)
            for i, (p, t) in enumerate(zip(params, targets)):
                g1, g2 = np.multiply(p.omega1, e1), np.multiply(p.omega2, e2)
                prod, dens = gain_product(g1, g2), snr_denominators(derived_coeffs(p), g1, g2)
                scales = snr_scales(p)
                if scales[0] == scales[1] and t.tau1 == t.tau2:
                    miss = np.divide(snr_numerator(scales[0], prod), np.maximum(*dens)) < t.tau1
                else:
                    miss = np.logical_or(*(np.divide(snr_numerator(a, prod), den) < tau for
                                           a, den, tau in zip(scales, dens, t[2:])))
                counts[i] += int(np.count_nonzero(miss))
    return counts


def empirical_cdf_z(
    a: float,
    b: float,
    c: float,
    omega1: float,
    omega2: float,
    z_grid,
    n: int,
    seed: int,
) -> list[tuple[float, float]]:
    """Empirical CDF of Z = a*X*Y/(b*X+c) on an ascending grid, drawn chunk
    by chunk on the substreams of ``twrelay.mc``."""
    if a <= 0:
        raise DomainError(f"scale a must be positive; got {a}")
    if b < 0 or c < 0 or b + c == 0:
        raise DomainError(f"need b, c >= 0 with b + c > 0; got b={b}, c={c}")
    if omega1 <= 0 or omega2 <= 0:
        raise DomainError("fading means must be positive")
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim != 1 or np.any(np.diff(z_grid) < 0):
        raise DomainError("z_grid must be one-dimensional and sorted ascending")
    n = mc._validate_n(n)
    counts = np.zeros(len(z_grid), dtype=np.int64)
    for k, size in enumerate(mc._chunk_sizes(n)):
        rng = mc._chunk_rng(seed, k)
        x = rng.exponential(omega1, size)
        y = rng.exponential(omega2, size)
        z = np.sort(a * x * y / (b * x + c))
        counts += np.searchsorted(z, z_grid, side="right")
    return [(float(z), float(k) / n) for z, k in zip(z_grid, counts)]


class Row(NamedTuple):
    """One CSV row of a sweep."""

    axis_value: float
    method: str
    value: float
    std_err: float | None


def rows_of(result: SweepResult) -> list[Row]:
    """The rows of a sweep's columns, as the CSV holds them: point by point,
    in column order."""
    return [Row(axis, method, values[i], None if errs is None else errs[i])
            for i, axis in enumerate(result.grid) for method, values, errs in result.columns]


def read_csv(path: str) -> SweepResult:
    """Parse a sweep CSV back into its grid, columns and metadata (round-trips
    exactly): the first point's rows name the columns, and each point holds
    one row of each, in order."""
    rows: list[Row] = []
    metadata: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line == "axis,method,value,std_err":
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                metadata[key] = value
                continue
            axis_s, method, value_s, err_s = line.split(",")
            rows.append(Row(float(axis_s), method, float(value_s),
                            float(err_s) if err_s else None))
    names = list(dict.fromkeys(row.method for row in rows))
    columns = []
    for k, name in enumerate(names):
        own = rows[k::len(names)]
        assert all(row.method == name for row in own), f"{path}: rows out of column order"
        errs = [row.std_err for row in own]
        columns.append(Column(name, [row.value for row in own],
                              None if errs[0] is None else errs))
    return SweepResult([row.axis_value for row in rows[::len(names)]], columns, metadata)


def end_to_end_snrs_exact_beta(
    params: SystemParams, g1: np.ndarray, g2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNRs without dropping the noise terms from the relay power constraint.

    The canonical model approximates the amplification constraint by the
    signal power alone; this variant keeps (1-lam)*sigma_a^2 + sigma_b^2 in
    the constraint so the approximation gap can be quantified by simulation.
    The noise split is sigma_b^2 = epsilon*sigma2, sigma_a^2 = (1-epsilon)*sigma2.
    """
    lam, eta, eps, s2 = params.lam, params.eta, params.epsilon, params.sigma2
    sa2 = (1.0 - eps) * s2
    sb2 = eps * s2
    received = params.p1 * g1 + params.p2 * g2
    beta2 = 1.0 / ((1.0 - lam) * received + (1.0 - lam) * sa2 + sb2)
    pr = eta * lam * received
    amp2 = beta2 * pr  # squared amplifier gain applied to the split signal
    relay_noise = amp2 * ((1.0 - lam) * sa2 + sb2)
    gamma1 = (
        amp2 * (1.0 - lam) * params.p2 * g1 * g2 / (relay_noise * g1 + s2)
    )
    gamma2 = (
        amp2 * (1.0 - lam) * params.p1 * g1 * g2 / (relay_noise * g2 + s2)
    )
    return gamma1, gamma2


def estimate_rates(
    params: SystemParams, n: int, seed: int
) -> tuple[mc.Estimate, mc.Estimate]:
    """Per-direction mean rates, drawn chunk by chunk from the stream that
    ``mc.estimate_capacity`` draws."""
    n = mc._validate_n(n)
    sums = np.zeros((2, 2))  # per direction: sum of rates, sum of squares
    for k, size in enumerate(mc._chunk_sizes(n)):
        e1, e2 = draw_exponentials(seed, k, size)
        g1, g2 = params.omega1 * e1, params.omega2 * e2
        for row, gamma in zip(sums, end_to_end_snrs(params, g1, g2)):
            rate = 0.5 / mc.LN2 * np.log1p(gamma)
            row += (np.sum(rate), np.sum(rate * rate))
    means, errs = mc._mean_and_error(sums[:, 0], sums[:, 1], n)
    return tuple(mc.Estimate(mean, err, n, seed)
                 for mean, err in zip(means.tolist(), errs.tolist()))



class BracketError(NumericalError):
    """Root bracketing failed: no sign change over the supplied interval."""


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """O(h^2) central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise DomainError(f"step must be positive; got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def root_bracketed(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 4 * _EPS
) -> float:
    """Find a root of ``g`` inside [lo, hi] by Brent's method.

    ``tol`` is relative to the root (at least 4 machine epsilons), so tiny
    roots are found as precisely as large ones.  Requires a sign change
    over the bracket; a root sitting exactly on an endpoint is returned as
    that endpoint.
    """
    glo = g(lo)
    if glo == 0.0:
        return lo
    ghi = g(hi)
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise BracketError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: g(lo)={glo:.6g}, g(hi)={ghi:.6g}"
        )
    return float(optimize.brentq(g, lo, hi, xtol=_TINY, rtol=tol))


def corner_point_root_solve(params, coeffs, tau1: float, tau2: float) -> CornerPoint:
    """Corner point by bracketing the substituted X quadratic numerically
    and back-substituting; the oracle for ``corner_point``, held
    to the same 1e-9 relative residual."""
    b, c = coeffs.b, coeffs.c
    a1 = params.sigma2 * tau1 / params.p2
    a2 = params.sigma2 * tau2 / params.p1
    lin_x = c - a2 * b * b - a2 * c / a1
    const_x = -a2 * b * c

    def poly(x: float) -> float:
        return b * x * x + lin_x * x + const_x

    hi = 1.0
    while poly(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise DegenerateCaseError(f"corner bracketing failed up to {hi}")
    x0 = root_bracketed(poly, 0.0, hi)
    y0 = a1 * (b + c / x0)
    residual = analytic._corner_residual(b, c, a1, a2, x0, y0)
    if residual > 1e-9:
        raise DegenerateCaseError(
            f"root-solved corner ({x0:.6g}, {y0:.6g}) misses the boundary "
            f"system by {residual:.3g} relative"
        )
    return CornerPoint(x0=x0, y0=y0)


def y0_without_cross_term(params, coeffs, tau1: float, tau2: float) -> float:
    """Corner Y0 from a linear coefficient that drops the cross-traffic term
    (its two c contributions cancel); it fails the defining system for
    asymmetric traffic, which the tests prove."""
    b, c = coeffs.b, coeffs.c
    s2 = params.sigma2
    lin_scaled = s2 * tau1 * tau2 * b * b / params.p2 + params.p2 * tau2 * c / params.p2 - tau2 * c
    disc = math.sqrt(lin_scaled**2 + 4.0 * s2 * tau2**2 * tau1 * b * b * c / params.p2)
    return (lin_scaled + disc) / (2.0 * tau2 * b)


def tricomi_psi(n: int, z: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Tricomi Psi(n, n; z) for integer n >= 1 and z > 0, from the defining
    integral Gamma(n) Psi(n, n; z) = int_0^inf e^(-z t) t^(n-1)/(1+t) dt by
    adaptive quadrature.  Strictly positive and decreasing in z.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"tricomi_psi order must be an integer >= 1; got {n}")
    n = int(n)
    if not 0.0 < z < math.inf:
        raise DomainError(f"tricomi_psi argument must be positive and finite; got {z}")
    lgam = math.lgamma(n)

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 1.0 / math.exp(lgam) if n == 1 else 0.0
        return math.exp(-z * t + (n - 1) * math.log(t) - lgam) / (1.0 + t)

    # Breakpoint at the 1/(1+t) knee; tail scale follows the integrand peak.
    scale = max(1.0, (n - 1)) / z
    value, _ = quad_adaptive(integrand, 0.0, math.inf, spec, scale=scale, points=[1.0])
    if not (value > 0.0 and math.isfinite(value)):
        raise ConvergenceError(f"tricomi_psi({n}, {z}) quadrature returned {value}")
    return value


def tricomi_psi_log_form(n: int, z: float) -> float:
    """Psi(n, n; z) through its logarithmic-case closed form:

        Gamma(n) Psi(n,n;z) = (-1)^(n-1) e^z E1(z)
            + sum_{k=1}^{n-1} C(n-1, k) (-1)^(n-1-k) (k-1)!
              * (sum_{j<k} z^j/j!) / z^k.

    Alternating binomial cancellation makes this unreliable for large n at
    small z; it is a cross-check for the quadrature path.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"tricomi_psi_log_form order must be >= 1; got {n}")
    n = int(n)
    total = (-1.0) ** (n - 1) * math.exp(z) * exp_integral_e1(z)
    for k in range(1, n):
        partial = sum(z**j / math.factorial(j) for j in range(k))
        total += (
            math.comb(n - 1, k)
            * (-1.0) ** (n - 1 - k)
            * math.factorial(k - 1)
            * partial
            / z**k
        )
    return total / math.gamma(n)


def harmonic_number(k: int) -> Fraction:
    """Exact harmonic number H_k = sum_{i<=k} 1/i (H_0 = 0)."""
    if int(k) != k or k < 0:
        raise DomainError(f"harmonic_number index must be >= 0; got {k}")
    total = Fraction(0)
    for i in range(1, int(k) + 1):
        total += Fraction(1, i)
    return total


def digamma_nat(k: int) -> float:
    """Digamma at a positive integer: psi(1) = -EULER_GAMMA, and
    psi(k) = -EULER_GAMMA + H_{k-1} for k >= 2."""
    if int(k) != k or k < 1:
        raise DomainError(f"digamma_nat argument must be an integer >= 1; got {k}")
    return -EULER_GAMMA + float(harmonic_number(int(k) - 1))


def capacity_series_approx_j(params: SystemParams) -> float:
    """``analytic.capacity_series`` with each J_l replaced by its polynomial
    approximation, from dropping 1/(1+z) against z^l: scaled,
    (psi(l+1) - ln s)/(l+1).  It is not a bound: the error has no fixed sign.
    """
    exact_factors = analytic._scaled_series_factors

    def factors(s: np.ndarray, terms: slice) -> tuple[np.ndarray, np.ndarray]:
        psi_scaled, _ = exact_factors(s, terms)
        ls = np.arange(analytic.SERIES_MAX_TERMS)[terms]
        digamma = np.array([digamma_nat(l + 1) for l in ls])
        return psi_scaled, (digamma - np.log(s)[:, None]) / (ls + 1)

    with mock.patch.object(analytic, "_scaled_series_factors", factors):
        return analytic.capacity_series(params).value
