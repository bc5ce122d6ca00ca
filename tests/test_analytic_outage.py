"""Closed-form outage machinery: CDF, corner point, exact value, bounds."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    GOLDEN_INTEGRALS,
    _gauss_legendre,
    cdf_z,
    corner_point,
    corner_point_root_solve,
    corner_residual,
    joint_outage,
    joint_outage_quadpack,
    make_params,
    one_way,
    symmetric_corner,
    y0_without_cross_term,
)

from twrelay import analytic, numerics
from twrelay.analytic import (
    outage_bounds,
    outage_exact,
    outage_high_snr,
)
from twrelay.errors import DomainError
from twrelay.model import (
    TargetRates,
    build_params,
    derived_coeffs,
    end_to_end_snrs,
)


def mc_event_probability(params, predicate, n=1_000_000, seed=0):
    """Direct Monte Carlo of an SNR-pair event; the simulation oracle."""
    rng = np.random.default_rng(seed)
    g1 = rng.exponential(params.omega1, n)
    g2 = rng.exponential(params.omega2, n)
    gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
    hits = int(np.count_nonzero(predicate(gamma1, gamma2)))
    p = hits / n
    return p, math.sqrt(max(p * (1 - p), 1e-12) / n)


class TestCdfZ:
    def test_zero(self):
        assert cdf_z(0.0, 1.0, 2.5, 4.0 / 3.0, 8.0, 8.0) == 0.0

    def test_saturates_to_one(self):
        a, b, c, om1, om2 = 3.0, 1.5, 2.0, 8.0, 8.0
        z = 1e4 * a * om1 * om2 / c
        assert 1.0 - cdf_z(z, a, b, c, om1, om2) < 1e-8

    def test_no_harvest_penalty_is_pure_exponential(self):
        # c = 0 removes the Bessel factor entirely
        a, b, om1, om2 = 2.0, 1.5, 4.0, 2.0
        for z in (0.0, 0.5, 2.0, 10.0):
            assert cdf_z(z, a, b, 0.0, om1, om2) == pytest.approx(
                1.0 - math.exp(-z * b / (a * om2)), rel=1e-12
            )

    def test_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(0.5, 200.0)
            b = rng.uniform(1.0, 5.0)
            c = rng.uniform(0.1, 20.0)
            om1, om2 = rng.uniform(1.0, 64.0, 2)
            grid = np.linspace(0.0, 50.0 * a, 200)
            values = [cdf_z(float(z), a, b, c, om1, om2) for z in grid]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cdf_z(1.0, 0.0, 1.0, 1.0, 8.0, 8.0)
        with pytest.raises(DomainError):
            cdf_z(-1.0, 1.0, 1.0, 1.0, 8.0, 8.0)


class TestMarginalOutage:
    def test_zero_threshold(self, params20):
        assert outage_exact(params20, one_way(0.0, 1)) == 0.0

    def test_is_cdf_z_in_disguise(self, params20):
        coeffs = derived_coeffs(params20)
        tau = 3.0
        direct1 = cdf_z(
            tau, params20.p2 / params20.sigma2, coeffs.b, coeffs.c,
            params20.omega1, params20.omega2,
        )
        direct2 = cdf_z(
            tau, params20.p1 / params20.sigma2, coeffs.b, coeffs.c,
            params20.omega2, params20.omega1,
        )
        assert outage_exact(params20, one_way(tau, 1)) == pytest.approx(
            direct1, rel=1e-12
        )
        assert outage_exact(params20, one_way(tau, 2)) == pytest.approx(
            direct2, rel=1e-12
        )

    def test_against_simulation(self, params20, unit_targets):
        value = outage_exact(params20, one_way(unit_targets.tau1, 1))
        p_hat, se = mc_event_probability(
            params20, lambda g1, g2: g1 < unit_targets.tau1, seed=41
        )
        assert abs(value - p_hat) <= 3.0 * se


class TestCornerPoint:
    def test_symmetric_case_reduces_to_single_root(self, params20, unit_targets):
        coeffs = derived_coeffs(params20)
        point = corner_point(params20, unit_targets.tau1, unit_targets.tau2)
        assert point.x0 == pytest.approx(point.y0, rel=1e-12)
        gamma = params20.p1 / params20.sigma2
        # tau = 3 corresponds to r with (1+gamma)^r - 1 = 3
        r = math.log(4.0) / math.log(1.0 + gamma)
        assert point.x0 == pytest.approx(symmetric_corner(r, gamma, coeffs).x0, rel=1e-10)

    def test_unit_rate_symmetric_value(self):
        # b=2.5, c=4/3, tau = gamma: X0 = (b/2)(1 + sqrt(1 + 4c/b^2))
        params = make_params(snr_db=10.0 * math.log10(3.0))
        point = corner_point(params, 3.0, 3.0)
        expect = 1.25 * (1.0 + math.sqrt(1.0 + 4.0 * (4.0 / 3.0) / 6.25))
        assert point.x0 == pytest.approx(expect, rel=1e-12)
        assert point.x0 == pytest.approx(2.9517, abs=1e-4)

    def test_closed_form_matches_root_solve_asymmetric(self):
        cases = [(make_params(snr_db=13.0, d1=0.3, p2_scale=0.6), 2.0, 5.0)]
        # 80 dB with a positive linear coefficient: the root x0 ~ 3e-8 is
        # far below an absolute solver tolerance
        high = TargetRates.from_rates(1.0, 0.7)
        cases.append(
            (make_params(snr_db=80.0, lam=0.3, p2_scale=0.5), high.tau1, high.tau2)
        )
        for params, tau1, tau2 in cases:
            a = corner_point(params, tau1, tau2)
            b = corner_point_root_solve(params, derived_coeffs(params), tau1, tau2)
            assert a.x0 == pytest.approx(b.x0, rel=1e-9)
            assert a.y0 == pytest.approx(b.y0, rel=1e-9)

    def test_closed_form_stable_with_positive_linear_coefficient(self):
        # asymmetric powers and targets at 80 dB give the X quadratic a
        # positive linear coefficient, where the textbook root cancels
        params = make_params(snr_db=80.0, lam=0.3, p2_scale=0.5)
        targets = TargetRates.from_rates(1.0, 0.7)
        point = corner_point(params, targets.tau1, targets.tau2)
        residual = corner_residual(
            params, targets.tau1, targets.tau2, point.x0, point.y0
        )
        assert residual < 1e-14

    def test_high_snr_corner_vanishes(self):
        coeffs_tau = TargetRates.from_rates(1.0, 1.0)
        previous = math.inf
        for snr_db in (10.0, 20.0, 30.0, 40.0):
            params = make_params(snr_db=snr_db)
            point = corner_point(params, coeffs_tau.tau1, coeffs_tau.tau2)
            assert point.x0 < previous
            previous = point.x0
        assert previous < 0.05

    def test_degenerate_threshold_rejected(self, params20):
        with pytest.raises(DomainError):
            corner_point(params20, 0.0, 1.0)

    @pytest.mark.parametrize("form", [outage_exact, outage_bounds])
    def test_discriminant_past_the_float_range_is_a_domain_error(self, form):
        # eta = 1e-200 puts c at 2e200 and, with P2 = 2*P1, |lin| near c:
        # lin*lin overflows, and the corner would read 0 or inf (the lower
        # bound once read 0.43 where the exact outage is 1)
        params = build_params(1.0, 2.0, 1.0, 1e-200, 0.5, 0.5, 0.5, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="the corner's discriminant overflows at gamma=2.0"):
                form(params, TargetRates.from_rates(1.0, 1.0))

    def test_cross_term_free_variant_fails_the_system(self):
        # the y-root variant whose linear coefficient self-cancels cannot
        # satisfy the boundary system once the traffic is asymmetric
        params = make_params(snr_db=13.0, d1=0.3, p2_scale=0.6)
        coeffs = derived_coeffs(params)
        good = corner_point(params, 2.0, 5.0)
        bad_y0 = y0_without_cross_term(params, coeffs, 2.0, 5.0)
        residual = corner_residual(params, 2.0, 5.0, good.x0, bad_y0)
        assert residual > 1e-3


class TestJointOutage:
    def test_vanishing_thresholds(self, params20):
        assert joint_outage(params20, 0.0, 0.0) == 0.0

    def test_never_exceeds_either_marginal(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            params = make_params(
                snr_db=rng.uniform(0.0, 30.0),
                lam=rng.uniform(0.1, 0.9),
                d1=rng.uniform(0.2, 0.8),
            )
            tau1, tau2 = rng.uniform(0.5, 8.0, 2)
            joint = joint_outage(params, tau1, tau2)
            m1 = outage_exact(params, one_way(tau1, 1))
            m2 = outage_exact(params, one_way(tau2, 2))
            assert joint <= min(m1, m2) + 1e-12

    def test_against_simulation(self, params20, unit_targets):
        value = joint_outage(params20, unit_targets.tau1, unit_targets.tau2)
        p_hat, se = mc_event_probability(
            params20,
            lambda g1, g2: (g1 < unit_targets.tau1) & (g2 < unit_targets.tau2),
            seed=43,
        )
        assert abs(value - p_hat) <= 3.0 * se

    @pytest.mark.parametrize("n", [64, 128])
    def test_strip_rule_is_gauss_legendre(self, n):
        # the Newton oracle is within 1e-14 of leggauss, and at the rule's
        # node count the table frozen in numerics is the oracle's, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(n)
        ours, our_weights = _gauss_legendre(n)
        assert np.allclose(ours[::-1], nodes, rtol=0, atol=1e-14)
        assert np.allclose(our_weights[::-1], weights, rtol=0, atol=1e-14)
        if n == numerics.RULE_NODES:
            assert numerics._NODES.tobytes() == ours.tobytes()
            assert numerics._WEIGHTS.tobytes() == our_weights.tobytes()

    def test_strip_integrals_match_mpmath(self):
        # the second strip is one where adaptive QUADPACK misses by 6.9e-11
        errors = [
            abs(analytic._segment_integral(k, omega, v) - ref)
            for k, omega, v, ref in GOLDEN_INTEGRALS["strip"]
        ]
        assert max(errors) <= 1e-13, errors

    def test_midpoint_expansion_tracks_quadrature(self, unit_targets):
        # Required tolerance: the strip rule within 1e-3 of the adaptive
        # QUADPACK reference on the 10-30 dB grid.  The rule is a fixed
        # Gauss-Legendre rule in ln z, which resolves the exp(-k/z)
        # boundary layer.
        gaps = {}
        for snr_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            params = make_params(snr_db=snr_db)
            rule = joint_outage(params, unit_targets.tau1, unit_targets.tau2)
            reference = joint_outage_quadpack(
                params, unit_targets.tau1, unit_targets.tau2
            )
            gaps[snr_db] = abs(rule - reference)
        assert max(gaps.values()) < 1e-3, (
            f"strip-rule gap to QUADPACK exceeds 1e-3: {gaps}"
        )


class TestOutageExact:
    def test_zero_targets(self, params20):
        assert outage_exact(params20, TargetRates.from_rates(0.0, 0.0)) == 0.0

    def test_single_direction_degenerates_to_marginal(self, params20):
        targets = TargetRates.from_rates(0.0, 1.0)
        coeffs = derived_coeffs(params20)
        assert outage_exact(params20, targets) == pytest.approx(
            cdf_z(
                targets.tau2, params20.p1 / params20.sigma2, coeffs.b, coeffs.c,
                params20.omega2, params20.omega1,
            ),
            rel=1e-12,
        )

    def test_nonincreasing_in_snr(self, unit_targets):
        values = [
            outage_exact(make_params(snr_db=s), unit_targets)
            for s in np.linspace(0.0, 30.0, 7)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_against_simulation(self, params20, unit_targets):
        value = outage_exact(params20, unit_targets)
        p_hat, se = mc_event_probability(
            params20,
            lambda g1, g2: (g1 < unit_targets.tau1) | (g2 < unit_targets.tau2),
            seed=47,
        )
        assert abs(value - p_hat) <= 3.0 * se


class TestOutageBounds:
    def test_zero_targets_collapse(self, params20):
        lower, upper = outage_bounds(params20, TargetRates.from_rates(0.0, 0.0))
        assert lower == 0.0 and upper == 0.0

    def test_bracket_reference_everywhere(self, unit_targets):
        rng = np.random.default_rng(19)
        for _ in range(30):
            params = make_params(
                snr_db=rng.uniform(0.0, 40.0),
                lam=rng.uniform(0.05, 0.95),
                d1=rng.uniform(0.1, 0.9),
            )
            lower, upper = outage_bounds(params, unit_targets)
            exact = outage_exact(params, unit_targets)
            assert lower <= exact + 1e-9
            assert exact <= upper + 1e-9

    def test_upper_bound_saturates_at_one(self):
        # 1 + corner mass - attenuated survivals reads 1.00273 here, a valid
        # point where the exact outage is 0.98191
        params = make_params(
            snr_db=1.76, lam=0.172, eta=0.854, epsilon=0.675, d1=0.437,
            path_loss_exp=2.051,
        )
        targets = TargetRates.from_rates(1.524, 1.524)
        lower, upper = outage_bounds(params, targets)
        exact = outage_exact(params, targets)
        assert upper == 1.0
        assert lower <= exact < upper
        assert exact == pytest.approx(0.98191, abs=1e-5)

    def test_asymmetric_bounds_are_tight_at_20db(self):
        params = make_params(snr_db=20.0, d1=0.3)
        targets = TargetRates.from_rates(1.5, 1.0)
        lower, upper = outage_bounds(params, targets)
        p_hat, se = mc_event_probability(
            params,
            lambda g1, g2: (g1 < targets.tau1) | (g2 < targets.tau2),
            seed=53,
        )
        assert upper - lower < 0.05
        assert lower - 3.0 * se <= p_hat <= upper + 3.0 * se


class TestOutageHighSnr:
    def test_vanishes_with_noise(self, unit_targets):
        assert outage_high_snr(make_params(snr_db=80.0), unit_targets) < 1e-6

    def test_absolute_agreement_at_40db(self, unit_targets):
        # exact value and both bounds collapse onto the limit (absolutely)
        params = make_params(snr_db=40.0)
        limit = outage_high_snr(params, unit_targets)
        exact = outage_exact(params, unit_targets)
        lower, upper = outage_bounds(params, unit_targets)
        assert abs(limit - exact) < 1e-3
        assert abs(limit - lower) < 1e-3
        assert abs(limit - upper) < 1e-3

    @pytest.mark.parametrize(
        "point, rates",
        [
            ({}, (1.0, 1.0)),
            ({"d1": 0.3}, (1.5, 1.0)),
            ({"lam": 0.3, "p2_scale": 0.5}, (1.0, 0.7)),
        ],
    )
    def test_relative_error_vanishes_with_snr(self, point, rates):
        # a first-order asymptote: its relative error falls as the SNR grows,
        # also where asymmetric thresholds put the corner at an O(1) gain
        targets = TargetRates.from_rates(*rates)
        errors = []
        for snr_db in (40.0, 60.0, 80.0):
            params = make_params(snr_db=snr_db, **point)
            exact = outage_exact(params, targets)
            errors.append(abs(outage_high_snr(params, targets) - exact) / exact)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-4

    def test_not_valid_at_low_snr(self, unit_targets):
        # regime check: the limit is a high-SNR shape only
        params = make_params(snr_db=0.0)
        limit = outage_high_snr(params, unit_targets)
        exact = outage_exact(params, unit_targets)
        assert abs(limit - exact) / exact > 0.10
