"""Finite-SNR diversity-multiplexing tradeoff."""

import math
import re

import numpy as np
import pytest

from helpers import (
    central_diff,
    corner_point_root_solve,
    from_multiplexing_gain,
    make_params,
    symmetric_corner,
)

from twrelay.analytic import _symmetric_corner, dmt, outage_bounds
from twrelay.errors import DomainError, ParameterError
from twrelay.model import DerivedCoeffs, derived_coeffs

COEFFS = DerivedCoeffs(b=2.5, c=4.0 / 3.0)


class TestX0Symmetric:
    def test_unit_multiplexing_gain_is_snr_free(self):
        # tau = gamma cancels: X0 = (b/2)(1 + sqrt(1 + 4c/b^2))
        expect = 1.25 * (1.0 + math.sqrt(1.0 + 4.0 * COEFFS.c / 6.25))
        for gamma in (3.0, 10.0, 1000.0):
            assert symmetric_corner(1.0, gamma, COEFFS).x0 == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(2.9517, abs=1e-4)

    def test_matches_corner_root_solver(self):
        for r in (0.25, 0.5, 1.0, 1.5):
            for gamma in (3.16, 31.6, 316.0):
                params = make_params(snr_db=10.0 * math.log10(gamma))
                coeffs = derived_coeffs(params)
                tau = (1.0 + gamma) ** r - 1.0
                point = corner_point_root_solve(params, coeffs, tau, tau)
                assert symmetric_corner(r, gamma, coeffs).x0 == pytest.approx(
                    point.x0, rel=1e-9
                )

    def test_vanishes_at_high_snr_below_unit_gain(self):
        # decays like sqrt(c) * gamma^(-r/2) for r < 1: slow but monotone
        values = [symmetric_corner(0.5, g, COEFFS).x0 for g in (1e2, 1e6, 1e10)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.02

    def test_degenerate_gain_rejected(self):
        with pytest.raises(DomainError):
            symmetric_corner(0.0, 100.0, COEFFS)
        with pytest.raises(DomainError):
            symmetric_corner(-0.5, 100.0, COEFFS)


class TestDmtCoefficients:
    def test_unit_gain_flattens_everything(self):
        _, _, big_a, big_b = symmetric_corner(1.0, 100.0, COEFFS)
        assert big_b == 0.0
        assert big_a == 0.0

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("gamma", [10.0, 100.0, 1000.0])
    def test_match_finite_differences(self, r, gamma):
        _, _, big_a, big_b = symmetric_corner(r, gamma, COEFFS)
        h = 1e-4 * gamma
        fd_a = central_diff(lambda g: symmetric_corner(r, g, COEFFS).x0, gamma, h)
        fd_b = central_diff(lambda g: ((1.0 + g) ** r - 1.0) / g, gamma, h)
        assert big_a == pytest.approx(fd_a, rel=1e-4)
        assert big_b == pytest.approx(fd_b, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            symmetric_corner(0.0, 100.0, COEFFS)
        with pytest.raises(DomainError):
            symmetric_corner(0.5, 0.0, COEFFS)

    @pytest.mark.parametrize("r, gamma, coeffs, named", [
        (1.5, 1e200, COEFFS, "gamma**2"),
        (0.5, 1e10, DerivedCoeffs(b=2.5, c=1e300), "4*c*gamma"),
        (2.0, 1.2e154, COEFFS, "b*b*tau"),
        (2.0, 1.2e154, DerivedCoeffs(b=1.0, c=4.0 / 3.0), "r*gamma*(1+gamma)^(r-1)"),
    ], ids=["coeffs-square", "coeffs-4cg", "coeffs-b2tau", "coeffs-numerator"])
    def test_overflow_is_named(self, r, gamma, coeffs, named):
        # a product past the float range raises, where it used to warn and
        # return inf, nan or 0
        with pytest.raises(DomainError, match=re.escape(f"{named} overflows at gamma={gamma}")):
            _symmetric_corner(np.array([r]), np.array([gamma]), coeffs.b, coeffs.c)


def lower_bound_outage(r, gamma):
    # powers track the swept SNR; lambda/epsilon/geometry stay at baseline
    params = make_params(snr_db=10.0 * math.log10(gamma))
    targets = from_multiplexing_gain(r, gamma)
    return outage_bounds(params, targets)[0]


class TestDmt:
    def test_is_log_derivative_of_lower_bound(self):
        for r in (0.25, 0.5, 0.75):
            for snr_db in (10.0, 15.0, 20.0):
                gamma = 10.0 ** (snr_db / 10.0)
                h = 1e-5 * gamma
                fd = -gamma * central_diff(
                    lambda g: math.log(lower_bound_outage(r, g)), gamma, h
                )
                assert dmt(make_params(snr_db=snr_db), r) == pytest.approx(fd, rel=1e-3)

    def test_increasing_in_snr(self):
        values = [dmt(make_params(snr_db=s), 0.5) for s in (5, 10, 15, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_multiplexing_gain(self, params20):
        values = [dmt(params20, r) for r in (0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_requires_symmetric_powers(self):
        with pytest.raises(ParameterError):
            dmt(make_params(p2_scale=0.5), 0.5)

    def test_nonnegative_on_operating_range(self):
        # r <= 1 and moderate-to-high SNR; past r = 1 at low SNR the target
        # rate genuinely outpaces the SNR and the log-slope turns negative
        # (the finite-difference oracle agrees), so that region is excluded.
        for r in (0.25, 0.5, 0.75, 1.0):
            for snr_db in (5.0, 10.0, 20.0, 30.0):
                value = dmt(make_params(snr_db=snr_db), r)
                assert value >= 0.0
                assert math.isfinite(value)
