"""Protocol model: parameters, coefficients, channel statistics, SNR forms."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, seed, settings
from hypothesis import strategies as st

from helpers import (
    end_to_end_snrs_exact_beta,
    from_multiplexing_gain,
    ks_distance,
    make_params,
)

from twrelay.analytic import non_coop_capacity, non_coop_outage
from twrelay.errors import ParameterError
from twrelay.model import (
    TargetRates,
    build_params,
    derived_coeffs,
    end_to_end_snrs,
    gain_product,
    snr_denominators,
    snr_numerator,
    weaker_snr,
)


class TestBuildParams:
    def test_midpoint_geometry(self):
        p = build_params(1, 1, 1, 1, 0.75, 0.5, 0.5, 3)
        assert p.omega1 == pytest.approx(8.0)
        assert p.omega2 == pytest.approx(8.0)

    def test_asymmetric_geometry(self):
        p = build_params(1, 1, 1, 1, 0.75, 0.5, 0.25, 3)
        assert p.omega1 == pytest.approx(64.0)
        assert p.omega2 == pytest.approx(1.0 / 0.75**3)
        assert p.omega2 == pytest.approx(2.3704, abs=1e-4)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(lam=1.0), "lambda"),
            (dict(lam=0.0), "lambda"),
            (dict(eta=0.0), "eta"),
            (dict(eta=1.5), "eta"),
            (dict(d1=0.0), "d1"),
            (dict(d1=1.0), "d1"),
            (dict(p1=0.0), "p1"),
            (dict(sigma2=-1.0), "sigma2"),
            (dict(epsilon=1.2), "epsilon"),
        ],
    )
    def test_validation_names_the_violated_range(self, kwargs, fragment):
        base = dict(p1=1, p2=1, sigma2=1, eta=1, lam=0.75, epsilon=0.5, d1=0.5,
                    path_loss_exp=3)
        base.update(kwargs)
        with pytest.raises(ParameterError, match=fragment):
            build_params(**base)


class TestDerivedCoeffs:
    def test_reference_point(self):
        p = build_params(1, 1, 1, 1, 0.75, 0.5, 0.5, 3)
        c = derived_coeffs(p)
        assert c.b == pytest.approx(2.5)
        assert c.c == pytest.approx(4.0 / 3.0)

    def test_half_split(self):
        p = build_params(1, 1, 1, 1, 0.5, 0.5, 0.5, 3)
        c = derived_coeffs(p)
        assert c.b == pytest.approx(1.5)
        assert c.c == pytest.approx(2.0)

    def test_zero_conversion_noise_share(self):
        for lam in (0.1, 0.5, 0.9):
            p = build_params(1, 1, 1, 1, lam, 0.0, 0.5, 3)
            assert derived_coeffs(p).b == pytest.approx(1.0)


class TestSampleChannel:
    def test_sample_moments(self):
        params = make_params()
        rng = np.random.default_rng(42)
        g1 = rng.exponential(params.omega1, 1_000_000)
        assert g1.mean() == pytest.approx(params.omega1, rel=0.01)
        assert g1.var() == pytest.approx(params.omega1**2, rel=0.03)

    def test_distribution_ks(self):
        params = make_params(d1=0.3)
        rng = np.random.default_rng(11)
        sample = rng.exponential(params.omega1, 100_000)
        dist = ks_distance(sample, lambda x: 1.0 - math.exp(-x / params.omega1))
        assert dist < 0.01


class TestEndToEndSnrs:
    def test_reference_point(self):
        p = build_params(1, 1, 1, 1, 0.75, 0.5, 0.5, 3)
        g1, g2 = end_to_end_snrs(p, 1.0, 1.0)
        expect = 1.0 / (2.5 + 4.0 / 3.0)
        assert g1 == pytest.approx(expect, rel=1e-12)
        assert g2 == pytest.approx(expect, rel=1e-12)
        assert g1 == pytest.approx(0.26087, abs=1e-5)

    def test_relay_cannot_beat_first_hop(self):
        # gamma_1 <= P2 g2 / sigma2 and gamma_2 <= P1 g1 / sigma2
        params = make_params(snr_db=10.0)
        rng = np.random.default_rng(5)
        g1 = rng.exponential(params.omega1, 100_000)
        g2 = rng.exponential(params.omega2, 100_000)
        gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
        assert np.all(gamma1 <= params.p2 * g2 / params.sigma2 + 1e-12)
        assert np.all(gamma2 <= params.p1 * g1 / params.sigma2 + 1e-12)

    def test_large_gain_limit(self):
        params = build_params(1, 1, 1, 1, 0.75, 0.5, 0.5, 3)
        coeff = derived_coeffs(params)
        gamma1, _ = end_to_end_snrs(params, 1e12, 2.0)
        assert gamma1 == pytest.approx(2.0 / coeff.b, rel=1e-6)

    def test_both_forms_agree(self):
        # rational form vs harvest-division form over 1e5 draws
        params = make_params(snr_db=7.0, lam=0.3, d1=0.35)
        rng = np.random.default_rng(17)
        g1 = rng.exponential(params.omega1, 100_000)
        g2 = rng.exponential(params.omega2, 100_000)
        vec1, vec2 = end_to_end_snrs(params, g1, g2)
        noise_amp = 1.0 + params.epsilon * params.lam / (1.0 - params.lam)
        harvest1 = (params.p2 * g2 / params.sigma2) / (
            noise_amp + 1.0 / (params.eta * params.lam * g1)
        )
        harvest2 = (params.p1 * g1 / params.sigma2) / (
            noise_amp + 1.0 / (params.eta * params.lam * g2)
        )
        np.testing.assert_allclose(vec1, harvest1, rtol=1e-12)
        np.testing.assert_allclose(vec2, harvest2, rtol=1e-12)
        # scalar gains take the same path
        for i in range(0, 100_000, 9973):
            s1, s2 = end_to_end_snrs(params, float(g1[i]), float(g2[i]))
            assert s1 == pytest.approx(vec1[i], rel=1e-12)
            assert s2 == pytest.approx(vec2[i], rel=1e-12)

    def test_zero_gains_give_zero_snr(self):
        params = make_params()
        assert end_to_end_snrs(params, 0.0, 1.0) == (0.0, 0.0)
        assert end_to_end_snrs(params, 1.0, 0.0) == (0.0, 0.0)

    def test_shared_parts_and_out_give_the_same_bits(self):
        # three SNRs share one (b, c); zero gains included
        rng = np.random.default_rng(29)
        g1 = rng.exponential(8.0, 5000)
        g2 = rng.exponential(3.0, 5000)
        g1[:3] = 0.0
        g2[3:6] = 0.0
        points = [make_params(snr_db=db, lam=0.3, d1=0.35) for db in (-5.0, 7.0, 40.0)]
        prod = gain_product(g1, g2, out=np.empty_like(g1))
        dens = snr_denominators(derived_coeffs(points[0]), g1, g2,
                                out=(np.empty_like(g1), np.empty_like(g1)))
        for params in points:
            b, c = derived_coeffs(params)
            written_out = (
                (params.p2 / params.sigma2) * (g1 * g2) / (b * g1 + c),
                (params.p1 / params.sigma2) * (g1 * g2) / (b * g2 + c),
            )
            out = (np.full_like(g1, np.nan), np.full_like(g1, np.nan))
            shared = end_to_end_snrs(params, g1, g2, prod=prod, dens=dens, out=out)
            assert shared[0] is out[0] and shared[1] is out[1]
            # P1 = P2: both directions divide one numerator
            num = snr_numerator(params.p1 / params.sigma2, prod, out=np.empty_like(g1))
            one_num = end_to_end_snrs(params, g1, g2, dens=dens, num=num)
            for gammas in (end_to_end_snrs(params, g1, g2), shared, one_num):
                for got, want in zip(gammas, written_out):
                    assert got.tobytes() == want.tobytes()
            assert not np.any(shared[0][:6]) and not np.any(shared[1][:6])

    def test_monotone_in_each_gain(self):
        params = make_params()
        rng = np.random.default_rng(23)
        for _ in range(200):
            g1, g2 = rng.exponential(8.0, 2)
            bump = 1.0 + rng.uniform(0.1, 2.0)
            base = end_to_end_snrs(params, g1, g2)
            up1 = end_to_end_snrs(params, g1 * bump, g2)
            up2 = end_to_end_snrs(params, g1, g2 * bump)
            assert up1[0] >= base[0] and up1[1] >= base[1]
            assert up2[0] >= base[0] and up2[1] >= base[1]

    def test_split_ratio_extremes_kill_snr(self):
        for lam in (1e-9, 1.0 - 1e-12):
            params = make_params(lam=lam)
            gamma1, gamma2 = end_to_end_snrs(params, 2.0, 3.0)
            assert gamma1 < 1e-6 and gamma2 < 1e-6

    def test_exact_beta_recovers_canonical_form_at_high_power(self):
        # the dropped noise terms vanish relative to the received power
        params = make_params(snr_db=50.0)
        g1 = np.array([4.0, 9.0])
        g2 = np.array([7.0, 2.0])
        approx = end_to_end_snrs(params, g1, g2)
        exact = end_to_end_snrs_exact_beta(params, g1, g2)
        np.testing.assert_allclose(exact[0], approx[0], rtol=1e-5)
        np.testing.assert_allclose(exact[1], approx[1], rtol=1e-5)


SUBNORMAL = sys.float_info.min / 3.0
#: Floats at the ends of the range, beside any that hypothesis draws.
EDGES = [0.0, 5e-324, SUBNORMAL, sys.float_info.min, 1.0, 1e308, sys.float_info.max, math.inf]


def _edged(low: float, high: float, **kwargs):
    """Floats in [low, high], the EDGES inside it and both ends drawn often."""
    ends = sorted({low, high, *(e for e in EDGES if low <= e <= high)})
    return st.one_of(st.sampled_from(ends), st.floats(low, high, **kwargs))


class TestWeakerSnr:
    # monotone division: num / max(den1, den2) is min(num/den1, num/den2)
    @seed(3061)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        gains=st.lists(st.tuples(_edged(0.0, math.inf), _edged(0.0, math.inf)),
                       min_size=1, max_size=12),
        power=_edged(5e-324, sys.float_info.max),
        sigma2=_edged(5e-324, sys.float_info.max),
        eta=_edged(5e-324, 1.0),
        lam=_edged(5e-324, 1.0 - 2.0**-53),
        epsilon=_edged(0.0, 1.0),
        tau=_edged(0.0, math.inf),
    )
    @example(gains=[(1.0, 2.0), (3.0, 0.5), (0.0, 1e308), (math.inf, 2.0)], power=100.0,
             sigma2=1.0, eta=1.0, lam=0.75, epsilon=0.5, tau=1.0)
    @example(gains=[(SUBNORMAL, 1e308), (math.inf, math.inf), (5e-324, 0.0)],
             power=sys.float_info.max, sigma2=5e-324, eta=1.0, lam=0.5, epsilon=1.0, tau=0.0)
    def test_is_the_smaller_snr_bit_for_bit(self, gains, power, sigma2, eta, lam, epsilon, tau):
        try:
            params = build_params(power, power, sigma2, eta, lam, epsilon, 0.5, 3.0)
        except ParameterError:  # c = 1/(eta*lam) past the float range
            reject()
        g1, g2 = np.array(gains, dtype=float).T
        with np.errstate(all="ignore"):
            gamma1, gamma2 = end_to_end_snrs(params, g1, g2)
            weak = weaker_snr(params, g1, g2)
        smaller = np.minimum(gamma1, gamma2)
        assert np.array_equal(weak, smaller, equal_nan=True)
        nan = np.isnan(smaller)
        assert weak[~nan].tobytes() == smaller[~nan].tobytes()
        assert np.array_equal((gamma1 < tau) | (gamma2 < tau), weak < tau)

    def test_needs_equal_scales(self):
        with pytest.raises(ParameterError, match="P1/sigma2 = P2/sigma2"):
            weaker_snr(make_params(p2_scale=0.5), 1.0, 2.0)


class TestNonCoopBaseline:
    def test_outage_closed_form(self):
        # at P/sigma2 = 20 dB, T = 1: 1 - exp(-3/100)
        params = make_params(snr_db=20.0)
        targets = TargetRates.from_rates(1.0, 1.0)
        assert non_coop_outage(params, targets) == pytest.approx(
            1.0 - math.exp(-0.03), rel=1e-12
        )
        assert non_coop_outage(params, targets) == pytest.approx(0.02955, abs=1e-5)

    def test_outage_uses_worse_direction(self):
        params = make_params(p2_scale=0.25)
        targets = TargetRates.from_rates(1.0, 1.0)
        s2 = params.sigma2
        need = max(
            s2 * targets.tau1 / params.p2,
            s2 * targets.tau2 / params.p1,
        )
        assert non_coop_outage(params, targets) == pytest.approx(1.0 - math.exp(-need))

    @pytest.mark.parametrize("snr_db", [60.0, 100.0, 140.0, 160.0, 180.0, 200.0])
    @pytest.mark.parametrize("p2_scale", [1.0, 0.5])
    def test_small_outage_keeps_its_digits(self, snr_db, p2_scale):
        # 1 - exp(-x) loses every digit below 1e-16; the reference is mpmath
        # at 40 digits on the same float inputs
        mpmath = pytest.importorskip("mpmath")
        params = make_params(snr_db=snr_db, p2_scale=p2_scale)
        targets = TargetRates.from_rates(1.0, 1.0)
        with mpmath.workdps(40):
            x = max(
                mpmath.mpf(targets.tau1) * params.sigma2 / mpmath.mpf(params.p2),
                mpmath.mpf(targets.tau2) * params.sigma2 / mpmath.mpf(params.p1),
            )
            reference = float(-mpmath.expm1(-x))
        assert non_coop_outage(params, targets) == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_capacity_against_direct_simulation(self):
        params = make_params(snr_db=20.0)
        rng = np.random.default_rng(31)
        g = rng.exponential(1.0, 1_000_000)
        rho = params.p1 / params.sigma2
        sim = float(np.mean(np.log1p(rho * g))) / math.log(2.0)  # both directions
        se = float(np.std(np.log1p(rho * g))) / math.log(2.0) / math.sqrt(1e6)
        assert non_coop_capacity(params) == pytest.approx(sim, abs=3 * se)


class TestTargetRates:
    def test_threshold_definition_exact(self):
        t = TargetRates.from_rates(1.0, 2.0)
        assert t.tau1 == 2.0 ** (2.0 * 1.0) - 1.0
        assert t.tau2 == 2.0 ** (2.0 * 2.0) - 1.0

    def test_multiplexing_gain_construction(self):
        t = from_multiplexing_gain(0.5, 100.0)
        assert t.tau1 == pytest.approx(101.0**0.5 - 1.0, rel=1e-12)
        assert t.t1 == pytest.approx(0.25 * math.log2(101.0), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            TargetRates.from_rates(-0.5, 1.0)
        with pytest.raises(ParameterError):
            from_multiplexing_gain(0.0, 100.0)
