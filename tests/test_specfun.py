"""Special-function checks against independent quadrature oracles.

Frozen expected values below were computed from the stated integral
representations with adaptive quadrature before the implementations
existed; the oracles are re-evaluated here so drift in either side fails.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp

from helpers import digamma_nat, harmonic_number, tricomi_psi, tricomi_psi_log_form

from twrelay.errors import DomainError
from twrelay.specfun import EULER_GAMMA, bessel_xk1, exp_integral_e1, tricomi_psi11


def k1_integral_oracle(x: float) -> float:
    """K1(x) = int_0^inf exp(-x*cosh t) * cosh t dt.

    The integrand underflows once x*cosh(t) > ~746, so the tail is cut
    there and QUADPACK runs in pure relative mode.
    """
    tmax = math.acosh(746.0 / x) if x < 746.0 else 1.0
    val, err = si.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        tmax,
        epsabs=0.0,
        epsrel=1e-10,
        limit=400,
    )
    assert err < 1e-8 * abs(val)
    return val


class TestBesselK1:
    def test_frozen_oracle_value_at_one(self):
        # frozen from k1_integral_oracle(1.0)
        assert bessel_xk1(1.0) == pytest.approx(0.6019072301972347, abs=1e-5)
        assert k1_integral_oracle(1.0) == pytest.approx(0.6019072301972347, abs=1e-9)

    @pytest.mark.parametrize("x", [0.25, 1.0, 2.5, 5.0, 8.0, 12.0, 20.0])
    def test_matches_integral_representation(self, x):
        assert bessel_xk1(x) / x == pytest.approx(k1_integral_oracle(x), rel=1e-6)

    def test_small_argument_scaled_limit(self):
        x = 1e-8
        assert bessel_xk1(x) == pytest.approx(1.0, abs=1e-6)

    def test_sandwich_holds_over_sweep(self):
        # exp(-x) <= x*K1(x) <= 1 on (0, 50]
        for x in np.geomspace(1e-6, 50.0, 10_000):
            scaled = bessel_xk1(float(x))
            assert math.exp(-x) <= scaled <= 1.0

    def test_branch_seam_is_continuous(self):
        # the ascending series hands over to the expansion in 1/x at x = 2;
        # TestDenseGolden checks every seam of every function against mpmath
        lo = bessel_xk1(1.999999999)
        hi = bessel_xk1(2.000000001)
        assert lo == pytest.approx(hi, rel=5e-8)
        below, above = bessel_xk1(np.nextafter(2.0, 0.0)), bessel_xk1(np.nextafter(2.0, 3.0))
        assert below == pytest.approx(above, rel=4e-15)

    def test_matches_scipy_across_range(self):
        for x in np.geomspace(1e-6, 50.0, 500):
            assert bessel_xk1(float(x)) / x == pytest.approx(float(sp.k1(x)), rel=5e-8)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bessel_xk1(bad)

    def test_scaled_variant_extends_to_zero(self):
        assert bessel_xk1(0.0) == 1.0
        assert bessel_xk1(1.0) == pytest.approx(0.6019072301972347, rel=1e-10)
        with pytest.raises(DomainError):
            bessel_xk1(-0.1)


class TestExpIntegral:
    def test_frozen_oracle_value_at_one(self):
        # frozen from quad of int_1^inf exp(-t)/t dt
        oracle, err = si.quad(lambda t: math.exp(-t) / t, 1.0, np.inf, limit=200)
        assert err < 1e-9
        assert oracle == pytest.approx(0.21938393439552, abs=1e-9)
        assert exp_integral_e1(1.0) == pytest.approx(0.2193839, abs=1e-6)

    def test_decays_to_zero_monotonically(self):
        values = [exp_integral_e1(x) for x in (10.0, 20.0, 40.0)]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 1e-18

    def test_log_sandwich(self):
        # Standard sandwich: (1/2) e^-x ln(1+2/x) <= E1(x) <= e^-x ln(1+1/x)
        # <= ln(1+1/x).  (The variant placing e^-x ln(1+1/x) *below* E1 is
        # false for every x > 0; the quadrature oracle refutes it.)
        for x in np.geomspace(1e-3, 50.0, 2000):
            value = exp_integral_e1(float(x))
            lower = 0.5 * math.exp(-x) * math.log1p(2.0 / x)
            upper = math.exp(-x) * math.log1p(1.0 / x)
            assert lower <= value <= upper <= math.log1p(1.0 / x)

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            exp_integral_e1(bad)


def psi_integral_oracle(n: int, z: float) -> float:
    """Gamma(n)*Psi(n,n;z) = int_0^inf e^(-z t) t^(n-1)/(1+t) dt, by raw quad."""
    val, err = si.quad(
        lambda t: math.exp(-z * t) * t ** (n - 1) / (1.0 + t),
        0.0,
        np.inf,
        limit=500,
    )
    return val / math.gamma(n)


class TestTricomiPsi:
    def test_order_one_equals_scaled_e1(self):
        # frozen from quad of int_0^inf e^-t/(1+t) dt
        assert tricomi_psi11(1.0) == pytest.approx(0.5963473623231728, abs=1e-5)
        assert math.e * exp_integral_e1(1.0) == pytest.approx(
            0.5963473623231728, rel=1e-10
        )

    def test_large_argument_asymptote(self):
        assert tricomi_psi11(100.0) == pytest.approx(0.01, rel=0.05)

    def test_order_two_against_oracle(self):
        # frozen from psi_integral_oracle(2, 0.5)
        assert tricomi_psi(2, 0.5) == pytest.approx(1.0770893675162694, abs=1e-5)

    def test_identity_with_e1_across_range(self):
        # Psi(1,1;z) = e^z E1(z): two independent code paths
        for z in np.geomspace(1e-3, 50.0, 60):
            lhs = tricomi_psi11(float(z))
            rhs = math.exp(z) * exp_integral_e1(float(z))
            assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 10.0])
    def test_capacity_kernel_identity(self, s):
        # Gamma(l+2)*Psi(l+2,l+2;s) = int_0^inf e^(-s z) z^(l+1)/(1+z) dz
        for l in range(9):
            lhs = math.gamma(l + 2) * tricomi_psi(l + 2, s)
            rhs = math.gamma(l + 2) * psi_integral_oracle(l + 2, s)
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_log_form_cross_check(self):
        for n in range(1, 7):
            for z in (0.25, 1.0, 4.0):
                assert tricomi_psi(n, z) == pytest.approx(
                    tricomi_psi_log_form(n, z), rel=1e-8
                )

    def test_decreasing_in_argument(self):
        values = [tricomi_psi(3, z) for z in (0.1, 0.5, 2.0, 10.0)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tricomi_psi(0, 1.0)
        with pytest.raises(DomainError):
            tricomi_psi(2, 0.0)
        with pytest.raises(DomainError):
            tricomi_psi(1.5, 1.0)


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_specfun.json").read_text(encoding="utf-8")
)


class TestGoldenValues:
    """Against mpmath values frozen by tests/data/make_golden.py."""

    @pytest.mark.parametrize(
        "key, func",
        [("xk1", bessel_xk1), ("psi11", tricomi_psi11), ("e1", exp_integral_e1)],
    )
    def test_matches_mpmath(self, key, func):
        worst = max(abs(func(x) - ref) / ref for x, ref in GOLDEN[key])
        assert worst <= 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_psi11_domain_errors(self, bad):
        with pytest.raises(DomainError):
            tricomi_psi11(bad)


DENSE = json.loads(
    (Path(__file__).parent / "data" / "golden_specfun_dense.json").read_text(encoding="utf-8")
)
FUNCS = {"xk1": bessel_xk1, "e1": exp_integral_e1, "psi11": tricomi_psi11}

#: Every seam between two branches of the numpy kernels, per function.
SEAMS = [("xk1", 1e-10), ("xk1", 2.0), ("e1", 1.0), ("e1", 4.0), ("psi11", 1.0), ("psi11", 4.0)]


class TestDenseGolden:
    """Against mpmath on dense grids and at every branch seam, frozen by
    tests/data/make_golden.py, to the 4e-15 relative accuracy gate."""

    @pytest.mark.parametrize("key", sorted(FUNCS))
    def test_within_gate_wherever_normal(self, key):
        x, ref = np.array(DENSE[key]).T
        normal = ref >= sys.float_info.min
        assert normal.sum() >= 2000
        rel = np.abs(FUNCS[key](x[normal]) - ref[normal]) / ref[normal]
        assert rel.max() <= 4e-15, x[normal][np.argmax(rel)]

    @pytest.mark.parametrize("key, seam", SEAMS)
    def test_seam_doubles_in_grid_and_continuous(self, key, seam):
        below, above = np.nextafter(seam, 0.0), np.nextafter(seam, math.inf)
        frozen = {x: ref for x, ref in DENSE[key]}
        values = [FUNCS[key](float(x)) for x in (below, seam, above)]
        for x, value in zip((below, seam, above), values):
            assert abs(value - frozen[x]) <= 4e-15 * frozen[x]
        # the branches agree across the seam to the gate; the function
        # itself moves by about 1e-16 over two doubles
        assert abs(values[0] - values[2]) <= 4e-15 * values[1]


class TestDigamma:
    def test_value_at_one(self):
        assert digamma_nat(1) == pytest.approx(-0.5772, abs=1e-4)
        assert digamma_nat(1) == -EULER_GAMMA

    def test_value_at_two(self):
        assert digamma_nat(2) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)

    def test_value_at_five(self):
        assert digamma_nat(5) == pytest.approx(
            -EULER_GAMMA + 1.0 + 0.5 + 1.0 / 3.0 + 0.25, rel=1e-14
        )
        assert digamma_nat(5) == pytest.approx(1.50612, abs=1e-5)

    def test_recurrence_exact_arithmetic(self):
        # psi(k+1) - psi(k) = 1/k, checked on the exact harmonic core
        for k in range(1, 60):
            assert harmonic_number(k) - harmonic_number(k - 1) == Fraction(1, k)
            float_step = digamma_nat(k + 1) - digamma_nat(k)
            assert float_step == pytest.approx(1.0 / k, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            digamma_nat(0)
        with pytest.raises(DomainError):
            digamma_nat(2.5)
