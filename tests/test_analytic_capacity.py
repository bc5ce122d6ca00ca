"""Ergodic capacity: reference quadrature, series decomposition, bounds."""

import numpy as np
import pytest
from scipy import special

from helpers import GOLDEN_INTEGRALS, capacity_series_approx_j, make_params, rows_of, stack

from twrelay.analytic import (
    SERIES_MAX_TERMS,
    Direction,
    _survival_integral,
    _xk1_upper,
    capacity_bounds,
    capacity_direction_integral,
    capacity_quadrature,
    capacity_series,
    directions,
)
from twrelay.config import ExperimentConfig
from twrelay.errors import ConvergenceError, ParameterError
from twrelay.mc import estimate_capacity
from twrelay.model import snr_scales
from twrelay.specfun import bessel_xk1, tricomi_psi11
from twrelay.sweep import run_sweep

LOG2_SCALE = 2.0 * np.log(2.0)


class TestCapacityQuadrature:
    @pytest.mark.parametrize("lam", [1e-6, 1.0 - 1e-6])
    def test_split_extremes_starve_the_relay(self, lam):
        assert capacity_quadrature(make_params(lam=lam)) < 1e-2

    def test_matches_simulation_at_half_split(self):
        params = make_params(lam=0.5)
        est = estimate_capacity(params, 1_000_000, seed=61)
        assert abs(capacity_quadrature(params) - est.mean) <= 3.0 * est.std_err


class TestCapacitySeries:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.75])
    def test_agrees_with_quadrature(self, lam):
        params = make_params(lam=lam)
        series = capacity_series(params)
        reference = capacity_quadrature(params)
        assert series.value == pytest.approx(reference, rel=1e-3)

    def test_agrees_with_quadrature_over_random_box(self):
        # the scaled-term evaluation keeps the series representable even at
        # extreme splits and relay positions
        rng = np.random.default_rng(4707)
        for _ in range(40):
            params = make_params(
                snr_db=float(rng.uniform(0.0, 40.0)),
                lam=float(rng.uniform(0.05, 0.95)),
                d1=float(rng.uniform(0.1, 0.9)),
            )
            series = capacity_series(params)
            reference = capacity_quadrature(params)
            assert series.value == pytest.approx(reference, rel=1e-3)

    def test_terminates_quickly_at_reference_point(self):
        result = capacity_series(make_params())
        assert max(result.terms_used) < 30

    def test_polynomial_surrogate_upper_variant(self):
        params = make_params(lam=0.75)
        tight = capacity_series_approx_j(params)
        assert tight >= capacity_quadrature(params)

    def test_raises_when_terms_run_out(self):
        # mu/s = 100: the terms peak near l = 100 at about e^100 and are
        # still far above the stop at the last allowed term
        with pytest.raises(ConvergenceError, match=f"{SERIES_MAX_TERMS} terms"):
            capacity_direction_integral(1e-3, 0.1)

    def test_raises_where_terms_cancel(self):
        # mu/s = 30: the terms cancel from a peak near e^30, and the value
        # they leave is 4.2e-3 off the survival-integral rule
        with pytest.raises(ConvergenceError, match="cancels"):
            capacity_direction_integral(1e-4, 3e-3)

    # point 1 holds one direction that runs out of terms (mu/s = 100) and one
    # that cancels (mu/s = 30); its error is its first failing direction's,
    # whatever the kind
    @pytest.mark.parametrize("s, mu, named", [
        ([1e-3, 1e-4], [0.1, 3e-3],
         rf"did not converge within {SERIES_MAX_TERMS} terms \(s=0\.001, mu=0\.1;"),
        ([1e-4, 1e-3], [3e-3, 0.1], r"cancels: .* \(s=0\.0001, mu=0\.003, mu/s=30\)"),
        # both directions on one law: the second reads the first's row
        ([1e-3, 1e-3], [0.1, 0.1],
         rf"did not converge within {SERIES_MAX_TERMS} terms \(s=0\.001, mu=0\.1;"),
    ], ids=["runs-out-then-cancels", "cancels-then-runs-out", "one-law-runs-out"])
    def test_point_names_its_first_failing_direction(self, s, mu, named):
        with pytest.raises(ConvergenceError, match=named) as info:
            capacity_direction_integral(np.array([[0.5, 0.5], s, [0.5, 0.5]]),
                                        np.array([[0.1, 0.1], mu, [0.1, 0.1]]))
        assert info.value.point == 1

    def test_unequal_columns_are_a_parameter_error(self):
        with pytest.raises(ParameterError,
                           match=r"^per-point columns differ in length: \[2, 3\]$"):
            capacity_direction_integral([1.0, 2.0], [0.1, 0.2, 0.3])

    def test_a_pair_array_against_a_column_names_the_shapes(self):
        # both have 3 points: the fault is a (points, 2) array meeting a 1-D column
        with pytest.raises(ParameterError,
                           match=r"^per-point values differ in shape: \[\(3,\), \(3, 2\)\]$"):
            capacity_direction_integral(np.ones((3, 2)), np.ones(3))

    def test_zero_bessel_scale_collapses_to_base_term(self):
        # with the harvest-inverse coefficient forced to zero every series
        # term vanishes and only the hypergeometric base survives
        value, terms_used, _ = capacity_direction_integral(0.01, 0.0)
        assert value == tricomi_psi11(0.01)
        assert terms_used == 0


class TestCapacityBounds:
    def test_ordering_chain_across_splits(self):
        for lam in np.arange(0.1, 0.95, 0.1):
            params = make_params(lam=float(lam))
            bounds = capacity_bounds(params)
            exact = capacity_quadrature(params)
            assert bounds.lower <= exact + 1e-9
            assert exact <= bounds.tight_upper + 1e-9
            assert bounds.tight_upper <= bounds.loose_upper + 1e-9

    def test_sandwich_bounds_hold_over_random_box(self):
        # lower and loose upper come from the exp(-x) <= x*K1(x) <= 1
        # sandwich and hold unconditionally
        rng = np.random.default_rng(4606)
        for _ in range(200):
            params = make_params(
                snr_db=float(rng.uniform(0.0, 40.0)),
                lam=float(rng.uniform(0.05, 0.95)),
                d1=float(rng.uniform(0.1, 0.9)),
            )
            exact = capacity_quadrature(params)
            bounds = capacity_bounds(params)
            assert bounds.lower <= exact + 1e-9
            assert exact <= bounds.loose_upper + 1e-9

    def test_full_chain_over_random_box(self):
        # Required ordering: lower <= C_e <= tight <= loose over the whole
        # random parameter box.  Each bound replaces x*K1(x) in the survival
        # integral by a pointwise bound on it (exp(-x) <= x*K1(x) <=
        # U(x) <= 1), so the chain holds by construction; the failure lists
        # any point where it does not.
        rng = np.random.default_rng(4606)
        violations = []
        for _ in range(200):
            snr_db = float(rng.uniform(0.0, 40.0))
            lam = float(rng.uniform(0.05, 0.95))
            d1 = float(rng.uniform(0.1, 0.9))
            params = make_params(snr_db=snr_db, lam=lam, d1=d1)
            exact = capacity_quadrature(params)
            bounds = capacity_bounds(params)
            gap = max(
                bounds.lower - exact,
                exact - bounds.tight_upper,
                bounds.tight_upper - bounds.loose_upper,
            )
            if gap > 1e-9:
                violations.append(
                    f"(snr={snr_db:.1f}dB, lam={lam:.2f}, d1={d1:.2f}): {gap:.3g}"
                )
        assert not violations, (
            "tight-upper surrogate leaves its validity regime at "
            + "; ".join(violations)
        )

    def test_loose_upper_tight_at_high_split(self):
        params = make_params(lam=0.8)
        exact = capacity_quadrature(params)
        bounds = capacity_bounds(params)
        assert (bounds.loose_upper - exact) / exact < 0.1

    def test_loose_upper_degrades_at_low_split(self):
        gap = {}
        for lam in (0.1, 0.8):
            params = make_params(lam=lam)
            exact = capacity_quadrature(params)
            gap[lam] = (capacity_bounds(params).loose_upper - exact) / exact
        assert gap[0.1] > gap[0.8]


def golden_point(row):
    """Parameters and mpmath capacity of one frozen capacity point."""
    snr_db, lam, eta, epsilon, d1, ple, capacity = row
    params = make_params(
        snr_db=snr_db, lam=lam, eta=eta, epsilon=epsilon, d1=d1, path_loss_exp=ple
    )
    return params, capacity


class TestGoldenValues:
    """Against mpmath values frozen by tests/data/make_golden.py."""

    def test_survival_integrals(self):
        # the first point is one where adaptive QUADPACK returned 0.4707
        # instead of 0.8256 without raising
        errors = [
            abs(_survival_integral(Direction(1.0, 1.0, 1.0, s, mu), (bessel_xk1,))[0] - ref) / ref
            for s, mu, ref in GOLDEN_INTEGRALS["survival"]
        ]
        assert max(errors) <= 1e-12, errors

    def test_capacity_quadrature(self):
        errors = []
        for row in GOLDEN_INTEGRALS["capacity"]:
            params, ref = golden_point(row)
            errors.append(abs(capacity_quadrature(params) - ref) / ref)
        assert max(errors) <= 1e-12, errors

    def test_quadrature_converges_at_tiny_harvest(self):
        # 60 dB with lambda = eta = 0.002, where adaptive QUADPACK raised
        # ConvergenceError
        params, ref = golden_point(GOLDEN_INTEGRALS["capacity"][2])
        assert (params.lam, params.eta) == (0.002, 0.002)
        assert capacity_quadrature(params) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("index", [0, 1])
    def test_series_where_adaptive_factors_failed(self, index):
        # mu/s reaches 29 and 23 here, so the series cancels from a peak
        # near e^(mu/s); with adaptive factors it read 474 at the first
        # point and was 1.3% off at the second
        params, ref = golden_point(GOLDEN_INTEGRALS["capacity"][index])
        assert capacity_series(params).value == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("index, terms_used", [(0, (9, 98)), (1, (82, 12))])
    def test_series_terms_used(self, index, terms_used):
        # both cross block boundaries of the factor arrays, one six times
        params, _ = golden_point(GOLDEN_INTEGRALS["capacity"][index])
        assert capacity_series(params).terms_used == terms_used

    def test_series_raises_where_its_scale_overflows(self):
        # mu/s = 3.1e4: the term scale (mu/s)^(l+1)/l! overflows at l = 105
        params, _ = golden_point(GOLDEN_INTEGRALS["capacity"][2])
        with pytest.raises(ConvergenceError, match="not finite"):
            capacity_series(params)

    def test_bound_chain(self):
        for row in GOLDEN_INTEGRALS["capacity"]:
            params, ref = golden_point(row)
            bounds = capacity_bounds(params)
            assert bounds.lower <= ref * (1.0 + 1e-12)
            assert ref <= bounds.tight_upper * (1.0 + 1e-12)
            assert bounds.tight_upper <= bounds.loose_upper * (1.0 + 1e-12)


class TestXk1Upper:
    def test_bounds_bessel_from_above(self):
        # U(x) >= x*K1(x) and U(x) <= 1 are what make the capacity chain
        # hold; near x = 0 both sides round to 1, hence a few ulp of slack
        xs = np.geomspace(1e-8, 700.0, 20_000)
        exact = xs * special.k1(xs)
        upper = np.array([_xk1_upper(float(x)) for x in xs])
        assert np.all(upper >= exact * (1.0 - 4.0 * np.finfo(float).eps))
        assert np.all(upper <= 1.0)


class TestDirectionRates:
    def test_symmetric_setup_has_equal_directions(self):
        rates = directions(make_params())
        assert rates[0] == rates[1]

    def test_survival_parameters_positive(self):
        for d in directions(make_params(d1=0.3, p2_scale=0.5)):
            assert d.s > 0 and d.mu > 0

    def test_scales_pair_with_their_direction_as_the_model_pairs_them(self):
        # direction 1 is carried by P2: analytic and Monte Carlo share one pairing
        params = stack([make_params(snr_db=db, p2_scale=k)
                        for db, k in ((20.0, 0.4), (13.0, 2.5), (7.0, 1.0), (31.0, 0.7))])
        for d, scale in zip(directions(params), snr_scales(params)):
            assert np.array(d.a).tobytes() == scale.tobytes()


class TestLowSnr:
    """Below about -20 dB the survival decay length 1/s is far shorter than
    the z = 1 knee, and e^(1/rho) overflows for the direct link; every
    capacity row must still see the mass near 0."""

    def test_rows_match_simulation_and_keep_the_chain(self, tmp_path):
        config = ExperimentConfig(
            sweep="snr_db", start=-60.0, stop=-50.0, steps=2,
            methods=("mc", "capacity_quadrature", "capacity_series", "capacity_bounds",
                     "non_coop"),
            seed=83, output_path=str(tmp_path / "low.csv"),
        )
        rows = rows_of(run_sweep(config, write=False))
        for snr_db in (-60.0, -50.0):
            point = {r.method: r for r in rows if r.axis_value == snr_db}
            mc, slack = point["mc"].value, 3.0 * point["mc"].std_err
            for method in ("capacity_quadrature", "capacity_series"):
                assert abs(point[method].value - mc) <= slack, (snr_db, method)
            lower = point["capacity_bounds:lower"].value
            tight = point["capacity_bounds:tight_upper"].value
            loose = point["capacity_bounds:loose_upper"].value
            exact = point["capacity_quadrature"].value
            assert 0.0 < lower <= exact <= tight <= loose
            assert lower <= mc + slack and tight >= mc - slack
            # direct link: E[ln(1 + rho*g)] = rho - rho^2 + O(rho^3) per direction
            rho = 10.0 ** (snr_db / 10.0)
            assert point["non_coop"].value == pytest.approx(rho / np.log(2.0), rel=1e-4)
