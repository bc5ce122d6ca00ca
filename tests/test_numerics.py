"""The integration rule, the QUADPACK reference in helpers, root-finding,
series, and finite-difference machinery."""

import math

import numpy as np
import pytest

from helpers import (
    DEFAULT_QUAD,
    BracketError,
    QuadSpec,
    central_diff,
    quad_adaptive,
    root_bracketed,
    simpson_panels,
)

from twrelay.errors import ConvergenceError, DomainError
from twrelay.numerics import (
    RULE_NODES,
    SeriesControl,
    log_integral,
    log_rule,
    series_accumulate,
)
from twrelay.specfun import exp_integral_e1


class TestQuadAdaptive:
    def test_unit_exponential(self):
        value, err = quad_adaptive(
            lambda z: math.exp(-z), 0.0, math.inf, DEFAULT_QUAD
        )
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err <= 1e-10

    def test_exponential_over_one_plus_z(self):
        value, _ = quad_adaptive(
            lambda z: math.exp(-z) / (1.0 + z), 0.0, math.inf, DEFAULT_QUAD
        )
        assert value == pytest.approx(0.596347, abs=1e-6)
        # cross-check against the e * E1(1) identity path
        assert value == pytest.approx(math.e * exp_integral_e1(1.0), rel=1e-9)

    def test_boundary_layer_integrand_vs_panel_oracle(self):
        # int_0^2 exp(-1/z - z) dz; 1e6-panel Simpson is the oracle
        def f(z):
            return math.exp(-1.0 / z - z) if z > 0 else 0.0

        oracle = simpson_panels(f, 0.0, 2.0, 10**6)
        assert oracle == pytest.approx(0.1850490047222, abs=1e-10)  # frozen
        value, _ = quad_adaptive(f, 0.0, 2.0)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_nonnegative_integrand_gives_nonnegative_value(self):
        cases = [
            (lambda z: math.exp(-3 * z) * z * z, 0.0, math.inf, DEFAULT_QUAD),
            (lambda z: 1.0 / (1.0 + z) ** 2, 0.0, 10.0, DEFAULT_QUAD),
            (lambda z: math.exp(-0.5 / max(z, 1e-300) - z), 0.0, 4.0, DEFAULT_QUAD),
        ]
        for f, a, b, spec in cases:
            value, _ = quad_adaptive(f, a, b, spec)
            assert value >= 0.0

    def test_tightening_tolerance_never_worsens_gap(self):
        def f(z):
            return math.exp(-1.0 / z - z) if z > 0 else 0.0

        oracle = simpson_panels(f, 0.0, 2.0, 10**6)
        gaps = []
        for rel in (1e-6, 5e-7, 2.5e-7):
            value, _ = quad_adaptive(f, 0.0, 2.0, QuadSpec(rel_tol=rel, abs_tol=1e-14))
            gaps.append(abs(value - oracle))
        assert gaps[1] <= gaps[0] + 1e-13
        assert gaps[2] <= gaps[1] + 1e-13

    def test_error_estimate_within_tolerance(self):
        spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)
        value, err = quad_adaptive(lambda z: math.sin(z) ** 2, 0.0, 3.0, spec)
        assert err <= max(spec.abs_tol, spec.rel_tol * abs(value))

    def test_spec_invariants(self):
        with pytest.raises(DomainError):
            QuadSpec(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadSpec(max_subdivisions=0)

    def test_failure_reports_worst_subinterval(self):
        # an oscillatory integrand with a starved subdivision budget
        spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=2)
        with pytest.raises(ConvergenceError, match="subinterval"):
            quad_adaptive(lambda z: math.sin(1.0 / (z + 1e-4)), 0.0, 1.0, spec)


class TestLogRule:
    def test_exponential_over_its_whole_mass(self):
        value = log_integral(lambda z: np.exp(-z), 1e-17, 745.0)
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_array_bounds_give_one_row_each(self):
        # int_{e^a}^{e^b} dz = e^b - e^a, row by row
        t, w = log_rule(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert t.shape == w.shape == (2, RULE_NODES)
        rows = np.sum(w * np.exp(t), axis=1)
        assert rows == pytest.approx([math.e - 1.0, math.e**3 - math.e], rel=1e-14)

    def test_boundary_layer_integrand_vs_panel_oracle(self):
        # int_0^2 exp(-1/z - z) dz, below z = 1/700 under e^-700
        oracle = simpson_panels(
            lambda z: math.exp(-1.0 / z - z) if z > 0 else 0.0, 0.0, 2.0, 10**6
        )
        value = log_integral(lambda z: np.exp(-1.0 / z - z), 1.0 / 700.0, 2.0)
        assert value == pytest.approx(oracle, abs=1e-10)


class TestRootBracketed:
    def test_quadratic_root(self):
        root = root_bracketed(lambda x: x * x - 4.0, 0.0, 10.0, tol=1e-12)
        assert root == pytest.approx(2.0, abs=1e-10)

    def test_endpoint_root_returned(self):
        assert root_bracketed(lambda x: x - 1.0, 1.0, 5.0) == 1.0
        assert root_bracketed(lambda x: x - 5.0, 1.0, 5.0) == 5.0

    def test_bracket_violation(self):
        with pytest.raises(BracketError):
            root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_invariant_under_bracket_widening(self):
        f = math.cos
        narrow = root_bracketed(f, 1.0, 2.0, tol=1e-13)
        wide = root_bracketed(f, 0.5, 3.0, tol=1e-13)
        assert narrow == pytest.approx(wide, abs=1e-12)
        assert narrow == pytest.approx(math.pi / 2, abs=1e-12)


class TestSeriesAccumulate:
    def test_geometric(self):
        result = series_accumulate(lambda k: 0.5**k, SeriesControl())
        assert result.converged
        assert result.total == pytest.approx(2.0, rel=1e-10)

    def test_exponential_series(self):
        result = series_accumulate(
            lambda k: 1.0 / math.factorial(k), SeriesControl()
        )
        assert result.converged
        assert result.total == pytest.approx(math.e, rel=1e-10)

    def test_exhaustion_flagged_with_partial_sum(self):
        result = series_accumulate(
            lambda k: 1.0 / (k + 1.0), SeriesControl(max_terms=50)
        )
        assert not result.converged
        assert result.terms_used == 50
        assert result.total == pytest.approx(sum(1.0 / (k + 1) for k in range(50)))
        assert result.tail_estimate == pytest.approx(1.0 / 50.0)

    def test_non_finite_term_raises(self):
        with pytest.raises(ConvergenceError):
            series_accumulate(lambda k: math.inf, SeriesControl())

    def test_all_zero_terms_converge(self):
        result = series_accumulate(lambda k: 0.0, SeriesControl())
        assert result.converged
        assert result.total == 0.0


class TestCentralDiff:
    def test_square(self):
        assert central_diff(lambda x: x * x, 3.0, 1e-4) == pytest.approx(6.0, abs=1e-6)

    def test_log(self):
        assert central_diff(math.log, 2.0, 1e-4) == pytest.approx(0.5, abs=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            central_diff(math.log, 2.0, 0.0)
