"""The batched closed forms: frozen sweep values, a batch against one-point
calls, and the first failing point of a batch."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import make_params

from twrelay import analytic
from twrelay.config import ExperimentConfig
from twrelay.errors import ConvergenceError, DegenerateCaseError, DomainError
from twrelay.model import TargetRates
from twrelay.sweep import run_sweep

#: Closed-form rows of ten sweeps, frozen by data/make_golden_sweeps.py.
GOLDEN_SWEEPS = json.loads(
    (Path(__file__).parent / "data" / "golden_sweeps.json").read_text(encoding="utf-8")
)


class TestFrozenSweeps:
    """numpy's exp and pow differ from the math module's by an ulp on some
    inputs, so a value may move by rounding: 1e-12 relative, or 1e-15
    absolute for a probability, is allowed."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
    def test_rows_match_frozen_values(self, name):
        entry = GOLDEN_SWEEPS[name]
        fields = dict(entry["config"], methods=tuple(entry["config"]["methods"]))
        config = ExperimentConfig(**fields)
        rows = run_sweep(config, write=False).rows
        assert [(r.axis_value.hex(), r.method) for r in rows] == [
            (axis, method) for axis, method, _ in entry["rows"]
        ]
        floor = 1e-15 if config.metric_family == "outage" else 0.0
        off = [
            (r.axis_value, r.method, r.value, float.fromhex(value))
            for r, (_, _, value) in zip(rows, entry["rows"])
            if abs(r.value - float.fromhex(value))
            > max(1e-12 * abs(float.fromhex(value)), floor)
        ]
        assert not off, off


# Mixed points: d1, lambda and SNR vary, the powers and targets are
# asymmetric, and the second point has tau1 = 0.
PARAMS = [
    make_params(snr_db=12.0, lam=0.3, d1=0.4, p2_scale=0.5),
    make_params(snr_db=20.0, lam=0.75, d1=0.5),
    make_params(snr_db=27.0, lam=0.6, d1=0.7, p2_scale=2.0),
    make_params(snr_db=5.0, lam=0.9, d1=0.2),
]
TARGETS = [
    TargetRates.from_rates(1.0, 0.5),
    TargetRates.from_rates(0.0, 1.2),
    TargetRates.from_rates(2.0, 0.3),
    TargetRates.from_rates(0.7, 1.0),
]
R = [0.5, 0.25, 1.0, 0.75]
GAMMA = [10.0, 100.0, 500.0, 3.0]
SYMMETRIC = [make_params(snr_db=10.0 * math.log10(g), lam=p.lam, d1=p.d1)
             for g, p in zip(GAMMA, PARAMS)]


class TestBatchEqualsOnePointCalls:
    @pytest.mark.parametrize("name", [
        "outage_exact", "outage_bounds", "outage_high_snr", "non_coop_outage",
    ])
    def test_outage_forms(self, name):
        form = getattr(analytic, name)
        assert form(PARAMS, TARGETS) == tuple(form(p, t) for p, t in zip(PARAMS, TARGETS))

    @pytest.mark.parametrize("name", [
        "capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop_capacity",
    ])
    def test_capacity_forms(self, name):
        form = getattr(analytic, name)
        assert form(PARAMS) == tuple(form(p) for p in PARAMS)

    def test_series_terms_used_run_point_by_point(self):
        batch = analytic.capacity_series(PARAMS)
        singles = [analytic.capacity_series(p).terms_used for p in PARAMS]
        assert batch.terms_used == tuple(n for used in singles for n in used)
        assert all(isinstance(n, int) for n in batch.terms_used)

    def test_dmt(self):
        assert analytic.dmt(SYMMETRIC, R) == tuple(
            analytic.dmt(p, r) for p, r in zip(SYMMETRIC, R)
        )

    def test_single_values_hold_at_every_point(self):
        assert analytic.outage_exact(PARAMS, TARGETS[0]) == tuple(
            analytic.outage_exact(p, TARGETS[0]) for p in PARAMS
        )

    def test_numpy_arrays_give_one_value_per_element(self):
        assert analytic.dmt(SYMMETRIC, np.array(R)) == analytic.dmt(SYMMETRIC, R)

    @pytest.mark.parametrize("call", [
        lambda: analytic.outage_exact([], []),
        lambda: analytic.outage_bounds([], []),
        lambda: analytic.outage_high_snr([], []),
        lambda: analytic.non_coop_outage([], []),
        lambda: analytic.capacity_quadrature([]),
        lambda: analytic.capacity_bounds([]),
        lambda: analytic.non_coop_capacity([]),
        lambda: analytic.dmt([], []),
    ])
    def test_empty_batch_gives_empty_result(self, call):
        assert call() == ()

    def test_empty_series_batch(self):
        batch = analytic.capacity_series([])
        assert batch == () and batch.terms_used == ()


class TestFirstFailingPoint:
    """Each failure sits at the last of three points; the sweep's error
    names that point's axis value, and the batch marks its index."""

    @staticmethod
    def _fails_at_last_point(config, error, head):
        with pytest.raises(error, match="^" + head) as info:
            run_sweep(config, write=False)
        assert info.value.__cause__.point == 2

    def test_corner_residual(self, monkeypatch):
        true_residual = analytic._corner_residual

        def residual(*args):
            values = np.array(true_residual(*args))
            values[-1] = 1.0
            return values

        monkeypatch.setattr(analytic, "_corner_residual", residual)
        config = ExperimentConfig(start=10.0, stop=20.0, steps=3, methods=("exact_quadrature",))
        self._fails_at_last_point(
            config, DegenerateCaseError,
            r"snr_db=20, method=exact_quadrature: corner point \(.*\) violates the boundary",
        )

    def test_clamp(self, monkeypatch):
        true_strips = analytic._segment_integral

        def strips(k, omega, v):
            values = np.array(true_strips(k, omega, v))
            values[-1] = -1e3
            return values

        monkeypatch.setattr(analytic, "_segment_integral", strips)
        config = ExperimentConfig(start=10.0, stop=20.0, steps=3, methods=("exact_quadrature",))
        self._fails_at_last_point(
            config, DomainError,
            r"snr_db=20, method=exact_quadrature: joint_outage produced .* outside \[0, 1\]",
        )

    def test_dmt_underflow(self):
        # at r = 0.01 the lower-bound outage rounds to 0 by 260 dB, not by 140
        config = ExperimentConfig(start=20.0, stop=260.0, steps=3, r=0.01, methods=("dmt",))
        self._fails_at_last_point(
            config, DegenerateCaseError,
            r"snr_db=260, method=dmt: lower-bound outage underflowed to 0.0 at gamma=1e\+26",
        )

    def test_series_convergence(self):
        # mu/s grows as d1^3 in direction 1: 6 at d1 = 0.5, 16 at 0.7, 36 at 0.9
        config = ExperimentConfig(
            sweep="d1", start=0.5, stop=0.9, steps=3, lam=0.02, methods=("capacity_series",),
        )
        self._fails_at_last_point(config, ConvergenceError, "d1=0.9, method=capacity_series: ")

    def test_first_of_several_failing_points_is_named(self):
        # direction 1 fails at the last two points; the error is the middle
        # point's
        params = [make_params(lam=0.02, d1=d1) for d1 in (0.5, 0.9, 0.9)]
        with pytest.raises(ConvergenceError) as info:
            analytic.capacity_series(params)
        assert info.value.point == 1
        direction = analytic.directions(params[1])[0]
        assert f"s={direction.s:.3g}, mu={direction.mu:.3g}" in str(info.value)

