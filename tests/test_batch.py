"""The batched closed forms: frozen sweep values, a batch of columns against
one-point calls (Monte Carlo too), and the first failing point of a batch,
with the rule ``errors.raise_first`` finds it by."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import make_params, rows_of, stack
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from twrelay import analytic, mc
from twrelay.config import ExperimentConfig
from twrelay.errors import (
    ConvergenceError,
    DegenerateCaseError,
    DomainError,
    ParameterError,
    raise_first,
)
from twrelay.model import TargetRates, build_params
from twrelay.sweep import run_sweep

#: Closed-form rows of ten sweeps, frozen by an earlier data/make_golden_sweeps.py:
#: rerun today, it writes 581 of the 1,923 values differently, by at most
#: 6.8e-13 relative, inside the 1e-12 that the test allows.
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
        rows = rows_of(run_sweep(config, write=False))
        assert [(r.axis_value.hex(), r.method) for r in rows] == [
            (axis, method) for axis, method, _ in entry["rows"]
        ]
        floor = 1e-15 if config.plan.family == "outage" else 0.0
        off = [
            (r.axis_value, r.method, r.value, float.fromhex(value))
            for r, (_, _, value) in zip(rows, entry["rows"])
            if abs(r.value - float.fromhex(value))
            > max(1e-12 * abs(float.fromhex(value)), floor)
        ]
        assert not off, off


# Mixed points: d1, lambda and SNR vary, the powers and targets are
# asymmetric, and the second point has tau1 = 0.
ONE = [
    make_params(snr_db=12.0, lam=0.3, d1=0.4, p2_scale=0.5),
    make_params(snr_db=20.0, lam=0.75, d1=0.5),
    make_params(snr_db=27.0, lam=0.6, d1=0.7, p2_scale=2.0),
    make_params(snr_db=5.0, lam=0.9, d1=0.2),
]
ONE_TARGETS = [
    TargetRates.from_rates(1.0, 0.5),
    TargetRates.from_rates(0.0, 1.2),
    TargetRates.from_rates(2.0, 0.3),
    TargetRates.from_rates(0.7, 1.0),
]
PARAMS = build_params(
    [p.p1 for p in ONE], [p.p2 for p in ONE], 1.0, 1.0, [p.lam for p in ONE], 0.5,
    [p.d1 for p in ONE], 3.0,
)
TARGETS = TargetRates.from_rates([t.t1 for t in ONE_TARGETS], [t.t2 for t in ONE_TARGETS])
R = [0.5, 0.25, 1.0, 0.75]
GAMMA = [10.0, 100.0, 500.0, 3.0]
ONE_SYMMETRIC = [make_params(snr_db=10.0 * math.log10(g), lam=p.lam, d1=p.d1)
                 for g, p in zip(GAMMA, ONE)]
SYMMETRIC = stack(ONE_SYMMETRIC)
EMPTY = build_params([], [], 1.0, 1.0, [], 0.5, [], 3.0)
NO_TARGETS = TargetRates.from_rates([], [])


def point_of(outputs, i: int):
    """Point i of a batch call's outputs, in the form a one-point call returns."""
    if isinstance(outputs, list):
        return outputs[i]
    if isinstance(outputs, analytic.CapacitySeries):
        return analytic.CapacitySeries(
            outputs.value[i], outputs.terms_used[2 * i:2 * i + 2], outputs.tail_estimate[i])
    values = [column[i] for column in outputs]
    return type(outputs)(*values) if hasattr(outputs, "_fields") else tuple(values)


def by_point(outputs, points: int) -> list:
    return [point_of(outputs, i) for i in range(points)]


class TestBatchEqualsOnePointCalls:
    def test_columns_are_the_stacked_points(self):
        for batch, points in ((PARAMS, ONE), (TARGETS, ONE_TARGETS)):
            for got, want in zip(batch, stack(points)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [
        "outage_exact", "outage_bounds", "outage_high_snr", "non_coop_outage",
    ])
    def test_outage_forms(self, name):
        form = getattr(analytic, name)
        assert by_point(form(PARAMS, TARGETS), 4) == [
            form(p, t) for p, t in zip(ONE, ONE_TARGETS)
        ]

    @pytest.mark.parametrize("name", [
        "capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop_capacity",
    ])
    def test_capacity_forms(self, name):
        form = getattr(analytic, name)
        assert by_point(form(PARAMS), 4) == [form(p) for p in ONE]

    def test_series_terms_used_run_point_by_point(self):
        batch = analytic.capacity_series(PARAMS)
        singles = [analytic.capacity_series(p).terms_used for p in ONE]
        assert batch.terms_used == tuple(n for used in singles for n in used)
        assert all(isinstance(n, int) for n in batch.terms_used)

    def test_dmt(self):
        assert analytic.dmt(SYMMETRIC, R) == [
            analytic.dmt(p, r) for p, r in zip(ONE_SYMMETRIC, R)
        ]

    def test_single_values_hold_at_every_point(self):
        assert analytic.outage_exact(PARAMS, ONE_TARGETS[0]) == [
            analytic.outage_exact(p, ONE_TARGETS[0]) for p in ONE
        ]

    def test_numpy_arrays_give_one_value_per_element(self):
        assert analytic.dmt(SYMMETRIC, np.array(R)) == analytic.dmt(SYMMETRIC, R)

    def test_one_point_gives_floats(self):
        assert type(analytic.outage_exact(ONE[0], ONE_TARGETS[0])) is float
        lower, upper = analytic.outage_bounds(ONE[0], ONE_TARGETS[0])
        assert type(lower) is float and type(upper) is float
        series = analytic.capacity_series(ONE[0])
        assert type(series.value) is float and len(series.terms_used) == 2

    @pytest.mark.parametrize("call", [
        lambda: analytic.outage_exact(EMPTY, NO_TARGETS),
        lambda: analytic.outage_bounds(EMPTY, NO_TARGETS),
        lambda: analytic.outage_high_snr(EMPTY, NO_TARGETS),
        lambda: analytic.non_coop_outage(EMPTY, NO_TARGETS),
        lambda: analytic.capacity_quadrature(EMPTY),
        lambda: analytic.capacity_bounds(EMPTY),
        lambda: analytic.non_coop_capacity(EMPTY),
        lambda: analytic.dmt(EMPTY, []),
        lambda: mc.estimate_outage(EMPTY, NO_TARGETS, 1000, 1),
        lambda: mc.estimate_capacity(EMPTY, 1000, 1, workers=2),
        lambda: mc.estimate_diversity_fd(EMPTY, [], 1000, 1),
    ])
    def test_empty_batch_gives_empty_result(self, call):
        assert call() in ([], ([], []), ([], [], []), mc.Estimate([], [], 1000, 1))

    def test_empty_series_batch(self):
        batch = analytic.capacity_series(EMPTY)
        assert batch.value == [] and batch.terms_used == ()


# A box where every closed form succeeds: SNR 0-30 dB, lambda 0.2-0.8 and
# d1 0.3-0.7 keep the series' mu/s below 2.
point = st.tuples(
    st.floats(0.0, 30.0), st.floats(0.2, 0.8), st.floats(0.3, 0.7), st.floats(0.5, 2.0),
    st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 1.0),
)
batch_settings = settings(max_examples=25, deadline=None, database=None)


def _batch(points: list, symmetric: bool = False):
    """The points as one-point calls' arguments and as columns; the first
    point's t1 is 0.  A symmetric batch has P2 = P1."""
    rows = [(10.0 ** (snr / 10.0), lam, d1, 1.0 if symmetric else scale, t1, t2, r)
            for snr, lam, d1, scale, t1, t2, r in points]
    rows[0] = rows[0][:4] + (0.0,) + rows[0][5:]
    ones = [(build_params(p, p * k, 1.0, 1.0, lam, 0.5, d1, 3.0),
             TargetRates.from_rates(t1, t2), r) for p, lam, d1, k, t1, t2, r in rows]
    p, lam, d1, k, t1, t2, r = map(list, zip(*rows))
    p2 = [a * b for a, b in zip(p, k)]
    m = len(rows)
    batch = (build_params(p, p2, 1.0, 1.0, lam, 0.5, d1, 3.0),
             TargetRates.from_rates(t1, t2), r)
    # the same batch with every field a column, the constant ones repeated
    columns = (build_params(p, p2, [1.0] * m, [1.0] * m, lam, [0.5] * m, d1, [3.0] * m),
               TargetRates.from_rates(t1, t2), r)
    return ones, batch, columns


OUTAGE_FORMS = ("outage_exact", "outage_bounds", "outage_high_snr", "non_coop_outage")
CAPACITY_FORMS = ("capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop_capacity")


@seed(20161)
@batch_settings
@given(st.lists(point, min_size=1, max_size=6))
def test_every_batch_equals_its_one_point_calls(points):
    ones, batch, columns = _batch(points)
    m = len(ones)
    for name in OUTAGE_FORMS:
        form = getattr(analytic, name)
        got = form(*batch[:2])
        assert by_point(got, m) == [form(p, t) for p, t, _ in ones], name
        assert form(*columns[:2]) == got, name
    for name in CAPACITY_FORMS:
        form = getattr(analytic, name)
        got = form(batch[0])
        assert by_point(got, m) == [form(p) for p, _, _ in ones], name
        assert form(columns[0]) == got, name
    ones, batch, columns = _batch(points, symmetric=True)
    got = analytic.dmt(batch[0], batch[2])
    assert got == [analytic.dmt(p, r) for p, _, r in ones]
    assert analytic.dmt(columns[0], columns[2]) == got
    r = batch[2][0]
    assert analytic.dmt(batch[0], r) == analytic.dmt(batch[0], [r] * m)


def _bits(output):
    """A closed form's output with every float as its hex: equal bits read equal."""
    if isinstance(output, float):
        return output.hex()
    if isinstance(output, (list, tuple)):
        return [_bits(v) for v in output]
    return output  # a CapacitySeries' terms_used entry


# A point of the box above, made symmetric (P1 = P2, d1 = 0.5, T1 = T2) when
# its flag is set: both directions of a symmetric point follow one SNR law.
mixed_point = st.tuples(st.booleans(), point)


def _mixed(points: list):
    """The points as one batch, and each as its one-point call's arguments."""
    rows = [(10.0 ** (snr / 10.0), lam, 0.5 if same else d1, 1.0 if same else k,
             t1, t1 if same else t2) for same, (snr, lam, d1, k, t1, t2, _) in points]
    ones = [(build_params(p, p * k, 1.0, 1.0, lam, 0.5, d1, 3.0), TargetRates.from_rates(t1, t2))
            for p, lam, d1, k, t1, t2 in rows]
    p, lam, d1, k, t1, t2 = map(list, zip(*rows))
    params = build_params(p, [a * b for a, b in zip(p, k)], 1.0, 1.0, lam, 0.5, d1, 3.0)
    return params, TargetRates.from_rates(t1, t2), ones


@seed(20163)
@batch_settings
@given(st.lists(mixed_point, min_size=1, max_size=6), st.permutations(OUTAGE_FORMS),
       st.permutations(CAPACITY_FORMS))
def test_a_family_on_one_shared_batch_keeps_every_bit(points, outage_order, capacity_order):
    # a sweep hands every closed form of its family one Shared, in the order
    # its methods list them: each output is the form's own call's, bit for
    # bit, whichever form forms a shared part first; and each point of a
    # batch that mixes symmetric and asymmetric points is its own call's
    params, targets, ones = _mixed(points)
    shared = analytic.Shared(params, targets)
    for name in outage_order:
        form = getattr(analytic, name)
        alone = form(params, targets)
        assert _bits(form(shared, targets)) == _bits(alone), name
        assert _bits(by_point(alone, len(ones))) == _bits([form(p, t) for p, t in ones]), name
    shared = analytic.Shared(params)
    for name in capacity_order:
        form = getattr(analytic, name)
        alone = form(params)
        assert _bits(form(shared)) == _bits(alone), name
        assert _bits(by_point(alone, len(ones))) == _bits([form(p) for p, _ in ones]), name


def test_a_shared_batch_takes_only_its_own_targets():
    shared = analytic.Shared(PARAMS, TARGETS)
    with pytest.raises(ParameterError, match="^a Shared's closed forms take its own targets$"):
        analytic.outage_exact(shared, TargetRates.from_rates([t.t1 for t in ONE_TARGETS],
                                                             [t.t2 for t in ONE_TARGETS]))


@seed(20162)
@settings(max_examples=6, deadline=None, database=None)
@given(st.lists(point, min_size=1, max_size=6), st.sampled_from([1, 2]))
def test_every_monte_carlo_batch_equals_its_one_point_calls(points, workers):
    n = (1 << 16) + 17
    ones, batch, columns = _batch(points)
    outage = mc.estimate_outage(*batch[:2], n, 5, workers=workers)
    singles = [mc.estimate_outage(p, t, n, 5) for p, t, _ in ones]
    assert outage == mc.Estimate(
        [e.mean for e in singles], [e.std_err for e in singles], n, 5)
    assert mc.estimate_outage(*columns[:2], n, 5, workers=workers) == outage
    capacity = mc.estimate_capacity(batch[0], n, 6, workers=workers)
    singles = [mc.estimate_capacity(p, n, 6) for p, _, _ in ones]
    assert capacity == mc.Estimate(
        [e.mean for e in singles], [e.std_err for e in singles], n, 6)
    assert mc.estimate_capacity(columns[0], n, 6, workers=workers) == capacity


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

    @pytest.mark.parametrize("d1, failing", [(0.9, 0), (0.1, 1)],
                             ids=["direction-1", "direction-2"])
    def test_first_of_several_failing_points_is_named(self, d1, failing):
        # one direction fails at the last two points, direction 1 near source
        # 2 and direction 2 near source 1; the error is the middle point's
        params = build_params(100.0, 100.0, 1.0, 1.0, 0.02, 0.5, [0.5, d1, d1], 3.0)
        with pytest.raises(ConvergenceError) as info:
            analytic.capacity_series(params)
        assert info.value.point == 1
        direction = analytic.directions(make_params(lam=0.02, d1=d1))[failing]
        assert f"s={direction.s:.3g}, mu={direction.mu:.3g}" in str(info.value)


class TestRaiseFirst:
    """A check holds one entry or one row of entries per point, and a point
    fails it where any entry of its row fails; the first failing point
    raises, with the error of the first check it fails."""

    @staticmethod
    def _raised(*checks):
        with pytest.raises(DomainError) as info:
            raise_first(*checks)
        return info.value.point, str(info.value)

    def test_one_entry_per_point(self):
        bad = np.array([False, False, True, True])
        assert self._raised((bad, lambda i: DomainError(f"point {i}"))) == (2, "point 2")

    def test_a_row_fails_where_any_of_its_entries_fails(self):
        bad = np.array([[False, False, False], [False, False, True], [True, True, False]])
        assert self._raised((bad, lambda i: DomainError(
            f"point {i}, entry {bad[i].argmax()}"))) == (1, "point 1, entry 2")

    def test_an_empty_batch_of_rows_passes(self):
        raise_first((np.zeros((0, 2), dtype=bool), lambda i: DomainError("no point")))

    @pytest.mark.parametrize("rows_first", [True, False])
    def test_rows_and_entries_share_the_point_order(self, rows_first):
        rows = (np.array([[False, False], [False, True], [True, True]]),
                lambda i: DomainError(f"rows at {i}"))
        entries = (np.array([False, True, True]), lambda i: DomainError(f"entries at {i}"))
        checks = (rows, entries) if rows_first else (entries, rows)
        # point 1 fails both: its error is that of the check it runs first
        assert self._raised(*checks) == (1, "rows at 1" if rows_first else "entries at 1")
        # a check run first that fails only a later point does not outrank it
        later = (np.array([False, False, True]), entries[1])
        assert self._raised(later, rows) == (1, "rows at 1")
