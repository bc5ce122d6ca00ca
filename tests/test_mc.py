"""Monte Carlo estimators: correctness, determinism, and error scaling."""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    cdf_z,
    draw_exponentials,
    empirical_cdf_z,
    end_to_end_snrs_exact_beta,
    estimate_rates,
    make_params,
    stack,
    symmetric_corner,
)

from twrelay import analytic, mc
from twrelay.config import ExperimentConfig
from twrelay.errors import DomainError, InsufficientSamplesError, ParameterError
from twrelay.mc import (
    CHUNK_DRAWS,
    Estimate,
    estimate_capacity,
    estimate_diversity_fd,
    estimate_outage,
)
from twrelay.model import (
    TargetRates,
    as_columns,
    build_params,
    derived_coeffs,
    end_to_end_snrs,
)
from twrelay.sweep import figure_preset, run_sweep

#: MC rows of four sweeps, frozen by data/make_golden_mc.py.
GOLDEN_MC = json.loads(
    (Path(__file__).parent / "data" / "golden_mc.json").read_text(encoding="utf-8")
)

# Enough samples to span several chunks so the ordered reduction is exercised.
N_MULTI_CHUNK = 3 * CHUNK_DRAWS + 1234


class TestEstimateOutage:
    def test_zero_targets_never_outage(self):
        est = estimate_outage(
            make_params(), TargetRates.from_rates(0.0, 0.0), 10_000, seed=1
        )
        assert est.mean == 0.0

    def test_huge_targets_always_outage(self):
        est = estimate_outage(
            make_params(), TargetRates.from_rates(25.0, 25.0), 10_000, seed=1
        )
        assert est.mean == 1.0

    def test_matches_closed_form(self):
        params = make_params()
        targets = TargetRates.from_rates(1.0, 1.0)
        est = estimate_outage(params, targets, 1_000_000, seed=2024)
        exact = analytic.outage_exact(params, targets)
        assert abs(est.mean - exact) <= 3.0 * est.std_err

    def test_worker_count_invariance(self):
        params = make_params(snr_db=10.0)
        targets = TargetRates.from_rates(1.0, 1.0)
        results = [
            estimate_outage(params, targets, N_MULTI_CHUNK, seed=9, workers=w)
            for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_exact_beta_mode_runs_and_stays_in_range(self):
        # keeping the dropped noise terms can only degrade the SNR: compare
        # both SNR forms sample by sample on the draws estimate_outage makes
        params = make_params(snr_db=10.0)
        targets = TargetRates.from_rates(1.0, 1.0)
        n = 100_000
        counts = {"canonical": 0, "exact": 0}
        for k, size in enumerate(mc._chunk_sizes(n)):
            e1, e2 = draw_exponentials(5, k, size)
            g1, g2 = params.omega1 * e1, params.omega2 * e2
            forms = {
                "canonical": end_to_end_snrs(params, g1, g2),
                "exact": end_to_end_snrs_exact_beta(params, g1, g2),
            }
            for direction in (0, 1):
                assert np.all(forms["exact"][direction] <= forms["canonical"][direction])
            for name, (gamma1, gamma2) in forms.items():
                counts[name] += int(
                    np.count_nonzero((gamma1 < targets.tau1) | (gamma2 < targets.tau2))
                )
        approx = estimate_outage(params, targets, n, seed=5)
        assert counts["canonical"] / n == approx.mean
        exact = counts["exact"] / n
        assert 0.0 <= exact <= 1.0
        assert exact >= approx.mean


class TestEstimateCapacity:
    def test_starved_relay_has_no_rate(self):
        est = estimate_capacity(make_params(lam=1e-6), 50_000, seed=3)
        assert est.mean < 1e-2

    def test_symmetric_setup_balances_directions(self):
        r1, r2 = estimate_rates(make_params(), 1_000_000, seed=4)
        assert abs(r1.mean - r2.mean) <= 3.0 * math.hypot(r1.std_err, r2.std_err)

    def test_matches_quadrature(self):
        params = make_params(lam=0.5)
        est = estimate_capacity(params, 1_000_000, seed=6)
        assert abs(est.mean - analytic.capacity_quadrature(params)) <= 3.0 * est.std_err

    def test_worker_count_invariance(self):
        params = make_params()
        results = [
            estimate_capacity(params, N_MULTI_CHUNK, seed=8, workers=w)
            for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]


class TestEmpiricalCdfZ:
    def test_zero_point(self):
        rows = empirical_cdf_z(1.0, 2.5, 4.0 / 3.0, 8.0, 8.0, [0.0, 1.0], 10_000, seed=1)
        assert rows[0] == (0.0, 0.0)

    def test_matches_closed_form(self):
        a, b, c, om1, om2 = 100.0, 2.5, 4.0 / 3.0, 8.0, 8.0
        grid = list(np.linspace(0.0, 4000.0, 80))
        rows = empirical_cdf_z(a, b, c, om1, om2, grid, 1_000_000, seed=12)
        worst = max(
            abs(f_hat - cdf_z(z, a, b, c, om1, om2)) for z, f_hat in rows
        )
        assert worst < 0.005

    def test_no_amplification_noise_reduction(self):
        # b = 0 collapses Z to a*X*Y/c with a pure-Bessel CDF
        a, c, om1, om2 = 10.0, 2.0, 4.0, 2.0
        grid = list(np.linspace(0.0, 300.0, 50))
        rows = empirical_cdf_z(a, 0.0, c, om1, om2, grid, 400_000, seed=13)
        worst = max(
            abs(f_hat - cdf_z(z, a, 0.0, c, om1, om2)) for z, f_hat in rows
        )
        assert worst < 0.005

    def test_nondecreasing(self):
        grid = list(np.linspace(0.0, 500.0, 64))
        rows = empirical_cdf_z(50.0, 1.5, 2.0, 8.0, 8.0, grid, 200_000, seed=14)
        values = [f for _, f in rows]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0


class TestEstimateDiversityFd:
    def test_degenerate_threshold_rejected(self):
        with pytest.raises(ParameterError):
            estimate_diversity_fd(make_params(), 0.0, n=10_000, seed=1)

    def test_asymmetric_powers_rejected_like_the_closed_form(self):
        # the stencil once set both powers from the SNR, so p2 went unread
        params = make_params(p2_scale=0.5)
        with pytest.raises(ParameterError, match="symmetric powers") as estimate:
            estimate_diversity_fd(params, 0.5, n=200_000, seed=1)
        with pytest.raises(ParameterError) as closed_form:
            analytic.dmt(params, 0.5)
        assert str(estimate.value) == str(closed_form.value)

    def test_nonpositive_multiplexing_gain_rejected_like_the_closed_form(self):
        # one check, model.check_multiplexing_gain, serves both
        params = make_params()
        with pytest.raises(ParameterError, match="multiplexing gain must be positive") as estimate:
            estimate_diversity_fd(params, 0.0, n=200_000, seed=1)
        with pytest.raises(ParameterError) as closed_form:
            analytic.dmt(params, 0.0)
        assert str(estimate.value) == str(closed_form.value)

    def test_matches_closed_form_within_combined_error(self):
        params = make_params()
        est = estimate_diversity_fd(params, 0.5, n=1_000_000, seed=3)
        formula = analytic.dmt(params, 0.5)
        assert abs(est.mean - formula) <= 3.0 * est.std_err

    def test_std_err_follows_sqrt_n_law(self):
        # doubling n scales the underlying standard errors by 1/sqrt(2)
        params = make_params(snr_db=10.0)
        targets = TargetRates.from_rates(1.0, 1.0)
        small = estimate_outage(params, targets, 400_000, seed=21)
        large = estimate_outage(params, targets, 800_000, seed=21)
        ratio = large.std_err / small.std_err
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.10)

    def test_too_few_events_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            estimate_diversity_fd(make_params(), 0.05, n=2_000, seed=1)

    def test_snr_past_the_float_range_is_a_domain_error(self):
        # P/sigma2 overflows to inf: the stencil names its SNR, where it once
        # blamed target rates that the caller never gave
        params = build_params(1e300, 1e300, 1e-300, 1, 0.5, 0.5, 0.5, 3)
        with pytest.raises(DomainError, match=r"gamma_db=inf \(r=0.5\)"):
            estimate_diversity_fd(params, 0.5, n=2_000, seed=1)

    def test_stencil_thresholds_are_the_closed_forms(self, monkeypatch):
        # each stencil point's tau is (1+gamma)^r - 1 as analytic.dmt forms
        # it, bit for bit; with sigma2 = 1 the stencil's power is its gamma
        seen = []

        def fake(params, targets, n, seed, workers=1):
            seen.append((params, targets))
            return Estimate([0.5] * len(targets.tau1), [0.01] * len(targets.tau1), n, seed)

        monkeypatch.setattr(mc, "estimate_outage", fake)
        snrs = np.arange(-20.0, 60.5, 0.5)
        params = stack([make_params(snr_db=s) for s in snrs])
        coeffs = derived_coeffs(make_params())
        for r in (0.05, 0.5, 1.0, 1.5):
            estimate_diversity_fd(params, [r] * len(snrs), n=10_000, seed=0)
            stencil, targets = seen.pop()
            assert len(targets.tau1) == 2 * len(snrs)
            for gamma, tau1, tau2 in zip(stencil.p1.tolist(), targets.tau1.tolist(),
                                         targets.tau2.tolist()):
                expected = symmetric_corner(r, gamma, coeffs).tau
                assert tau1 == tau2 == expected, (r, gamma)

    def test_worker_count_invariance(self):
        params = make_params()
        results = [
            estimate_diversity_fd(params, 0.5, n=N_MULTI_CHUNK, seed=17, workers=w)
            for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]


class TestDeterminismContract:
    def test_rerun_bit_identical(self):
        params = make_params()
        targets = TargetRates.from_rates(1.0, 1.0)
        a = estimate_outage(params, targets, N_MULTI_CHUNK, seed=99)
        b = estimate_outage(params, targets, N_MULTI_CHUNK, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        params = make_params()
        targets = TargetRates.from_rates(1.0, 1.0)
        a = estimate_outage(params, targets, 100_000, seed=1)
        b = estimate_outage(params, targets, 100_000, seed=2)
        assert a.mean != b.mean

    @staticmethod
    def _thread_ids(monkeypatch, chunks, workers):
        """The threads that ran each outage kernel, once per half chunk, and
        that made each workspace, in an ``estimate_outage`` call over
        ``chunks`` chunks."""
        kernels, workspaces = [], []
        outage_count, empty = mc._outage_count, mc._Workspace.empty

        def counting(*args):
            kernels.append(threading.get_ident())
            return outage_count(*args)

        def making(size):
            workspaces.append(threading.get_ident())
            return empty(size)

        monkeypatch.setattr(mc, "_outage_count", counting)
        monkeypatch.setattr(mc._Workspace, "empty", staticmethod(making))
        estimate_outage(make_params(), TargetRates.from_rates(1.0, 1.0),
                        chunks * CHUNK_DRAWS, seed=5, workers=workers)
        return kernels, workspaces

    @pytest.mark.parametrize("workers, chunks", [(1, 3), (4, 1)])
    def test_one_lane_runs_on_the_calling_thread(self, monkeypatch, workers, chunks):
        kernels, workspaces = self._thread_ids(monkeypatch, chunks, workers)
        assert kernels == [threading.get_ident()] * (2 * chunks)
        assert workspaces == [threading.get_ident()]

    @pytest.mark.parametrize("workers, chunks", [(3, 2), (2, 5)])
    def test_each_lane_owns_a_workspace_made_on_the_calling_thread(
        self, monkeypatch, workers, chunks
    ):
        kernels, workspaces = self._thread_ids(monkeypatch, chunks, workers)
        lanes = min(workers, chunks)
        assert workspaces == [threading.get_ident()] * lanes
        assert len(kernels) == 2 * chunks and len(set(kernels)) <= lanes

    # n spans one partial chunk, whole chunks and a remainder chunk
    @seed(20171)
    @settings(max_examples=8, deadline=None, database=None)
    @given(
        n=st.integers(1, 3 * CHUNK_DRAWS + 17),
        seed=st.integers(0, 2**32 - 1),
        workers=st.integers(1, 4),
    )
    @example(n=1, seed=0, workers=2)
    @example(n=CHUNK_DRAWS, seed=0, workers=2)
    @example(n=3 * CHUNK_DRAWS + 17, seed=0, workers=4)
    def test_estimates_do_not_depend_on_workers(self, n, seed, workers):
        params = make_params(snr_db=10.0)
        targets = TargetRates.from_rates(1.0, 1.0)
        assert estimate_outage(params, targets, n, seed, workers) == estimate_outage(
            params, targets, n, seed
        )
        assert estimate_capacity(params, n, seed, workers) == estimate_capacity(
            params, n, seed
        )


class TestBatchedDraws:
    @pytest.mark.parametrize("omega", [1e-3, 0.37, 1.0, 8.0, 123.456, 1e6])
    def test_scaled_unit_draws_are_numpys_exponential(self, omega):
        # numpy's exponential(omega) is omega * standard_exponential, bit for bit
        unit = mc._chunk_rng(5, 3).standard_exponential(CHUNK_DRAWS)
        direct = mc._chunk_rng(5, 3).exponential(omega, CHUNK_DRAWS)
        assert np.array_equal(omega * unit, direct)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN_MC))
    def test_sweep_reproduces_frozen_bits(self, name, workers):
        entry = GOLDEN_MC[name]
        fields = dict(entry["config"], methods=tuple(entry["config"]["methods"]))
        config = ExperimentConfig(**fields, workers=workers)
        rows = run_sweep(config, write=False).rows
        got = [[r.value.hex(), r.std_err.hex()] for r in rows if r.method == "mc"]
        assert got == entry["mc"]

    def test_sweep_draws_each_chunk_once(self, monkeypatch):
        built = []
        true_rng = mc._chunk_rng

        def counting(seed, chunk):
            built.append(chunk)
            return true_rng(seed, chunk)

        monkeypatch.setattr(mc, "_chunk_rng", counting)
        run_sweep(figure_preset(2, n=2 * CHUNK_DRAWS + 1), write=False)
        assert sorted(built) == [0, 1, 2]

    def test_batch_matches_one_call_per_point(self):
        # different d1 gives different fading means, so different scalings
        params = [make_params(d1=0.3), make_params(d1=0.5), make_params(d1=0.3, snr_db=10.0)]
        targets = [TargetRates.from_rates(1.0, 1.0), TargetRates.from_rates(0.5, 2.0),
                   TargetRates.from_rates(1.0, 1.0)]
        batch = estimate_outage(stack(params), stack(targets), N_MULTI_CHUNK, seed=31, workers=2)
        singles = [estimate_outage(p, t, N_MULTI_CHUNK, seed=31) for p, t in zip(params, targets)]
        assert batch == Estimate([e.mean for e in singles], [e.std_err for e in singles],
                                 N_MULTI_CHUNK, 31)
        rates = estimate_capacity(stack(params), N_MULTI_CHUNK, seed=32)
        singles = [estimate_capacity(p, N_MULTI_CHUNK, seed=32) for p in params]
        assert rates == Estimate([e.mean for e in singles], [e.std_err for e in singles],
                                 N_MULTI_CHUNK, 32)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_numerators_match_one_call_per_point(self, workers):
        batch = estimate_outage(stack(NUMERATOR_BATCH), stack(NUMERATOR_TARGETS), N_PARTIAL,
                                seed=33, workers=workers)
        singles = [estimate_outage(p, t, N_PARTIAL, seed=33)
                   for p, t in zip(NUMERATOR_BATCH, NUMERATOR_TARGETS)]
        assert batch == Estimate([e.mean for e in singles], [e.std_err for e in singles],
                                 N_PARTIAL, 33)
        rates = estimate_capacity(stack(NUMERATOR_BATCH), N_PARTIAL, seed=34, workers=workers)
        singles = [estimate_capacity(p, N_PARTIAL, seed=34) for p in NUMERATOR_BATCH]
        assert rates == Estimate([e.mean for e in singles], [e.std_err for e in singles],
                                 N_PARTIAL, 34)

    def test_numpy_array_gives_one_value_per_element(self):
        # an array column once counted as one value and failed on its truth value
        params = stack([make_params(snr_db=10.0), make_params(snr_db=15.0)])
        as_list = estimate_diversity_fd(params, [0.5, 0.5], n=20_000, seed=3)
        as_array = estimate_diversity_fd(params, np.array([0.5, 0.5]), n=20_000, seed=3)
        assert len(as_array.mean) == 2 and as_array == as_list

    def test_one_value_holds_at_every_point(self):
        params = make_params()
        targets = TargetRates.from_rates([0.5, 1.0], [0.5, 1.0])
        batch = estimate_outage(params, targets, 10_000, seed=1)
        assert len(batch.mean) == len(batch.std_err) == 2 and batch.n == 10_000
        one = estimate_outage(params, TargetRates.from_rates(1.0, 1.0), 10_000, seed=1)
        assert type(one.mean) is float and type(one.std_err) is float
        assert (batch.mean[1], batch.std_err[1]) == (one.mean, one.std_err)

    def test_point_sequences_must_agree_in_length(self):
        params = build_params(100, 100, 1, 1, [0.5, 0.75], 0.5, 0.5, 3)
        with pytest.raises(ParameterError, match="differ in length"):
            estimate_outage(params, TargetRates.from_rates([1, 1, 1], 1), 100, 1)

    def test_no_points_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(mc, "_chunk_rng", None)
        empty = build_params([], [], 1, 1, [], 0.5, 0.5, 3)
        assert estimate_capacity(empty, 1000, seed=1) == Estimate([], [], 1000, 1)


#: A batch that exercises every share of a chunk's work: d1 0.3 and 0.5 give
#: two pairs of fading means; within d1 = 0.5, three SNRs share one (b, c)
#: and lambda 0.4 gives another.
SHARED_BATCH = [
    make_params(d1=0.3),
    make_params(d1=0.5),
    make_params(d1=0.5, snr_db=10.0),
    make_params(d1=0.5, snr_db=25.0),
    make_params(d1=0.5, lam=0.4),
    make_params(d1=0.3, lam=0.4, snr_db=5.0),
]
SHARED_TARGETS = [TargetRates.from_rates(t, 2.0 - t) for t in (1.0, 0.5, 1.0, 1.5, 0.8, 1.2)]
# two whole chunks and a partial one, split in halves
N_PARTIAL = 2 * CHUNK_DRAWS + 4321

#: A batch on which the numerator a*g1*g2 is both reused and formed again.
#: At d1 = 0.5, lambda 0.3, 0.5 and 0.75 give three (b, c), run in turn, each
#: with its two-direction points first: scale 100 (20 dB) carries over from
#: lambda 0.3 to 0.5, and 10 and 20 dB alternate after that.  The p2_scale
#: points take the two-direction path, with tied targets or not, and d1 = 0.3
#: brings new gains with the scale that the d1 = 0.5 group formed last.
NUMERATOR_BATCH = [
    make_params(lam=0.3),
    make_params(lam=0.5),
    make_params(lam=0.75),
    make_params(lam=0.5, snr_db=10.0),
    make_params(lam=0.5, p2_scale=0.4),
    make_params(lam=0.75, snr_db=10.0),
    make_params(lam=0.3),
    make_params(lam=0.75, p2_scale=2.5),
    make_params(d1=0.3, lam=0.5, snr_db=10.0),
]
NUMERATOR_TARGETS = [TargetRates.from_rates(t1, t2) for t1, t2 in (
    (1.0, 1.0), (1.0, 1.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.5, 1.0),
    (1.0, 0.5), (1.0, 1.0),
)]


def _plain_chunk_sums(params, targets, n, seed):
    """Per point, the outage count and the sum-rate (sum, sum of squares)
    from the plain array expressions on each chunk's draws."""
    counts = [0] * len(params)
    sums = [[0.0, 0.0] for _ in params]
    for k, size in enumerate(mc._chunk_sizes(n)):
        e1, e2 = draw_exponentials(seed, k, size)
        for i, (p, t) in enumerate(zip(params, targets)):
            gamma1, gamma2 = end_to_end_snrs(p, p.omega1 * e1, p.omega2 * e2)
            counts[i] += int(np.count_nonzero((gamma1 < t.tau1) | (gamma2 < t.tau2)))
            total = 0.5 / mc.LN2 * np.log1p(gamma1) + 0.5 / mc.LN2 * np.log1p(gamma2)
            sums[i][0] += float(np.sum(total))
            sums[i][1] += float(np.sum(total * total))
    return counts, sums


class TestChunkWorkspace:
    # a lone chunk shows its own sums' bits: 128 draws run whole, and 131
    # split at 64, below 131 // 2
    @pytest.mark.parametrize("workers, n", [
        pytest.param(1, N_PARTIAL, id="1"),
        pytest.param(2, N_PARTIAL, id="2"),
        *(pytest.param(w, n, id=f"{w}-{n}") for n in (128, 131) for w in (1, 2)),
    ])
    def test_shared_buffered_kernels_are_bit_equal(self, workers, n):
        counts, sums = _plain_chunk_sums(SHARED_BATCH, SHARED_TARGETS, n, 41)
        outage = estimate_outage(stack(SHARED_BATCH), stack(SHARED_TARGETS), n, 41, workers)
        assert [m.hex() for m in outage.mean] == [(c / n).hex() for c in counts]
        capacity = estimate_capacity(stack(SHARED_BATCH), n, 41, workers)
        means, errs = mc._mean_and_error(*np.transpose(sums), n)
        assert capacity == Estimate(means.tolist(), errs.tolist(), n, 41)

    def test_e1_holds_a_chunk_and_every_other_buffer_a_half(self):
        ws = mc._Workspace.empty(CHUNK_DRAWS)
        half = len(ws.e2)
        assert len(ws.e1) == CHUNK_DRAWS
        assert all(len(buf) == half for buf in ws[1:])
        assert CHUNK_DRAWS // 2 <= half < CHUNK_DRAWS // 2 + 8
        # the halves of every chunk size tile the chunk and fit the workspace
        for n in range(1, CHUNK_DRAWS + 1):
            halves = mc._halves(n)
            assert halves[0][0] == 0 and halves[-1][1] == n
            assert all(stop - start <= half for start, stop in halves)
            if len(halves) == 2:
                assert halves[0][1] == halves[1][0]
        # a chunk of at most 128 draws runs whole, in buffers of its size
        assert mc._halves(128) == [(0, 128)]
        assert [len(buf) for buf in mc._Workspace.empty(100)] == [100] * len(ws)

    # numpy's pairwise np.sum splits n > 128 floats at h, a multiple of 8
    # near n/2, and sums each side alone: a half's sum is a sum of numpy's own
    @seed(2113)
    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(129, CHUNK_DRAWS), draw_seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    @example(n=129, draw_seed=0, scale=1.0)
    @example(n=136, draw_seed=0, scale=1.0)
    @example(n=CHUNK_DRAWS - 1, draw_seed=0, scale=1.0)
    @example(n=CHUNK_DRAWS, draw_seed=0, scale=1.0)
    def test_sum_is_the_sum_of_its_halves(self, n, draw_seed, scale):
        (_, h), (_, stop) = mc._halves(n)
        assert stop == n and h == n // 2 - (n // 2) % 8
        x = scale * np.random.default_rng(draw_seed).standard_exponential(n)
        for values in (x, x * x):
            assert np.sum(values) == np.sum(values[:h]) + np.sum(values[h:])

    @pytest.mark.parametrize("size", [129, 4321, CHUNK_DRAWS - 1, CHUNK_DRAWS])
    def test_halves_of_e2_after_a_whole_e1_are_one_whole_draw(self, size):
        whole = draw_exponentials(7, 2, size)
        rng = mc._chunk_rng(7, 2)
        e1 = rng.standard_exponential(size)
        e2 = np.concatenate([rng.standard_exponential(stop - start)
                             for start, stop in mc._halves(size)])
        assert e1.tobytes() == whole[0].tobytes() and e2.tobytes() == whole[1].tobytes()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts Linux minor page faults"
    )
    def test_no_allocation_per_point(self):
        # a fresh chunk-sized temporary is a fresh mapping, paid in page faults
        # on first touch; the workspace is touched once per call whatever the
        # number of points
        import resource

        def faults(params):
            _, params, _ = as_columns(params)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            mc._map_points(mc._rate_sums, np.zeros((2, params.p1.size)), params,
                           [None] * params.p1.size, 5 * CHUNK_DRAWS, 3, 1)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        one = faults(make_params())
        many = faults(build_params(100, 100, 1, 1, np.linspace(0.05, 0.95, 19), 0.5, 0.5, 3))
        assert many <= 2 * one, (many, one)


STENCIL_PARAMS = stack([make_params(snr_db=20.0), make_params(snr_db=30.0)])


class TestDiversityStencilErrors:
    """The first failing stencil point is named: points in order, the higher
    SNR of each point before the lower."""

    @staticmethod
    def _with_events(monkeypatch, events):
        # events: outage events per stencil point, as estimate_outage orders them
        def fake(params, targets, n, seed, workers=1):
            assert len(params.p1) == len(targets.tau1) == len(events)
            return Estimate([e / n for e in events], [0.01] * len(events), n, seed)

        monkeypatch.setattr(mc, "estimate_outage", fake)

    def test_higher_stencil_point_checked_first(self, monkeypatch):
        self._with_events(monkeypatch, [500, 800, 50, 60])
        with pytest.raises(InsufficientSamplesError, match="50 outage events at gamma_db=30.2") as info:
            estimate_diversity_fd(STENCIL_PARAMS, 0.5, n=10_000, seed=0)
        assert info.value.point == 1

    def test_lower_stencil_point_named_when_only_it_fails(self, monkeypatch):
        self._with_events(monkeypatch, [500, 800, 200, 60])
        with pytest.raises(InsufficientSamplesError, match="60 outage events at gamma_db=29.8") as info:
            estimate_diversity_fd(STENCIL_PARAMS, 0.5, n=10_000, seed=0)
        assert info.value.point == 1

    def test_first_failing_point_wins(self, monkeypatch):
        self._with_events(monkeypatch, [500, 90, 50, 60])
        with pytest.raises(InsufficientSamplesError, match="gamma_db=19.8") as info:
            estimate_diversity_fd(STENCIL_PARAMS, 0.5, n=10_000, seed=0)
        assert info.value.point == 0

    def test_saturated_stencil_point_is_named(self, monkeypatch):
        # nearly every draw an outage: the difference of logs would read 0
        self._with_events(monkeypatch, [500, 800, 9_950, 9_990])
        with pytest.raises(InsufficientSamplesError,
                           match="only 50 non-outage samples at gamma_db=30.2") as info:
            estimate_diversity_fd(STENCIL_PARAMS, 0.5, n=10_000, seed=0)
        assert info.value.point == 1
