"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred, and a failing criterion
prints its measured values.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from data.make_golden_presets import DENSE, dense_config
from helpers import (
    cdf_z,
    central_diff,
    corner_point,
    corner_point_root_solve,
    corner_residual,
    digamma_nat,
    empirical_cdf_z,
    harmonic_number,
    make_params,
    outage_exact_quadpack,
    tricomi_psi,
    y0_without_cross_term,
)

from twrelay import mc
from twrelay.analytic import (
    capacity_bounds,
    capacity_quadrature,
    capacity_series,
    dmt,
    dmt_coefficients,
    outage_bounds,
    outage_exact,
    outage_high_snr,
    x0_symmetric,
)
from twrelay.model import TargetRates, derived_coeffs
from twrelay.specfun import EULER_GAMMA, bessel_xk1, exp_integral_e1, tricomi_psi11
from twrelay.sweep import figure_preset, run_sweep


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_c01_fading_cdf_matches_simulation():
    """Closed-form CDF of Z = a*X*Y/(b*X+c) vs empirical CDF: KS < 0.005."""
    rng = np.random.default_rng(4101)
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(0.1, 0.9)
        snr_db = rng.uniform(0.0, 30.0)
        d1 = rng.uniform(0.2, 0.8)
        params = make_params(snr_db=snr_db, lam=lam, d1=d1)
        coeffs = derived_coeffs(params)
        a = params.p2 / params.sigma2
        z_hi = 10.0 * a * params.omega2 / coeffs.b
        grid = np.linspace(0.0, z_hi, 200)
        rows = empirical_cdf_z(
            a, coeffs.b, coeffs.c, params.omega1, params.omega2,
            grid, 1_000_000, seed=int(rng.integers(1 << 30)),
        )
        ks = max(
            abs(f_hat - cdf_z(z, a, coeffs.b, coeffs.c, params.omega1, params.omega2))
            for z, f_hat in rows
        )
        worst = max(worst, ks)
    ok = worst < 0.005
    assert report("C1 fading-CDF vs simulation", ok, f"worst KS = {worst:.5f} (< 0.005)")


def test_c02_exact_outage_grid_agreement():
    """Exact outage vs MC at 3*std_err on the outage preset grid, plus the
    strip rule staying within 1e-3 of the adaptive QUADPACK reference."""
    targets = TargetRates.from_rates(1.0, 1.0)
    mc_ok = True
    mc_detail = []
    gaps = {}
    for snr_db in np.linspace(0.0, 30.0, 7):
        params = make_params(snr_db=float(snr_db))
        reference = outage_exact(params, targets)
        est = mc.estimate_outage(params, targets, 1_000_000, seed=1001)
        mc_ok &= abs(est.mean - reference) <= 3.0 * est.std_err
        mc_detail.append(f"{snr_db:.0f}dB:{abs(est.mean - reference) / est.std_err:.2f}se")
        gaps[float(snr_db)] = abs(outage_exact_quadpack(params, targets) - reference)
    assert report(
        "C2a exact outage vs MC", mc_ok, "gaps " + " ".join(mc_detail) + " (<= 3se)"
    )
    rule_ok = max(gaps.values()) < 1e-3
    report(
        "C2b strip rule vs QUADPACK",
        rule_ok,
        "absolute gaps " + " ".join(f"{k:.0f}dB:{v:.2e}" for k, v in gaps.items()),
    )
    assert mc_ok
    assert rule_ok, (
        f"strip-rule outage deviates from the QUADPACK reference by "
        f"{max(gaps.values()):.2e} (> 1e-3) on the 0-30 dB grid (see gaps above)"
    )


def test_c03_outage_bound_chain():
    """Lower <= exact(quadrature) <= upper with 1e-9 slack over a random
    sweep; asymmetric bound gap < 0.05 at 20 dB."""
    rng = np.random.default_rng(4303)
    targets = TargetRates.from_rates(1.0, 1.0)
    worst_violation = 0.0
    for _ in range(200):
        params = make_params(
            snr_db=float(rng.uniform(0.0, 40.0)),
            lam=float(rng.uniform(0.05, 0.95)),
            d1=float(rng.uniform(0.1, 0.9)),
        )
        lower, upper = outage_bounds(params, targets)
        exact = outage_exact(params, targets)
        worst_violation = max(worst_violation, lower - exact, exact - upper)
    chain_ok = worst_violation <= 1e-9
    gaps = []
    for d1, (t1, t2) in (((0.3), (1.0, 1.0)), ((0.3), (1.5, 1.0)), ((0.5), (1.5, 1.0))):
        params = make_params(snr_db=20.0, d1=d1)
        asym_targets = TargetRates.from_rates(t1, t2)
        lower, upper = outage_bounds(params, asym_targets)
        gaps.append(upper - lower)
    gap_ok = max(gaps) < 0.05
    ok = chain_ok and gap_ok
    assert report(
        "C3 outage bound chain",
        ok,
        f"worst chain violation = {worst_violation:.2e} (<= 1e-9); "
        f"asymmetric 20 dB gaps = {[f'{g:.4f}' for g in gaps]} (< 0.05)",
    )


def test_c04_high_snr_limit_relative_gap():
    """High-SNR outage asymptote vs exact(quadrature) at 40 dB: relative gap < 5%."""
    params = make_params(snr_db=40.0)
    targets = TargetRates.from_rates(1.0, 1.0)
    exact = outage_exact(params, targets)
    limit = outage_high_snr(params, targets)
    rel_gap = abs(limit - exact) / exact
    ok = rel_gap < 0.05
    report(
        "C4 high-SNR limit",
        ok,
        f"exact = {exact:.6g}, limit = {limit:.6g}, relative gap = {rel_gap:.1%} (< 5%)",
    )
    assert ok, (
        f"the high-SNR asymptote keeps a {rel_gap:.1%} relative gap at 40 dB "
        f"(absolute gap |{limit - exact:.2e}|); a first-order asymptote's "
        f"relative gap must vanish as the SNR grows"
    )


def test_c05_capacity_consistency():
    """Series capacity vs quadrature (rel 1e-3); quadrature vs MC at 3se on
    the capacity preset grid."""
    series_ok = True
    series_detail = []
    for lam in (0.3, 0.5, 0.75):
        params = make_params(lam=lam)
        series = capacity_series(params).value
        reference = capacity_quadrature(params)
        rel = abs(series - reference) / reference
        series_ok &= rel < 1e-3
        series_detail.append(f"lam={lam}:{rel:.1e}")
    mc_ok = True
    mc_detail = []
    for lam in np.linspace(0.05, 0.95, 19):
        params = make_params(lam=float(lam))
        est = mc.estimate_capacity(params, 1_000_000, seed=1002)
        reference = capacity_quadrature(params)
        ratio = abs(est.mean - reference) / est.std_err
        mc_ok &= ratio <= 3.0
        if ratio > 2.0:
            mc_detail.append(f"lam={lam:.2f}:{ratio:.2f}se")
    ok = series_ok and mc_ok
    assert report(
        "C5 capacity consistency",
        ok,
        f"series-vs-quadrature {' '.join(series_detail)} (< 1e-3); "
        f"MC within 3se on 19-point grid"
        + (f" (closest: {' '.join(mc_detail)})" if mc_detail else ""),
    )


def test_c06_capacity_bound_chain():
    """lower <= C_e <= tight <= loose on the capacity grid; loose bound within
    10% at lam = 0.8 and worse at lam = 0.1."""
    ok = True
    for lam in np.linspace(0.05, 0.95, 19):
        params = make_params(lam=float(lam))
        bounds = capacity_bounds(params)
        exact = capacity_quadrature(params)
        ok &= bounds.lower <= exact + 1e-9
        ok &= exact <= bounds.tight_upper + 1e-9
        ok &= bounds.tight_upper <= bounds.loose_upper + 1e-9
    rel_gap = {}
    for lam in (0.1, 0.8):
        params = make_params(lam=lam)
        exact = capacity_quadrature(params)
        rel_gap[lam] = (capacity_bounds(params).loose_upper - exact) / exact
    ok &= rel_gap[0.8] < 0.10
    ok &= rel_gap[0.1] > rel_gap[0.8]
    assert report(
        "C6 capacity bound chain",
        ok,
        f"ordering holds on 19-point grid; loose-bound gap {rel_gap[0.8]:.1%} at "
        f"lam=0.8 (< 10%) vs {rel_gap[0.1]:.1%} at lam=0.1 (larger)",
    )


def test_c07_diversity_self_consistency():
    """Diversity formula equals the finite-difference log-slope of the lower
    bound (rel 1e-3); its coefficient closed forms match finite differences
    (rel 1e-4)."""
    params = make_params()
    coeffs = derived_coeffs(params)

    def lower_bound(r, gamma):
        point = make_params(snr_db=10.0 * math.log10(gamma))
        return outage_bounds(point, TargetRates.from_multiplexing_gain(r, gamma))[0]

    worst_d = 0.0
    for r in (0.25, 0.5, 0.75):
        for snr_db in (10.0, 15.0, 20.0):
            gamma = 10.0 ** (snr_db / 10.0)
            fd = -gamma * central_diff(
                lambda g: math.log(lower_bound(r, g)), gamma, 1e-5 * gamma
            )
            rel = abs(dmt(make_params(snr_db=snr_db), r) - fd) / abs(fd)
            worst_d = max(worst_d, rel)
    worst_ab = 0.0
    for r in (0.25, 0.5, 0.75):
        for gamma in (10.0, 100.0, 1000.0):
            a_val, b_val = dmt_coefficients(r, gamma, coeffs)
            h = 1e-4 * gamma
            fd_a = central_diff(lambda g: x0_symmetric(r, g, coeffs), gamma, h)
            fd_b = central_diff(lambda g: ((1 + g) ** r - 1) / g, gamma, h)
            worst_ab = max(
                worst_ab, abs(a_val - fd_a) / abs(fd_a), abs(b_val - fd_b) / abs(fd_b)
            )
    ok = worst_d < 1e-3 and worst_ab < 1e-4
    assert report(
        "C7 diversity self-consistency",
        ok,
        f"worst formula-vs-fd gap = {worst_d:.2e} (< 1e-3); worst coefficient "
        f"gap = {worst_ab:.2e} (< 1e-4)",
    )


def test_c08_diversity_grows_with_snr():
    """d(r = 0.5, gamma) strictly increasing over 5..20 dB."""
    values = [dmt(make_params(snr_db=s), 0.5) for s in (5, 10, 15, 20)]
    ok = all(a < b for a, b in zip(values, values[1:]))
    assert report(
        "C8 diversity vs SNR",
        ok,
        "d = " + " ".join(f"{v:.4f}" for v in values) + " (strictly increasing)",
    )


def test_c09_capacity_unimodal_in_split_ratio():
    """Capacity vs lambda (step 0.05) is unimodal with argmax in [0.3, 0.6]."""
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    values = [capacity_quadrature(make_params(lam=lam)) for lam in grid]
    diffs = np.sign(np.diff(values))
    nonzero = diffs[diffs != 0]
    sign_changes = int(np.sum(np.diff(nonzero) != 0))
    argmax = grid[int(np.argmax(values))]
    ok = sign_changes <= 1 and 0.3 <= argmax <= 0.6
    assert report(
        "C9 capacity unimodality",
        ok,
        f"argmax lambda = {argmax} in [0.3, 0.6]; {sign_changes} slope sign change",
    )


def test_c10_diversity_peak_tracks_relay_position():
    """Diversity-vs-lambda argmax: [0.4, 0.6] for a midpoint relay, <= 0.2
    when the relay sits near a source."""
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    argmaxes = {}
    for d1 in (0.5, 0.1):
        values = [dmt(make_params(lam=lam, d1=d1), 0.5) for lam in grid]
        argmaxes[d1] = grid[int(np.argmax(values))]
    ok = 0.4 <= argmaxes[0.5] <= 0.6 and argmaxes[0.1] <= 0.2
    assert report(
        "C10 diversity peak vs relay position",
        ok,
        f"argmax lambda = {argmaxes[0.5]} (midpoint, in [0.4, 0.6]) and "
        f"{argmaxes[0.1]} (d1 = 0.1, <= 0.2)",
    )


def test_c11_corner_point_cross_term():
    """Closed-form corner matches the root solver to 1e-9 relative on 100
    asymmetric tuples; the variant without the cross-traffic term fails."""
    rng = np.random.default_rng(4111)
    worst = 0.0
    bad_residuals = []
    for _ in range(100):
        params = make_params(
            snr_db=float(rng.uniform(0.0, 30.0)),
            lam=float(rng.uniform(0.1, 0.9)),
            d1=float(rng.uniform(0.2, 0.8)),
            p2_scale=float(rng.uniform(0.3, 3.0)),
        )
        coeffs = derived_coeffs(params)
        tau1 = float(rng.uniform(0.5, 10.0))
        tau2 = float(rng.uniform(0.5, 10.0))
        closed = corner_point(params, tau1, tau2)
        solved = corner_point_root_solve(params, coeffs, tau1, tau2)
        worst = max(
            worst,
            abs(closed.x0 - solved.x0) / solved.x0,
            abs(closed.y0 - solved.y0) / solved.y0,
        )
        bad_y0 = y0_without_cross_term(params, coeffs, tau1, tau2)
        bad_residuals.append(
            corner_residual(params, tau1, tau2, closed.x0, bad_y0)
        )
    variant_fails = max(bad_residuals) > 1e-9
    ok = worst < 1e-9 and variant_fails
    assert report(
        "C11 corner-point coefficient",
        ok,
        f"closed-form vs root-solve worst rel diff = {worst:.2e} (< 1e-9); "
        f"cross-term-free variant violates the system by up to "
        f"{max(bad_residuals):.2e} relative",
    )


def test_c12_preset_determinism_across_workers():
    """Every preset re-run with the same seed emits byte-identical CSV under
    1, 2, and 8 workers, and those bytes are the frozen copy in
    ``tests/data/golden_presets`` (written by ``make_golden_presets.py``)."""
    n_multi_chunk = 200_000
    frozen_dir = Path(__file__).parent / "data" / "golden_presets"
    all_ok = True
    detail = []
    with tempfile.TemporaryDirectory() as td:
        for figure in (1, 2, 3, 4):
            blobs = []
            for workers in (1, 2, 8):
                config = figure_preset(
                    figure, n=n_multi_chunk, out_dir=td, workers=workers
                )
                run_sweep(config)
                blobs.append(open(config.output_path, "rb").read())
            identical = blobs[0] == blobs[1] == blobs[2]
            frozen = blobs[0] == (frozen_dir / f"fig{figure}.csv").read_bytes()
            all_ok &= identical and frozen
            detail.append(
                f"fig{figure}:{'ok' if identical else 'DIFFERS'}"
                f"{'' if frozen else ',NOT FROZEN'}"
            )
    assert report(
        "C12 preset determinism", all_ok,
        " ".join(detail) + " under 1/2/8 workers, against the frozen CSVs",
    )


def test_c12_dense_sweeps_frozen():
    """Two dense closed-form sweeps, every outage method against d1 and the
    diversity gain against r, emit the bytes frozen in
    ``tests/data/golden_presets`` (written by ``make_golden_presets.py``)."""
    frozen_dir = Path(__file__).parent / "data" / "golden_presets"
    differ = []
    with tempfile.TemporaryDirectory() as td:
        for name in DENSE:
            config = dense_config(name, td)
            run_sweep(config)
            if open(config.output_path, "rb").read() != (frozen_dir / f"{name}.csv").read_bytes():
                differ.append(name)
    assert report(
        "C12 dense sweeps frozen", not differ,
        f"{sorted(DENSE)} against the frozen CSVs; differ: {differ or 'none'}",
    )


def test_c13_special_function_floor():
    """Bessel sandwich on a 1e4 grid; hypergeometric and digamma identities."""
    sandwich_ok = all(
        math.exp(-x) <= bessel_xk1(float(x)) <= 1.0
        for x in np.geomspace(1e-6, 50.0, 10_000)
    )
    psi_ok = all(
        abs(tricomi_psi11(float(z)) - math.exp(z) * exp_integral_e1(float(z)))
        <= 1e-8 * tricomi_psi11(float(z))
        for z in np.geomspace(1e-3, 50.0, 40)
    )
    import scipy.integrate as si

    kernel_ok = True
    for s in (0.01, 0.1, 1.0, 10.0):
        for l in range(9):
            lhs = math.gamma(l + 2) * tricomi_psi(l + 2, s)
            rhs, _ = si.quad(
                lambda z: math.exp(-s * z) * z ** (l + 1) / (1.0 + z),
                0.0,
                np.inf,
                limit=500,
            )
            kernel_ok &= abs(lhs - rhs) <= 1e-5 * abs(rhs)
    from fractions import Fraction

    digamma_ok = all(
        harmonic_number(k) - harmonic_number(k - 1) == Fraction(1, k)
        for k in range(1, 80)
    ) and digamma_nat(1) == -EULER_GAMMA
    ok = sandwich_ok and psi_ok and kernel_ok and digamma_ok
    assert report(
        "C13 special-function floor",
        ok,
        f"sandwich({sandwich_ok}) psi-e1 identity({psi_ok}) "
        f"integral kernel({kernel_ok}) digamma recurrence({digamma_ok})",
    )
