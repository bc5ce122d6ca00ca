"""Config parsing, sweep engine, CSV round-trips, CLI exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twrelay import analytic, cli, mc
from twrelay import config as config_module
from twrelay.config import (
    ExperimentConfig,
    canonical_items,
    load_config,
    parse_config_text,
)
from twrelay.errors import ConfigError, ConvergenceError, InsufficientSamplesError
from twrelay.methods import METHODS
from twrelay.model import DerivedCoeffs
from twrelay.sweep import (
    figure_preset,
    find_lambda_star,
    plot_script_path,
    read_csv,
    run_sweep,
    validate_sweep,
    write_csv,
)

GOOD_CONFIG = """
# outage sweep against simulation
sweep = snr_db
start = 10
stop = 20
steps = 3
lambda = 0.75
methods = mc, exact_quadrature, lower_bound, upper_bound
mc_n = 20000
seed = 7
output_path = {path}
"""


class TestConfigParsing:
    def test_round_trip_of_valid_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.format(path=tmp_path / "out.csv"))
        config = load_config(str(path))
        assert config.sweep == "snr_db"
        assert config.steps == 3
        assert config.lam == 0.75
        assert config.methods == ("mc", "exact_quadrature", "lower_bound", "upper_bound")
        assert config.metric_family == "outage"

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ("bogus_key = 1", "unknown key"),
            ("steps = 1", "steps"),
            ("methods = mc, teleport", "unknown methods"),
            ("methods = exact_quadrature, capacity_series", "families"),
            ("methods = dmt, non_coop", "non_coop"),
            ("seed = 1.5", "cannot parse"),
        ],
    )
    def test_rejects_bad_lines(self, tmp_path, mutation, fragment):
        key = mutation.split("=")[0].strip()
        lines = [
            ln
            for ln in GOOD_CONFIG.format(path=tmp_path / "o.csv").splitlines()
            if not ln.startswith(key)
        ]
        lines.append(mutation)
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text("\n".join(lines))

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\nmethods = mc\noutput_path = x.csv")

    def test_rejects_power_and_snr_together(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config_text(
                "snr_db = 20\np1 = 10\np2 = 10\nmethods = mc\noutput_path = x.csv"
            )

    def test_lambda_sweep_domain(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config_text(
                "sweep = lambda\nstart = 0\nstop = 0.9\nsteps = 5\n"
                "methods = capacity_quadrature\noutput_path = x.csv"
            )

    @pytest.mark.parametrize("lines, named", [
        ("sweep = snr_db\nstart = 0\nstop = 4000", "snr_db = 4000 at sigma2 = 1 gives power inf"),
        ("sweep = lambda\nstart = 0.1\nstop = 0.9\nsnr_db = 4000", "snr_db = 4000 at"),
        ("sweep = lambda\nstart = 0.1\nstop = 0.9\nsnr_db = -4000", "gives power 0;"),
        ("sweep = lambda\nstart = 0.1\nstop = 0.9\nsigma2 = -1", "sigma2 = -1 gives power -100"),
    ])
    def test_snr_power_out_of_float_range_names_its_values(self, lines, named):
        with pytest.raises(ConfigError, match=named):
            parse_config_text(
                f"{lines}\nsteps = 5\nmethods = exact_quadrature\noutput_path = x.csv"
            )

    def test_r_sweep_is_dmt_only(self):
        with pytest.raises(ConfigError, match="dmt"):
            parse_config_text(
                "sweep = r\nstart = 0.2\nstop = 1\nsteps = 5\n"
                "methods = exact_quadrature\noutput_path = x.csv"
            )


class TestSweepEngine:
    def test_rows_cover_grid_in_order(self, tmp_path):
        config = figure_preset(3, out_dir=str(tmp_path))
        result = run_sweep(config)
        axes = [row.axis_value for row in result.rows]
        assert axes == sorted(axes)
        assert len(result.rows) == 4
        assert os.path.exists(config.output_path)
        plot = plot_script_path(config)
        assert os.path.exists(plot)
        content = open(plot).read()
        assert os.path.basename(config.output_path) in content

    def test_csv_round_trip_is_exact(self, tmp_path):
        config = figure_preset(3, out_dir=str(tmp_path))
        result = run_sweep(config)
        parsed = read_csv(config.output_path)

        def normalized(rows):
            return [
                (
                    f"{r.axis_value:.12g}",
                    r.method,
                    f"{r.value:.12g}",
                    None if r.std_err is None else f"{r.std_err:.12g}",
                )
                for r in rows
            ]

        assert normalized(parsed.rows) == normalized(result.rows)
        assert parsed.metadata == result.metadata
        # writing the parsed result back reproduces the bytes
        copy_path = str(tmp_path / "copy.csv")
        write_csv(parsed, copy_path)
        assert open(copy_path, "rb").read() == open(config.output_path, "rb").read()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = figure_preset(1, n=20_000, out_dir=str(tmp_path))
        run_sweep(config)
        first = open(config.output_path, "rb").read()
        run_sweep(config)
        assert open(config.output_path, "rb").read() == first

    def test_outage_preset_bounds_bracket_exact_in_csv(self, tmp_path):
        config = figure_preset(1, n=20_000, out_dir=str(tmp_path))
        run_sweep(config)
        result = read_csv(config.output_path)
        by_axis = {}
        for row in result.rows:
            by_axis.setdefault(row.axis_value, {})[row.method] = row.value
        assert len(by_axis) == 7
        for point in by_axis.values():
            assert point["lower_bound"] <= point["exact_quadrature"] + 1e-12
            assert point["exact_quadrature"] <= point["upper_bound"] + 1e-12

    def test_capacity_bounds_expand_to_three_rows(self, tmp_path):
        config = ExperimentConfig(
            sweep="lambda",
            start=0.4,
            stop=0.6,
            steps=2,
            methods=("capacity_bounds",),
            output_path=str(tmp_path / "cb.csv"),
        )
        result = run_sweep(config)
        assert list(dict.fromkeys(row.method for row in result.rows)) == [
            "capacity_bounds:lower",
            "capacity_bounds:tight_upper",
            "capacity_bounds:loose_upper",
        ]
        assert len(result.rows) == 6

    def test_numerical_error_carries_axis_point(self, tmp_path):
        # too few outage events for the diversity stencil
        config = ExperimentConfig(
            sweep="snr_db",
            start=20.0,
            stop=25.0,
            steps=2,
            r=0.05,
            methods=("mc", "dmt"),
            mc_n=2_000,
            output_path=str(tmp_path / "x.csv"),
        )
        from twrelay.errors import InsufficientSamplesError

        with pytest.raises(InsufficientSamplesError, match="snr_db=20"):
            run_sweep(config)


    def test_batched_mc_failure_names_its_point(self, tmp_path, capsys):
        # 10 dB has enough outage events; 40.25 dB, the higher stencil point
        # of the second point, has 34 in 5000 draws
        config = ExperimentConfig(
            sweep="snr_db", start=10.0, stop=40.0, steps=2, r=0.5,
            methods=("mc", "dmt"), mc_n=5_000, output_path=str(tmp_path / "x.csv"),
        )
        head = r"snr_db=40, method=mc: only 34 outage events at gamma_db=40\.2;"
        with pytest.raises(InsufficientSamplesError, match="^" + head):
            run_sweep(config)
        path = tmp_path / "x.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 10\nstop = 40\nsteps = 2\nr = 0.5\n"
            f"methods = mc, dmt\nmc_n = 5000\noutput_path = {config.output_path}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert re.match("numerical failure: " + head, capsys.readouterr().err)

    def test_batched_analytic_failure_names_its_point(self, tmp_path):
        # mu/s grows as d1^3 in direction 1: 6 at d1 = 0.5, 36 at d1 = 0.9
        config = ExperimentConfig(
            sweep="d1", start=0.5, stop=0.9, steps=2, lam=0.02,
            methods=("capacity_quadrature", "capacity_series"),
            output_path=str(tmp_path / "x.csv"),
        )
        with pytest.raises(ConvergenceError, match="^d1=0.9, method=capacity_series: "):
            run_sweep(config)

    def test_each_closed_form_runs_once_per_sweep(self, tmp_path, monkeypatch):
        names = (
            "outage_exact", "outage_bounds", "outage_high_snr", "non_coop_outage",
            "capacity_quadrature", "capacity_series", "capacity_bounds",
            "non_coop_capacity", "dmt",
        )
        calls = dict.fromkeys(names, 0)
        for name in names:
            true_fn = getattr(analytic, name)

            def counted(*args, _fn=true_fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(analytic, name, counted)
        config = ExperimentConfig(
            methods=("exact_quadrature", "exact_taylor", "lower_bound", "upper_bound",
                     "high_snr", "non_coop"),
            output_path=str(tmp_path / "x.csv"),
        )
        rows = run_sweep(config, write=False).rows
        for i in range(config.steps):
            point = {r.method: r.value for r in rows[6 * i:6 * i + 6]}
            assert point["exact_quadrature"] == point["exact_taylor"]
            assert point["lower_bound"] <= point["exact_quadrature"] <= point["upper_bound"]
        run_sweep(ExperimentConfig(
            sweep="lambda", start=0.1, stop=0.9, steps=5,
            methods=("capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop"),
        ), write=False)
        run_sweep(ExperimentConfig(steps=4, methods=("dmt",)), write=False)
        assert calls == dict.fromkeys(names, 1)


class TestValidate:
    def test_passes_on_healthy_sweep(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.format(path=tmp_path / "out.csv"))
        config = load_config(str(path))
        report = validate_sweep(config)
        assert report.passed
        assert os.path.exists(report.report_path)
        assert "overall: PASS" in report.text()

    def test_detects_corrupted_coefficient(self, tmp_path, monkeypatch):
        # bias the amplification-noise coefficient used by the closed forms
        true_fn = analytic.derived_coeffs

        def corrupted(params):
            coeffs = true_fn(params)
            return DerivedCoeffs(b=coeffs.b + 0.1, c=coeffs.c)

        monkeypatch.setattr(analytic, "derived_coeffs", corrupted)
        config = ExperimentConfig(
            sweep="snr_db",
            start=15.0,
            stop=20.0,
            steps=2,
            methods=("mc", "exact_quadrature"),
            mc_n=1_000_000,
            seed=71,
            output_path=str(tmp_path / "bad.csv"),
        )
        report = validate_sweep(config)
        assert not report.passed

    def test_degenerate_zero_targets_trivially_pass(self, tmp_path):
        config = ExperimentConfig(
            sweep="snr_db",
            start=10.0,
            stop=20.0,
            steps=2,
            t1=0.0,
            t2=0.0,
            methods=("mc", "exact_quadrature", "lower_bound", "upper_bound"),
            mc_n=5_000,
            output_path=str(tmp_path / "zero.csv"),
        )
        report = validate_sweep(config)
        assert report.passed
        result = read_csv(config.output_path)
        assert all(row.value == 0.0 for row in result.rows)

    @pytest.mark.parametrize(
        "methods",
        [("exact_quadrature",), ("mc", "non_coop"), ("mc", "high_snr")],
        ids=["exact_quadrature", "mc_non_coop", "mc_high_snr"],
    )
    def test_requires_mc_plus_analytic(self, tmp_path, methods):
        # reference curves alone leave nothing to judge
        config = ExperimentConfig(methods=methods, output_path=str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError, match="mc"):
            validate_sweep(config)


class TestLambdaStar:
    def test_capacity_peak_in_documented_band(self, tmp_path):
        config = ExperimentConfig(
            sweep="lambda",
            start=0.1,
            stop=0.9,
            steps=9,
            snr_db=20.0,
            methods=("capacity_quadrature",),
            output_path=str(tmp_path / "ls.csv"),
        )
        best = find_lambda_star(config)
        assert 0.3 <= best.lambda_star <= 0.6
        assert not best.flat

    def test_diversity_peak_moves_with_relay_position(self, tmp_path):
        config = ExperimentConfig(
            sweep="lambda",
            start=0.05,
            stop=0.95,
            steps=19,
            snr_db=20.0,
            r=0.5,
            d1=0.1,
            methods=("dmt",),
            output_path=str(tmp_path / "ls4.csv"),
        )
        best = find_lambda_star(config)
        assert best.lambda_star <= 0.2

    def test_outage_picks_the_minimum(self, tmp_path):
        config = ExperimentConfig(
            sweep="lambda",
            start=0.05,
            stop=0.95,
            steps=19,
            snr_db=10.0,
            methods=("exact_quadrature",),
            output_path=str(tmp_path / "ls_out.csv"),
        )
        best = find_lambda_star(config)
        assert best.lambda_star == pytest.approx(0.40)
        assert best.value == pytest.approx(0.1352, abs=1e-4)
        assert best.bracket == pytest.approx((0.35, 0.45))

    def test_flat_grid_returns_first_point_with_flag(self, tmp_path):
        # r = 1 makes the diversity identically zero across lambda
        config = ExperimentConfig(
            sweep="lambda",
            start=0.2,
            stop=0.8,
            steps=4,
            snr_db=20.0,
            r=1.0,
            methods=("dmt",),
            output_path=str(tmp_path / "flat.csv"),
        )
        best = find_lambda_star(config)
        assert best.flat
        assert best.lambda_star == pytest.approx(0.2)

    def test_requires_single_analytic_method(self, tmp_path):
        config = ExperimentConfig(
            sweep="lambda",
            start=0.1,
            stop=0.9,
            steps=5,
            methods=("mc",),
            output_path=str(tmp_path / "x.csv"),
        )
        with pytest.raises(ConfigError):
            find_lambda_star(config)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        out = tmp_path / "out.csv"
        path.write_text(
            "sweep = snr_db\nstart = 10\nstop = 20\nsteps = 2\n"
            "methods = exact_quadrature\n"
            f"output_path = {out}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_reproduce_command(self, tmp_path):
        assert (
            cli.main(["reproduce", "--figure", "3", "--out", str(tmp_path)]) == 0
        )
        assert (tmp_path / "fig3.csv").exists()
        assert (tmp_path / "fig3_plot.py").exists()

    @pytest.mark.parametrize("command", ["run", "validate", "reproduce", "lambda-star"])
    def test_zero_workers_exit_code(self, tmp_path, capsys, command):
        if command == "reproduce":
            source = ["--figure", "3", "--out", str(tmp_path)]
        else:
            path = tmp_path / "exp.cfg"
            path.write_text(GOOD_CONFIG.format(path=tmp_path / "out.csv"))
            source = ["--config", str(path)]
        assert cli.main([command, *source, "--workers", "0"]) == cli.EXIT_CONFIG
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense_key = 1\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("lines", [
        "sweep = lambda\nstart = 0\nstop = 0.9\nmethods = capacity_quadrature",
        "sweep = lambda\nstart = 0.1\nstop = 1\nmethods = capacity_quadrature",
        "sweep = d1\nstart = 0\nstop = 0.9\nmethods = exact_quadrature",
        "sweep = d1\nstart = 0.1\nstop = 1\nmethods = exact_quadrature",
        "sweep = r\nstart = 0\nstop = 1\nmethods = dmt",
        "sweep = r\nstart = 0.5\nstop = 2.5\nmethods = dmt",
        "sweep = r\nstart = 0.2\nstop = 1\nmethods = exact_quadrature",
        "sweep = snr_db\nstart = 0\nstop = 30\nlambda = 1.5\nmethods = exact_quadrature",
        "sweep = snr_db\nstart = 5\nstop = 20\nt1 = -1\nmethods = dmt",
        "sweep = snr_db\nstart = 0\nstop = 4000\nmethods = exact_quadrature",
        "sweep = lambda\nstart = 0.1\nstop = 0.9\nsnr_db = 4000\nmethods = capacity_quadrature",
        # values that are not finite, or that give a fading mean or c that is not
        "sweep = snr_db\nstart = 0\nstop = 30\npath_loss_exp = inf\nmethods = exact_quadrature",
        "sweep = d1\nstart = 0.1\nstop = 0.9\npath_loss_exp = 2000\nmethods = exact_quadrature",
        "sweep = lambda\nstart = 0.1\nstop = 0.9\np1 = nan\np2 = nan\nmethods = dmt",
        "sweep = lambda\nstart = 0.1\nstop = 0.9\np1 = inf\np2 = inf\nmethods = dmt",
        "sweep = snr_db\nstart = 0\nstop = 30\neta = 1e-320\nmethods = capacity_quadrature",
        "sweep = snr_db\nstart = 0\nstop = 30\neta = 5e-324\nlambda = 0.25\n"
        "methods = exact_quadrature",
        "sweep = snr_db\nstart = 0\nstop = 30\nt1 = nan\nmethods = exact_quadrature",
        "sweep = d1\nstart = 0.1\nstop = 0.9\nt1 = inf\nmethods = exact_quadrature",
        "sweep = snr_db\nstart = 0\nstop = 30\nt2 = 600\nmethods = exact_quadrature",
        "sweep = snr_db\nstart = 0\nstop = 30\nseed = -1\nmethods = mc, exact_quadrature",
        # the axis sets p1 = p2 at each point, so explicit powers would go unread
        "sweep = snr_db\nstart = 0\nstop = 30\np1 = 10\np2 = 1000\nmethods = exact_quadrature",
    ], ids=[
        "lambda-from-0", "lambda-to-1", "d1-from-0", "d1-to-1", "r-from-0", "r-past-2",
        "r-sweep-not-dmt", "base-lambda-1.5", "negative-t1-on-dmt", "snr-to-4000-db",
        "base-snr-4000-db", "path-loss-inf", "path-loss-2000", "powers-nan", "powers-inf",
        "eta-gives-c-inf", "eta-lambda-underflow", "t1-nan", "t1-inf", "t2-threshold-overflow",
        "negative-seed", "snr-sweep-with-powers",
    ])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{lines}\nsteps = 3\noutput_path = {tmp_path / 'out.csv'}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        argv = ["reproduce", "--figure", "1", "--seed", "-3", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_validates_once_and_resolves_points_in_batches(self, tmp_path, monkeypatch):
        # a run validates its config once, and the sweep resolves its grid in
        # one batch: the number of build_params calls does not grow with steps
        calls = {"validate": 0, "build_params": 0}
        true_validate, true_build = ExperimentConfig.validate, config_module.build_params

        def validate(config):
            calls["validate"] += 1
            return true_validate(config)

        def build(*args, **kwargs):
            calls["build_params"] += 1
            return true_build(*args, **kwargs)

        monkeypatch.setattr(ExperimentConfig, "validate", validate)
        monkeypatch.setattr(config_module, "build_params", build)
        counts = []
        for steps in (5, 50):
            path = tmp_path / f"steps{steps}.cfg"
            path.write_text(
                f"sweep = lambda\nstart = 0.1\nstop = 0.9\nsteps = {steps}\n"
                f"methods = capacity_quadrature\noutput_path = {tmp_path / 'out.csv'}\n"
            )
            calls.update(validate=0, build_params=0)
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
            counts.append(dict(calls))
        assert counts[0]["validate"] == counts[1]["validate"] == 1
        assert counts[0]["build_params"] == counts[1]["build_params"]

    def test_in_process_calls_share_no_state(self, tmp_path, monkeypatch):
        # the parser is built once per process: a flag given to one call
        # must not carry over to the next
        configs = []

        def recording(config, *args, **kwargs):
            configs.append(config)
            return run_sweep(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", recording)
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        bad, good = tmp_path / "bad.cfg", tmp_path / "good.cfg"
        bad.write_text("nonsense_key = 1\n")
        good.write_text(
            "sweep = snr_db\nstart = 10\nstop = 20\nsteps = 2\n"
            f"methods = exact_quadrature\noutput_path = {tmp_path / 'good.csv'}\n"
        )
        fig3 = ["reproduce", "--figure", "3", "--n", "200000"]
        codes = [
            cli.main([*fig3, "--out", str(first), "--workers", "2"]),
            cli.main([*fig3, "--out", str(second)]),
            cli.main(["run", "--config", str(bad)]),
            cli.main(["run", "--config", str(good)]),
        ]
        assert codes == [0, 0, 2, 0]
        assert [c.workers for c in configs] == [2, 1, 1]
        golden = (Path(__file__).parent / "data" / "golden_presets" / "fig3.csv").read_bytes()
        assert (first / "fig3.csv").read_bytes() == golden
        assert (second / "fig3.csv").read_bytes() == golden

    def test_missing_config_exit_code(self, tmp_path):
        assert (
            cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
            == cli.EXIT_CONFIG
        )

    def test_missing_output_directory_exit_code(self, tmp_path, monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(mc, "estimate_capacity", no_compute)
        missing = tmp_path / "missing"
        argv = ["reproduce", "--figure", "2", "--out", str(missing)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 20\nstop = 25\nsteps = 2\nr = 0.05\n"
            "methods = mc, dmt\nmc_n = 2000\n"
            f"output_path = {tmp_path / 'x.csv'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("power, r, methods, named", [
        ("1.7e308", 0.5, "mc, dmt",
         "lambda=0.3, method=mc: diversity stencil point gamma_db=3082.55 (r=0.5)"),
        ("1e250", 1.5, "mc, dmt",
         "lambda=0.3, method=mc: diversity stencil point gamma_db=2500.25 (r=1.5)"),
        ("1e250", 1.5, "dmt",
         "lambda=0.3, method=dmt: threshold (1+gamma)^r - 1 overflows at gamma=1e+250"),
        ("1.7e308", 0.5, "dmt",
         "lambda=0.3, method=dmt: a*omega_j overflows at gamma=1.7e+308"),
        ("1e200", 1.5, "dmt",
         "lambda=0.3, method=dmt: gamma**2 overflows at gamma=1e+200"),
        ("1.3e154", 2.0, "dmt",
         "lambda=0.3, method=dmt: b*b*tau overflows at gamma=1.3e+154"),
        # every stencil draw is an outage, so the difference would read -0
        ("1e200", 1.5, "mc, dmt",
         "lambda=0.3, method=mc: only 0 non-outage samples at gamma_db=2e+03"),
    ], ids=["mc-stencil-snr", "mc-stencil-threshold", "dmt-threshold", "dmt-direction-product",
            "dmt-gamma-square", "dmt-threshold-square", "mc-stencil-saturated"])
    def test_overflow_near_float_max_exit_code(self, tmp_path, capsys, power, r, methods, named):
        # the stencil sits 0.25 dB above the point's SNR; tau = (1+gamma)^r - 1
        # overflows for r > 1 long before gamma does
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"sweep = lambda\nstart = 0.3\nstop = 0.7\nsteps = 3\np1 = {power}\n"
            f"p2 = {power}\nr = {r}\nmethods = {methods}\nmc_n = 2000\n"
            f"output_path = {tmp_path / 'x.csv'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert named in capsys.readouterr().err

    def test_series_beyond_reach_exit_code(self, tmp_path, capsys):
        # 60 dB with lambda = eta = 0.002 puts mu/s at 3.1e4 in each direction
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 60\nstop = 61\nsteps = 2\n"
            "lambda = 0.002\neta = 0.002\nmethods = capacity_series\n"
            f"output_path = {tmp_path / 'x.csv'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert "capacity series" in capsys.readouterr().err

    def test_upper_bound_above_one_runs(self, tmp_path):
        # at low SNR the outage upper bound exceeds 1 and is returned as 1
        path = tmp_path / "exp.cfg"
        out = tmp_path / "x.csv"
        path.write_text(
            "sweep = snr_db\nstart = 0\nstop = 6\nsteps = 4\n"
            "lambda = 0.172\neta = 0.854\nepsilon = 0.675\nd1 = 0.437\n"
            "path_loss_exp = 2.051\nt1 = 1.524\nt2 = 1.524\n"
            "methods = exact_quadrature, upper_bound\n"
            f"output_path = {out}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == 0
        upper = [r.value for r in read_csv(out).rows if r.method == "upper_bound"]
        assert upper[:2] == [1.0, 1.0] and upper[3] < 1.0

    def test_validation_failure_exit_code(self, tmp_path, monkeypatch):
        true_fn = analytic.derived_coeffs

        def corrupted(params):
            coeffs = true_fn(params)
            return DerivedCoeffs(b=coeffs.b + 0.1, c=coeffs.c)

        monkeypatch.setattr(analytic, "derived_coeffs", corrupted)
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 15\nstop = 20\nsteps = 2\n"
            "methods = mc, exact_quadrature\nmc_n = 1000000\nseed = 71\n"
            f"output_path = {tmp_path / 'v.csv'}\n"
        )
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_VALIDATION

    def test_validate_passes_end_to_end(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 15\nstop = 20\nsteps = 2\n"
            "methods = mc, exact_quadrature\nmc_n = 50000\nseed = 11\n"
            f"output_path = {tmp_path / 'v.csv'}\n"
        )
        assert cli.main(["validate", "--config", str(path)]) == 0

    def test_lambda_star_command(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = lambda\nstart = 0.1\nstop = 0.9\nsteps = 9\n"
            "methods = capacity_quadrature\n"
            f"output_path = {tmp_path / 'ls.csv'}\n"
        )
        assert cli.main(["lambda-star", "--config", str(path)]) == 0
        assert "lambda_star" in capsys.readouterr().out


class TestImports:
    @staticmethod
    def _modules_after_cli_import(selected: str) -> str:
        """What a fresh interpreter prints for ``sorted(m for m in
        sys.modules if <selected>)`` after ``import twrelay.cli``."""
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        probe = f"import sys, twrelay.cli; print(sorted(m for m in sys.modules if {selected}))"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        )
        return out.stdout.strip()

    def test_cli_import_leaves_out_quadpack(self):
        # scipy.integrate, which pulls in scipy.optimize, cost about 0.2 s of
        # every fresh process; the package integrates on its own fixed rule
        selected = "m in ('scipy.integrate', 'scipy.optimize')"
        assert self._modules_after_cli_import(selected) == "[]"

    def test_cli_import_leaves_out_scipy(self):
        # the special functions are numpy polynomials; scipy is a test oracle
        selected = "m == 'scipy' or m.startswith('scipy.')"
        assert self._modules_after_cli_import(selected) == "[]"


class TestMetadata:
    def test_execution_knobs_excluded_from_echo(self):
        config = ExperimentConfig(workers=8, output_path="/some/abs/dir/out.csv")
        items = dict(canonical_items(config))
        assert "workers" not in items
        assert items["output_path"] == "out.csv"


class TestMethodTable:
    def test_readme_table_matches_registry(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("Methods by metric family", 1)[1]
        lines = [ln for ln in section.split("\n\n", 2)[1].splitlines() if ln.startswith("|")]
        listed = {}
        for line in lines[2:]:  # skip the header and the rule
            method, families, rows = (c.strip() for c in line.strip("|").split("|"))
            listed[method.strip("`")] = (
                {f.strip() for f in families.split(",")},
                re.findall(r"`([^`]+)`:\s*(\w+)", rows),
            )
        expected = {
            name: (set(spec.evaluators), [(name + sfx, j) for sfx, j in spec.rows])
            for name, spec in METHODS.items()
        }
        assert listed == expected
