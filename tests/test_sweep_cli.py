"""Config parsing, sweep engine, CSV round-trips, CLI exit codes."""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from data.make_golden_validate import GOLDEN as GOLDEN_VALIDATE
from data.make_golden_validate import NAMES as VALIDATE_NAMES
from data.make_golden_validate import validate_config
from helpers import make_params, read_csv, rows_of

from twrelay import analytic, cli, mc, numerics
from twrelay import config as config_module
from twrelay.config import (
    AXES,
    ExperimentConfig,
    canonical_items,
    load_config,
    parse_config_text,
)
from twrelay.errors import ConfigError, ConvergenceError, InsufficientSamplesError
from twrelay.methods import EXACT, FAMILIES, LOWER, METHODS, UPPER
from twrelay.model import DerivedCoeffs, TargetRates
from twrelay.sweep import (
    PRESETS,
    figure_preset,
    find_lambda_star,
    judge,
    plot_script_path,
    run_sweep,
    validate_sweep,
    wilson_interval,
    write_csv,
    write_plot_script,
)

GOLDEN_PRESETS = Path(__file__).parent / "data" / "golden_presets"

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
        assert config.plan.family == "outage"

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

    def test_changed_copy_is_validated_and_planned_again(self):
        config = ExperimentConfig(methods=("exact_quadrature",))
        copy = config._replace(seed=2)
        assert type(copy) is ExperimentConfig and copy.seed == 2
        assert copy.plan is not config.plan and copy.plan.grid == config.plan.grid
        with pytest.raises(ConfigError, match="^steps must be >= 2; got 1$"):
            config._replace(steps=1)
        lam_1 = [*config[:5], 1.0, *config[6:]]
        with pytest.raises(ConfigError, match=r"^lambda must lie strictly inside \(0, 1\); got 1"):
            ExperimentConfig._make(lam_1)

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
        assert result.grid == sorted(result.grid)
        assert len(rows_of(result)) == 4
        assert os.path.exists(config.output_path)
        plot = plot_script_path(config)
        assert os.path.exists(plot)
        content = Path(plot).read_text()
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

        assert normalized(rows_of(parsed)) == normalized(rows_of(result))
        assert parsed.metadata == result.metadata
        # writing the parsed result back reproduces the bytes
        copy_path = str(tmp_path / "copy.csv")
        write_csv(parsed, copy_path)
        assert Path(copy_path).read_bytes() == Path(config.output_path).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = figure_preset(1, n=20_000, out_dir=str(tmp_path))
        run_sweep(config)
        first = Path(config.output_path).read_bytes()
        run_sweep(config)
        assert Path(config.output_path).read_bytes() == first

    def test_outage_preset_bounds_bracket_exact_in_csv(self, tmp_path):
        config = figure_preset(1, n=20_000, out_dir=str(tmp_path))
        run_sweep(config)
        result = read_csv(config.output_path)
        columns = {method: values for method, values, _ in result.columns}
        assert len(result.grid) == 7
        for lower, exact, upper in zip(
                *(columns[m] for m in ("lower_bound", "exact_quadrature", "upper_bound"))):
            assert lower <= exact + 1e-12
            assert exact <= upper + 1e-12

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
        assert [column.method for column in result.columns] == [
            "capacity_bounds:lower",
            "capacity_bounds:tight_upper",
            "capacity_bounds:loose_upper",
        ]
        assert len(rows_of(result)) == 6

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

    def test_failure_names_its_point_as_the_csv_does(self, tmp_path):
        # the failing point differs from 0.9 only past the 6th digit
        config = ExperimentConfig(
            sweep="d1", start=0.5, stop=0.9000001, steps=2, lam=0.02,
            methods=("capacity_quadrature", "capacity_series"),
            output_path=str(tmp_path / "x.csv"),
        )
        with pytest.raises(ConvergenceError, match=r"^d1=0\.9000001, method=capacity_series: "):
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
        rows = rows_of(run_sweep(config, write=False))
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

    def test_each_shared_part_is_formed_once_per_sweep(self, monkeypatch):
        # the parts a family's closed forms share, counted where they are formed
        names = ("_batch", "_thresholded", "_corner_parts", "_survival_integral", "tricomi_psi11")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(analytic, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(analytic, name, counted)
        run_sweep(ExperimentConfig(methods=(
            "exact_quadrature", "lower_bound", "upper_bound", "high_snr", "non_coop",
        )), write=False)
        # one batch and one set of thresholds, one corner for the exact value and the bounds
        assert calls == {**dict.fromkeys(names, 0), "_batch": 1, "_thresholded": 1,
                         "_corner_parts": 1}
        calls.update(dict.fromkeys(names, 0))
        run_sweep(ExperimentConfig(sweep="lambda", start=0.1, stop=0.9, steps=5, methods=(
            "capacity_bounds", "capacity_series", "capacity_quadrature", "non_coop")), write=False)
        # one batch; the capacity on its own pass and both integral bounds on
        # one; Psi(1,1;s) for the series and the loose bound, and Psi(1,1;1/a)
        # for non_coop
        assert calls == {**dict.fromkeys(names, 0), "_batch": 1, "_survival_integral": 2,
                         "tricomi_psi11": 2}

    @pytest.mark.parametrize("d1, rows_per_point, methods", [
        pytest.param(d1, rows_per_point, methods, id=shape + suffix)
        for suffix, methods in (
            ("", ("capacity_quadrature", "capacity_series", "capacity_bounds")),
            ("-quadrature", ("capacity_quadrature",)), ("-bounds", ("capacity_bounds",)))
        for shape, d1, rows_per_point in (("symmetric", 0.5, 1), ("asymmetric", 0.3, 2))])
    def test_a_symmetric_sweep_integrates_one_direction_per_point(
            self, monkeypatch, d1, rows_per_point, methods):
        # at P1 = P2 and d1 = 0.5 (and T1 = T2) both directions of a point
        # follow one SNR law: each integral and the series run one row for
        # them; and each integrand is formed only where its closed form runs
        rows = {"bessel_xk1": 0, "_xk1_floor": 0, "_xk1_upper": 0, "series": 0, "strips": 0}
        for name in ("bessel_xk1", "_xk1_floor", "_xk1_upper"):
            def counted(x, _fn=getattr(analytic, name), _name=name):
                rows[_name] += len(x)  # the integrand's nodes, one row per direction
                return _fn(x)

            monkeypatch.setattr(analytic, name, counted)
        true_factors, true_rule = analytic._scaled_series_factors, numerics.log_rule

        def factors(s, terms):
            rows["series"] += len(s) if terms.start == 0 else 0
            return true_factors(s, terms)

        def rule(ln_lo, ln_hi):
            rows["strips"] += len(ln_lo)
            return true_rule(ln_lo, ln_hi)

        monkeypatch.setattr(analytic, "_scaled_series_factors", factors)
        n = 5
        result = run_sweep(ExperimentConfig(
            sweep="lambda", start=0.1, stop=0.9, steps=n, d1=d1, methods=methods), write=False)
        readers = {"bessel_xk1": "capacity_quadrature", "_xk1_floor": "capacity_bounds",
                   "_xk1_upper": "capacity_bounds", "series": "capacity_series"}
        assert rows == {**{name: n * rows_per_point if reader in methods else 0
                           for name, reader in readers.items()}, "strips": 0}
        # terms_used keeps one entry per direction of each point
        series = analytic.capacity_series(ExperimentConfig(
            sweep="lambda", start=0.1, stop=0.9, steps=n, d1=d1).plan.params)
        assert len(series.terms_used) == 2 * n
        if "capacity_series" in methods:
            assert result.columns[1].values == series.value
        monkeypatch.setattr(numerics, "log_rule", rule)
        run_sweep(ExperimentConfig(sweep="lambda", start=0.1, stop=0.9, steps=n, d1=d1,
                                   methods=("exact_quadrature",)), write=False)
        assert rows["strips"] == n * rows_per_point


#: The plot labels, written out here so that a label moved or lost in the
#: axis and family tables fails; each family's sweep runs one method.
XLABELS = {"snr_db": "SNR (dB)", "lambda": "power splitting ratio",
           "r": "multiplexing gain", "d1": "relay position"}
YLABELS = {"outage": ("exact_quadrature", "outage probability"),
           "capacity": ("capacity_quadrature", "ergodic capacity (bit/s/Hz)"),
           "dmt": ("dmt", "diversity gain")}
# an r sweep is dmt only
PLOT_CASES = [(axis, family) for axis in XLABELS for family in YLABELS
              if axis != "r" or family == "dmt"]


def _plot_config(axis, family, tmp_path):
    start, stop = (0.0, 30.0) if axis == "snr_db" else (0.2, 0.8)
    return ExperimentConfig(sweep=axis, start=start, stop=stop, steps=2,
                            methods=(YLABELS[family][0],), output_path=str(tmp_path / "x.csv"))


class TestPlotScript:
    @pytest.mark.parametrize("axis, family", PLOT_CASES)
    def test_labels_and_scale(self, tmp_path, axis, family):
        path = write_plot_script(_plot_config(axis, family, tmp_path))
        lines = Path(path).read_text().splitlines()
        assert f'ax.set_xlabel("{XLABELS[axis]}")' in lines
        assert f'ax.set_ylabel("{YLABELS[family][1]}")' in lines
        log_scale = ['ax.set_yscale("log")'] if family == "outage" else []
        assert [line for line in lines if "set_yscale" in line] == log_scale

    def test_cases_are_every_pair_a_config_accepts(self, tmp_path):
        accepted = []
        for axis in AXES:
            for family in FAMILIES:
                try:
                    _plot_config(axis, family, tmp_path)
                except ConfigError:
                    continue
                accepted.append((axis, family))
        assert sorted(accepted) == sorted(PLOT_CASES)


class TestPlotScriptNames:
    #: sha256 of the plot script of each figure preset, as written before
    #: names were escaped: a name without ", \\ or a line break is kept as is
    PRESET_SCRIPTS = {
        1: "bd8e83f0240a15959c27e7c3f478f1881897223ff074684085178347bf837aa9",
        2: "32dc4fbb30ad1cca973f595fed08da294549901882336e82177a4965f1a4b29b",
        3: "0f112f0bc323642d4c77bdbeca46d1f5b2b34b0d20a8b0219df34656444e1e37",
        4: "31e3191bb64a0c7a9c4f56a2b30d23eb04bc7c975efcf2d3e249fcb0c245b5f6",
    }

    @pytest.mark.parametrize("figure", [1, 2, 3, 4])
    def test_preset_scripts_keep_their_bytes(self, tmp_path, figure):
        path = write_plot_script(figure_preset(figure, out_dir=str(tmp_path)))
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert digest == self.PRESET_SCRIPTS[figure]

    def test_quote_and_backslash_in_the_name_parse_and_open_that_csv(
            self, tmp_path, monkeypatch, capsys):
        name = 'a"b\\c'
        config = ExperimentConfig(sweep="snr_db", start=0.0, stop=30.0, steps=2,
                                  methods=("exact_quadrature",),
                                  output_path=str(tmp_path / f"{name}.csv"))
        path = write_plot_script(config)
        assert path == str(tmp_path / f"{name}_plot.py")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        (tmp_path / f"{name}.csv").write_text(
            "# seed = 1\naxis,method,value,std_err\n10,exact_quadrature,0.25,\n")
        namespace, fig = self._run(code, tmp_path, monkeypatch)
        assert namespace["__doc__"].startswith(f"Plot {name}.csv ")
        assert dict(namespace["series"]) == {"exact_quadrature": [(10.0, 0.25)]}
        fig.savefig.assert_called_once_with(f"{name}.png", dpi=150)
        assert capsys.readouterr().out == f"wrote {name}.png\n"

    def test_line_breaks_in_the_name_keep_the_csv_and_report_lines(
            self, tmp_path, monkeypatch, capsys):
        # the CSV echo and the report header escape \\, LF and CR as the script does
        name, escaped = "a\nb\rc\\d", "a\\nb\\rc\\\\d"
        config = ExperimentConfig(sweep="snr_db", start=0.0, stop=30.0, steps=2,
                                  methods=("mc", "exact_quadrature"), mc_n=2000, seed=3,
                                  output_path=str(tmp_path / f"{name}.csv"))
        report = validate_sweep(config)
        assert report.lines[0] == f"validation of {tmp_path}/{escaped}.csv (outage sweep)"
        assert Path(report.report_path).read_text().count("\n") == len(report.lines)
        result = read_csv(config.output_path)
        assert result.metadata["config.output_path"] == f"{escaped}.csv"
        assert result.grid == [0.0, 30.0]
        assert [column.method for column in result.columns] == ["mc", "exact_quadrature"]
        code = compile(Path(plot_script_path(config)).read_text(encoding="utf-8"),
                       plot_script_path(config), "exec")
        namespace, fig = self._run(code, tmp_path, monkeypatch)
        assert sorted(namespace["series"]) == ["exact_quadrature", "mc"]
        assert [x for x, _ in namespace["series"]["mc"]] == [0.0, 30.0]
        fig.savefig.assert_called_once_with(f"{name}.png", dpi=150)
        assert capsys.readouterr().out.endswith(f"wrote {name}.png\n")

    @staticmethod
    def _run(code, directory, monkeypatch):
        """Run a plot script's ``code`` in ``directory`` with a stand-in
        pyplot, so that it runs without matplotlib: its namespace, and the
        figure it made."""
        plt = mock.MagicMock()
        fig = mock.MagicMock()
        plt.subplots.return_value = (fig, mock.MagicMock())
        monkeypatch.setitem(sys.modules, "matplotlib", mock.MagicMock(pyplot=plt))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
        monkeypatch.chdir(directory)
        namespace = {}
        exec(code, namespace)
        return namespace, fig


class TestPresets:
    @pytest.mark.parametrize("figure", [1, 2, 3, 4])
    def test_run_on_the_preset_text_writes_what_reproduce_writes(self, tmp_path, figure):
        by_run, by_reproduce = tmp_path / "run", tmp_path / "reproduce"
        by_run.mkdir()
        by_reproduce.mkdir()
        path = tmp_path / "preset.cfg"
        path.write_text(PRESETS[figure]
                        + f"mc_n = 200000\noutput_path = {by_run / f'fig{figure}.csv'}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
        argv = ["reproduce", "--figure", str(figure), "--n", "200000", "--out", str(by_reproduce)]
        assert cli.main(argv) == cli.EXIT_OK
        for name in (f"fig{figure}.csv", f"fig{figure}_plot.py"):
            assert (by_run / name).read_bytes() == (by_reproduce / name).read_bytes()
        golden = (GOLDEN_PRESETS / f"fig{figure}.csv").read_bytes()
        assert (by_run / f"fig{figure}.csv").read_bytes() == golden

    def test_unknown_figure_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^figure must be 1\.\.4; got 5$"):
            figure_preset(5)


class TestValidate:
    def test_passes_on_healthy_sweep(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.format(path=tmp_path / "out.csv"))
        config = load_config(str(path))
        report = validate_sweep(config)
        assert report.passed
        assert os.path.exists(report.report_path)
        assert "overall: PASS" in report.text()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", VALIDATE_NAMES)
    def test_configs_keep_their_frozen_csv_and_report(
            self, tmp_path, monkeypatch, name, workers):
        # written from inside the output directory, as make_golden_validate.py
        # wrote them, so that the report's first line names no directory
        monkeypatch.chdir(tmp_path)
        report = validate_sweep(validate_config(name, workers=workers))
        assert report.passed
        for path in (f"{name}.csv", report.report_path):
            assert (tmp_path / path).read_bytes() == (GOLDEN_VALIDATE / path).read_bytes()

    @pytest.mark.parametrize("name", VALIDATE_NAMES)
    def test_frozen_report_counts_its_verdict_lines_as_k(self, name):
        # the line before overall gives K and K*0.27%, and is not itself a
        # verdict or the overall line, which the benchmark's report check reads
        lines = (GOLDEN_VALIDATE / f"{name}.csv.validation.txt").read_text().splitlines()
        k = sum(line.endswith((" -> PASS", " -> FAIL")) for line in lines)
        assert lines[-2].startswith(f"K = {k} judged rows: ")
        assert f" <= K*0.27% = {k * 0.27:.3g}% (Bonferroni) " in lines[-2]
        assert lines[-1] == "overall: PASS"

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
        assert all(row.value == 0.0 for row in rows_of(result))

    def test_reference_curves_are_reported_not_judged(self, tmp_path, monkeypatch):
        # the reference curves are moved 1 above their values, far past the
        # mc row's slack: the verdict follows the judged rows alone
        for name in ("outage_high_snr", "non_coop_outage"):
            def shifted(params, targets, _fn=getattr(analytic, name)):
                return [value + 1.0 for value in _fn(params, targets)]

            monkeypatch.setattr(analytic, name, shifted)
        config = ExperimentConfig(
            sweep="snr_db", start=10.0, stop=20.0, steps=3,
            methods=("mc", "exact_quadrature", "high_snr", "non_coop"),
            mc_n=20_000, seed=7, output_path=str(tmp_path / "ref.csv"),
        )
        report = validate_sweep(config)
        judged = [line for line in report.lines if " -> " in line]
        assert [line.split(":")[0] for line in judged] == [
            f"snr_db={value} exact_quadrature" for value in (10, 15, 20)]
        assert all(line.endswith(" -> PASS") for line in judged)
        assert [line for line in report.lines if "reference curve" in line] == [
            f"snr_db={value} {method}: reference curve (not judged)"
            for value in (10, 15, 20) for method in ("high_snr", "non_coop")]
        assert report.passed and report.lines[-1] == "overall: PASS"

    def test_points_past_the_sixth_digit_get_distinct_heads(self, tmp_path):
        config = ExperimentConfig(sweep="lambda", start=0.5, stop=0.5000001, steps=3,
                                  mc_n=2000, seed=1, output_path=str(tmp_path / "x.csv"))
        report = validate_sweep(config)
        heads = [line.split(" ")[0] for line in report.lines[1:-2]]
        assert heads == ["lambda=0.5", "lambda=0.50000005", "lambda=0.5000001"]
        # each names its point as the CSV's rows do
        axes = [row.split(",")[0] for row in (tmp_path / "x.csv").read_text().splitlines()
                if row[0].isdigit() and ",mc," in row]
        assert heads == [f"lambda={axis}" for axis in axes]

    def test_zero_counts_pass_a_correct_closed_form(self, tmp_path):
        # MC counts 0 of 20 000 at 50 and 60 dB, where the outage is 2.8e-5
        # and 2.9e-6: the normal interval there is the point 0
        path = tmp_path / "zero.cfg"
        path.write_text("sweep = snr_db\nstart = 30\nstop = 60\nsteps = 4\nlambda = 0.75\n"
                        "mc_n = 20000\nseed = 5\n"
                        "methods = mc, exact_quadrature, lower_bound, upper_bound\n"
                        f"output_path = {tmp_path / 'zero.csv'}\n")
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
        lines = (tmp_path / "zero.csv.validation.txt").read_text().splitlines()
        assert lines[7:13] == [
            "snr_db=50 exact_quadrature: 2.75669e-05 in wilson=[0, 0.000449798] -> PASS",
            "snr_db=50 lower_bound: 1.9367e-05 <= wilson_hi=0.000449798 -> PASS",
            "snr_db=50 upper_bound: 3.70166e-05 >= wilson_lo=0 -> PASS",
            "snr_db=60 exact_quadrature: 2.90163e-06 in wilson=[0, 0.000449798] -> PASS",
            "snr_db=60 lower_bound: 1.93725e-06 <= wilson_hi=0.000449798 -> PASS",
            "snr_db=60 upper_bound: 3.99094e-06 >= wilson_lo=0 -> PASS",
        ]
        assert lines[-1] == "overall: PASS"
        # the CSV keeps the estimate's standard error: 0 at a count of 0
        assert [(row.value, row.std_err) for row in rows_of(read_csv(str(tmp_path / "zero.csv")))
                if row.method == "mc"][2:] == [(0.0, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("n", [1, 20_000, 4_000_000])
    def test_wilson_interval_at_a_zero_count_reaches_9_over_n_plus_9(self, n):
        assert wilson_interval(0.0, n) == (0.0, 9.0 / (n + 9))
        assert wilson_interval(1.0, n)[1] == 1.0

    @pytest.mark.parametrize("events", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_a_correct_exact_row_fails_at_the_binomial_rate(self, events):
        # the binomial chance that the count leaves the interval, |k - n*p| >
        # 3*sqrt(n*p*(1-p)), is the rule's false-FAIL rate: at most 2% here
        params, targets = make_params(snr_db=30.0), TargetRates.from_rates(1.0, 1.0)
        p = analytic.outage_exact(params, targets)
        n = round(events / p)
        k = np.arange(n + 1)
        outside = np.abs(k - n * p) > 3.0 * np.sqrt(n * p * (1.0 - p))
        rate = float(stats.binom.pmf(k, n, p)[outside].sum())
        assert rate <= 0.02
        fails = 0
        for seed in range(400):
            estimate = mc.estimate_outage(params, targets, n, seed)
            fails += not judge(EXACT, p, estimate.mean, estimate.std_err, n)[0]
        assert fails <= 400 * rate + 3.0 * math.sqrt(400 * rate * (1.0 - rate))

    def test_a_wrong_exact_value_still_fails(self):
        # three times the true outage, at n*p = 50: every seed FAILs it, and
        # a bound row on that side, but none the true value
        params, targets = make_params(snr_db=30.0), TargetRates.from_rates(1.0, 1.0)
        p = analytic.outage_exact(params, targets)
        n = round(50 / p)
        for seed in range(20):
            estimate = mc.estimate_outage(params, targets, n, seed)
            verdicts = [judge(judgment, value, estimate.mean, estimate.std_err, n)[0]
                        for judgment, value in ((EXACT, 3 * p), (LOWER, 3 * p), (UPPER, p / 3),
                                                (EXACT, p))]
            assert verdicts == [False, False, False, True]

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
        # sweep ends that are not finite, and a base r out of range under an r sweep
        "sweep = lambda\nstart = 0.1\nstop = inf\nmethods = capacity_quadrature",
        "sweep = snr_db\nstart = -inf\nstop = 30\nmethods = exact_quadrature",
        "sweep = r\nstart = 0.2\nstop = 1\nr = nan\nmethods = dmt",
    ], ids=[
        "lambda-from-0", "lambda-to-1", "d1-from-0", "d1-to-1", "r-from-0", "r-past-2",
        "r-sweep-not-dmt", "base-lambda-1.5", "negative-t1-on-dmt", "snr-to-4000-db",
        "base-snr-4000-db", "path-loss-inf", "path-loss-2000", "powers-nan", "powers-inf",
        "eta-gives-c-inf", "eta-lambda-underflow", "t1-nan", "t1-inf", "t2-threshold-overflow",
        "negative-seed", "snr-sweep-with-powers", "stop-inf", "start-minus-inf",
        "r-sweep-base-r-nan",
    ])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{lines}\nsteps = 3\noutput_path = {tmp_path / 'out.csv'}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, lines, message", [
        ("run", "sweep snr_db", "line 1: expected 'key = value'; got 'sweep snr_db'"),
        ("run", "bogus_key = 1", "line 1: unknown key 'bogus_key'"),
        ("run", "seed = 1\nseed = 2", "line 2: duplicate key 'seed'"),
        ("run", "steps = 2.5", "line 1: cannot parse steps = '2.5'"),
        ("run", "mc_n = 1e6", "line 1: cannot parse mc_n = '1e6'"),
        ("run", "seed = 1.5", "line 1: cannot parse seed = '1.5'"),
        ("run", "snr_db = 20\np1 = 10\np2 = 10", "give either snr_db or explicit p1/p2, not both"),
        ("run", "sweep = eta",
         "sweep axis must be one of ('snr_db', 'lambda', 'r', 'd1'); got 'eta'"),
        ("run", "steps = 1", "steps must be >= 2; got 1"),
        ("run", "start = inf",
         "sweep range must be finite and increasing; got start=inf, stop=30.0"),
        ("run", "start = 30\nstop = 0",
         "sweep range must be finite and increasing; got start=30.0, stop=0.0"),
        ("run", "methods = ,", "methods must be nonempty"),
        ("run", "methods = mc, teleport",
         "unknown methods ['teleport']; valid: ['capacity_bounds', 'capacity_quadrature', "
         "'capacity_series', 'dmt', 'exact_quadrature', 'exact_taylor', 'high_snr', "
         "'lower_bound', 'mc', 'non_coop', 'upper_bound']"),
        ("run", "methods = mc, mc", "methods contains duplicates"),
        ("run", "methods = exact_quadrature, capacity_series",
         "methods mix metric families ['capacity', 'outage']; one sweep evaluates one metric"),
        ("run", "methods = dmt, non_coop", "non_coop has no diversity-gain interpretation"),
        ("run", "sweep = r\nstart = 0.2\nstop = 1", "an r sweep only applies to the dmt metric"),
        ("run", "mc_n = 0", "mc_n must be >= 1; got 0"),
        ("run", "seed = -1", "seed must be >= 0; got -1"),
        ("run", "workers = 0", "workers must be >= 1; got 0"),
        ("run", "sweep = lambda\nstart = 0.1\nstop = 0.9\np1 = 10",
         "p1 and p2 must be given together"),
        ("run", "p1 = 10\np2 = 10",
         "an snr_db sweep sets p1 = p2 from each axis value; "
         "give either the snr_db sweep or explicit p1/p2, not both"),
        ("run", "output_path =", "output_path must be set"),
        ("run", "sweep = lambda\nstart = 0.5\nstop = 0.5000000000000002\nsteps = 5",
         "5 steps from 0.5 to 0.5000000000000002 give the sweep value 0.5 twice "
         "at the CSV's 12 digits"),
        ("run", "# caf\u00e9", "cannot read config {path!r}: not UTF-8 "
         "(invalid continuation byte at byte 5)"),
        ("run", "lambda = 0", "lambda must lie strictly inside (0, 1); got 0.0"),
        ("run", "lambda = 1", "lambda must lie strictly inside (0, 1); got 1.0"),
        ("run", "d1 = 1.0", "d1 must lie strictly inside (0, 1); got 1.0"),
        ("run", "eta = 2", "eta must lie in (0, 1]; got 2.0"),
        ("run", "epsilon = -1", "epsilon must lie in [0, 1]; got -1.0"),
        ("run", "path_loss_exp = 0", "path_loss_exp must be positive; got 0.0"),
        ("run", "r = 3", "r must lie in (0, 2]; got 3.0"),
        # the base r is checked before the swept SNRs are
        ("run", "r = 3\nstop = 4000", "r must lie in (0, 2]; got 3.0"),
        ("run", "t1 = -1", "target rates must be finite and >= 0; got (-1.0, 1.0)"),
        ("run", "t2 = 600",
         "target rates (1.0, 600.0) give thresholds 2^(2t) - 1 past the float range"),
        ("run", "sweep = lambda\nstart = 0.1\nstop = 0.9\nsnr_db = nan",
         "snr_db = nan at sigma2 = 1 gives power nan; it must be a positive finite float"),
        ("run", "sweep = lambda\nstart = 0.1\nstop = 0.9\nsigma2 = 0",
         "snr_db = 20 at sigma2 = 0 gives power 0; it must be a positive finite float"),
        ("run", "sweep = lambda\nstart = 0.1\nstop = 0.9\np1 = 1\np2 = 1\nsigma2 = 0",
         "p1, p2 and sigma2 must be positive finite floats; got (1.0, 1.0, 0.0)"),
        ("run", "stop = 4000",
         "snr_db = 4000 at sigma2 = 1 gives power inf; it must be a positive finite float"),
        ("run", "sweep = lambda\nstart = 0\nstop = 0.9",
         "lambda must lie strictly inside (0, 1); got 0.0"),
        ("run", "sweep = d1\nstart = 0.1\nstop = 1",
         "d1 must lie strictly inside (0, 1); got 1.0"),
        ("run", "sweep = r\nstart = 0.5\nstop = 2.5\nmethods = dmt",
         "r must lie in (0, 2]; got 2.5"),
        ("run", "sweep = lambda\nstart = 0.1\nstop = 0.9\np1 = 10\np2 = 20\nmethods = dmt",
         "the diversity metric assumes symmetric powers; got (10.0, 20.0)"),
        ("run", "sweep = d1\nstart = 0.1\nstop = 0.9\np1 = 10\np2 = 20\nmethods = dmt",
         "the diversity metric assumes symmetric powers; got (10.0, 20.0)"),
        ("validate", "",
         "validate needs the mc method and an exact or bound method to judge against it; "
         "got ('exact_quadrature',)"),
        ("lambda-star", "", "lambda-star needs a lambda sweep; got 'snr_db'"),
        ("lambda-star",
         "sweep = lambda\nstart = 0.1\nstop = 0.9\nmethods = exact_quadrature, lower_bound",
         "lambda-star needs exactly one single-valued analytic method; "
         "got ('exact_quadrature', 'lower_bound')"),
    ], ids=[
        "no-equals", "unknown-key", "duplicate-key", "steps-not-int", "mc_n-not-int",
        "seed-not-int", "snr-with-powers", "unknown-axis", "steps-1", "start-inf",
        "start-after-stop", "no-methods", "unknown-method", "duplicate-method",
        "mixed-families", "dmt-with-non_coop", "r-sweep-not-dmt", "mc_n-0", "negative-seed",
        "workers-0", "p1-without-p2", "snr-sweep-with-powers", "no-output-path",
        "grid-values-alike", "not-utf8", "lambda-0",
        "lambda-1", "d1-1", "eta-2", "epsilon-negative", "path-loss-0", "r-3",
        "r-3-before-snr-to-4000", "t1-negative",
        "t2-threshold-overflow", "snr-nan", "sigma2-0-by-snr", "sigma2-0-by-powers",
        "snr-sweep-to-4000", "lambda-sweep-from-0", "d1-sweep-to-1", "r-sweep-past-2",
        "dmt-unequal-powers", "dmt-unequal-powers-under-d1-sweep", "validate-without-mc",
        "lambda-star-on-snr-sweep", "lambda-star-two-methods",
    ])
    def test_config_error_message_is_pinned(self, tmp_path, capsys, command, lines, message):
        # the given lines first, then each default key they leave unset
        given = {line.split("=")[0].strip() for line in lines.splitlines()}
        defaults = {"sweep": "snr_db", "start": "0", "stop": "30", "steps": "3",
                    "methods": "exact_quadrature", "output_path": str(tmp_path / "out.csv")}
        text = "".join(f"{line}\n" for line in lines.splitlines())
        text += "".join(f"{key} = {value}\n" for key, value in defaults.items()
                        if key not in given)
        path = tmp_path / "bad.cfg"
        # in Latin-1, which writes each case's text as UTF-8 would, but not-utf8's
        path.write_text(text, encoding="latin-1")
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message.format(path=str(path))}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        argv = ["reproduce", "--figure", "1", "--seed", "-3", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_validates_once_and_resolves_points_in_batches(self, tmp_path, monkeypatch):
        # a run validates its config once, and the sweep resolves its grid in
        # one batch: the number of build_params calls does not grow with steps
        calls = {"validate": 0, "build_params": 0}
        true_plan, true_build = config_module.plan, config_module.build_params

        def plan(config):
            calls["validate"] += 1
            return true_plan(config)

        def build(*args, **kwargs):
            calls["build_params"] += 1
            return true_build(*args, **kwargs)

        monkeypatch.setattr(config_module, "plan", plan)
        monkeypatch.setattr(config_module, "build_params", build)
        argvs = []
        for steps in (5, 50):
            path = tmp_path / f"steps{steps}.cfg"
            path.write_text(
                f"sweep = lambda\nstart = 0.1\nstop = 0.9\nsteps = {steps}\n"
                f"methods = capacity_quadrature\noutput_path = {tmp_path / 'out.csv'}\n"
            )
            argvs.append(["run", "--config", str(path)])
        # a command-line override goes into the one config made
        argvs.append(["run", "--config", str(path), "--workers", "2"])
        argvs.append(["reproduce", "--figure", "3", "--workers", "1", "--out", str(tmp_path)])
        counts = []
        for argv in argvs:
            calls.update(validate=0, build_params=0)
            assert cli.main(argv) == cli.EXIT_OK
            counts.append(dict(calls))
        # the base point, then the whole grid, both when the config is made
        assert counts == [{"validate": 1, "build_params": 2}] * len(argvs)

    def test_sweep_evaluates_the_points_its_config_resolved(self, monkeypatch):
        config = parse_config_text(
            "sweep = d1\nstart = 0.2\nstop = 0.8\nsteps = 4\n"
            "methods = exact_quadrature\noutput_path = x.csv"
        )
        builds, seen = [], []
        true_build, true_exact = config_module.build_params, analytic.outage_exact

        def build(*args, **kwargs):
            builds.append(args)
            return true_build(*args, **kwargs)

        def exact(points, targets):
            seen.append((points, targets))
            return true_exact(points, targets)

        monkeypatch.setattr(config_module, "build_params", build)
        monkeypatch.setattr(analytic, "outage_exact", exact)
        run_sweep(config, write=False)
        assert builds == []
        # the sweep hands its closed forms one Shared of the plan's points
        (points, targets), = seen
        assert isinstance(points, analytic.Shared) and targets is points.targets
        assert points.params is config.plan.params and points.targets is config.plan.targets

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

    @pytest.mark.parametrize("command, taken", [
        ("run", "out.csv"),
        ("reproduce", "fig3.csv"),
        ("reproduce", "fig3_plot.py"),
        ("validate", "out.csv.validation.txt"),
    ], ids=["run-csv", "reproduce-csv", "reproduce-plot-script", "validate-report"])
    def test_output_path_that_is_a_directory_exits_2_before_any_output(
        self, tmp_path, monkeypatch, capsys, command, taken
    ):
        def no_compute(*args, **kwargs):
            raise AssertionError("the sweep ran before the output paths were checked")

        # the Shared is where a sweep's evaluation starts
        for name in ("Shared", "dmt", "outage_exact", "outage_bounds"):
            monkeypatch.setattr(analytic, name, no_compute)
        monkeypatch.setattr(mc, "estimate_outage", no_compute)
        (tmp_path / taken).mkdir()
        if command == "reproduce":
            source = ["--figure", "3", "--out", str(tmp_path)]
        else:
            path = tmp_path / "exp.cfg"
            path.write_text(GOOD_CONFIG.format(path=tmp_path / "out.csv"))
            source = ["--config", str(path)]
        assert cli.main([command, *source]) == cli.EXIT_CONFIG
        assert f"{str(tmp_path / taken)!r} is an existing directory" in capsys.readouterr().err
        inputs = set() if command == "reproduce" else {"exp.cfg"}
        assert {p.name for p in tmp_path.iterdir()} == inputs | {taken}

    def test_threshold_that_rounds_to_0_exits_3_without_warnings(self, tmp_path, capsys):
        # r*ln(1+gamma) below about 1e-16 leaves tau = (1+gamma)^r - 1 at 0
        # (r = 0.5 below about -157 dB); the corner divides by tau
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = -170\nstop = -140\nsteps = 4\nr = 0.5\n"
            f"methods = dmt\noutput_path = {tmp_path / 'x.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: snr_db=-170, method=dmt: threshold (1+gamma)^r - 1 "
            "rounds to 0 at gamma=1e-17 (r=0.5)\n"
        )

    @pytest.mark.parametrize("power, sigma2, methods, named", [
        ("5e-324", "1e300", "exact_quadrature",
         "method=exact_quadrature: b/(a*omega_j) overflows at gamma=0.0"),
        ("1e-310", "1", "exact_quadrature",
         "method=exact_quadrature: b/(a*omega_j) overflows at gamma=1e-310"),
        ("5e-324", "1e300", "capacity_quadrature",
         "method=capacity_quadrature: b/(a*omega_j) overflows at gamma=0.0"),
        ("1e-310", "1", "capacity_quadrature",
         "method=capacity_quadrature: b/(a*omega_j) overflows at gamma=1e-310"),
        ("5e-324", "1e300", "mc, dmt",
         "method=mc: diversity stencil point gamma_db=-inf (r=0.5): its SNR, power or "
         "threshold is not a positive finite float"),
        # the stencil's SNRs are positive, but tau = (1+gamma)^r - 1 rounds to 0
        ("1e-310", "1", "mc, dmt",
         "method=mc: diversity stencil point gamma_db=-3099.75 (r=0.5): its SNR, power or "
         "threshold is not a positive finite float"),
    ], ids=["outage-zero", "outage-subnormal", "capacity-zero", "capacity-subnormal",
            "mc-stencil-zero", "mc-stencil-subnormal"])
    def test_snr_at_or_near_0_exits_3_without_warnings(self, tmp_path, capsys, power, sigma2,
                                                       methods, named):
        # P/sigma2 rounds to 0 or to a subnormal: the survival law's
        # s = b/(a*omega_j) is past the float range, and the stencil's dB is -inf
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"sweep = lambda\nstart = 0.3\nstop = 0.7\nsteps = 3\np1 = {power}\n"
            f"p2 = {power}\nsigma2 = {sigma2}\nmethods = {methods}\nmc_n = 2000\n"
            f"output_path = {tmp_path / 'x.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: lambda=0.3, {named}\n"

    @pytest.mark.parametrize("methods", [
        "mc, exact_quadrature", "capacity_quadrature, mc", "capacity_series", "mc, dmt",
    ])
    def test_snr_past_the_float_range_exits_2_without_warnings(self, tmp_path, capsys, methods):
        # each power is finite, but P/sigma2 = 1e600 is not
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = d1\nstart = 0.3\nstop = 0.7\nsteps = 3\np1 = 1e300\np2 = 1e300\n"
            f"sigma2 = 1e-300\nmethods = {methods}\nmc_n = 2000\n"
            f"output_path = {tmp_path / 'x.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: p1 = 1e+300, p2 = 1e+300 and sigma2 = 1e-300 give SNRs "
            "P/sigma2 = (inf, inf); they must be finite floats\n"
        )

    @pytest.mark.parametrize("methods, failing", [
        ("exact_quadrature", "exact_quadrature"), ("lower_bound, upper_bound", "lower_bound"),
        ("high_snr", "high_snr"), ("non_coop", "non_coop"),
        ("mc, exact_quadrature", "exact_quadrature"),
    ])
    def test_threshold_over_a_small_snr_exits_3_without_warnings(self, tmp_path, capsys,
                                                                 methods, failing):
        # tau1 = 2^(2*511.9) - 1 = 1.6e308 is finite, but tau1/a is not at -60 dB
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"sweep = snr_db\nstart = -60\nstop = 0\nsteps = 4\nt1 = 511.9\n"
            f"methods = {methods}\nmc_n = 2000\noutput_path = {tmp_path / 'x.csv'}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: snr_db=-60, method={failing}: tau/a overflows at gamma=1e-06\n"
        )

    @pytest.mark.parametrize("keys, named", [
        # P1/sigma2 = 1 and P2/sigma2 = 1e10 with c = 1.3e300: X0's quotient
        # eps2*c/eps1 is past the float range, where the corner read inf
        ("sweep = d1\nstart = 1e-9\nstop = 0.7\np1 = 1e-310\np2 = 1e-300\n"
         "sigma2 = 1e-310\neta = 1e-300\npath_loss_exp = 1e-9\nmethods = exact_quadrature",
         "d1=1e-09, method=exact_quadrature: eps_j*c/eps_i overflows at gamma=10000000000.00003"),
        # lambda = 1e-300 puts mu at 1.3e309, and the window's 4*mu/745 past the float range
        ("sweep = lambda\nstart = 1e-300\nstop = 0.5\np1 = 1\np2 = 3.8e-149\n"
         "sigma2 = 4.3e-139\nmethods = capacity_quadrature",
         "lambda=1e-300, method=capacity_quadrature: 4*mu/745 overflows at "
         "gamma=8.837209302325581e-11"),
        ("sweep = lambda\nstart = 1e-300\nstop = 0.5\np1 = 1\np2 = 3.8e-149\n"
         "sigma2 = 4.3e-139\nmethods = capacity_bounds",
         "lambda=1e-300, method=capacity_bounds: 4*mu/745 overflows at "
         "gamma=8.837209302325581e-11"),
        # P2/sigma2 = 5.9e-309 puts s at 2.1e307: the window's lower end
        # 1e-17/s underflows to 0, and its log is -inf
        ("sweep = lambda\nstart = 0.3\nstop = 0.7\np1 = 1.7e308\np2 = 1\n"
         "sigma2 = 1.7e308\nepsilon = 1e-300\nmethods = capacity_quadrature",
         "lambda=0.3, method=capacity_quadrature: ln(1e-17*min(1, 1/s)) overflows at "
         "gamma=5.88235294117647e-309"),
        ("sweep = lambda\nstart = 0.3\nstop = 0.7\np1 = 1.7e308\np2 = 1\n"
         "sigma2 = 1.7e308\nepsilon = 1e-300\nmethods = capacity_bounds",
         "lambda=0.3, method=capacity_bounds: ln(1e-17*min(1, 1/s)) overflows at "
         "gamma=5.88235294117647e-309"),
        # a = 1e247 on fading means 1.3e104 and 4.4e30: Monte Carlo's numerator
        # scale a*omega1*omega2 is past the float range, before any draw
        ("sweep = d1\nstart = 0.3\nstop = 0.7\np1 = 1e300\np2 = 1e300\nsigma2 = 1e53\n"
         "path_loss_exp = 200\nmethods = mc, exact_quadrature",
         "d1=0.3, method=mc: a*omega1*omega2 overflows at gamma=1.0000000000000001e+247"),
        ("sweep = d1\nstart = 0.3\nstop = 0.7\np1 = 1e300\np2 = 1e300\nsigma2 = 1e53\n"
         "path_loss_exp = 200\nmethods = mc, dmt",
         "d1=0.3, method=mc: a*omega1*omega2 overflows at gamma=1.0592537251773028e+247"),
    ], ids=["corner-cross-quotient", "survival-reach", "bounds-reach", "survival-lower-end",
            "bounds-lower-end", "mc-numerator", "mc-stencil-numerator"])
    def test_extreme_valid_config_exits_3_without_warnings(self, tmp_path, capsys, keys, named):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{keys}\nsteps = 3\nmc_n = 2000\noutput_path = {tmp_path / 'x.csv'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {named}\n"

    def test_corner_overflow_off_the_joint_points_is_silent(self, tmp_path):
        # t1 = 0: no point has a corner, so the corner lanes, whose lin*lin
        # is past the float range, are stand-ins that no output reads, and
        # each bound is the exact outage
        rows = {}
        for methods in ("lower_bound, upper_bound", "exact_quadrature"):
            path = tmp_path / "exp.cfg"
            path.write_text(
                "sweep = lambda\nstart = 1e-9\nstop = 0.7\nsteps = 3\np1 = 1e-300\n"
                f"p2 = 1e-300\nsigma2 = 1e-40\nt1 = 0\nmethods = {methods}\n"
                f"output_path = {tmp_path / 'x.csv'}\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
            for row in rows_of(read_csv(str(tmp_path / "x.csv"))):
                rows.setdefault(row.method, []).append(row.value)
        assert rows["lower_bound"] == rows["upper_bound"] == rows["exact_quadrature"]

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
        upper = [r.value for r in rows_of(read_csv(out)) if r.method == "upper_bound"]
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
        out = capsys.readouterr().out
        assert "lambda_star" in out
        for name in ("ls.csv", "ls_plot.py"):
            assert (tmp_path / name).exists()
            assert f"wrote {tmp_path / name}\n" in out

    def test_lambda_star_names_points_as_the_csv_does(self, tmp_path, capsys):
        # outage falls with lambda here: the best point is the last, and the
        # grid's values differ only past the 6th digit
        path = tmp_path / "exp.cfg"
        path.write_text("sweep = lambda\nstart = 0.3\nstop = 0.3000001\nsteps = 3\n"
                        f"methods = exact_quadrature\noutput_path = {tmp_path / 'ls.csv'}\n")
        assert cli.main(["lambda-star", "--config", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"lambda_star = 0\.3000001  value = \S+  "
                            r"bracket = \[0\.30000005, 0\.3000001\]", first), first

    def test_run_counts_points_times_columns(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = lambda\nstart = 0.4\nstop = 0.6\nsteps = 3\n"
            "methods = capacity_quadrature, capacity_bounds\n"
            f"output_path = {tmp_path / 'c.csv'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == 0
        # 3 points of 4 columns: capacity_quadrature and the three bounds
        assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'c.csv'} (12 rows)\n")

    def test_validate_command_names_every_file_it_writes(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "sweep = snr_db\nstart = 15\nstop = 20\nsteps = 2\n"
            "methods = mc, exact_quadrature\nmc_n = 50000\nseed = 11\n"
            f"output_path = {tmp_path / 'v.csv'}\n"
        )
        assert cli.main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        for name in ("v.csv", "v_plot.py", "v.csv.validation.txt"):
            assert (tmp_path / name).exists()
            assert f"wrote {tmp_path / name}\n" in out


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

    def test_cli_import_leaves_out_logging_and_concurrent_futures(self):
        # Monte Carlo lanes run on plain threads, no module logs and the
        # config is a NamedTuple, so none of these imports runs in a fresh process
        selected = "m in ('logging', 'concurrent.futures', 'dataclasses', 'copy')"
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
