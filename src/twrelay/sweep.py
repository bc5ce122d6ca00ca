"""Sweep engine: evaluates requested methods over a parameter grid,
emits deterministic CSV plus a companion plot script, cross-validates
analytic values against Monte Carlo, and grid-searches the power split.
The four figure presets are config texts (``PRESETS``), parsed as ``run``
parses a config file; the plot script takes its labels from the axis and
family tables (``config.AXES``, ``methods.FAMILIES``).

A sweep's result is its columns: the grid of axis values, and for each CSV
row name one column of values, one per grid point, with the standard
errors of a Monte Carlo column.  The CSV, ``validate`` and lambda-star all
read those columns by grid index.

CSV layout: '#'-prefixed metadata comment lines (config echo, seed,
version), then ``axis,method,value,std_err`` rows with 12 significant
digits, point by point in column order.  Wall time is kept out of the file
on purpose: re-running a preset with the same seed must reproduce the CSV
byte for byte.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import AXES, ONE_LINE, ExperimentConfig, canonical_items, parse_config_text
from .errors import ConfigError, DomainError, NumericalError
from .mc import Estimate
from .methods import EXACT, FAMILIES, LOWER, METHODS, REFERENCE, UPPER


class Column(NamedTuple):
    method: str  # the CSV row name: the method, and its row's suffix
    values: list[float]  # one per grid point
    std_errs: list[float] | None  # one per grid point for Monte Carlo, else None


class SweepResult(NamedTuple):
    grid: list[float]
    columns: list[Column]
    metadata: dict[str, str]
    wall_time_s: float = 0.0


def run_sweep(config: ExperimentConfig, write: bool = True) -> SweepResult:
    """Evaluate every requested method at every axis point.

    The points of the config's Plan, bound when it was made, are one batch;
    each method's evaluator runs once over it (methods sharing one share
    its run), and each of the method's rows is a column of its evaluator's
    outputs, in method order.  Deterministic given the seed; writes the CSV
    and a matplotlib script referencing it (unless ``write=False``).  The
    output paths are checked before any evaluation, so a bad path fails fast.
    """
    if write:
        _require_writable(config.output_path, plot_script_path(config))
    started = time.perf_counter()
    family, grid, labels, params, targets, r = config.plan
    outputs: dict = {}  # evaluator -> its outputs
    for method in config.methods:
        evaluate = METHODS[method].evaluators[family]
        if evaluate in outputs:
            continue
        try:
            outputs[evaluate] = evaluate(config, params, targets, r)
        except (NumericalError, DomainError) as exc:
            # an error raised inside an array pass may not know its point
            point = f"{config.sweep}={labels[exc.point]}, " if hasattr(exc, "point") else ""
            raise type(exc)(f"{point}method={method}: {exc}") from exc
    columns = []
    for method in config.methods:
        spec = METHODS[method]
        for (suffix, _), out in zip(spec.rows, outputs[spec.evaluators[family]][spec.first:]):
            # a Monte Carlo output is one Estimate of columns, a closed form's its values
            values, errs = (out.mean, out.std_err) if isinstance(out, Estimate) else (out, None)
            columns.append(Column(method + suffix, values, errs))
    metadata = {f"config.{k}": v for k, v in canonical_items(config)}
    metadata["version"] = __version__
    result = SweepResult(grid, columns, metadata, time.perf_counter() - started)
    if write:
        write_csv(result, config.output_path)
        write_plot_script(config)
    return result


def _require_writable(*paths: str) -> None:
    """Raise ConfigError unless files can be written at ``paths``, which
    share one directory: it exists and is writable, and no path is a
    directory."""
    directory = os.path.dirname(paths[0]) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"output directory {directory!r} is not writable")
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is an existing directory")


def write_csv(result: SweepResult, path: str) -> None:
    lines = [f"# {k} = {v}" for k, v in sorted(result.metadata.items())]
    lines.append("axis,method,value,std_err")
    for i, axis in enumerate(result.grid):
        head = f"{axis:.12g},"
        lines.extend(f"{head}{method},{values[i]:.12g},{'' if errs is None else f'{errs[i]:.12g}'}"
                     for method, values, errs in result.columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''"""Plot {csv_name} (auto-generated; not needed by any test)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("{csv_name}", "r", encoding="utf-8") as fh:
    for line in fh:
        if line.startswith("#") or line.startswith("axis,"):
            continue
        axis, method, value, _err = line.rstrip("\\n").split(",")
        series[method].append((float(axis), float(value)))

fig, ax = plt.subplots(figsize=(6.4, 4.8))
for method, points in series.items():
    xs, ys = zip(*sorted(points))
    ax.plot(xs, ys, marker="o", markersize=3, label=method)
ax.set_xlabel("{xlabel}")
ax.set_ylabel("{ylabel}")
{yscale}ax.grid(True, which="both", alpha=0.4)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("{stem}.png", dpi=150)
print("wrote {stem}.png")
'''


#: What a name needs escaped inside the plot script's double-quoted string
#: literals and its docstring: a quote, and what keeps it on one line;
#: every other character is written as is.
_ESCAPES = {**ONE_LINE, ord('"'): '\\"'}


def _stem(config: ExperimentConfig) -> str:
    """The output path without its .csv suffix; the plot files share it."""
    return config.output_path.removesuffix(".csv")


def plot_script_path(config: ExperimentConfig) -> str:
    return _stem(config) + "_plot.py"


def write_plot_script(config: ExperimentConfig) -> str:
    family = FAMILIES[config.plan.family]
    script = _PLOT_TEMPLATE.format(
        csv_name=os.path.basename(config.output_path).translate(_ESCAPES),
        xlabel=AXES[config.sweep].label,
        ylabel=family.label,
        yscale='ax.set_yscale("log")\n' if family.log_scale else "",
        stem=os.path.basename(_stem(config)).translate(_ESCAPES),
    )
    path = plot_script_path(config)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    return path


class ValidationReport(NamedTuple):
    passed: bool
    lines: list[str]
    report_path: str = ""

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


#: The interval's half-width in standard errors: the nominal two-sided rate
#: of a false FAIL is 0.27%.
_Z = 3.0


def wilson_interval(p: float, n: int) -> tuple[float, float]:
    """The Wilson score interval at z = ``_Z`` of an outage proportion
    ``p = k/n`` counted over ``n`` draws (Wilson, *JASA* 1927): every p0
    with |k/n - p0| <= z*sqrt(p0*(1 - p0)/n).  At k = 0 it is
    [0, z^2/(n + z^2)], 9/(n + 9) at z = 3, where the normal interval
    k/n -/+ z*std_err shrinks to the point 0."""
    k = round(p * n)
    spread = _Z * math.sqrt(_Z * _Z + 4.0 * k * (n - k) / n)
    scale = 2.0 * (n + _Z * _Z)
    return (2.0 * k + _Z * _Z - spread) / scale, (2.0 * k + _Z * _Z + spread) / scale


def judge(judgment: str, analytic: float, mc: float, std_err: float,
          n: int | None = None) -> tuple[bool, str]:
    """The verdict of an exact or bound row's ``analytic`` value against the
    Monte Carlo estimate ``mc`` and its ``std_err``, with the claim its
    report line prints.  An outage proportion, counted over ``n`` draws, is
    judged against its ``wilson_interval``: an exact row must lie inside
    it, a lower bound at or below its upper end and an upper bound at or
    above its lower end.  Any other estimate (``n`` None) takes 3*std_err
    about its mean the same way."""
    if n is not None:
        lo, hi = wilson_interval(mc, n)
        return {
            EXACT: (lo <= analytic <= hi, f"{analytic:.6g} in wilson=[{lo:.6g}, {hi:.6g}]"),
            LOWER: (analytic <= hi, f"{analytic:.6g} <= wilson_hi={hi:.6g}"),
            UPPER: (analytic >= lo, f"{analytic:.6g} >= wilson_lo={lo:.6g}"),
        }[judgment]
    slack = _Z * std_err
    gap, ceiling, floor = abs(analytic - mc), mc + slack, mc - slack
    return {
        EXACT: (gap <= slack, f"|analytic-mc|={gap:.6g} vs 3*std_err={slack:.6g}"),
        LOWER: (analytic <= ceiling, f"{analytic:.6g} <= mc+3se={ceiling:.6g}"),
        UPPER: (analytic >= floor, f"{analytic:.6g} >= mc-3se={floor:.6g}"),
    }[judgment]


def validate_sweep(config: ExperimentConfig) -> ValidationReport:
    """Compare analytic methods against the Monte Carlo reference per point:
    each column against the ``mc`` column at each grid index.

    Each row is judged as its method's table entry says (``judge``): exact
    rows must sit inside the Monte Carlo interval, and bound rows must
    bracket it.  An outage sweep's interval is the Wilson score interval of
    its proportion at z = 3, which holds where Monte Carlo counts few
    events or none; a capacity or dmt sweep's is its mean -/+ 3*std_err.
    Reference curves (high_snr, non_coop) are reported but not judged.

    At z = 3 a correct exact row FAILs at about the normal rate, 0.27%,
    where n*p is large.  Where Monte Carlo counts only a few events the
    rate is the binomial chance of a count outside the interval: at most
    1.1% where n*p >= 2, up to 4.0% (near n*p = 0.32) where n*p is 0.092
    to 2, and up to 8.8% just below n*p = 0.092, where a count of 1 puts
    the lower end, 0.092/n, above p.
    """
    judgments = {m + sfx: j for m in config.methods for sfx, j in METHODS[m].rows}
    if "mc" not in config.methods or set(judgments.values()) == {REFERENCE}:
        raise ConfigError(
            "validate needs the mc method and an exact or bound method to judge "
            f"against it; got {config.methods}"
        )
    report_path = config.output_path + ".validation.txt"
    _require_writable(report_path)
    result = run_sweep(config)
    lines = [f"validation of {config.output_path.translate(ONE_LINE)} "
             f"({config.plan.family} sweep)"]
    all_passed = True
    mc_column = next(column for column in result.columns if column.method == "mc")
    draws = config.mc_n if config.plan.family == "outage" else None
    for i, label in enumerate(config.plan.labels):
        for method, values, _ in result.columns:
            if method == "mc":
                continue
            head = f"{config.sweep}={label} {method}:"
            if judgments[method] == REFERENCE:
                lines.append(f"{head} reference curve (not judged)")
                continue
            ok, claim = judge(judgments[method], values[i], mc_column.values[i],
                              mc_column.std_errs[i], draws)
            lines.append(f"{head} {claim} -> {'PASS' if ok else 'FAIL'}")
            all_passed = all_passed and ok
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    report = ValidationReport(passed=all_passed, lines=lines, report_path=report_path)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.text())
    return report


class LambdaStar(NamedTuple):
    lambda_star: float
    value: float
    bracket: tuple[float, float]
    flat: bool


def find_lambda_star(config: ExperimentConfig) -> LambdaStar:
    """Best grid point of a single analytic metric over a lambda sweep.

    Best is the maximum for capacity and dmt, the minimum for outage.
    Reports the neighboring grid bracket; no interpolation is attempted.
    A constant metric returns the first grid point, flagged as flat.
    """
    if config.sweep != "lambda":
        raise ConfigError(f"lambda-star needs a lambda sweep; got {config.sweep!r}")
    spec = METHODS.get(config.methods[0]) if len(config.methods) == 1 else None
    if spec is None or not spec.analytic or len(spec.rows) != 1:
        raise ConfigError(
            "lambda-star needs exactly one single-valued analytic method; "
            f"got {config.methods}"
        )
    result = run_sweep(config)
    grid, values = result.grid, result.columns[0].values
    flat = max(values) == min(values)
    pick = np.argmax if FAMILIES[config.plan.family].maximise else np.argmin
    best = 0 if flat else int(pick(values))
    bracket = (grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)])
    return LambdaStar(
        lambda_star=grid[best], value=values[best], bracket=bracket, flat=flat
    )


#: The four figure presets, the paper's own figures, as config texts:
#: ``reproduce --figure N`` is ``run`` on ``PRESETS[N]`` with
#: ``output_path = DIR/figN.csv``.
PRESETS = {
    1: "# fig1: outage vs SNR at lambda = 3/4, with the bounds and the baseline\n"
       "sweep = snr_db\nstart = 0\nstop = 30\nsteps = 7\nlambda = 0.75\nseed = 1001\n"
       "methods = mc, exact_quadrature, lower_bound, upper_bound, non_coop\n",
    2: "# fig2: ergodic capacity vs lambda at 20 dB, with the bounds and the baseline\n"
       "sweep = lambda\nstart = 0.05\nstop = 0.95\nsteps = 19\nsnr_db = 20\nseed = 1002\n"
       "methods = mc, capacity_quadrature, capacity_series, capacity_bounds, non_coop\n",
    3: "# fig3: diversity gain vs SNR at r = 0.5, lambda = 3/4\n"
       "sweep = snr_db\nstart = 5\nstop = 20\nsteps = 4\nlambda = 0.75\nr = 0.5\n"
       "seed = 1003\nmethods = dmt\n",
    4: "# fig4: diversity gain vs lambda at r = 0.5, 20 dB\n"
       "sweep = lambda\nstart = 0.05\nstop = 0.95\nsteps = 19\nsnr_db = 20\nr = 0.5\n"
       "seed = 1004\nmethods = dmt\n",
}


def figure_preset(
    figure: int,
    n: int | None = None,
    seed: int | None = None,
    out_dir: str = ".",
    **overrides,
) -> ExperimentConfig:
    """The config of figure preset ``figure``: ``PRESETS[figure]`` parsed
    by ``config.parse_config_text``, writing ``<out_dir>/fig<figure>.csv``.

    ``n`` (the MC sample count), ``seed`` and ``overrides`` (field values)
    are that function's overrides: they replace the preset's where not None.
    """
    if figure not in PRESETS:
        raise ConfigError(f"figure must be 1..4; got {figure}")
    return parse_config_text(
        PRESETS[figure], output_path=os.path.join(out_dir, f"fig{figure}.csv"),
        mc_n=n, seed=seed, **overrides)
