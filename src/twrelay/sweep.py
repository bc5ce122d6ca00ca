"""Sweep engine: evaluates requested methods over a parameter grid,
emits deterministic CSV plus a companion plot script, cross-validates
analytic values against Monte Carlo, and grid-searches the power split.

CSV layout: '#'-prefixed metadata comment lines (config echo, seed,
version), then ``axis,method,value,std_err`` rows with 12 significant
digits.  Wall time is kept out of the file on purpose: re-running a preset
with the same seed must reproduce the CSV byte for byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    canonical_items,
    resolve_points,
    with_overrides,
)
from .errors import ConfigError, DomainError, NumericalError
from .mc import Estimate
from .methods import EXACT, FAMILIES, LOWER, METHODS, REFERENCE, UPPER


class SweepRow(NamedTuple):
    axis_value: float
    method: str
    value: float
    std_err: float | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    metadata: dict[str, str]
    wall_time_s: float = 0.0


def axis_grid(config: ExperimentConfig) -> list[float]:
    return [float(v) for v in np.linspace(config.start, config.stop, config.steps)]


def run_sweep(config: ExperimentConfig, write: bool = True) -> SweepResult:
    """Evaluate every requested method at every axis point.

    The grid resolves into one batch of points, each method's evaluator
    runs once over it (methods that share one share its run), and each
    method's rows are columns of its evaluator's outputs; the rows are
    emitted point by point in method order.  Deterministic given the seed;
    writes the CSV and a matplotlib script referencing it (unless
    ``write=False``).  The output directory is checked before any
    evaluation, so a bad path fails fast.
    """
    if write:
        _require_writable_dir(config.output_path)
    started = time.perf_counter()
    family = config.metric_family
    grid = axis_grid(config)
    points = resolve_points(config, grid)
    outputs: dict = {}  # evaluator -> its outputs
    for method in config.methods:
        evaluate = METHODS[method].evaluators[family]
        if evaluate in outputs:
            continue
        try:
            outputs[evaluate] = evaluate(config, *points)
        except (NumericalError, DomainError) as exc:
            # an error raised inside an array pass may not know its point
            point = f"{config.sweep}={grid[exc.point]:.6g}, " if hasattr(exc, "point") else ""
            raise type(exc)(f"{point}method={method}: {exc}") from exc
    columns = []  # (row name, values, std_errs) of each row of a point, in order
    no_errs = [None] * len(grid)
    for method in config.methods:
        spec = METHODS[method]
        for (suffix, _), out in zip(spec.rows, outputs[spec.evaluators[family]][spec.first:]):
            # a Monte Carlo output is one Estimate of columns, a closed form's its values
            values, errs = (out.mean, out.std_err) if isinstance(out, Estimate) else (out, no_errs)
            columns.append((method + suffix, values, errs))
    rows = [SweepRow(value, name, values[i], errs[i])
            for i, value in enumerate(grid) for name, values, errs in columns]
    metadata = {f"config.{k}": v for k, v in canonical_items(config)}
    metadata["version"] = __version__
    result = SweepResult(
        rows=rows, metadata=metadata, wall_time_s=time.perf_counter() - started
    )
    if write:
        write_csv(result, config.output_path)
        write_plot_script(config)
    return result


def _require_writable_dir(path: str) -> None:
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"output directory {directory!r} is not writable")


def write_csv(result: SweepResult, path: str) -> None:
    lines = [f"# {k} = {v}" for k, v in sorted(result.metadata.items())]
    lines.append("axis,method,value,std_err")
    axis_of = None  # the rows of a sweep point share one axis float: format it once
    for axis, method, value, err in result.rows:
        if axis is not axis_of:
            axis_of, head = axis, f"{axis:.12g},"
        lines.append(f"{head}{method},{value:.12g},{'' if err is None else f'{err:.12g}'}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> SweepResult:
    """Parse a sweep CSV back into rows + metadata (round-trips exactly)."""
    rows: list[SweepRow] = []
    metadata: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                metadata[key] = value
                continue
            if line == "axis,method,value,std_err":
                continue
            axis_s, method, value_s, err_s = line.split(",")
            rows.append(
                SweepRow(
                    float(axis_s),
                    method,
                    float(value_s),
                    float(err_s) if err_s else None,
                )
            )
    return SweepResult(rows=rows, metadata=metadata)


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


def _stem(config: ExperimentConfig) -> str:
    """The output path without its .csv suffix; the plot files share it."""
    return config.output_path.removesuffix(".csv")


def plot_script_path(config: ExperimentConfig) -> str:
    return _stem(config) + "_plot.py"


def write_plot_script(config: ExperimentConfig) -> str:
    family = config.metric_family
    ylabel = {
        "outage": "outage probability",
        "capacity": "ergodic capacity (bit/s/Hz)",
        "dmt": "diversity gain",
    }[family]
    xlabel = {
        "snr_db": "SNR (dB)",
        "lambda": "power splitting ratio",
        "r": "multiplexing gain",
        "d1": "relay position",
    }[config.sweep]
    script = _PLOT_TEMPLATE.format(
        csv_name=os.path.basename(config.output_path),
        xlabel=xlabel,
        ylabel=ylabel,
        yscale='ax.set_yscale("log")\n' if family == "outage" else "",
        stem=os.path.basename(_stem(config)),
    )
    path = plot_script_path(config)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    return path


@dataclass
class ValidationReport:
    passed: bool
    lines: list[str] = field(default_factory=list)
    report_path: str = ""

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def validate_sweep(config: ExperimentConfig) -> ValidationReport:
    """Compare analytic methods against the Monte Carlo reference per point.

    Each row is judged as its method's table entry says: exact rows must
    sit within 3 standard errors of the MC mean; bound rows must bracket it
    (with the same 3*std_err slack); reference curves (high_snr, non_coop)
    are reported but not judged.
    """
    judgments = {m + sfx: j for m in config.methods for sfx, j in METHODS[m].rows}
    if "mc" not in config.methods or set(judgments.values()) == {REFERENCE}:
        raise ConfigError(
            "validate needs the mc method and an exact or bound method to judge "
            f"against it; got {config.methods}"
        )
    result = run_sweep(config)
    by_axis: dict[float, dict[str, SweepRow]] = {}
    for row in result.rows:
        by_axis.setdefault(row.axis_value, {})[row.method] = row
    lines = [f"validation of {config.output_path} ({config.metric_family} sweep)"]
    all_passed = True
    for value in sorted(by_axis):
        point = by_axis[value]
        mc_row = point["mc"]
        slack = 3.0 * (mc_row.std_err or 0.0)
        for method, row in point.items():
            if method == "mc":
                continue
            head = f"{config.sweep}={value:.6g} {method}:"
            if judgments[method] == REFERENCE:
                lines.append(f"{head} reference curve (not judged)")
                continue
            gap = abs(row.value - mc_row.value)
            ceiling, floor = mc_row.value + slack, mc_row.value - slack
            ok, claim = {
                EXACT: (gap <= slack, f"|analytic-mc|={gap:.6g} vs 3*std_err={slack:.6g}"),
                LOWER: (row.value <= ceiling, f"{row.value:.6g} <= mc+3se={ceiling:.6g}"),
                UPPER: (row.value >= floor, f"{row.value:.6g} >= mc-3se={floor:.6g}"),
            }[judgments[method]]
            lines.append(f"{head} {claim} -> {'PASS' if ok else 'FAIL'}")
            all_passed = all_passed and ok
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    report_path = config.output_path + ".validation.txt"
    report = ValidationReport(passed=all_passed, lines=lines, report_path=report_path)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.text())
    return report


@dataclass(frozen=True)
class LambdaStar:
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
    rows = run_sweep(config).rows
    grid, values = [r.axis_value for r in rows], [r.value for r in rows]
    flat = max(values) == min(values)
    pick = np.argmax if FAMILIES[config.metric_family].maximise else np.argmin
    best = 0 if flat else int(pick(values))
    bracket = (grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)])
    return LambdaStar(
        lambda_star=grid[best], value=values[best], bracket=bracket, flat=flat
    )


def figure_preset(
    figure: int,
    n: int | None = None,
    seed: int | None = None,
    out_dir: str = ".",
    **overrides,
) -> ExperimentConfig:
    """Frozen experiment presets reproducing the four reference figures.

    fig1: outage vs SNR (0-30 dB, lambda = 3/4) with bounds and baseline.
    fig2: ergodic capacity vs lambda at 20 dB with bounds and baseline.
    fig3: diversity gain vs SNR at r = 0.5, lambda = 3/4.
    fig4: diversity gain vs lambda at r = 0.5, 20 dB.
    """
    presets = {
        1: dict(
            sweep="snr_db", start=0.0, stop=30.0, steps=7,
            lam=0.75,
            methods=("mc", "exact_quadrature", "lower_bound", "upper_bound", "non_coop"),
            seed=1001,
        ),
        2: dict(
            sweep="lambda", start=0.05, stop=0.95, steps=19,
            snr_db=20.0,
            methods=("mc", "capacity_quadrature", "capacity_series",
                     "capacity_bounds", "non_coop"),
            seed=1002,
        ),
        3: dict(
            sweep="snr_db", start=5.0, stop=20.0, steps=4,
            lam=0.75, r=0.5,
            methods=("dmt",),
            seed=1003,
        ),
        4: dict(
            sweep="lambda", start=0.05, stop=0.95, steps=19,
            snr_db=20.0, r=0.5,
            methods=("dmt",),
            seed=1004,
        ),
    }
    if figure not in presets:
        raise ConfigError(f"figure must be 1..4; got {figure}")
    fields_ = dict(presets[figure])
    fields_["output_path"] = os.path.join(out_dir, f"fig{figure}.csv")
    if n is not None:
        fields_["mc_n"] = int(n)
    if seed is not None:
        fields_["seed"] = int(seed)
    config = ExperimentConfig(**fields_)
    if overrides:
        config = with_overrides(config, **overrides)
    return config
