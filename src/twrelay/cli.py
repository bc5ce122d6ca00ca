"""Command-line experiment runner.

Subcommands: ``run`` (execute a sweep from a config file), ``validate``
(sweep plus analytic-vs-Monte-Carlo agreement report), ``reproduce``
(frozen figure presets fig1..fig4), ``lambda-star`` (grid search of the
power split).  Each prints ``wrote <path>`` for every file it writes: the
CSV, ``<stem>_plot.py`` and, for ``validate``, ``<csv>.validation.txt``.
Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import load_config
from .errors import ConfigError, DomainError, NumericalError, ParameterError
from .sweep import (
    figure_preset,
    find_lambda_star,
    plot_script_path,
    run_sweep,
    validate_sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first ``main`` call of a process and
    reused by the later ones: parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="twrelay",
        description="Two-way energy-harvesting relay performance lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep described by a config file")
    run_p.add_argument("--config", required=True, help="path to key = value config")

    val_p = sub.add_parser(
        "validate", help="run a sweep and judge analytic-vs-MC agreement"
    )
    val_p.add_argument("--config", required=True)

    rep_p = sub.add_parser("reproduce", help="run a frozen figure preset")
    rep_p.add_argument("--figure", type=int, required=True, choices=(1, 2, 3, 4))
    rep_p.add_argument("--n", type=int, help="Monte Carlo sample count override")
    rep_p.add_argument("--seed", type=int, help="root seed override")
    rep_p.add_argument("--out", default=".", help="output directory")

    ls_p = sub.add_parser("lambda-star", help="grid-search the power split")
    ls_p.add_argument("--config", required=True)

    for sub_p in (run_p, val_p, rep_p, ls_p):
        sub_p.add_argument("--workers", type=int, help="Monte Carlo threads")
    return parser


def _configured(args):
    # one config, made with its overrides: --workers 0 is a config error like a key's
    if args.command == "reproduce":
        return figure_preset(args.figure, n=args.n, seed=args.seed, out_dir=args.out,
                             workers=args.workers)
    return load_config(args.config, workers=args.workers)


def _print_written(*paths: str) -> None:
    for path in paths:
        print(f"wrote {path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _configured(args)
        if args.command in ("run", "reproduce"):
            result = run_sweep(config)
            print(f"wrote {config.output_path} ({len(result.grid) * len(result.columns)} rows)")
            print(f"wrote {plot_script_path(config)}")
            print(f"wall time: {result.wall_time_s:.2f} s", file=sys.stderr)
            return EXIT_OK
        if args.command == "validate":
            report = validate_sweep(config)
            print(report.text(), end="")
            _print_written(config.output_path, plot_script_path(config), report.report_path)
            return EXIT_OK if report.passed else EXIT_VALIDATION
        # lambda-star: the parser admits no other command
        best = find_lambda_star(config)
        flat_note = " (flat grid; returning the first point)" if best.flat else ""
        label = dict(zip(config.plan.grid, config.plan.labels))
        print(
            f"lambda_star = {label[best.lambda_star]}  value = {best.value:.6g}  "
            f"bracket = [{label[best.bracket[0]]}, {label[best.bracket[1]]}]{flat_note}"
        )
        _print_written(config.output_path, plot_script_path(config))
        return EXIT_OK
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
