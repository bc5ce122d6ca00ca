"""The benchmark's workloads: the CLI calls of one pass, per workload.

A workload is a list of ``twrelay.cli.main`` calls.  Each call writes
``<name>.csv`` into the pass's output directory; ``points`` and ``rows`` say
what that CSV must hold, and ``judge`` names the output checks applied to
it (see checks.py).  Sweeps that need a config file carry its text.

Seed 0 is the default: it keeps the seeds the presets ship with, so the
Monte Carlo rows reproduce the values frozen in ``frozen_mc.json``.  Any
other workload seed derives fresh MC seeds from it, on the same grids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0

# Figure presets and the root seeds they ship with (see sweep.figure_preset).
FIGURE_SEEDS = {1: 1001, 2: 1002, 3: 1003, 4: 1004}

OUTAGE = ("exact_quadrature", "exact_taylor", "lower_bound", "upper_bound",
          "high_snr", "non_coop")
CAPACITY = ("capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop")
BOUND_ROWS = ("capacity_bounds:lower", "capacity_bounds:tight_upper",
              "capacity_bounds:loose_upper")


@dataclass(frozen=True)
class Call:
    """One CLI call and the CSV it must write."""

    name: str
    argv: tuple[str, ...]
    points: int
    rows: tuple[str, ...]  # CSV method names at every point, in order
    judge: str | None = None
    config: str | None = None  # text of {out}/<name>.cfg


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]


def mc_seed(workload_seed: int, shipped: int) -> int:
    """The MC root seed a call uses under ``workload_seed``."""
    if workload_seed == DEFAULT_SEED:
        return shipped
    digest = hashlib.sha256(f"{workload_seed}:{shipped}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _rows(methods) -> tuple[str, ...]:
    out = []
    for m in methods:
        out.extend(BOUND_ROWS if m == "capacity_bounds" else (m,))
    return tuple(out)


def _sweep(command: str, name: str, judge: str | None, methods, **keys) -> Call:
    lines = [f"{k} = {v}" for k, v in keys.items()]
    lines.append(f"methods = {', '.join(methods)}")
    lines.append(f"output_path = {{out}}/{name}.csv")
    argv = (command, "--config", f"{{out}}/{name}.cfg")
    if command == "validate":
        argv += ("--workers", "2")
    return Call(name, argv, int(keys["steps"]), _rows(methods), judge,
                "\n".join(lines) + "\n")


def figures(seed: int) -> Workload:
    presets = {
        1: (7, ("mc", "exact_quadrature", "lower_bound", "upper_bound", "non_coop")),
        2: (19, ("mc",) + CAPACITY),
        3: (4, ("dmt",)),
        4: (19, ("dmt",)),
    }
    calls = []
    for fig, (points, methods) in presets.items():
        argv = ("reproduce", "--figure", str(fig), "--out", "{out}", "--workers", "1")
        if seed != DEFAULT_SEED:
            argv += ("--seed", str(mc_seed(seed, FIGURE_SEEDS[fig])))
        judge = "mc_agreement" if "mc" in methods else None
        calls.append(Call(f"fig{fig}", argv, points, _rows(methods), judge))
    return Workload("figures", tuple(calls))


def analytic_dense(seed: int) -> Workload:
    del seed  # no MC: every input is a fixed grid
    lam = {"lambda": 0.5}
    return Workload("analytic-dense", (
        _sweep("run", "cap_lambda_20db", "capacity_relations", CAPACITY,
               sweep="lambda", start=0.05, stop=0.95, steps=37, snr_db=20),
        # 2 dB keeps the known bound-chain fault of the tight upper bound visible.
        _sweep("run", "cap_lambda_2db", "capacity_relations", CAPACITY,
               sweep="lambda", start=0.05, stop=0.95, steps=37, snr_db=2),
        _sweep("run", "cap_snr", "capacity_relations", CAPACITY,
               sweep="snr_db", start=0, stop=30, steps=31, **lam),
        _sweep("run", "out_snr", "outage_relations", OUTAGE,
               sweep="snr_db", start=0, stop=40, steps=81),
        _sweep("run", "out_d1", "outage_relations", OUTAGE,
               sweep="d1", start=0.05, stop=0.95, steps=91, snr_db=15),
        _sweep("run", "dmt_r", None, ("dmt",),
               sweep="r", start=0.05, stop=1.0, steps=96),
    ))


def mc_validate(seed: int) -> Workload:
    lam = {"lambda": 0.75}
    return Workload("mc-validate", (
        _sweep("validate", "val_outage_snr", "validation_report",
               ("mc", "exact_quadrature", "lower_bound", "upper_bound", "non_coop"),
               sweep="snr_db", start=0, stop=30, steps=7, **lam,
               mc_n=4_000_000, seed=mc_seed(seed, FIGURE_SEEDS[1])),
        _sweep("validate", "val_capacity_lambda", "validation_report", ("mc",) + CAPACITY,
               sweep="lambda", start=0.1, stop=0.9, steps=9, snr_db=20,
               mc_n=2_000_000, seed=mc_seed(seed, FIGURE_SEEDS[2])),
        _sweep("validate", "val_dmt_snr", "validation_report", ("mc", "dmt"),
               sweep="snr_db", start=5, stop=20, steps=4, **lam, r=0.5,
               mc_n=2_000_000, seed=mc_seed(seed, FIGURE_SEEDS[3])),
    ))


WORKLOADS = {
    "figures": figures,
    "analytic-dense": analytic_dense,
    "mc-validate": mc_validate,
}
