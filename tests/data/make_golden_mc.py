"""Regenerate golden_mc.json: the Monte Carlo rows of six sweeps, frozen bit
for bit.

Each entry holds the sweep's config (every field but ``workers`` and
``output_path``) and, per axis point, the ``mc`` row's mean and standard
error as ``float.hex``.  The sweeps are fig1 (outage vs SNR), fig2 (capacity
vs lambda), an outage sweep over the relay position d1 (so the fading means
change from point to point), the fig3 dmt SNR sweep with ``mc`` added, and
an outage and a capacity sweep over lambda with P1 != P2 (the outage one
also with t1 != t2), the only points whose two directions differ in scale
or threshold.  All use n = 200_000, three full chunks of 2^16 and a partial
one, at 1 worker.  Rerun this only for a change meant to alter Monte Carlo
output:

    PYTHONPATH=src python tests/data/make_golden_mc.py
"""

import dataclasses
import json
from pathlib import Path

from twrelay.config import ExperimentConfig
from twrelay.sweep import figure_preset, run_sweep

N = 200_000


def golden_configs() -> dict[str, ExperimentConfig]:
    return {
        "fig1": figure_preset(1, n=N),
        "fig2": figure_preset(2, n=N),
        "d1_outage": ExperimentConfig(
            sweep="d1", start=0.2, stop=0.8, steps=7,
            methods=("mc", "exact_quadrature"), mc_n=N, seed=1005,
        ),
        "dmt_snr": figure_preset(3, n=N, methods=("mc", "dmt")),
        "asym_outage": ExperimentConfig(
            p1=100.0, p2=40.0, t1=1.0, t2=0.5, sweep="lambda", start=0.2, stop=0.8, steps=7,
            methods=("mc", "exact_quadrature"), mc_n=N, seed=1006,
        ),
        "asym_capacity": ExperimentConfig(
            p1=100.0, p2=40.0, sweep="lambda", start=0.05, stop=0.95, steps=7,
            methods=("mc", "capacity_quadrature"), mc_n=N, seed=1007,
        ),
    }


def main() -> None:
    data = {}
    for name, config in golden_configs().items():
        rows = run_sweep(config, write=False).rows
        fields = dataclasses.asdict(config)
        del fields["workers"], fields["output_path"]
        data[name] = {
            "config": fields,
            "mc": [[r.value.hex(), r.std_err.hex()] for r in rows if r.method == "mc"],
        }
    path = Path(__file__).parent / "golden_mc.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
