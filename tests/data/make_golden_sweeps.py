"""Regenerate golden_sweeps.json: every closed-form row of ten sweeps.

The committed file was written by an earlier version of the closed forms,
and is kept as it is.  Rerunning this writes 581 of its 1,923 values
differently, by at most 6.8e-13 relative; ``tests/test_batch.py`` compares
at 1e-12 relative, so the file still checks today's values.

The sweeps are the four figure presets without their ``mc`` rows and six
dense closed-form sweeps: capacity against lambda at 20 dB and at 2 dB,
capacity against SNR, outage against SNR and against the relay position
d1, and the diversity gain against the multiplexing gain r.  Each entry
holds the sweep's config (every field but ``workers`` and ``output_path``)
and its rows as ``[axis, method, value]``, the numbers as ``float.hex``.
Rerun this only for a change meant to alter closed-form output:

    PYTHONPATH=src python tests/data/make_golden_sweeps.py
"""

import json
from pathlib import Path

from twrelay.config import ExperimentConfig
from twrelay.sweep import figure_preset, run_sweep

OUTAGE = ("exact_quadrature", "exact_taylor", "lower_bound", "upper_bound",
          "high_snr", "non_coop")
CAPACITY = ("capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop")


def golden_configs() -> dict[str, ExperimentConfig]:
    configs = {}
    for figure in (1, 2, 3, 4):
        preset = figure_preset(figure)
        configs[f"fig{figure}"] = preset._replace(
            methods=tuple(m for m in preset.methods if m != "mc")
        )
    configs.update({
        "cap_lambda_20db": ExperimentConfig(
            sweep="lambda", start=0.05, stop=0.95, steps=37, snr_db=20.0,
            methods=CAPACITY),
        "cap_lambda_2db": ExperimentConfig(
            sweep="lambda", start=0.05, stop=0.95, steps=37, snr_db=2.0,
            methods=CAPACITY),
        "cap_snr": ExperimentConfig(
            sweep="snr_db", start=0.0, stop=30.0, steps=31, lam=0.5, methods=CAPACITY),
        "out_snr": ExperimentConfig(
            sweep="snr_db", start=0.0, stop=40.0, steps=81, methods=OUTAGE),
        "out_d1": ExperimentConfig(
            sweep="d1", start=0.05, stop=0.95, steps=91, snr_db=15.0, methods=OUTAGE),
        "dmt_r": ExperimentConfig(
            sweep="r", start=0.05, stop=1.0, steps=96, methods=("dmt",)),
    })
    return configs


def main() -> None:
    data = {}
    for name, config in golden_configs().items():
        fields = config._asdict()
        del fields["workers"], fields["output_path"]
        result = run_sweep(config, write=False)
        data[name] = {
            "config": fields,
            "rows": [
                [axis.hex(), method, values[i].hex()]
                for i, axis in enumerate(result.grid) for method, values, _ in result.columns
            ],
        }
    path = Path(__file__).parent / "golden_sweeps.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
