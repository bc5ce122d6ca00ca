"""Regenerate golden_presets/: the CSV of each figure preset and of four
dense closed-form sweeps, frozen byte for byte.

``fig1.csv`` .. ``fig4.csv`` are what ``run_sweep`` writes for
``figure_preset(N, n=200_000)`` at its shipped seed and 1 worker, the run
that ``test_acceptance.py::test_c12_preset_determinism_across_workers``
repeats at 1, 2 and 8 workers and compares with these bytes.
The ``DENSE`` sweeps are shaped like the benchmark's ``analytic-dense`` ones
on shorter grids: every outage method against the relay position d1
(``out_d1.csv``), the diversity gain against the multiplexing gain r
(``dmt_r.csv``), and every capacity method against lambda, at the
symmetric point at 2 dB (``cap_lambda_2db.csv``, where both directions of
a point follow one SNR law) and with the relay at d1 = 0.3 at 20 dB
(``cap_lambda_d1.csv``, where they differ); ``test_c12_dense_sweeps_frozen``
compares them.  Rerun
this only for a change meant to alter a preset's or a sweep's output:

    PYTHONPATH=src python tests/data/make_golden_presets.py
"""

import os
import shutil
import tempfile
from pathlib import Path

from twrelay.config import ExperimentConfig
from twrelay.sweep import figure_preset, run_sweep

N = 200_000

OUTAGE = ("exact_quadrature", "exact_taylor", "lower_bound", "upper_bound",
          "high_snr", "non_coop")
CAPACITY = ("capacity_quadrature", "capacity_series", "capacity_bounds", "non_coop")

#: The dense sweeps, by CSV stem: the fields of each one's ExperimentConfig.
DENSE = {
    "out_d1": dict(sweep="d1", start=0.05, stop=0.95, steps=19, snr_db=15.0,
                   methods=OUTAGE),
    "dmt_r": dict(sweep="r", start=0.05, stop=1.0, steps=20, methods=("dmt",)),
    "cap_lambda_2db": dict(sweep="lambda", start=0.05, stop=0.95, steps=19, snr_db=2.0,
                           methods=CAPACITY),
    "cap_lambda_d1": dict(sweep="lambda", start=0.05, stop=0.95, steps=19, snr_db=20.0,
                          d1=0.3, methods=CAPACITY),
}


def dense_config(name: str, out_dir: str) -> ExperimentConfig:
    """The dense sweep ``name``, writing ``<out_dir>/<name>.csv``."""
    return ExperimentConfig(
        **DENSE[name], output_path=os.path.join(out_dir, f"{name}.csv"))


def main() -> None:
    out = Path(__file__).parent / "golden_presets"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as td:
        configs = [figure_preset(figure, n=N, out_dir=td, workers=1)
                   for figure in (1, 2, 3, 4)]
        configs += [dense_config(name, td) for name in DENSE]
        for config in configs:
            run_sweep(config)
            shutil.copyfile(config.output_path, out / os.path.basename(config.output_path))


if __name__ == "__main__":
    main()
