"""Regenerate golden_presets/fig1.csv .. fig4.csv: the CSV of each figure
preset, frozen byte for byte.

Each file is what ``run_sweep`` writes for ``figure_preset(N, n=200_000)``
at its shipped seed and 1 worker, the run that
``test_acceptance.py::test_c12_preset_determinism_across_workers`` repeats
at 1, 2 and 8 workers and compares with these bytes.  Rerun this only for a
change meant to alter a preset's output:

    PYTHONPATH=src python tests/data/make_golden_presets.py
"""

import shutil
import tempfile
from pathlib import Path

from twrelay.sweep import figure_preset, run_sweep

N = 200_000


def main() -> None:
    out = Path(__file__).parent / "golden_presets"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as td:
        for figure in (1, 2, 3, 4):
            config = figure_preset(figure, n=N, out_dir=td, workers=1)
            run_sweep(config)
            shutil.copyfile(config.output_path, out / f"fig{figure}.csv")


if __name__ == "__main__":
    main()
