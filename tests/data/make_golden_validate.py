"""Regenerate golden_validate/: the CSV and report that ``validate`` writes
for each config there, frozen byte for byte.

Each ``<name>.cfg`` is a config without an ``output_path``; it is run with
``output_path = <name>.csv`` from inside a scratch directory, so the
report's first line names ``<name>.csv`` and no directory.  The frozen
``<name>.csv`` and ``<name>.csv.validation.txt`` are what the sweep and its
report hold at any worker count: ``test_sweep_cli.py`` runs each config at
1 and 2 workers, and CI at 1 and 3 from the console script, and both
compare with these bytes.  Rerun this only for a change meant to alter a
``validate`` output:

    PYTHONPATH=src python tests/data/make_golden_validate.py
"""

import os
import shutil
import tempfile
from pathlib import Path

from twrelay.config import ExperimentConfig, load_config
from twrelay.sweep import validate_sweep

GOLDEN = Path(__file__).parent / "golden_validate"

#: The configs, by name: sym (P1 = P2, t1 = t2), asym (P1 != P2, t1 != t2),
#: tied (P1 = P2, t1 != t2) and d1 (new fading means at every point).
NAMES = ("sym", "asym", "tied", "d1")


def validate_config(name: str, **overrides) -> ExperimentConfig:
    """The config ``<name>.cfg``, writing ``<name>.csv`` in the working directory."""
    return load_config(str(GOLDEN / f"{name}.cfg"), output_path=f"{name}.csv", **overrides)


def main() -> None:
    with tempfile.TemporaryDirectory() as td:
        os.chdir(td)
        for name in NAMES:
            report = validate_sweep(validate_config(name, workers=1))
            for path in (f"{name}.csv", report.report_path):
                shutil.copyfile(path, GOLDEN / path)


if __name__ == "__main__":
    main()
