"""Regenerate golden_specfun.json: special-function values from mpmath.

Each argument is a double; mpmath evaluates the function at that exact
binary value with 50 significant digits, and the result is rounded once to
the nearest double.  The file was made with mpmath 1.3.0:

    python tests/data/make_golden.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

DIGITS = 50


def _table(func, args):
    return [[float(a), float(func(mp.mpf(float(a))))] for a in args]


def main() -> None:
    mp.mp.dps = DIGITS
    # Both sides of the switch from e^z E1(z) to hyperu at z = 700.
    psi_switch = [650.0, 699.0, 700.0, 700.5, 701.0, 709.5, 710.0, 750.0]
    data = {
        "mpmath_version": mp.__version__,
        "digits": DIGITS,
        "xk1": _table(lambda x: x * mp.besselk(1, x), np.geomspace(1e-8, 700.0, 121)),
        "psi11": _table(
            lambda z: mp.exp(z) * mp.e1(z),
            np.concatenate([np.geomspace(1e-300, 1e10, 121), psi_switch]),
        ),
        "e1": _table(mp.e1, np.geomspace(1e-300, 700.0, 121)),
    }
    # One [argument, value] pair per line keeps the file diffable.
    lines = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n".join(f"  {json.dumps(row)}" for row in value)
            lines.append(f"{json.dumps(key)}: [\n{rows}\n ]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path = Path(__file__).with_name("golden_specfun.json")
    path.write_text("{\n " + ",\n ".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
