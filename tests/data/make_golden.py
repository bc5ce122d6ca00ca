"""Regenerate the golden files from mpmath.

golden_specfun.json holds special-function values: each argument is a
double, mpmath evaluates the function at that exact binary value with 50
significant digits, and the result is rounded once to the nearest double.

golden_specfun_dense.json holds the same functions, made the same way, on
dense grids of 2,000 log-spaced points each: x*K1(x) on [1e-10, 700],
E1 on [1e-300, 700] and Psi(1, 1; z) on [1e-300, 1e300].  Each grid also
holds every seam of the branches in src/twrelay/specfun.py with the doubles
on both sides of it.

golden_integrals.json holds the package's integrals, each by mpmath's
tanh-sinh quadrature at 20 digits over panels split at every decade
where the integrand changes shape:
boundary-strip integrals int_0^v exp(-k/z - z/omega) dz, capacity survival
integrals int_0^inf exp(-s*z) x*K1(x)/(1+z) dz with x = 2*sqrt(mu*z), and
the ergodic capacity at parameter points of the box snr -10..60 dB,
lambda 0.05..0.95, eta 0.3..1, epsilon 0..1, d1 0.1..0.9, path-loss
exponent 2..4 (symmetric powers, unit noise), with the direction rates
derived from the parameters in mpmath.  All three files were made with
mpmath 1.3.0:

    python tests/data/make_golden.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

DIGITS = 50
INTEGRAL_DIGITS = 20
DENSE_POINTS = 2000

#: Where the branches of src/twrelay/specfun.py meet.
XK1_SEAMS = (1e-10, 2.0)
E1_SEAMS = (1.0, 4.0)


def _table(func, args):
    return [[float(a), float(func(mp.mpf(float(a))))] for a in args]


def _dense_grid(lo, hi, seams):
    """DENSE_POINTS log-spaced points on [lo, hi], and each seam with the
    doubles just below and just above it."""
    near = [np.nextafter(s, d) for s in seams for d in (0.0, np.inf)]
    return np.unique(np.concatenate([np.geomspace(lo, hi, DENSE_POINTS), seams, near]))


def _xk1(x):
    return x * mp.besselk(1, x)


def _psi11(z):
    return mp.exp(z) * mp.e1(z)


def main() -> None:
    mp.mp.dps = DIGITS
    # Both sides of z = 700, past which e^z alone soon overflows.
    psi_switch = [650.0, 699.0, 700.0, 700.5, 701.0, 709.5, 710.0, 750.0]
    data = {
        "mpmath_version": mp.__version__,
        "digits": DIGITS,
        "xk1": _table(_xk1, np.geomspace(1e-8, 700.0, 121)),
        "psi11": _table(_psi11, np.concatenate([np.geomspace(1e-300, 1e10, 121), psi_switch])),
        "e1": _table(mp.e1, np.geomspace(1e-300, 700.0, 121)),
    }
    _write("golden_specfun.json", data)
    dense = {
        "mpmath_version": mp.__version__,
        "digits": DIGITS,
        "xk1": _table(_xk1, _dense_grid(1e-10, 700.0, XK1_SEAMS)),
        "e1": _table(mp.e1, _dense_grid(1e-300, 700.0, E1_SEAMS)),
        "psi11": _table(_psi11, _dense_grid(1e-300, 1e300, E1_SEAMS)),
    }
    _write("golden_specfun_dense.json", dense)
    mp.mp.dps = INTEGRAL_DIGITS
    _write("golden_integrals.json", _integrals())


def _write(name: str, data: dict) -> None:
    # One row per line keeps the file diffable.
    lines = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n".join(f"  {json.dumps(row)}" for row in value)
            lines.append(f"{json.dumps(key)}: [\n{rows}\n ]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path = Path(__file__).with_name(name)
    path.write_text("{\n " + ",\n ".join(lines) + "\n}\n", encoding="utf-8")


def _panels(lo, hi, first, last):
    """Panel ends lo, every power of ten from first to last inside (lo, hi),
    hi; the integrand changes shape only between first and last."""
    lo10, hi10 = int(mp.floor(mp.log10(first))), int(mp.ceil(mp.log10(last)))
    inner = [mp.mpf(10) ** e for e in range(lo10, hi10 + 1)]
    return [lo] + [p for p in inner if lo < p < hi] + [hi]


def _strip(k, omega, v):
    k, omega, v = mp.mpf(k), mp.mpf(omega), mp.mpf(v)
    return mp.quad(lambda z: mp.exp(-k / z - z / omega) if z > 0 else mp.mpf(0),
                   _panels(mp.mpf(0), v, k / 1000, v))


def _survival(s, mu):
    def f(z):
        if z == 0:
            return mp.mpf(1)
        x = 2 * mp.sqrt(mu * z)
        return mp.exp(-s * z) * x * mp.besselk(1, x) / (1 + z)

    # Shape changes at the Bessel scale 1/mu, the knee at 1 and the decay
    # length 1/s; past x = 100 or s*z = 1000 the integrand is under e^-99.
    first = min(1, 1 / s, 1 / mu) / 100
    last = min(1000 / s, 2500 / mu)
    return mp.quad(f, _panels(mp.mpf(0), mp.inf, first, max(first, last)))


def _capacity(snr_db, lam, eta, epsilon, d1, path_loss_exp):
    """Ergodic capacity (1/(2 ln 2)) * sum of both directions' survival
    integrals; direction i has s = b/(a*omega_j), mu = c/(a*omega1*omega2)
    with a = P/sigma2, b = 1 + epsilon*lam/(1-lam), c = 1/(eta*lam)."""
    snr_db, lam, eta, epsilon, d1, ple = (
        mp.mpf(v) for v in (snr_db, lam, eta, epsilon, d1, path_loss_exp)
    )
    a = mp.mpf(10) ** (snr_db / 10)
    b = 1 + epsilon * lam / (1 - lam)
    c = 1 / (eta * lam)
    om1, om2 = d1 ** -ple, (1 - d1) ** -ple
    mu = c / (a * om1 * om2)
    return (_survival(b / (a * om2), mu) + _survival(b / (a * om1), mu)) / (2 * mp.log(2))


def _integrals() -> dict:
    rng = np.random.default_rng(20130727)
    # Two strips that test QUADPACK: it missed by 1.9e-10 near the first
    # (at these rounded values it is within 1e-16), and it misses the
    # second by 6.9e-11.
    strips = [
        (0.0012, 2.77, 0.419),
        (0.006384820985608976, 7.21517009390136, 4.871189458842711),
    ] + [
        (float(k), float(om), float(v))
        for k, om, v in zip(
            np.geomspace(1e-4, 3.0, 9), rng.uniform(0.5, 20.0, 9), rng.uniform(0.05, 5.0, 9)
        )
    ]
    # The first point is one where adaptive quadrature returns 0.47.
    survivals = [(1.75e-6, 0.453)] + [
        (float(s), float(mu))
        for s, mu in zip(10.0 ** rng.uniform(-6, 2, 9), 10.0 ** rng.uniform(-6, 2, 9))
    ]
    # First the two points where the series read 474 and 1.3% off with
    # adaptive factors, and the one where adaptive capacity quadrature
    # failed to converge; then ten points drawn from the box.
    points = [
        (48.19, 0.061, 0.304, 0.634, 0.146, 3.731),
        (43.79, 0.065, 0.433, 0.511, 0.856, 2.502),
        (60.0, 0.002, 0.002, 0.5, 0.5, 3.0),
    ] + [
        tuple(round(float(v), 3) for v in row)
        for row in zip(
            rng.uniform(-10.0, 60.0, 10), rng.uniform(0.05, 0.95, 10),
            rng.uniform(0.3, 1.0, 10), rng.uniform(0.0, 1.0, 10),
            rng.uniform(0.1, 0.9, 10), rng.uniform(2.0, 4.0, 10),
        )
    ]
    return {
        "mpmath_version": mp.__version__,
        "digits": INTEGRAL_DIGITS,
        "strip": [[k, om, v, float(_strip(k, om, v))] for k, om, v in strips],
        "survival": [[s, mu, float(_survival(mp.mpf(s), mp.mpf(mu)))] for s, mu in survivals],
        "capacity": [list(p) + [float(_capacity(*p))] for p in points],
    }


if __name__ == "__main__":
    main()
