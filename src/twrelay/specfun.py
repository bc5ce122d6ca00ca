"""Special functions behind the closed-form evaluators.

The closed forms need two: x*K1(x), the order-one modified Bessel function
of the second kind times its argument, in the fading CDFs, and the Tricomi
function Psi(1, 1; z) = e^z E1(z) in the capacity expressions.  Both are
built on ``scipy.special``; the tests check them, and E1, against mpmath
values frozen into ``tests/data/``.  Each takes a float or an array and
evaluates elementwise: a float gives a float, an array an array.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _special

from .errors import DomainError

#: Euler-Mascheroni constant to full double precision (displayed values in
#: the literature are often rounded to 0.5772; never use that rounding here).
EULER_GAMMA = 0.5772156649015328606065121

#: Below this, x*K1(x) = 1 + (x^2/2)(ln(x/2) + ...) rounds to 1, while
#: K1(x) ~ 1/x overflows for subnormal x.
_XK1_UNIT_BELOW = 1e-10

#: e^z overflows past z = 709.78, so Psi(1, 1; z) switches to hyperu above this.
_PSI11_PRODUCT_MAX = 700.0


def _require(x, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise DomainError(f"{what}; got {x[~ok].flat[0]}")


def _like(x: np.ndarray, value: np.ndarray):
    """``value`` as a float when the argument ``x`` was a single value."""
    return float(value) if x.ndim == 0 else value


def bessel_xk1(x):
    """x * K1(x) for finite x >= 0, continuously extended to 1 at x = 0.

    This is the combination every fading CDF uses.  It decreases from 1 and
    satisfies exp(-x) <= x*K1(x) <= 1.
    """
    x = np.asarray(x, dtype=float)
    _require(x, (0.0 <= x) & (x < math.inf), "bessel_xk1 arguments must be finite and >= 0")
    xs = np.maximum(x, _XK1_UNIT_BELOW)
    return _like(x, np.where(x < _XK1_UNIT_BELOW, 1.0, xs * _special.k1(xs)))


def _positive_finite(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _require(x, (0.0 < x) & (x < math.inf), f"{what} must be positive finite reals")
    return x


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_1^inf exp(-x*t)/t dt for x > 0."""
    x = _positive_finite(x, "exp_integral_e1 arguments")
    return _like(x, _special.exp1(x))


def tricomi_psi11(z):
    """Tricomi Psi(1, 1; z) = e^z E1(z) = int_0^inf e^(-z*t)/(1+t) dt, z > 0.

    The product e^z E1(z) is used up to z = 700 and ``hyperu(1, 1, z)`` above,
    where e^z would overflow; both are within 1e-15 of mpmath.
    """
    z = _positive_finite(z, "tricomi_psi11 arguments")
    large = z > _PSI11_PRODUCT_MAX
    zp = np.where(large, _PSI11_PRODUCT_MAX, z)
    value = np.exp(zp) * _special.exp1(zp)
    if large.any():
        value = np.where(large, _special.hyperu(1.0, 1.0, z), value)
    return _like(z, value)
