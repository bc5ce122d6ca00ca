"""Special functions behind the closed-form evaluators.

The closed forms need two: x*K1(x), the order-one modified Bessel function
of the second kind times its argument, in the fading CDFs, and the Tricomi
function Psi(1, 1; z) = e^z E1(z) in the capacity expressions.  Both are
built on ``scipy.special``; the tests check them, and E1, against mpmath
values frozen into ``tests/data/``.
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


def _require_positive_finite(x: float, what: str) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise DomainError(f"{what} must be a positive finite real; got {x}")
    return x


def bessel_xk1(x):
    """x * K1(x) for finite x >= 0, continuously extended to 1 at x = 0.

    This is the combination every fading CDF uses.  It decreases from 1 and
    satisfies exp(-x) <= x*K1(x) <= 1.  A float gives a float; an array,
    such as the nodes of the integration rule, gives an array.
    """
    if isinstance(x, np.ndarray):
        if not np.all((0.0 <= x) & (x < math.inf)):
            raise DomainError("bessel_xk1 arguments must be finite and >= 0")
        xs = np.maximum(x, _XK1_UNIT_BELOW)
        return np.where(x < _XK1_UNIT_BELOW, 1.0, xs * _special.k1(xs))
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"bessel_xk1 argument must be finite and >= 0; got {x}")
    if x < _XK1_UNIT_BELOW:
        return 1.0
    return x * float(_special.k1(x))


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_1^inf exp(-x*t)/t dt for x > 0."""
    x = _require_positive_finite(x, "exp_integral_e1 argument")
    return float(_special.exp1(x))


def tricomi_psi11(z: float) -> float:
    """Tricomi Psi(1, 1; z) = e^z E1(z) = int_0^inf e^(-z*t)/(1+t) dt, z > 0.

    The product e^z E1(z) is used up to z = 700 and ``hyperu(1, 1, z)`` above,
    where e^z would overflow; both are within 1e-15 of mpmath.
    """
    z = _require_positive_finite(z, "tricomi_psi11 argument")
    if z <= _PSI11_PRODUCT_MAX:
        return math.exp(z) * float(_special.exp1(z))
    return float(_special.hyperu(1.0, 1.0, z))
