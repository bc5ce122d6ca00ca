"""Special functions behind the closed-form evaluators, in numpy alone.

The closed forms need two: x*K1(x), the order-one modified Bessel function
of the second kind times its argument, in the fading CDFs, and the Tricomi
function Psi(1, 1; z) = e^z E1(z) in the capacity expressions; the high-SNR
outage also needs E1 itself.  Each takes a float or an array and evaluates
elementwise: a float gives a float, an array an array.

Each branch is a fixed polynomial, evaluated by Horner's rule over the
whole array; a branch with no element in it is skipped.  The coefficients
are fitted with mpmath by ``tests/data/make_specfun_coeffs.py``.  The worst
relative errors below were measured against mpmath at 8,000 to 10,000
points per function where the value is a normal double: the dense grids and
seam doubles of ``tests/data/golden_specfun_dense.json``, and linear grids
over [1.5, 30] (x*K1) and [0.2, 40] (E1, Psi).

- x*K1(x), x < 2: P(x^2) + (x^2/2)*ln(x/2)*Q(x^2), the ascending series of
  K1 with Q(x^2) = I1(x)/(x/2), with the leading 1 of P added last so that
  values near 1 round well; below 1e-10 the value rounds to 1.
  Worst error 9.7e-16.
- x*K1(x), x >= 2: sqrt(x)*e^-x*C(4/x - 1), with e^-x formed as the square
  of e^(-x/2) so that it stays normal while x*K1(x) does.
  Worst error 5.5e-16.
- E1(z), z < 1: -gamma - ln z - sum_{k>=1} (-z)^k/(k*k!), and
  Psi(1, 1; z) = e^z E1(z).  Worst errors 4.4e-16 and 5.6e-16.
- z >= 1: one kernel f(z) = z*e^z*E1(z), which tends to 1, as a polynomial
  in 1/z on [0, 1/4] and on [1/4, 1].  Then E1(z) = e^-z*f(z)/z and
  Psi(1, 1; z) = f(z)/z, which cannot overflow at any z.
  Worst errors 3.5e-16 and 2.7e-16.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Euler-Mascheroni constant to full double precision (displayed values in
#: the literature are often rounded to 0.5772; never use that rounding here).
EULER_GAMMA = 0.5772156649015328606065121

#: Below this, x*K1(x) = 1 + (x^2/2)(ln(x/2) + ...) rounds to 1, while
#: K1(x) ~ 1/x overflows for subnormal x.
_XK1_UNIT_BELOW = 1e-10

#: x*K1(x) switches from the ascending series to the expansion in 1/x here.
_XK1_SEAM = 2.0

#: E1 and Psi(1, 1; z) switch from the series to the kernel f here, and the
#: kernel from its [1/4, 1] piece to its [0, 1/4] piece (in 1/z) at 4.
_E1_SEAM = 1.0
_E1_KERNEL_SEAM = 4.0

# Coefficients from tests/data/make_specfun_coeffs.py, t^0 first.
#: P, in t = x^2
_XK1_P = (
    1.0, 0.03860783245076643, -0.042049020943654196,
    -0.002837111983763369, -7.493042905988501e-05, -1.0892182538735626e-06,
    -1.0112909397634626e-08, -6.54019722956043e-11, -3.12085877013226e-13,
    -1.1451907144886734e-15, -3.3339774414948293e-18, -7.891451681256942e-21,
    -1.548910815776067e-23, -2.5622893612075694e-26,
)
#: Q = I1(x)/(x/2), in t = x^2
_XK1_Q = (
    1.0, 0.125, 0.005208333333333333,
    0.00010850694444444444, 1.3563368055555556e-06, 1.1302806712962962e-08,
    6.72786113866843e-11, 3.0035094369055494e-13, 1.0428852211477602e-15,
    2.8969033920771115e-18, 6.583871345629799e-21, 1.2469453306117043e-23,
    1.9983098246982443e-26,
)
#: E1(z) + ln z, in t = z
_E1_SERIES = (
    -0.5772156649015329, 1.0, -0.25,
    0.05555555555555555, -0.010416666666666666, 0.0016666666666666668,
    -0.0002314814814814815, 2.834467120181406e-05, -3.1001984126984127e-06,
    3.0619243582206544e-07, -2.755731922398589e-08, 2.27746439867652e-09,
    -1.7397297489890083e-10, 1.2353110643708935e-11, -8.193389712664089e-13,
    5.0981091545465446e-14, -2.9871733327421158e-15, 1.6537983849091297e-16,
    -8.677337204770125e-18, 4.326650129802279e-19,
)
#: C = sqrt(x)*e^x*K1(x) on 1/x in [0, 1/2]
_XK1_LARGE = (
    1.363151890371342, 0.10334973775386527, -0.005566729880072931,
    0.0007357241549032677, -0.00013959021964175084, 3.2843865708633974e-05,
    -8.961205912549711e-06, 2.7300392852920254e-06, -9.067229884830243e-07,
    3.229983779937386e-07, -1.2195093824501613e-07, 4.837695851929297e-08,
    -2.0109398585523846e-08, 8.683982534096674e-09, -3.639264909950171e-09,
    1.5795148419022103e-09, -1.180097808498307e-09, 6.970364983934073e-10,
    2.560533082941635e-10, -2.5722618233906385e-10, -4.2190635517826636e-10,
    3.015605420609579e-10, 1.704297529665342e-10, -1.216604821004258e-10,
    -4.829107281627596e-11, 3.150534991423443e-11,
)
#: f on 1/z in [0, 1/4]
_E1_KERNEL_FAR = (
    0.8982371140279944, -0.08413402625195046, 0.013618587371730124,
    -0.002924527776196944, 0.0007530386319507204, -0.0002207091276673469,
    7.138004402571901e-05, -2.4960880067419274e-05, 9.304996327098121e-06,
    -3.6597583396602777e-06, 1.5068067443483034e-06, -6.454841643795981e-07,
    2.865329187220703e-07, -1.3122675582515755e-07, 6.085506268862563e-08,
    -2.8889242659719902e-08, 1.677162233487477e-08, -9.489355673649307e-09,
    -4.2576439431550843e-10, 1.9333670922745308e-09, 6.979334179914069e-09,
    -5.74123869762906e-09, -5.506438311009706e-09, 4.633070219943815e-09,
    3.902821420108885e-09, -3.0458257494594924e-09, -1.4872384117428475e-09,
    1.1201905404986929e-09, 3.01020932868742e-10, -2.1371137646027242e-10,
)
#: f on 1/z in [1/4, 1]
_E1_KERNEL_NEAR = (
    0.683980760479085, -0.10700998634737247, 0.02455724427313874,
    -0.00673316571717258, 0.002055327821404425, -0.000675225262323135,
    0.0002341854841105106, -8.471118130942663e-05, 3.169699334196679e-05,
    -1.2196700560808142e-05, 4.805293995115898e-06, -1.9319289363799595e-06,
    7.905418004150131e-07, -3.287063990848418e-07, 1.385585858163953e-07,
    -5.872342911811848e-08, 2.524804187147888e-08, -1.1730714830558701e-08,
    5.282407563221045e-09, -1.4101020412861034e-09, 5.171128729203697e-10,
    -1.050667137355725e-09, 5.447634011763567e-10, 2.16549738353085e-10,
    -1.2329060447469407e-10, -9.807735924021636e-11, 4.921170128004227e-11,
)


def _horner(coefs, t):
    """sum_k coefs[k] * t**k, by Horner's rule, in place after the first
    product."""
    y = coefs[-1] * t
    y += coefs[-2]
    for c in coefs[-3::-1]:
        y *= t
        y += c
    return y


def _in_reciprocal(coefs, lo: float, hi: float, x: np.ndarray) -> np.ndarray:
    """A polynomial fitted over 1/x in [lo, hi], at t = (2/x - lo - hi)/(hi - lo)."""
    t = 2.0 / x
    t -= lo + hi
    t /= hi - lo
    return _horner(coefs, t)


def _piecewise(x, *branches):
    """Each ``(mask, fn)`` branch's ``fn`` on the elements of ``x`` in its
    mask; the masks partition ``x``, and an empty one is skipped.  A single
    value, a numpy float, always falls in one branch whole."""
    out = np.empty_like(x)
    for mask, fn in branches:
        if mask.all():  # one branch holds everything: no gather or scatter
            return fn(x)
        if mask.any():
            out[mask] = fn(x[mask])
    return out


def _checked(x, ok, what: str):
    """``x`` as a float array where ``ok(x)`` holds throughout, or else a
    DomainError; a single value comes back as a numpy float, whose
    arithmetic skips the per-call cost of an array pass."""
    x = np.asarray(x, dtype=float)
    good = ok(x)
    if not good.all():
        raise DomainError(f"{what}; got {x[~good].flat[0]}")
    return x[()]


def _like(value):
    """``value`` as a float when it is a single value."""
    return float(value) if np.ndim(value) == 0 else value


def _xk1_series(x: np.ndarray) -> np.ndarray:
    # P's leading 1 is added last, so that values near 1 round well
    t = x * x
    return 1.0 + t * (_horner(_XK1_P[1:], t) + 0.5 * np.log(0.5 * x) * _horner(_XK1_Q, t))


def _xk1_expansion(x: np.ndarray) -> np.ndarray:
    half = np.exp(-0.5 * x)
    return _in_reciprocal(_XK1_LARGE, 0.0, 1.0 / _XK1_SEAM, x) * np.sqrt(x) * half * half


def bessel_xk1(x):
    """x * K1(x) for finite x >= 0, continuously extended to 1 at x = 0.

    This is the combination every fading CDF uses.  It decreases from 1 and
    satisfies exp(-x) <= x*K1(x) <= 1.
    """
    x = _checked(x, lambda v: (0.0 <= v) & (v < math.inf),
                 "bessel_xk1 arguments must be finite and >= 0")
    unit = x < _XK1_UNIT_BELOW
    large = x >= _XK1_SEAM
    return _like(_piecewise(
        x, (unit, np.ones_like), (~unit & ~large, _xk1_series), (large, _xk1_expansion),
    ))


def _positive_finite(x, what: str):
    return _checked(x, lambda v: (0.0 < v) & (v < math.inf), f"{what} must be positive finite reals")


def _e1_series(z: np.ndarray) -> np.ndarray:
    """E1(z) for 0 < z < 1."""
    return _horner(_E1_SERIES, z) - np.log(z)


def _e1_kernel(z: np.ndarray) -> np.ndarray:
    """f(z) = z*e^z*E1(z) for z >= 1."""
    far = z >= _E1_KERNEL_SEAM
    return _piecewise(
        z,
        (~far, lambda v: _in_reciprocal(_E1_KERNEL_NEAR, 1.0 / _E1_KERNEL_SEAM, 1.0 / _E1_SEAM, v)),
        (far, lambda v: _in_reciprocal(_E1_KERNEL_FAR, 0.0, 1.0 / _E1_KERNEL_SEAM, v)),
    )


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_1^inf exp(-x*t)/t dt for x > 0."""
    x = _positive_finite(x, "exp_integral_e1 arguments")
    large = x >= _E1_SEAM
    return _like(_piecewise(
        x, (~large, _e1_series), (large, lambda z: np.exp(-z) * _e1_kernel(z) / z),
    ))


def tricomi_psi11(z):
    """Tricomi Psi(1, 1; z) = e^z E1(z) = int_0^inf e^(-z*t)/(1+t) dt, z > 0."""
    z = _positive_finite(z, "tricomi_psi11 arguments")
    large = z >= _E1_SEAM
    return _like(_piecewise(
        z, (~large, lambda v: np.exp(v) * _e1_series(v)), (large, lambda v: _e1_kernel(v) / v),
    ))
