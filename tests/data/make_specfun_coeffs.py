"""Fit the expansions behind src/twrelay/specfun.py with mpmath.

Prints the coefficient tuples, each under its comment line, as they stand
in specfun.py, so that the package reads no data file when it is imported.
Every coefficient is computed with 50 significant digits and rounded once
to the nearest double; each tuple lists the coefficient of t^0 first.

- ``_XK1_P`` and ``_XK1_Q``: x*K1(x) = P(x^2) + (x^2/2)*ln(x/2)*Q(x^2) for
  x < 2, the Taylor series of the ascending series of K1 (Abramowitz and
  Stegun 9.6.11); Q(x^2) = I1(x)/(x/2).
- ``_E1_SERIES``: E1(z) + ln(z) = -gamma - sum_{k>=1} (-z)^k/(k*k!), z < 1.
- ``_XK1_LARGE``, ``_E1_KERNEL_FAR`` and ``_E1_KERNEL_NEAR``: polynomials
  in t, the reciprocal of the argument mapped onto [-1, 1] over one piece.
  sqrt(x)*e^x*K1(x) is fitted on 1/x in [0, 1/2], and f(z) = z*e^z*E1(z)
  on 1/z in [0, 1/4] and [1/4, 1].  The fit is the least-squares
  polynomial on 96 Chebyshev nodes (the truncated discrete Chebyshev
  transform), cut where the dropped coefficients sum to under 1e-18 of the
  smallest value on the piece, then rewritten in powers of t.

Run it with mpmath 1.3.0 (it takes a few seconds):

    python tests/data/make_specfun_coeffs.py
"""

import mpmath as mp

DIGITS = 50
NODES = 96
#: Series terms and Chebyshev tails are dropped below this, relative to the
#: smallest value of the function on its branch.
TAIL = mp.mpf("1e-18")


def taylor(coef, top, floor, first=0):
    """[coef(first), coef(first + 1), ...] up to the first term under
    TAIL*floor at t = top."""
    out = []
    for k in range(first, 100):
        c = coef(k)
        if abs(c) * mp.mpf(top) ** k < TAIL * floor:
            return out
        out.append(c)
    raise RuntimeError("series did not converge")


def reciprocal_fit(func, lo, hi):
    """Coefficients in t of the fit of func(x) over 1/x in [lo, hi], where
    t = (2/x - lo - hi)/(hi - lo); func(None) is the limit at 1/x = 0."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = []
    for th in theta:
        w = (lo + hi + (hi - lo) * mp.cos(th)) / 2
        values.append(func(None if w == 0 else 1 / w))
    cheb = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta)) / NODES
            for k in range(NODES)]
    cheb[0] /= 2
    floor = min(abs(v) for v in values)
    n = next(n for n in range(1, NODES)
             if mp.fsum(abs(c) for c in cheb[n:]) < TAIL * floor)
    return chebyshev_to_powers(cheb[:n])


def chebyshev_to_powers(cheb):
    """The coefficients in powers of t of sum_k cheb[k]*T_k(t)."""
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]  # T_0, T_1
    out = [cheb[0]] + [mp.mpf(0)] * (len(cheb) - 1)
    for k, c in enumerate(cheb[1:], start=1):
        for i, v in enumerate(cur):
            out[i] += c * v
        # T_{k+1} = 2t*T_k - T_{k-1}
        prev, cur = cur, [-p for p in prev] + [mp.mpf(0)] * (len(cur) + 1 - len(prev))
        for i, v in enumerate(prev):
            cur[i + 1] += 2 * v
    return out


def _xk1_large(x):
    return mp.sqrt(mp.pi / 2) if x is None else mp.sqrt(x) * mp.exp(x) * mp.besselk(1, x)


def _e1_kernel(z):
    return mp.mpf(1) if z is None else z * mp.exp(z) * mp.e1(z)


def fits() -> list:
    """(name, comment, coefficients) of each tuple, in specfun.py's order."""
    mp.mp.dps = DIGITS
    fact = mp.factorial
    xk1_2 = 2 * mp.besselk(1, 2)  # the smallest x*K1(x) below the seam
    return [
        ("_XK1_P", "P, in t = x^2", [mp.mpf(1)] + taylor(
            lambda k: -(mp.digamma(k) + mp.digamma(k + 1)) / (4 ** k * fact(k - 1) * fact(k)),
            4, xk1_2, first=1)),
        ("_XK1_Q", "Q = I1(x)/(x/2), in t = x^2",
         taylor(lambda k: 1 / (4 ** k * fact(k) * fact(k + 1)), 4, xk1_2)),
        ("_E1_SERIES", "E1(z) + ln z, in t = z", [-mp.euler] + taylor(
            lambda k: -(-1) ** k / (k * fact(k)), 1, mp.e1(1), first=1)),
        ("_XK1_LARGE", "C = sqrt(x)*e^x*K1(x) on 1/x in [0, 1/2]",
         reciprocal_fit(_xk1_large, 0, mp.mpf(1) / 2)),
        ("_E1_KERNEL_FAR", "f on 1/z in [0, 1/4]", reciprocal_fit(_e1_kernel, 0, mp.mpf(1) / 4)),
        ("_E1_KERNEL_NEAR", "f on 1/z in [1/4, 1]",
         reciprocal_fit(_e1_kernel, mp.mpf(1) / 4, 1)),
    ]


def literal(name: str, comment: str, coefs) -> str:
    """``#: comment`` over ``name = (...)``, with three doubles a line."""
    values = [repr(float(c)) for c in coefs]
    lines = [", ".join(values[i:i + 3]) + "," for i in range(0, len(values), 3)]
    return f"#: {comment}\n{name} = (\n" + "\n".join(f"    {line}" for line in lines) + "\n)"


def main() -> None:
    for fit in fits():
        print(literal(*fit))


if __name__ == "__main__":
    main()
