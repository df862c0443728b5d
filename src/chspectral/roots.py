"""Brent's root finder, ported from scipy's C `brentq` iterate for iterate.

scipy.optimize.brentq runs the loop of `scipy/optimize/Zeros/brentq.c`
in C doubles; Python floats are C doubles, so the same operations in the
same order give the same iterates and the same root, bit for bit.  Keeping
it here spares every process the import of scipy.optimize.
"""

from __future__ import annotations

import math
import sys

_XTOL = 2e-12
_RTOL = 4.0 * sys.float_info.epsilon    # scipy refuses any rtol below this
_ITER = 100


def _brentq(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=_ITER):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Same contract as scipy.optimize.brentq: ValueError for xtol <= 0, for
    rtol < 4 eps, for f(a) and f(b) of one sign and for a NaN value of f;
    RuntimeError after maxiter iterations without convergence.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return fx

    def signbit(v):
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        stry = math.nan     # NaN fails the short-step test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass            # C gets an inf or NaN step there, which bisects too
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")
