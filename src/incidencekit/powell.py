"""Powell's conjugate-direction method with Brent line searches (Brent,
"Algorithms for Minimization without Derivatives", 1973), in the modified
form of Press et al., "Numerical Recipes", ch. 10: the minimiser of the
partition descent (partition._descend).

It replays the floating-point operations of the reference implementation
that the oracle test in tests/test_partition.py names, in the same order:
the same points are evaluated and the same minimum is returned.  Scalars
are Python floats, vectors numpy arrays.
"""

import math

import numpy as np

_POWELL_MAXITER = 60
_POWELL_FTOL = 1e-10
_LINE_TOL = 1e-8 * 100  # Powell's xtol, times 100 for its line searches
_BRENT_MAXITER = 500
_BRENT_MINTOL = 1.0e-11
_BRENT_CG = 0.3819660
_GOLD = 1.618034
_GROW_LIMIT = 110.0
_TINY = 1e-21
_BRACKET_MAXITER = 1000


def powell(f, x0):
    """A local minimum of f near x0: the direction set starts as the axes,
    and the direction of largest decrease gives way to the extrapolated
    step when Powell's test says that it should."""
    x = x0
    direc = np.eye(len(x))
    fval = f(x)
    x1 = x
    for iteration in range(1, _POWELL_MAXITER + 1):
        fx = fval
        bigind = 0
        delta = 0.0
        for i in range(len(x)):
            fx2 = fval
            fval, x, _ = _line_search(f, x, direc[i], fval)
            if (fx2 - fval) > delta:
                delta = fx2 - fval
                bigind = i
        bnd = _POWELL_FTOL * (abs(fx) + abs(fval)) + 1e-20
        if (2.0 * (fx - fval) <= bnd or iteration == _POWELL_MAXITER
                or (math.isnan(fx) and math.isnan(fval))):
            break
        direc1 = x - x1
        x1 = x
        fx2 = f(x + direc1)
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = _line_search(f, x, direc1, fval)
                if direc1.any():
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return x


def _line_search(f, p, xi, fval):
    """(f at the minimum, the minimum, the step) of f along p + alpha*xi."""
    if not xi.any():
        return fval, p, xi
    alpha, fret = _brent(lambda a: f(p + a * xi))
    xi = alpha * xi
    return fret, p + xi, xi


def _brent(f):
    """(x, f(x)) at Brent's minimum of a scalar f, from the bracket grown out
    of (0, 1).  Without a valid bracket, the best of its three points."""
    xa, xb, xc, fa, fb, fc, valid = _bracket(f)
    if not valid:
        xs, fs = [xa, xb, xc], [fa, fb, fc]
        if any(math.isnan(v) for v in xs + fs):
            return math.nan, math.nan
        imin = fs.index(min(fs))
        return xs[imin], fs[imin]
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = 0.0
    for _ in range(_BRENT_MAXITER):
        tol1 = _LINE_TOL * abs(x) + _BRENT_MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden section step
            rat = _BRENT_CG * deltax
        else:  # parabolic step, if it is useful
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (p > tmp2 * (a - x) and p < tmp2 * (b - x)
                    and abs(p) < abs(0.5 * tmp2 * dx_temp)):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _BRENT_CG * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


def _bracket(f):
    """(xa, xb, xc, fa, fb, fc, valid): downhill from (0, 1) until f(xb) is
    below f(xa) and f(xc), with xb between them, or the search stops."""
    xa, xb = 0.0, 1.0
    fa, fb = f(xa), f(xb)
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = f(xc)
    iteration = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _TINY if abs(val) < _TINY else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if iteration > _BRACKET_MAXITER:
            raise RuntimeError("no valid bracket within the iteration limit")
        iteration += 1
        if (w - xc) * (xb - w) > 0.0:  # parabolic w between xb and xc
            fw = f(w)
            if fw < fc:
                xa, xb, fa, fb = xb, w, fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:  # beyond the growth limit
            w = wlim
            fw = f(w)
        elif (w - wlim) * (xc - w) > 0.0:  # between xc and the limit
            fw = f(w)
            if fw < fc:
                xb, xc = xc, w
                w = xc + _GOLD * (xc - xb)
                fb, fc = fc, fw
                fw = f(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    valid = (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and math.isfinite(xa) and math.isfinite(xb) and math.isfinite(xc)
    )
    return xa, xb, xc, fa, fb, fc, valid
