"""Real-root isolation for univariate rational polynomials via Sturm sequences.

Sturm counts split the query interval until each piece holds one root; the
sign of the polynomial then narrows that piece by bisection until its width
drops below 2**-30 or the root is hit exactly, per the kernel's
reproducibility contract.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, _primitive, _real, check_invariant

REFINE_WIDTH = Fraction(1, 2**30)


def _strip(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval_coeffs(coeffs: Sequence, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _poly_div(num: list[Fraction], den: list[Fraction]):
    """Euclidean division, returns (quotient, remainder)."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and _strip(num):
        if len(num) < len(den):
            break
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num.pop()
        num = _strip(num)
    return _strip(q), _strip(num)


def _derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(coeffs)][1:]


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _strip([_real(c) for c in a]), _strip([_real(c) for c in b])
    while b:
        _, r = _poly_div(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(coeffs: Sequence[Fraction]) -> list[Fraction]:
    coeffs = _strip([_real(c) for c in coeffs])
    if len(coeffs) <= 1:
        return coeffs
    g = poly_gcd(coeffs, _derivative(coeffs))
    if len(g) <= 1:
        return coeffs
    q, r = _poly_div(coeffs, g)
    check_invariant(not r, "squarefree division must be exact")
    return q


def sturm_chain(coeffs: Sequence[Fraction]) -> list[list[Fraction]]:
    p0 = [Fraction(c) for c in _primitive(_strip([_real(c) for c in coeffs]))[0]]
    chain = [p0, _strip(_derivative(p0))]
    while chain[-1]:
        _, r = _poly_div(chain[-2], chain[-1])
        if not r:
            break
        r = [Fraction(c) for c in _primitive(r)[0]]
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign(x: Fraction) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


def _sign_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign(poly_eval_coeffs(c, x)) for c in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] of the squarefree polynomial
    whose Sturm chain this is.  Exact even when lo or hi is a root: at a
    simple root a the first element drops out of the count, so the sign
    variations at a equal those just right of a."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def cauchy_root_bound(coeffs: Sequence[Fraction]) -> Fraction:
    coeffs = _strip([_real(c) for c in coeffs])
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1])
    return Fraction(1) + m / lead


def _halve(coeffs, lo: Fraction, hi: Fraction, sign_hi: int):
    """One bisection step on (lo, hi), which holds exactly one root of the
    squarefree coeffs and at whose end hi they have sign sign_hi != 0: the
    half that holds the root, or (mid, mid) when the midpoint is the root."""
    mid = (lo + hi) / 2
    s = _sign(poly_eval_coeffs(coeffs, mid))
    if s == 0:
        return mid, mid
    return (lo, mid) if s == sign_hi else (mid, hi)


def isolate_real_roots(
    p, interval: tuple | None = None
) -> list[tuple[Fraction, Fraction]]:
    """The distinct real roots of p in the closed query interval (by default
    one that holds them all), one interval per root, sorted and disjoint.  An
    exact root r is (r, r); any other interval (a, b) is open and narrower
    than REFINE_WIDTH, its ends are not roots, and the squarefree part of p
    has opposite signs there, so it holds exactly one root.  Accepts a
    MultiPoly (univariate) or a coefficient list.
    """
    if isinstance(p, MultiPoly):
        coeffs = p.univariate_coeffs()
    else:
        coeffs = [_real(c) for c in p]
    coeffs = _strip(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial has no isolated roots")
    if len(coeffs) == 1:
        return []
    sf = squarefree_part(coeffs)
    if interval is None:
        b = cauchy_root_bound(sf)
        lo, hi = -b, b
    else:
        lo, hi = _real(interval[0]), _real(interval[1])
    if lo > hi:
        raise ValueError("empty query interval")

    chain = sturm_chain(sf)
    # count_roots covers (lo, hi]; a root at lo is reported on its own
    found = [(lo, lo)] if poly_eval_coeffs(sf, lo) == 0 else []
    stack = [(lo, hi, count_roots(chain, lo, hi))]
    while stack:
        x, y, n = stack.pop()
        if n > 1:
            mid = (x + y) / 2
            left = count_roots(chain, x, mid)
            stack.append((x, mid, left))
            stack.append((mid, y, n - left))
        elif n == 1:
            # one root in (x, y]; x may be a root outside the count, so
            # narrow until x is not one (or the root is hit exactly)
            sign_y = _sign(poly_eval_coeffs(sf, y))
            if sign_y == 0:
                found.append((y, y))
                continue
            while x < y and (y - x >= REFINE_WIDTH or poly_eval_coeffs(sf, x) == 0):
                x, y = _halve(sf, x, y, sign_y)
            found.append((x, y))
    found.sort()
    return found
