"""Real-root isolation for univariate rational polynomials via Sturm sequences.

Intervals are refined until their width drops below 2**-30 or the root is
hit exactly, per the kernel's reproducibility contract.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .poly import MultiPoly, check_invariant

REFINE_WIDTH = Fraction(1, 2**30)


def _strip(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _to_int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [c // g for c in ints] if g else ints


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
    a, b = _strip([Fraction(c) for c in a]), _strip([Fraction(c) for c in b])
    while b:
        _, r = _poly_div(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(coeffs: Sequence[Fraction]) -> list[Fraction]:
    coeffs = _strip([Fraction(c) for c in coeffs])
    if len(coeffs) <= 1:
        return coeffs
    g = poly_gcd(coeffs, _derivative(coeffs))
    if len(g) <= 1:
        return coeffs
    q, r = _poly_div(coeffs, g)
    check_invariant(not r, "squarefree division must be exact")
    return q


def sturm_chain(coeffs: Sequence[Fraction]) -> list[list[Fraction]]:
    p0 = [Fraction(c) for c in _to_int_coeffs(_strip(list(coeffs)))]
    chain = [p0, _strip(_derivative(p0))]
    while chain[-1]:
        _, r = _poly_div(chain[-2], chain[-1])
        if not r:
            break
        r = [Fraction(c) for c in _to_int_coeffs(r)]
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_variations(chain, x: Fraction | None, at_infinity: int = 0) -> int:
    """Sign variations at x; at_infinity=+1/-1 evaluates limits at +/-inf."""
    signs = []
    for coeffs in chain:
        if at_infinity:
            lead = coeffs[-1]
            s = (1 if lead > 0 else -1) if lead else 0
            if at_infinity < 0 and (len(coeffs) - 1) % 2 == 1:
                s = -s
        else:
            v = poly_eval_coeffs(coeffs, x)
            s = 0 if v == 0 else (1 if v > 0 else -1)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; endpoints must not be
    roots of the first chain element for exactness at lo."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def cauchy_root_bound(coeffs: Sequence[Fraction]) -> Fraction:
    coeffs = _strip([Fraction(c) for c in coeffs])
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1])
    return Fraction(1) + m / lead


def isolate_real_roots(
    p, interval: tuple | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals each containing exactly one real root of p
    inside the query interval.  Exact roots appear as degenerate (r, r)
    intervals.  Accepts a MultiPoly (univariate) or a coefficient list.
    """
    if isinstance(p, MultiPoly):
        coeffs = p.univariate_coeffs()
    else:
        coeffs = [Fraction(c) for c in p]
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
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo > hi:
        raise ValueError("empty query interval")

    chain = sturm_chain(sf)
    found: list[tuple[Fraction, Fraction]] = []

    def eval_sf(x):
        return poly_eval_coeffs(sf, x)

    # exact roots at the query endpoints are reported directly
    if eval_sf(lo) == 0:
        found.append((lo, lo))
    if hi != lo and eval_sf(hi) == 0:
        found.append((hi, hi))

    def clear_left(x, step):
        # nudge right until sf(x) != 0 (sf squarefree: single nudge suffices
        # for small enough step)
        while eval_sf(x) == 0:
            step /= 2
            x = x + step
        return x

    def clear_right(x, step):
        while eval_sf(x) == 0:
            step /= 2
            x = x - step
        return x

    width0 = (hi - lo) or Fraction(1)
    a = clear_left(lo, width0 / 2**20) if eval_sf(lo) == 0 else lo
    b = clear_right(hi, width0 / 2**20) if eval_sf(hi) == 0 else hi
    if a >= b:
        found.sort()
        return found

    def refine(a, b):
        # exactly one root in (a, b]; shrink to REFINE_WIDTH or exact hit
        while b - a >= REFINE_WIDTH:
            mid = (a + b) / 2
            if eval_sf(mid) == 0:
                return (mid, mid)
            if count_roots(chain, a, mid) == 1:
                b = mid
            else:
                a = mid
        return (a, b)

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        n = count_roots(chain, x, y)
        if n == 0:
            continue
        if n == 1:
            found.append(refine(x, y))
            continue
        mid = (x + y) / 2
        if eval_sf(mid) == 0:
            found.append((mid, mid))
            # exclude a tiny punctured neighborhood that contains only mid
            w = (y - x) / 2**20
            left = clear_right(mid - w, w)
            right = clear_left(mid + w, w)
            while count_roots(chain, left, right) != 1:
                w /= 2
                left = clear_right(mid - w, w)
                right = clear_left(mid + w, w)
            stack.append((x, left))
            stack.append((right, y))
        else:
            stack.append((x, mid))
            stack.append((mid, y))
    found.sort()
    return found
