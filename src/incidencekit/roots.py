"""Real-root isolation for univariate rational polynomials via Sturm sequences.

Sturm counts split the query interval until each piece holds one root; the
sign of the polynomial then narrows that piece by bisection until its width
drops below 2**-30 or the root is hit exactly, per the kernel's
reproducibility contract.  The bisection runs on integers (Collins and
Akritas, SYMSAC 1976): an interval is a triple (a, b, c) for (a/c, b/c), every
sign comes from one integer rule (`_sign_at`), and only the returned intervals
are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, _integer_form, _primitive, _real, check_invariant

REFINE_WIDTH = Fraction(1, 2**30)


def _strip(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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


def _sign_at(ints: Sequence[int], num: int, den: int) -> int:
    """The sign of the integer coefficient list ints (ascending) at num/den,
    den > 0: the sign of sum c_i num^i den^(d-i), by homogeneous Horner."""
    total, power = 0, 1
    for c in reversed(ints):
        total = total * num + c * power
        power *= den
    return (total > 0) - (total < 0)


def _sign_variations(chain: Sequence[Sequence[int]], num: int, den: int) -> int:
    signs = [s for s in (_sign_at(c, num, den) for c in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] of the squarefree polynomial
    whose Sturm chain this is.  Exact even when lo or hi is a root: at a
    simple root a the first element drops out of the count, so the sign
    variations at a equal those just right of a."""
    ints = [[c.numerator for c in p] for p in chain]
    return (_sign_variations(ints, *Fraction(lo).as_integer_ratio())
            - _sign_variations(ints, *Fraction(hi).as_integer_ratio()))


def cauchy_root_bound(coeffs: Sequence[Fraction]) -> Fraction:
    coeffs = _strip([_real(c) for c in coeffs])
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1])
    return Fraction(1) + m / lead


def _halve(ints: Sequence[int], a: int, b: int, c: int, sign_hi: int) -> tuple[int, int, int]:
    """One bisection step on (a/c, b/c), which holds exactly one root of the
    squarefree integer coefficient list ints and at whose end b/c they have
    sign sign_hi != 0: the half that holds the root, or the midpoint twice
    when it is the root, as a triple over the denominator 2c."""
    m = a + b
    s = _sign_at(ints, m, 2 * c)
    if s == 0:
        return m, m, 2 * c
    return (2 * a, m, 2 * c) if s == sign_hi else (m, 2 * b, 2 * c)


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
        bound = cauchy_root_bound(sf)
        lo, hi = -bound, bound
    else:
        lo, hi = _real(interval[0]), _real(interval[1])
    if lo > hi:
        raise ValueError("empty query interval")

    # the chain's elements are primitive integers; its first is sf's
    chain = [[c.numerator for c in q] for q in sturm_chain(sf)]
    ints = chain[0]
    c, ((a, b),) = _integer_form([(lo, hi)])
    # count_roots covers (lo, hi]; a root at lo is reported on its own
    found = [(a, a, c)] if _sign_at(ints, a, c) == 0 else []
    # (x, y, den, variations at x/den, variations at y/den)
    stack = [(a, b, c, _sign_variations(chain, a, c), _sign_variations(chain, b, c))]
    while stack:
        x, y, den, vx, vy = stack.pop()
        if vx - vy > 1:
            vm = _sign_variations(chain, x + y, 2 * den)
            stack.append((2 * x, x + y, 2 * den, vx, vm))
            stack.append((x + y, 2 * y, 2 * den, vm, vy))
        elif vx - vy == 1:
            # one root in (x, y]; x may be a root outside the count, so
            # narrow until x is not one (or the root is hit exactly)
            sign_y = _sign_at(ints, y, den)
            if sign_y == 0:
                found.append((y, y, den))
                continue
            while x < y and ((y - x) * REFINE_WIDTH.denominator >= den
                              or _sign_at(ints, x, den) == 0):
                x, y, den = _halve(ints, x, y, den, sign_y)
            found.append((x, y, den))
    return sorted((Fraction(x, den), Fraction(y, den)) for x, y, den in found)
