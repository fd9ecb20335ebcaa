"""Real-root isolation by Sturm sequences."""

import random
from fractions import Fraction

import pytest

from incidencekit import roots
from incidencekit.partition import _product_roots
from incidencekit.poly import GaussianRational, MultiPoly, _primitive, _real
from incidencekit.roots import (
    REFINE_WIDTH,
    count_roots,
    isolate_real_roots,
    poly_gcd,
    squarefree_part,
    sturm_chain,
)


def poly_eval_coeffs(coeffs, x):
    """The value at x of the ascending coefficient list, by Horner in
    Fractions."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def from_roots(roots):
    """Monic univariate MultiPoly with the given rational roots."""
    x = MultiPoly.variable(0, 1)
    p = MultiPoly.constant(1, 1)
    for r in roots:
        p = p * (x - MultiPoly.constant(r, 1))
    return p


def isolated(p, interval=None):
    """isolate_real_roots(p, interval), checked against its output contract:
    sorted, disjoint intervals inside the query interval; an exact root (r, r)
    vanishes; any other interval is narrower than REFINE_WIDTH and its ends
    are not roots and the squarefree part has opposite signs there."""
    sf = squarefree_part(p.univariate_coeffs() if isinstance(p, MultiPoly) else p)
    intervals = isolate_real_roots(p, interval)
    for lo, hi in intervals:
        if lo == hi:
            assert poly_eval_coeffs(sf, lo) == 0
        else:
            assert 0 < hi - lo < REFINE_WIDTH
            v_lo, v_hi = poly_eval_coeffs(sf, lo), poly_eval_coeffs(sf, hi)
            assert v_lo != 0 and v_hi != 0 and (v_lo > 0) != (v_hi > 0)
    for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
        assert hi1 <= lo2
    assert len(set(intervals)) == len(intervals)
    if interval is not None and intervals:
        assert interval[0] <= intervals[0][0] and intervals[-1][1] <= interval[1]
    return intervals


X = MultiPoly.variable(0, 1)
TINY = Fraction(1, 2**40)


class TestIsolation:
    def test_sqrt_two(self):
        p = X * X - MultiPoly.constant(2, 1)
        intervals = isolated(p, (Fraction(0), Fraction(2)))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo * lo < 2 < hi * hi

    def test_real_coefficients_written_as_gaussian_rationals(self):
        # x^2 - 2 with GaussianRational coefficients of zero imaginary part
        # has the roots of its rational twin; a non-real coefficient or end
        # of the query interval is rejected
        coeffs = [-2, 0, 1]
        wrapped = [GaussianRational(c) for c in coeffs]
        assert isolate_real_roots(wrapped) == isolate_real_roots(coeffs)
        assert (isolate_real_roots(wrapped, (GaussianRational(0), GaussianRational(2)))
                == isolate_real_roots(coeffs, (0, 2)))
        assert len(isolate_real_roots(wrapped)) == 2
        with pytest.raises(ValueError, match="real value"):
            isolate_real_roots([*wrapped[:2], GaussianRational(1, 1)])
        with pytest.raises(ValueError, match="real value"):
            isolate_real_roots(coeffs, (0, GaussianRational(2, 1)))

    def test_three_roots(self):
        p = from_roots([Fraction(1), Fraction(2), Fraction(3)])
        for interval, expected in [
            ((0, 4), 3),
            # roots at both ends of the query interval, and 2 at its midpoint
            ((1, 3), [(1, 1), (2, 2), (3, 3)]),
            ((2, 2), [(2, 2)]),
            ((Fraction(3, 2), 3), 2),
            ((1, Fraction(5, 2)), 2),
            ((Fraction(1, 3), Fraction(2, 3)), []),
        ]:
            intervals = isolated(p, interval)
            if isinstance(expected, int):
                assert len(intervals) == expected
            else:
                assert intervals == expected

    def test_exact_rational_roots(self):
        cubic = X * (X * X - MultiPoly.constant(2, 1))
        near = Fraction(1, 3) + TINY
        # exact: the roots that must come back as (r, r), here the query's ends
        for p, interval, exact, count in [
            (from_roots([Fraction(1, 3), Fraction(5, 7)]), None, [], 2),
            # x(x^2 - 2): its root 0 is the first bisection midpoint of the
            # symmetric Cauchy interval (-3, 3)
            (cubic, None, [0], 3),
            (cubic, (0, 2), [0], 2),
            (cubic, (-2, 0), [0], 2),
            # roots 2^-40 apart, far below REFINE_WIDTH, one at a query end
            (from_roots([0, TINY]), None, [], 2),
            (from_roots([0, TINY]), (0, 1), [0, TINY], 2),
            (from_roots([-TINY, 0]), (-1, 0), [-TINY, 0], 2),
            (from_roots([0, TINY]), (TINY, 1), [TINY], 1),
            (from_roots([0, TINY]), (-1, 0), [0], 1),
            (from_roots([Fraction(1, 3), near]), (Fraction(1, 3), 1), [Fraction(1, 3)], 2),
        ]:
            intervals = isolated(p, interval)
            assert len(intervals) == count
            assert {(r, r) for r in exact} <= set(intervals)

    def test_repeated_roots_counted_once(self):
        for roots, count in [
            ([2, 2, 2], 1),
            # repeated roots next to simple ones, some 2^-40 apart
            ([1, 1, 1, 1 + TINY, 3, -2, -2], 4),
            ([0, 0, TINY, -TINY, -TINY, Fraction(1, 3)], 4),
        ]:
            p = from_roots([Fraction(r) for r in roots])
            assert len(isolated(p)) == count
            assert len(isolated(p, (min(roots), max(roots)))) == count
            irrational = p * (X * X - MultiPoly.constant(3, 1)) ** 2
            assert len(isolated(irrational)) == count + 2

    def test_no_real_roots(self):
        x = MultiPoly.variable(0, 1)
        p = x * x + MultiPoly.constant(1, 1)
        assert isolate_real_roots(p) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(MultiPoly.zero(1))

    def test_random_degree8_vs_dense_oracle(self):
        rng = random.Random(2024)
        for _ in range(20)  :
            coeffs = [Fraction(rng.randrange(-10, 11)) for _ in range(9)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            p = MultiPoly(1, {(k,): c for k, c in enumerate(coeffs) if c != 0})
            if p.is_zero or p.total_degree == 0:
                continue
            found = len(isolated(p))
            assert found == _dense_sign_change_count(p.univariate_coeffs())

    def test_hundred_random_polys_match_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            roots = sorted(
                Fraction(rng.randrange(-12, 13), rng.randrange(1, 5))
                for _ in range(rng.randrange(0, 5))
            )
            p = from_roots(roots)
            found = isolated(p)
            assert len(found) == len(set(roots))
            if len(roots) >= 2:
                # the query interval ends at two of the roots
                lo, hi = rng.sample(roots, 2)
                lo, hi = min(lo, hi), max(lo, hi)
                found = isolated(p, (lo, hi))
                assert len(found) == len({r for r in roots if lo <= r <= hi})


def _below_sqrt_two(v):
    return v < 0 or v * v < 2


class TestCount:
    def test_half_open_count_with_roots_at_the_ends(self):
        """count_roots counts the roots in (x, y] also when x or y is a
        root: V(a) equals the sign variations just right of a simple root a."""
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            roots = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 4))
                     for _ in range(rng.randrange(1, 6))]
            roots += rng.sample(roots, rng.randrange(0, len(roots) + 1))
            p = from_roots(roots)
            irrational = rng.random() < 0.5
            if irrational:  # times x^2 - 2, whose roots +-sqrt(2) no rational hits
                p = p * (X * X - MultiPoly.constant(2, 1))
            chain = sturm_chain(squarefree_part(p.univariate_coeffs()))
            distinct = sorted(set(roots))
            ends = distinct + [r + TINY for r in distinct] + [
                Fraction(rng.randrange(-30, 31), 3) for _ in range(4)
            ]
            for x in distinct:
                for y in ends:
                    for a, b in ((x, y), (y, x)):
                        if a > b:
                            continue
                        expected = sum(a < r <= b for r in distinct)
                        if irrational:
                            expected += _below_sqrt_two(-b) and not _below_sqrt_two(-a)
                            expected += _below_sqrt_two(a) and not _below_sqrt_two(b)
                        assert count_roots(chain, a, b) == expected, (roots, a, b)
                        checked += 1
        assert checked > 1000


def _dense_sign_change_count(coeffs, step=Fraction(1, 64)):
    """Sign changes of the squarefree part on a fine grid; counts exact grid
    hits as roots too."""
    sf = squarefree_part(coeffs)
    bound = Fraction(1) + max(abs(c) for c in sf[:-1]) / abs(sf[-1]) if len(sf) > 1 else Fraction(1)
    count = 0
    x = -bound
    prev = poly_eval_coeffs(sf, x)
    while x < bound:
        x += step
        cur = poly_eval_coeffs(sf, x)
        if cur == 0:
            count += 1
            # step past the exact root
            x += step
            cur = poly_eval_coeffs(sf, x)
        elif prev != 0 and (cur > 0) != (prev > 0):
            count += 1
        prev = cur
    return count


class TestGcd:
    def test_gcd_of_products(self):
        a = from_roots([Fraction(1), Fraction(2)]).univariate_coeffs()
        b = from_roots([Fraction(2), Fraction(3)]).univariate_coeffs()
        g = poly_gcd(a, b)
        assert len(g) == 2  # linear: the shared root at 2
        assert poly_eval_coeffs(g, Fraction(2)) == 0

    def test_squarefree_part(self):
        p = from_roots([Fraction(1)] * 3 + [Fraction(4)]).univariate_coeffs()
        sf = squarefree_part(p)
        assert len(sf) == 3  # quadratic with roots 1 and 4
        assert poly_eval_coeffs(sf, Fraction(1)) == 0
        assert poly_eval_coeffs(sf, Fraction(4)) == 0


# -- the Fraction isolation the integer bisection replaced ----------------------
#
# isolate_real_roots, _halve and count_roots as they were on Fractions, with
# one Horner evaluation per sign, and partition._product_roots on them: the
# oracle the integer bisection is held to, interval for interval.


def _sign(x):
    return (x > 0) - (x < 0)


def old_count_roots(chain, lo, hi):
    def variations(x):
        signs = [s for s in (_sign(poly_eval_coeffs(c, x)) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def old_halve(coeffs, lo, hi, sign_hi):
    mid = (lo + hi) / 2
    s = _sign(poly_eval_coeffs(coeffs, mid))
    if s == 0:
        return mid, mid
    return (lo, mid) if s == sign_hi else (mid, hi)


def old_isolate_real_roots(p, interval=None):
    if isinstance(p, MultiPoly):
        coeffs = p.univariate_coeffs()
    else:
        coeffs = [_real(c) for c in p]
    coeffs = roots._strip(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial has no isolated roots")
    if len(coeffs) == 1:
        return []
    sf = squarefree_part(coeffs)
    if interval is None:
        b = roots.cauchy_root_bound(sf)
        lo, hi = -b, b
    else:
        lo, hi = _real(interval[0]), _real(interval[1])
    if lo > hi:
        raise ValueError("empty query interval")
    chain = sturm_chain(sf)
    found = [(lo, lo)] if poly_eval_coeffs(sf, lo) == 0 else []
    stack = [(lo, hi, old_count_roots(chain, lo, hi))]
    while stack:
        x, y, n = stack.pop()
        if n > 1:
            mid = (x + y) / 2
            left = old_count_roots(chain, x, mid)
            stack.append((x, mid, left))
            stack.append((mid, y, n - left))
        elif n == 1:
            sign_y = _sign(poly_eval_coeffs(sf, y))
            if sign_y == 0:
                found.append((y, y))
                continue
            while x < y and (y - x >= REFINE_WIDTH or poly_eval_coeffs(sf, x) == 0):
                x, y = old_halve(sf, x, y, sign_y)
            found.append((x, y))
    found.sort()
    return found


def old_product_roots(factors):
    entries = [
        [lo, hi, f] for f, c in enumerate(factors) for lo, hi in old_isolate_real_roots(c)
    ]
    gcds, sfs = {}, {}

    def shared(e1, e2):
        (lo1, hi1, f1), (lo2, hi2, f2) = e1, e2
        if lo1 == hi1 or lo2 == hi2:
            x, f = (lo1, f2) if lo1 == hi1 else (lo2, f1)
            return poly_eval_coeffs(factors[f], x) == 0
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if (f1, f2) not in gcds:
            gcds[f1, f2] = squarefree_part(poly_gcd(factors[f1], factors[f2]))
        h = gcds[f1, f2]
        return len(h) > 1 and _sign(poly_eval_coeffs(h, lo)) != _sign(
            poly_eval_coeffs(h, hi))

    while True:
        entries.sort(key=lambda e: (e[0], e[1]))
        clash = next((k for k in range(len(entries) - 1)
                      if entries[k][1] >= entries[k + 1][0]), None)
        if clash is None:
            return [(lo, hi) for lo, hi, _ in entries]
        e1, e2 = entries[clash], entries[clash + 1]
        if shared(e1, e2):
            if e2[0] == e2[1]:
                e1[:] = e2
            elif e1[0] != e1[1]:
                e1[0], e1[1] = max(e1[0], e2[0]), min(e1[1], e2[1])
            del entries[clash + 1]
        else:
            for e in (e1, e2):
                lo, hi, f = e
                if lo != hi:
                    if f not in sfs:
                        sfs[f] = squarefree_part(factors[f])
                    e[:2] = old_halve(sfs[f], lo, hi, _sign(poly_eval_coeffs(sfs[f], hi)))


def typed(intervals):
    """The intervals with each end's type, so that an int or a float end
    cannot pass for a Fraction."""
    return [tuple((type(x).__name__, x) for x in iv) for iv in intervals]


def assert_isolation_matches(p, interval=None):
    got = isolate_real_roots(p, interval)
    assert typed(got) == typed(old_isolate_real_roots(p, interval)), (p, interval)
    return got


def _coefficient(rng, height):
    num = rng.randrange(-height, height + 1)
    if rng.random() < 0.5:
        return Fraction(num)
    return Fraction(num, rng.randrange(1, height + 1))


def seeded_polynomials(count, seed):
    """Coefficient lists of degree 1..8: random coefficients (integer or
    rational, height up to 2^64), and products of rational roots, some
    repeated, some times an irrational quadratic."""
    rng = random.Random(seed)
    for k in range(count):
        degree = rng.randrange(1, 9)
        if k % 2 == 0:
            height = 2 ** rng.choice((3, 10, 32, 64))
            coeffs = [_coefficient(rng, height) for _ in range(degree)]
            coeffs.append(_coefficient(rng, height) or Fraction(1))
            yield coeffs
        else:
            rs = [Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 3, 4, 7, 8, 16, 1024)))
                  for _ in range(rng.randrange(1, 5))]
            rs += rng.sample(rs, rng.randrange(0, len(rs) + 1))
            p = from_roots(rs)
            if rng.random() < 0.5:
                p = p * (X * X - MultiPoly.constant(rng.randrange(2, 9), 1))
            scale = _coefficient(rng, 2**64) or Fraction(1)
            yield [c * scale for c in p.univariate_coeffs()]


class TestAgainstFractionIsolation:
    """The integer bisection returns exactly the Fraction intervals of the
    Fraction isolation it replaced."""

    @pytest.mark.parametrize("p, interval", [
        # degree 1
        ([3, 7], None),
        ([-1, 2], (0, 1)),
        ([Fraction(-5, 3), Fraction(7, 11)], (Fraction(1, 3), Fraction(25, 7))),
        # the narrowing hits 3/8 exactly: 1/2, 1/4, 3/8 on (0, 1)
        (from_roots([Fraction(3, 8), 5]), None),
        (from_roots([Fraction(3, 8), 5]), (0, 1)),
        (from_roots([Fraction(3, 8), 5]), (Fraction(1, 3), 5)),
        # roots at both ends of the query interval, and at its midpoint
        (from_roots([1, 2, 3]), (1, 3)),
        (from_roots([Fraction(1, 3), Fraction(5, 7)]), (Fraction(1, 3), Fraction(5, 7))),
        # lo == hi, on a root and off one
        (from_roots([1, 2, 3]), (2, 2)),
        (from_roots([1, 2, 3]), (Fraction(5, 2), Fraction(5, 2))),
        (from_roots([Fraction(1, 3)]), (Fraction(1, 3), Fraction(1, 3))),
        # repeated roots, some 2^-40 apart
        (from_roots([2, 2, 2, Fraction(1, 3), Fraction(1, 3)]), None),
        (from_roots([0, 0, TINY, -TINY, -TINY, Fraction(1, 3)]), None),
        (from_roots([0, TINY]) * (X * X - MultiPoly.constant(3, 1)) ** 2, (0, 2)),
        # no real root, and a root outside the query interval
        (X * X + MultiPoly.constant(1, 1), None),
        (from_roots([5]), (Fraction(1, 3), Fraction(5, 7))),
    ])
    def test_adversarial(self, p, interval):
        assert_isolation_matches(p, interval)

    def test_seeded_polynomials(self):
        rng = random.Random(24)
        nonempty = 0
        for coeffs in seeded_polynomials(300, 2024):
            nonempty += bool(assert_isolation_matches(coeffs))
            lo = Fraction(rng.randrange(-40, 40), rng.choice((3, 5, 7, 9, 11)))
            hi = lo + Fraction(rng.randrange(0, 60), rng.choice((1, 3, 7, 13)))
            assert_isolation_matches(coeffs, (lo, hi))
            assert_isolation_matches(coeffs, (Fraction(1, 3), Fraction(5, 7)))
        assert nonempty > 200

    def test_real_values_written_in_q_i(self):
        coeffs = from_roots([Fraction(3, 8), Fraction(-2, 3)]).univariate_coeffs()
        wrapped = [GaussianRational(c) for c in coeffs]
        for interval in (None, (GaussianRational(0), GaussianRational(1)),
                         (GaussianRational(Fraction(-2, 3)), GaussianRational(Fraction(3, 8)))):
            assert assert_isolation_matches(wrapped, interval) == isolate_real_roots(
                coeffs, interval and tuple(_real(x) for x in interval))

    def test_product_roots_on_shared_roots(self):
        two, tiny = MultiPoly.constant(2, 1), MultiPoly.constant(Fraction(1, 2**70), 1)
        pool = [
            X * X - two,
            (X * X - two) * (X - MultiPoly.constant(1, 1)),
            from_roots([1, 1, -3]),
            X * X - two - tiny,
            X,
            X * X - tiny * Fraction(1, 2**11),
            from_roots([Fraction(3, 8), Fraction(-1, 3)]),
            from_roots([Fraction(3, 8), 5]) * (X * X - two),
            X * X * X - two * X,
        ]
        factors = [list(_primitive(p.univariate_coeffs())[0]) for p in pool]
        rng = random.Random(5)
        cases = [factors[:2], factors[2:4], factors[3:6], factors[6:], factors]
        cases += [rng.sample(factors, rng.randrange(2, 5)) for _ in range(40)]
        merged = 0
        for case in cases:
            got = _product_roots(case)
            assert typed(got) == typed(old_product_roots(case)), case
            merged += len(got) < sum(len(isolate_real_roots(c)) for c in case)
        assert merged > 20  # most cases share roots between factors
