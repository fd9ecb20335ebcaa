"""Exact arithmetic kernel: polynomials, derivatives, resultants."""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incidencekit import roots
from incidencekit.cr import iota
from incidencekit.incidence import FILTER_PRIME
from incidencekit.poly import (
    _DEGREE_LIMIT,
    _ZERO,
    GaussianRational,
    I_UNIT,
    MultiPoly,
    _integer_form,
    _integer_parts,
    _point_row,
    _primitive,
    _primitive_at,
    _real,
    _real_row,
    _vanishes,
    gradient,
    jacobian_rank,
    parse_poly,
    resultant,
)


def rand_poly(rng, num_vars, degree, density=6, gaussian=False):
    terms = {}
    for _ in range(density):
        exp = [0] * num_vars
        budget = rng.randrange(degree + 1)
        for _ in range(budget):
            exp[rng.randrange(num_vars)] += 1
        coef = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if gaussian:
            coef = GaussianRational(coef, Fraction(rng.randrange(-9, 10)))
        terms[tuple(exp)] = coef
    return MultiPoly(num_vars, terms)


def rand_point(rng, num_vars, gaussian=False):
    def scalar():
        f = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
        if gaussian:
            return GaussianRational(f, Fraction(rng.randrange(-5, 6)))
        return f

    return [scalar() for _ in range(num_vars)]


class TestGaussianRational:
    def test_field_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 3))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.conjugate() == GaussianRational(Fraction(37, 4), 0)

    def test_i_squared(self):
        assert I_UNIT * I_UNIT == GaussianRational(-1)

    def test_power_matches_repeated_multiplication(self):
        z = GaussianRational(Fraction(-2, 3), Fraction(5, 7))
        expected = GaussianRational(1)
        for e in range(6):
            assert z**e == expected
            assert isinstance(z**e, GaussianRational)
            expected = expected * z
        with pytest.raises(ValueError):
            z ** -1

    def test_fraction_on_left_promotes(self):
        # Fraction's operators return NotImplemented for a GaussianRational,
        # so Python falls through to the reflected GaussianRational operator
        a = Fraction(-3, 4)
        for z in (GaussianRational(Fraction(1, 2), Fraction(3)), GaussianRational(5, 0)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                result = op(a, z)
                assert type(result) is GaussianRational
                assert result == op(GaussianRational.coerce(a), z)

    def test_conjugation_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            z = GaussianRational(Fraction(rng.randrange(-99, 99), 7),
                                 Fraction(rng.randrange(-99, 99), 3))
            assert z.conjugate().conjugate() == z

    def test_serialization_roundtrip(self):
        from incidencekit.poly import coef_from_obj, coef_to_obj

        z = GaussianRational(Fraction(-3, 7), Fraction(22, 5))
        obj = coef_to_obj(z)
        assert obj == {"re": "-3/7", "im": "22/5"}
        assert coef_from_obj(obj) == z
        assert coef_to_obj(Fraction(5, 2)) == "5/2"
        assert coef_from_obj("5/2") == Fraction(5, 2)


def reference_evaluate(p, point):
    """The value of p at the point in rational and Gaussian-rational
    arithmetic, term by term: the reference for evaluate's integer sum."""
    point = [x if isinstance(x, GaussianRational) else Fraction(x) for x in point]
    total = Fraction(0)
    for exp, coef in p.terms.items():
        mono = Fraction(1)
        for x, e in zip(point, exp):
            if e:
                mono = mono * x**e
        total = total + coef * mono
    return total


class TestEval:
    def test_integer_sum_matches_term_by_term_evaluation(self):
        # values and types: GaussianRational exactly when a coefficient is
        # one or an occurring variable has a GaussianRational coordinate; a
        # zero value, real or Gaussian, is made of the shared Fraction zero
        rng = random.Random(11)
        zeros = {Fraction: 0, GaussianRational: 0}
        for _ in range(400):
            num_vars = rng.randint(1, 4)
            point = rand_point(rng, num_vars, gaussian=rng.random() < 0.5)
            point = [rng.choice([x, GaussianRational.coerce(x)])
                     if isinstance(x, Fraction) and rng.random() < 0.3 else x
                     for x in point]
            if rng.random() < 0.2:
                point[0] = rng.randrange(-3, 4)
            cache = {}
            for _ in range(3):
                p = rand_poly(rng, num_vars, rng.randint(0, 6),
                              density=rng.randint(0, 7), gaussian=rng.random() < 0.4)
                if rng.random() < 0.35:
                    p = p - reference_evaluate(p, point)
                expected = reference_evaluate(p, point)
                for value in (p.evaluate(point), p.evaluate(point, cache)):
                    assert type(value) is type(expected)
                    assert value == expected
                    if not expected:
                        zeros[type(value)] += 1
                        gaussian = isinstance(value, GaussianRational)
                        assert all(x is _ZERO for x in ((value.re, value.im) if gaussian
                                                        else (value,)))
        assert min(zeros.values()) > 50

    def test_zero_case(self):
        # x1^2 + y1^2 at the origin
        x1, y1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
        p = x1 * x1 + y1 * y1
        assert p.evaluate([0, 0, 0, 0]) == 0

    def test_hand_expansion(self):
        # x1*x2 - y1*y2 at (1,2,3,4): 3 - 8 = -5
        v = [MultiPoly.variable(i, 4) for i in range(4)]
        p = v[0] * v[2] - v[1] * v[3]
        point = [Fraction(c) for c in (1, 2, 3, 4)]
        assert p.evaluate(point) == -5
        # term-by-term oracle
        total = Fraction(0)
        for exp, coef in p.terms.items():
            term = Fraction(coef)
            for c, e in zip(point, exp):
                term *= c**e
            total += term
        assert total == -5

    def test_gaussian_point(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        p = z1 * z2
        assert p.evaluate([I_UNIT, I_UNIT]) == GaussianRational(-1)

    def test_dimension_mismatch(self):
        p = MultiPoly.variable(0, 2)
        with pytest.raises(ValueError):
            p.evaluate([1, 2, 3])


class TestDerivative:
    def test_power_rule(self):
        # d/dx1 (x1^2 y1) = 2 x1 y1
        x1, y1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
        p = x1 * x1 * y1
        expected = MultiPoly(4, {(1, 1, 0, 0): Fraction(2)})
        assert p.partial(0) == expected

    def test_absent_variable(self):
        x1 = MultiPoly.variable(0, 4)
        assert x1.partial(3).is_zero

    def test_finite_difference_oracle(self):
        # central differences agree to first order: halving h shrinks the
        # error by at least a factor of 2 (exact rational computation)
        rng = random.Random(11)
        for _ in range(10):
            p = rand_poly(rng, 3, 5)
            var = rng.randrange(3)
            point = rand_point(rng, 3)
            deriv = p.partial(var).evaluate(point)

            def central(h):
                up = list(point)
                dn = list(point)
                up[var] += h
                dn[var] -= h
                return (p.evaluate(up) - p.evaluate(dn)) / (2 * h)

            h = Fraction(1, 64)
            e1 = abs(central(h) - deriv)
            e2 = abs(central(h / 2) - deriv)
            assert e2 * 2 <= e1 or e1 == 0

    def test_linearity_and_leibniz(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rand_poly(rng, 2, 4)
            q = rand_poly(rng, 2, 4)
            var = rng.randrange(2)
            assert (p + q).partial(var) == p.partial(var) + q.partial(var)
            assert (p * q).partial(var) == p.partial(var) * q + p * q.partial(var)


class TestGradient:
    def test_sphere(self):
        v = [MultiPoly.variable(i, 4) for i in range(4)]
        p = sum((vi * vi for vi in v), MultiPoly.constant(-1, 4))
        assert gradient(p, [1, 0, 0, 0]) == [2, 0, 0, 0]

    def test_linear(self):
        y1, y2 = MultiPoly.variable(1, 4), MultiPoly.variable(3, 4)
        p = y2 - y1
        for pt in ([0, 0, 0, 0], [3, -1, 7, 2]):
            assert gradient(p, pt) == [0, -1, 0, 1]

    def test_matches_finite_differences(self):
        rng = random.Random(31)
        p = rand_poly(rng, 4, 4)
        point = rand_point(rng, 4)
        grad = gradient(p, point)
        h = Fraction(1, 1024)
        for var in range(4):
            up, dn = list(point), list(point)
            up[var] += h
            dn[var] -= h
            approx = (p.evaluate(up) - p.evaluate(dn)) / (2 * h)
            assert abs(approx - grad[var]) < Fraction(1, 100)


class TestJacobianRank:
    def test_independent_linear_forms(self):
        polys = [MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)]
        assert jacobian_rank(polys, [0, 0, 0, 0]) == 2

    def test_vanishing_gradients(self):
        x1, y1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
        assert jacobian_rank([x1 * x1, x1 * y1], [0, 0, 0, 0]) == 0

    def test_nodal_curve_singular_origin(self):
        # z2^2 - z1^2 (z1 + 1): both partials vanish at the origin
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        f = z2 * z2 - z1 * z1 * (z1 + MultiPoly.constant(1, 2))
        assert jacobian_rank([f], [GaussianRational(0), GaussianRational(0)]) == 0
        # regular elsewhere
        assert jacobian_rank([f], [GaussianRational(1), GaussianRational(0)]) == 1

    def test_empty_list(self):
        assert jacobian_rank([], [0, 0]) == 0


class TestResultant:
    def test_linear_pair(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        r = resultant(z2 - z1, z2 + z1, 1)
        # -2*z1 up to sign
        expected = MultiPoly(2, {(1, 0): Fraction(2)})
        assert r == expected or r == -expected

    def test_common_factor_gives_zero(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        f = z2 - z1
        assert resultant(f, f, 1).is_zero
        g = (z2 - z1) * (z2 + z1 + MultiPoly.constant(3, 2))
        assert resultant(f, g, 1).is_zero

    def test_quadratic(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        r = resultant(z2 * z2 - z1, z2, 1)
        expected = MultiPoly(2, {(1, 0): Fraction(1)})
        assert r == expected or r == -expected

    def test_both_constant_rejected(self):
        c = MultiPoly.constant(2, 2)
        with pytest.raises(ValueError):
            resultant(c, c, 1)

    def test_no_common_factor_nonzero(self):
        rng = random.Random(5)
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        for _ in range(5):
            a = Fraction(rng.randrange(1, 9))
            b = Fraction(rng.randrange(1, 9))
            f = z2 - z1 * a
            g = z2 - z1 * b - MultiPoly.constant(1, 2)
            r = resultant(f, g, 1)
            # distinct lines: resultant is a nonzero linear polynomial in z1
            assert not r.is_zero

    def test_pinned_digest(self):
        # recorded before resultant moved onto linalg.det; the cases include
        # sides constant in the variable, common factors and Q(i)
        assert _resultant_digest() == RESULTANT_DIGEST


RESULTANT_DIGEST = "08d7f090dcf8d53a54461508cfd8c8f0f18a00fe7d83701abae761da9dede181"


def _resultant_digest() -> str:
    """sha256 over seeded resultant cases: each pair, the eliminated
    variable, and the resultant's JSON or the exception it raised."""
    rng = random.Random(1968)
    h = hashlib.sha256()
    for k in range(120):
        gaussian = k % 3 == 2
        var = k % 2
        f = rand_poly(rng, 2, 3, density=4, gaussian=gaussian)
        g = rand_poly(rng, 2, 3, density=4, gaussian=gaussian)
        if k % 5 == 1:  # a common factor
            g = g * f
        elif k % 5 == 2:  # f constant in var
            f = f.as_univariate(var)[0]
        elif k % 5 == 3:  # g constant in var
            g = g.as_univariate(var)[0]
        elif k % 5 == 4:  # both sides constant in var
            f, g = f.as_univariate(var)[0], g.as_univariate(var)[0]
        try:
            out = resultant(f, g, var).to_json()
        except ValueError as exc:
            out = type(exc).__name__
        h.update(f"{f.to_json()}|{g.to_json()}|{var}|{out}\n".encode())
    return h.hexdigest()


small_coef = st.fractions(
    min_value=-8, max_value=8, max_denominator=4
).filter(lambda f: f != 0)


@st.composite
def polys(draw, num_vars=2, max_degree=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(0, max_degree)) for _ in range(num_vars)
        )
        terms[exp] = draw(small_coef)
    return MultiPoly(num_vars, terms)


@st.composite
def points(draw, num_vars=2):
    return [
        draw(st.fractions(min_value=-10, max_value=10, max_denominator=8))
        for _ in range(num_vars)
    ]


class TestRingAxioms:
    @settings(max_examples=50, deadline=None)
    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=50, deadline=None)
    @given(polys(), polys(), points())
    def test_eval_is_ring_hom(self, p, q, pt):
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)

    @settings(max_examples=30, deadline=None)
    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=50, deadline=None)
    @given(polys())
    def test_truth_value_is_nonzero(self, p):
        assert bool(p) == (not p.is_zero)

    @settings(max_examples=50, deadline=None)
    @given(polys(), polys().filter(lambda q: not q.is_zero), small_coef)
    def test_division(self, p, q, c):
        assert (p * q) / q == p
        assert p / c == p * (1 / c)
        if q.total_degree > 0:
            # the constant term is left over once p is divided out
            with pytest.raises(ValueError):
                (p * q + 1) / q
        with pytest.raises(ZeroDivisionError):
            p / MultiPoly.zero(p.num_vars)
        with pytest.raises(ZeroDivisionError):
            p / 0


class TestSerialization:
    def test_canonical_roundtrip(self):
        rng = random.Random(17)
        for gaussian in (False, True):
            for _ in range(10):
                p = rand_poly(rng, 3, 4, gaussian=gaussian)
                assert MultiPoly.from_json(p.to_json()) == p

    def test_equal_polys_serialize_identically(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        pairs = [
            (x * y + x * x, x * x + y * x),
            # a real coefficient held as Fraction or as GaussianRational
            (MultiPoly(2, {(1, 0): Fraction(3)}), MultiPoly(2, {(1, 0): GaussianRational(3, 0)})),
        ]
        for a, b in pairs:
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert a.to_json() == b.to_json()

    def test_from_obj_rejects_degrees_above_the_limit(self):
        def obj(*exp):
            return {"vars": 2, "terms": [{"exp": list(exp), "coef": "1/1"},
                                         {"exp": [0, 0], "coef": "-1/1"}]}

        for exp in ((0, _DEGREE_LIMIT), (1, _DEGREE_LIMIT - 1)):
            assert MultiPoly.from_obj(obj(*exp)).total_degree == _DEGREE_LIMIT
        for exp in ((0, _DEGREE_LIMIT + 1), (1, _DEGREE_LIMIT), (2**70, 0)):
            with pytest.raises(ValueError, match="exceeds the limit"):
                MultiPoly.from_obj(obj(*exp))

    def test_schema_shape(self):
        x = MultiPoly.variable(0, 2)
        obj = (x * x * 3).to_obj()
        assert obj["vars"] == 2
        assert obj["terms"] == [{"exp": [2, 0], "coef": "3/1"}]
        assert obj["field"] == "Q"


class TestKey:
    def test_primitive_form_with_positive_leading_coefficient(self):
        x = MultiPoly.variable(0, 1)
        p = x * Fraction(-4, 6) + MultiPoly.constant(Fraction(2, 3), 1)
        # x - 1 over the homogenised exponents (x, 1)
        assert p._key() == {((1, 0), 1, 0), ((0, 1), -1, 0)}
        # scalar multiples over Q and Q(i) share the key
        for c in (Fraction(7, 3), GaussianRational(2, -1), I_UNIT):
            assert (p * c)._key() == p._key()
        assert (p + x)._key() != p._key()


# The denominator and content clearings that poly._integer_form and
# poly._primitive replace, kept as the oracles they are held to.


def old_integer_form(vectors):
    # partition._integer_form
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return den, [[x.numerator * (den // x.denominator) for x in v] for v in vectors]


def old_primitive(v):
    # foliation._primitive
    a = math.lcm(*(x.denominator for x in v))
    w = [x.numerator * (a // x.denominator) for x in v]
    b = math.gcd(*w) or a
    return tuple(x // b for x in w), a, b


def old_integer_parts(values):
    parts = [(v.re, v.im) if isinstance(v, GaussianRational) else (v, Fraction(0))
             for v in values]
    den = math.lcm(*(q.denominator for pair in parts for q in pair))
    return den, [(re.numerator * (den // re.denominator),
                  im.numerator * (den // im.denominator)) for re, im in parts]


def old_to_int_coeffs(coeffs):
    # roots._to_int_coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g else ints


def old_sturm_chain(coeffs):
    p0 = [Fraction(c) for c in old_to_int_coeffs(roots._strip(list(coeffs)))]
    chain = [p0, roots._strip(roots._derivative(p0))]
    while chain[-1]:
        _, r = roots._poly_div(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-Fraction(c) for c in old_to_int_coeffs(r)])
    return [c for c in chain if c]


def old_normalized(p):
    # the scalar-canonical form (monic, or primitive with a positive leading
    # coefficient) that de-duplicated curves before MultiPoly._key
    if p.is_zero:
        return p
    if p.is_gaussian:
        lead = GaussianRational.coerce(p.leading_coef())
        monic = p * (GaussianRational(1) / lead)
        return monic if monic.is_gaussian else old_normalized(monic)
    fracs = {e: Fraction(c.re) if isinstance(c, GaussianRational) else c
             for e, c in p.terms.items()}
    scale = Fraction(math.lcm(*(c.denominator for c in fracs.values())),
                     math.gcd(*(c.numerator for c in fracs.values())))
    lead = p.leading_coef()
    if (lead.re if isinstance(lead, GaussianRational) else lead) < 0:
        scale = -scale
    return MultiPoly(p.num_vars, {e: c * scale for e, c in fracs.items()})


def typed(x):
    """x with every scalar replaced by (type, value) and every list or tuple
    by a list, so that equal results of equal scalar types compare equal."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return type(x).__name__, x


def typed_terms(p):
    return [(e, type(c).__name__, c) for e, c in p.terms.items()]


class TestIntegerForm:
    """poly's denominator helpers, held to the copies they replace."""

    @staticmethod
    def rational(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randrange(-30, 31)  # an int counts as a rational
        if kind == 1:
            return Fraction(0)
        return Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 3, 6, 7, 12, 35, 2**40)))

    def vector(self, rng):
        n = rng.randrange(0, 6)
        if rng.random() < 0.15:
            return [rng.choice((0, Fraction(0))) for _ in range(n)]
        return [self.rational(rng) for _ in range(n)]

    def test_integer_form_and_primitive_match_the_old_copies(self):
        rng = random.Random(18)
        for _ in range(400):
            vectors = [self.vector(rng) for _ in range(rng.randrange(0, 4))]
            assert typed(_integer_form(vectors)) == typed(old_integer_form(vectors))
            for v in vectors:
                new = _primitive(v)
                assert typed(new) == typed(old_primitive(v))
                assert type(new[0]) is tuple
                assert list(new[0]) == old_to_int_coeffs(v)

    def test_integer_parts_matches_the_old_copy(self):
        rng = random.Random(19)
        for _ in range(300):
            values = []
            for _ in range(rng.randrange(0, 5)):
                re, im = Fraction(self.rational(rng)), Fraction(self.rational(rng))
                values.append(rng.choice((re, GaussianRational(re, 0), GaussianRational(re, im))))
            assert typed(_integer_parts(values)) == typed(old_integer_parts(values))

    def test_key_equality_matches_old_normalized(self):
        # two polynomials share a key exactly when old_normalized makes them
        # equal, over seeded bases and their multiples: rational and Gaussian
        # bases, rational ones written in Q(i), negative leading coefficients,
        # and constants, which are all one curve per variable count
        rng = random.Random(20)
        multipliers = (Fraction(-7, 3), GaussianRational(Fraction(-3, 5)), I_UNIT,
                       GaussianRational(2, -1), GaussianRational(3, -4))
        pool = []
        for k in range(48):
            p = rand_poly(rng, rng.randrange(1, 3), rng.randrange(0, 3),
                          density=rng.randrange(1, 4), gaussian=k % 3 == 2)
            if p.is_zero:
                continue
            if k % 3 == 1:
                p = MultiPoly(p.num_vars, {e: GaussianRational(c) for e, c in p.terms.items()})
            lead = p.leading_coef()
            if k % 2 and (lead.re if isinstance(lead, GaussianRational) else lead) > 0:
                p = -p
            pool += [p] + [p * c for c in multipliers]
        assert len(pool) >= 200
        keys = [p._key() for p in pool]
        olds = [old_normalized(p) for p in pool]
        shared = 0
        for j in range(len(pool)):
            for k in range(j):
                assert (keys[j] == keys[k]) == (olds[j] == olds[k]), (pool[j], pool[k])
                shared += keys[j] == keys[k] and j // 6 != k // 6
        assert shared  # some bases are multiples of one another

    def test_sturm_chain_matches_the_old_content_clearing(self):
        rng = random.Random(21)
        for _ in range(150):
            coeffs = [self.rational(rng) for _ in range(rng.randrange(0, 7))]
            assert typed(roots.sturm_chain(coeffs)) == typed(old_sturm_chain(coeffs))


class TestIntegerQuestions:
    """The integer zero test and _primitive_at, held to evaluate and
    _primitive, and the integer sum they read to term-by-term arithmetic."""

    DENOMINATORS = (1, 2, 3, 7, 12, 2**40, 3 * 2**40, FILTER_PRIME, 5 * FILTER_PRIME)

    def scalar(self, rng, gaussian):
        def part():
            if rng.random() < 0.2:
                return Fraction(0)
            return Fraction(rng.randrange(-40, 41), rng.choice(self.DENOMINATORS))
        return GaussianRational(part(), part()) if gaussian else part()

    def poly(self, rng, num_vars, gaussian):
        kind = rng.randrange(5)
        if kind == 0:
            return MultiPoly.zero(num_vars)
        if kind == 1:
            return MultiPoly.constant(self.scalar(rng, gaussian), num_vars)
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exp = [0] * num_vars
            for _ in range(rng.randrange(4)):
                exp[rng.randrange(num_vars)] += 1
            terms[tuple(exp)] = self.scalar(rng, gaussian and rng.random() < 0.7)
        return MultiPoly(num_vars, terms)

    def case(self, rng):
        """(point, polys): a real or Gaussian point, and polynomials over Q or
        Q(i), about a third of them shifted to vanish at the point."""
        num_vars = rng.randint(1, 4)
        point = [self.scalar(rng, rng.random() < 0.4) for _ in range(num_vars)]
        gaussian = rng.random() < 0.4
        polys = []
        for _ in range(rng.randint(1, 5)):
            f = self.poly(rng, num_vars, gaussian)
            if rng.random() < 0.35:
                f = f - reference_evaluate(f, point)
            polys.append(f)
        return point, polys

    def test_integer_sum_is_the_value_times_its_scale(self):
        rng = random.Random(1901)
        for _ in range(300):
            point, polys = self.case(rng)
            cache = {}
            for f in polys:
                re, im, q, gaussian = f._integer_sum(point, cache)
                assert {type(re), type(im), type(q)} == {int} and q > 0
                expected = GaussianRational.coerce(reference_evaluate(f, point))
                assert (Fraction(re, q), Fraction(im, q)) == (expected.re, expected.im)
                assert gaussian == (type(f.evaluate(point)) is GaussianRational)

    def test_zero_test_matches_evaluate(self):
        rng = random.Random(1902)
        zeros = 0
        for _ in range(300):
            point, polys = self.case(rng)
            cache = {}
            for f in polys:
                zero = f.evaluate(point) == 0
                assert zero == (reference_evaluate(f, point) == 0)
                assert _vanishes(f, point, cache) is zero
                assert _vanishes(f, point, {}) is zero
                zeros += zero
        assert zeros > 100  # the shifted polynomials vanish

    def test_primitive_at_matches_primitive_of_the_values(self):
        rng = random.Random(1903)
        raised = 0
        for _ in range(400):
            point, polys = self.case(rng)
            if rng.random() < 0.6:
                # real polynomials at a real point: every value is real
                point = [getattr(x, "re", x) for x in point]
                polys = [MultiPoly(f.num_vars, {e: getattr(c, "re", c) for e, c in f.terms.items()})
                         for f in polys]
            cache = {}
            values = [f.evaluate(point, cache) for f in polys]
            if any(getattr(v, "im", 0) for v in values):
                with pytest.raises(ValueError):
                    _primitive_at(polys, point, {})
                raised += 1
                continue
            w, a, b = _primitive_at(polys, point, cache)
            ew, ea, eb = _primitive([_real(v) for v in values])
            assert typed(w) == typed(ew)
            assert {type(a), type(b)} == {int} and a > 0 and b > 0
            assert Fraction(a, b) == Fraction(ea, eb)
        assert raised > 20

    def test_real_row_is_the_row_of_the_image_in_r4(self):
        # build_matrix's cross-check reads p's R^4 row from p's own row
        rng = random.Random(1904)
        kinds = set()
        for _ in range(300):
            kind = rng.choice(("real", "gaussian", "mixed", "integer", "gaussian integer"))
            kinds.add(kind)
            if kind == "integer":
                point = [rng.randrange(-50, 51) for _ in range(2)]
            elif kind == "gaussian integer":
                point = [GaussianRational(rng.randrange(-9, 10), rng.randrange(-9, 10))
                         for _ in range(2)]
            else:
                point = [self.scalar(rng, kind == "gaussian" or (kind == "mixed" and k == 0))
                         for k in range(2)]
            row = _real_row(_point_row(point))
            assert row == _point_row(iota(point))
            f = self.poly(rng, 4, False)
            assert f._integer_sum(iota(point), {None: row}) == f._integer_sum(iota(point), {})
        assert len(kinds) == 5


class TestParse:
    def test_parse_basic(self):
        p = parse_poly("z1^2 + i*z2 - 3", ["z1", "z2"])
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        expected = z1 * z1 + z2 * I_UNIT - MultiPoly.constant(3, 2)
        assert p == expected

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            parse_poly("w + 1", ["z1"])

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_poly("z1^", ["z1"])

    def test_parse_rejects_degrees_above_the_limit(self):
        names = ["z1", "z2"]
        half = _DEGREE_LIMIT // 2
        for text in (f"z1^{_DEGREE_LIMIT} - z2", f"z1^{half} * z2^{half} + 1"):
            assert parse_poly(text, names).total_degree == _DEGREE_LIMIT
        for text in (f"z1^{_DEGREE_LIMIT + 1}", "z1^(2^70) - z2", f"(z1^{_DEGREE_LIMIT})^2",
                     f"z1^{half} * z2^{half + 1}", f"2^{_DEGREE_LIMIT + 1}"):
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse_poly(text, names)
