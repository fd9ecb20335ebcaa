"""The C^2 <-> R^4 dictionary: embedding, realification, Cauchy-Riemann
equations, the complex-structure map J, and the exceptional planes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from incidencekit.cr import (
    CRClass,
    _exceptional_planes,
    ComplexCurve,
    PI1_BASIS,
    PI2_BASIS,
    PiContainment,
    RealPair,
    SingularPointError,
    check_cauchy_riemann,
    classify_cr_vector,
    iota,
    iota_inv,
    j_apply,
    pi_containment,
    realify,
    tangent_contains_pi,
)
from incidencekit.linalg import rank, same_span
from incidencekit.poly import GaussianRational, I_UNIT, MultiPoly, gradient


def gauss(re_n, re_d=1, im_n=0, im_d=1):
    return GaussianRational(Fraction(re_n, re_d), Fraction(im_n, im_d))


def rand_curve(rng, degree):
    terms = {}
    for _ in range(8):
        e1 = rng.randrange(degree + 1)
        e2 = rng.randrange(degree + 1 - e1)
        coef = GaussianRational(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
        )
        if not coef.is_zero:
            terms[(e1, e2)] = coef
    if not terms:
        terms[(1, 0)] = GaussianRational(1)
    return ComplexCurve(MultiPoly(2, terms))


class TestIota:
    def test_origin(self):
        assert iota((GaussianRational(0), GaussianRational(0))) == (0, 0, 0, 0)

    def test_map_definition(self):
        p = (gauss(1, 1, 2), gauss(3, 1, 4))
        assert iota(p) == (1, 2, 3, 4)

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(100):
            p = tuple(
                GaussianRational(
                    Fraction(rng.randrange(-50, 50), 7),
                    Fraction(rng.randrange(-50, 50), 3),
                )
                for _ in range(2)
            )
            assert iota_inv(iota(p)) == p


class TestRealify:
    def test_z1(self):
        pair = realify(ComplexCurve(MultiPoly.variable(0, 2)))
        assert pair.u == MultiPoly.variable(0, 4)
        assert pair.v == MultiPoly.variable(1, 4)

    def test_z1_z2_product(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        pair = realify(ComplexCurve(z1 * z2))
        x1, y1, x2, y2 = (MultiPoly.variable(i, 4) for i in range(4))
        assert pair.u == x1 * x2 - y1 * y2
        assert pair.v == x1 * y2 + y1 * x2

    def test_z1_sq_minus_z2(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        pair = realify(ComplexCurve(z1 * z1 - z2))
        x1, y1, x2, y2 = (MultiPoly.variable(i, 4) for i in range(4))
        assert pair.u == x1 * x1 - y1 * y1 - x2
        assert pair.v == x1 * y1 * 2 - y2

    def test_evaluation_oracle(self):
        # f(p) = u(iota p) + i v(iota p) at random complex points
        rng = random.Random(8)
        for _ in range(10):
            curve = rand_curve(rng, 4)
            pair = realify(curve)
            for _ in range(5):
                p = tuple(
                    GaussianRational(
                        Fraction(rng.randrange(-9, 10), 2),
                        Fraction(rng.randrange(-9, 10), 3),
                    )
                    for _ in range(2)
                )
                rp = iota(p)
                fval = curve.f.evaluate(list(p))
                assert fval == GaussianRational(
                    pair.u.evaluate(list(rp)), pair.v.evaluate(list(rp))
                )


    def test_matches_the_substitution_oracle(self):
        # seeded curves over Q and Q(i) of degree <= 5: Fraction, purely
        # real, purely imaginary and general Gaussian coefficients, and
        # products whose expansion cancels real or imaginary parts
        rng = random.Random(515)
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        i2 = MultiPoly.constant(I_UNIT, 2)

        def coef(kind):
            re = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            im = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            return (re, GaussianRational(re), GaussianRational(0, im),
                    GaussianRational(re, im))[kind]

        curves = [(z1 + i2 * z2) ** 3 * (z1 - i2 * z2) ** 2, (z1 * z1 + z2 * z2) * (z1 - i2),
                  z1 * z1 * (1 + i2) - z2 * (1 - i2), MultiPoly.constant(I_UNIT, 2)]
        for field in ("Q", "Q(i)"):
            for _ in range(60):
                terms = {}
                for _ in range(rng.randrange(1, 9)):
                    e1 = rng.randrange(6)
                    terms[e1, rng.randrange(6 - e1)] = coef(0 if field == "Q" else
                                                            rng.randrange(4))
                curves.append(MultiPoly(2, terms))
        seen = set()
        for f in curves:
            if f.is_zero:
                continue
            same_terms(realify(f), realify_by_substitution(f))
            seen.add(f.is_gaussian)
            seen.add(("real part", any(isinstance(c, GaussianRational) and c.re == 0
                                       for c in f.terms.values())))
        assert seen >= {True, False, ("real part", True)}


def realify_by_substitution(f):
    """u, v of f by substituting z_k = x_k + i y_k into f and splitting each
    coefficient of the expansion: the definition, kept as the oracle."""
    x1, y1, x2, y2 = (MultiPoly.variable(k, 4) for k in range(4))
    i4 = MultiPoly.constant(I_UNIT, 4)
    expanded = f.substitute([x1 + i4 * y1, x2 + i4 * y2])
    u_terms, v_terms = {}, {}
    for exp, coef in expanded.terms.items():
        c = GaussianRational.coerce(coef)
        if c.re:
            u_terms[exp] = c.re
        if c.im:
            v_terms[exp] = c.im
    return RealPair(MultiPoly(4, u_terms), MultiPoly(4, v_terms))


def same_terms(got, want):
    """Term-for-term equality of two real pairs, coefficient types included."""
    for part in ("u", "v"):
        g, w = getattr(got, part).terms, getattr(want, part).terms
        assert g == w, part
        assert {e: type(c) for e, c in g.items()} == {e: type(c) for e, c in w.items()}, part


def cache_curves(seed):
    """Seeded polynomials in (z1, z2): Gaussian ones, rational ones, and a
    few whose u or v is 0."""
    rng = random.Random(seed)
    curves = [rand_curve(rng, rng.randrange(1, 5)).f for _ in range(12)]
    curves += [MultiPoly(2, {(rng.randrange(4), rng.randrange(3)): Fraction(rng.randrange(1, 9), 2),
                             (0, 1): Fraction(-1)}) for _ in range(6)]
    curves += [MultiPoly.constant(I_UNIT, 2), MultiPoly.constant(3, 2), MultiPoly.variable(1, 2)]
    return curves


class TestRealifyCache:
    """realify expands a polynomial once and keeps the pair on it."""

    def test_later_calls_return_the_first_pair(self):
        for f in cache_curves(1):
            first = realify(f)
            assert realify(f) is first
            assert realify(ComplexCurve(f)) is first

    def test_cached_pairs_match_the_substitution_oracle(self):
        curves = cache_curves(2)
        for f in curves:
            realify(f)
        # the second pass reads the cache, in the other order
        for f in reversed(curves):
            same_terms(realify(f), realify_by_substitution(f))

    def test_equal_but_distinct_polynomials_give_the_same_pair(self):
        curves = cache_curves(3)
        twins = [MultiPoly(2, dict(f.terms)) for f in curves]
        pairs = [realify(f) for f in curves]
        for f, twin, pair in zip(curves, twins, pairs):
            got = realify(twin)
            assert got is not pair
            same_terms(got, pair)
            same_terms(got, realify_by_substitution(f))

    def test_gradients_are_the_partials_built_once(self):
        for f in cache_curves(4):
            pair = realify(f)
            du, dv = pair.gradients
            assert du == tuple(pair.u.partial(k) for k in range(4))
            assert dv == tuple(pair.v.partial(k) for k in range(4))
            assert realify(f).gradients is pair.gradients

    def test_a_polynomial_in_other_variables_still_raises(self):
        f = MultiPoly.variable(0, 3)
        for _ in range(2):
            with pytest.raises(ValueError):
                realify(f)


class TestCauchyRiemann:
    def test_holomorphic_product(self):
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        ok, residuals = check_cauchy_riemann(realify(ComplexCurve(z1 * z2)))
        assert ok
        assert all(r.is_zero for r in residuals)

    def test_antiholomorphic(self):
        # u = x1, v = -y1 is conj(z1): the first equation pair flips sign
        pair = RealPair(MultiPoly.variable(0, 4), -MultiPoly.variable(1, 4))
        ok, residuals = check_cauchy_riemann(pair)
        assert not ok
        assert any(not r.is_zero for r in residuals)

    def test_non_pair(self):
        pair = RealPair(
            MultiPoly.variable(0, 4) ** 2, MultiPoly.zero(4)
        )
        ok, _ = check_cauchy_riemann(pair)
        assert not ok

    def test_random_curves_degree6(self):
        rng = random.Random(12)
        for _ in range(20):
            curve = rand_curve(rng, 6)
            ok, residuals = check_cauchy_riemann(realify(curve))
            assert ok and all(r.is_zero for r in residuals)

    def test_gradient_form(self):
        # gradient form of the CR equations: grad v = J grad u, equivalently
        # grad u = -J grad v (J^2 = -1) at every rational point
        rng = random.Random(16)
        for _ in range(10):
            pair = realify(rand_curve(rng, 5))
            pt = [Fraction(rng.randrange(-9, 10), 4) for _ in range(4)]
            gu = gradient(pair.u, pt)
            gv = gradient(pair.v, pt)
            assert tuple(gv) == j_apply(gu)
            assert tuple(gu) == tuple(-c for c in j_apply(gv))


class TestJ:
    def test_definition(self):
        assert j_apply((1, 0, 0, 0)) == (0, 1, 0, 0)

    def test_j_squared_is_minus_identity(self):
        rng = random.Random(20)
        for _ in range(100):
            w = [Fraction(rng.randrange(-99, 100), 7) for _ in range(4)]
            assert j_apply(j_apply(w)) == tuple(-c for c in w)

    def test_skewness(self):
        rng = random.Random(24)
        for _ in range(100):
            w = [Fraction(rng.randrange(-99, 100), 5) for _ in range(4)]
            assert sum(a * b for a, b in zip(w, j_apply(w))) == 0


VALUES = [
    GaussianRational(0),
    GaussianRational(1),
    GaussianRational(-1),
    I_UNIT,
    -I_UNIT,
]


class TestClassify:
    def test_pi2_member(self):
        a = (gauss(1), -I_UNIT, gauss(0), gauss(0))
        assert classify_cr_vector(a) == CRClass.DEPENDENT_PLUS_I

    def test_real_vector_independent(self):
        assert classify_cr_vector((1, 0, 0, 0)) == CRClass.INDEPENDENT

    def test_zero_tag(self):
        assert classify_cr_vector((0, 0, 0, 0)) == CRClass.ZERO

    def test_exhaustive_against_rank_oracle(self):
        lam = {CRClass.DEPENDENT_PLUS_I: I_UNIT, CRClass.DEPENDENT_MINUS_I: -I_UNIT}
        for a in itertools.product(VALUES, repeat=4):
            cls = classify_cr_vector(a)
            r = rank([list(a), list(j_apply(a))])
            if cls == CRClass.INDEPENDENT:
                assert r == 2
            elif cls == CRClass.ZERO:
                assert r == 0
            else:
                assert r <= 1
                w = lam[cls]
                assert a[1] == -w * a[0] and a[3] == -w * a[2]

    def test_nonzero_real_vectors_independent(self):
        rng = random.Random(28)
        for _ in range(50):
            a = [Fraction(rng.randrange(-9, 10)) for _ in range(4)]
            if all(c == 0 for c in a):
                continue
            assert classify_cr_vector(a) == CRClass.INDEPENDENT


class TestPlanes:
    def test_pi2_is_conjugate_of_pi1(self):
        conj = [[c.conjugate() for c in v] for v in PI1_BASIS]
        assert same_span(conj, [list(v) for v in PI2_BASIS])

    def test_span_of_both_is_c4(self):
        stacked = [list(v) for v in PI1_BASIS] + [list(v) for v in PI2_BASIS]
        assert rank(stacked) == 4

    def test_pi1_constraints(self):
        # a2 = -i a1 and a4 = -i a3 on every basis vector
        for v in PI1_BASIS:
            assert v[1] == -I_UNIT * v[0]
            assert v[3] == -I_UNIT * v[2]


def product_planes(a):
    """(a in PI1, a in PI2) by the Gaussian products a2 = -lambda a1 and
    a4 = -lambda a3 for lambda = i, -i: the formula the parts test replaces."""
    a = [GaussianRational.coerce(c) for c in a]
    return tuple(a[1] == -lam * a[0] and a[3] == -lam * a[2] for lam in (I_UNIT, -I_UNIT))


def test_planes_from_parts_match_the_product_formula():
    # seeded real vectors (ints, Fractions, Gaussian rationals with zero
    # imaginary part), Gaussian vectors, members of each plane with and
    # without one part moved off it, and zero in every representation
    rng = random.Random(91)

    def real():
        n, d = rng.randrange(-3, 4), rng.randrange(1, 4)
        return rng.choice([n, Fraction(n, d), GaussianRational(Fraction(n, d))])

    def gaussian():
        return rng.choice([real(), gauss(rng.randrange(-3, 4), rng.randrange(1, 3),
                                         rng.randrange(-3, 4), rng.randrange(1, 3))])

    vectors = [(0, 0, 0, 0), (Fraction(0),) * 4, (GaussianRational(0),) * 4]
    for n in range(1200):
        if n % 3 == 0:
            vectors.append(tuple(real() for _ in range(4)))
        elif n % 3 == 1:
            vectors.append(tuple(gaussian() for _ in range(4)))
        else:
            lam = rng.choice([I_UNIT, -I_UNIT])
            a1, a3 = gaussian(), gaussian()
            v = [a1, -lam * a1, a3, -lam * a3]
            if rng.randrange(3) == 0:
                k = rng.randrange(4)
                v[k] = GaussianRational.coerce(v[k]) + rng.choice([1, I_UNIT])
            vectors.append(tuple(v))
    seen = set()
    for v in vectors:
        want = product_planes(v)
        assert _exceptional_planes(v) == want, v
        seen.add(want)
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


class TestTangentContainsPi:
    def test_linear_hypersurface_none(self):
        y1, y2 = MultiPoly.variable(1, 4), MultiPoly.variable(3, 4)
        assert tangent_contains_pi(y2 - y1, [0, 0, 0, 0]) == PiContainment.NONE

    def test_degenerate_choice_none(self):
        x2, y2 = MultiPoly.variable(2, 4), MultiPoly.variable(3, 4)
        assert tangent_contains_pi(x2 + y2, [1, 1, 1, 1]) == PiContainment.NONE

    def test_singular_point_rejected(self):
        x1 = MultiPoly.variable(0, 4)
        with pytest.raises(SingularPointError):
            tangent_contains_pi(x1 * x1, [0, 0, 0, 0])

    def test_never_both_for_real_gradients(self):
        rng = random.Random(32)
        v = [MultiPoly.variable(i, 4) for i in range(4)]
        for _ in range(30):
            p = MultiPoly.zero(4)
            for vi in v:
                p = p + vi * Fraction(rng.randrange(-5, 6))
            p = p + v[0] * v[1] * Fraction(rng.randrange(-3, 4))
            pt = [Fraction(rng.randrange(-5, 6)) for _ in range(4)]
            try:
                result = tangent_contains_pi(p, pt)
            except SingularPointError:
                continue
            assert result != PiContainment.BOTH

    def test_containment_from_a_gradient(self):
        # a complex gradient can annihilate either exceptional plane
        one, i, zero = GaussianRational(1), I_UNIT, GaussianRational(0)
        assert pi_containment((one, -i, zero, zero)) == PiContainment.PI1
        assert pi_containment((zero, zero, one, i)) == PiContainment.PI2
        assert pi_containment((1, 0, 0, 0)) == PiContainment.NONE

    @staticmethod
    def annihilation_oracle(grad):
        """Plane containment by pairing grad against each plane's basis."""
        gc = [GaussianRational.coerce(c) for c in grad]

        def annihilates(basis):
            return all(
                sum((gi * bi for gi, bi in zip(gc, bv)), GaussianRational(0)).is_zero
                for bv in basis
            )

        in1, in2 = annihilates(PI1_BASIS), annihilates(PI2_BASIS)
        if in1 and in2:
            return PiContainment.BOTH
        if in1:
            return PiContainment.PI1
        if in2:
            return PiContainment.PI2
        return PiContainment.NONE

    def test_membership_matches_the_annihilation_oracle(self):
        vectors = list(itertools.product(VALUES, repeat=4))
        rng = random.Random(61)

        def coef():
            return gauss(rng.randrange(-4, 5), rng.randrange(1, 4),
                         rng.randrange(-4, 5), rng.randrange(1, 4))

        for n in range(600):
            if n % 3 == 0:  # a random vector, almost never in a plane
                vectors.append(tuple(coef() for _ in range(4)))
            else:  # a combination of one plane's basis vectors
                basis = PI1_BASIS if n % 3 == 1 else PI2_BASIS
                a, b = coef(), coef()
                vectors.append(tuple(a * u + b * w for u, w in zip(*basis)))
        vectors.append((0, 0, 0, 0))
        seen = {PiContainment.BOTH: 0, PiContainment.PI1: 0,
                PiContainment.PI2: 0, PiContainment.NONE: 0}
        for v in vectors:
            expected = self.annihilation_oracle(v)
            assert pi_containment(v) == expected, v
            seen[expected] += 1
        assert pi_containment((0, 0, 0, 0)) == PiContainment.BOTH
        assert min(seen.values()) >= 1 and seen[PiContainment.PI1] >= 150


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_cr_identity_property(raw_terms):
    terms = {}
    for e1, e2, re_c, im_c in raw_terms:
        c = GaussianRational(re_c, im_c)
        if not c.is_zero:
            terms[(e1, e2)] = c
    if not terms:
        terms[(0, 1)] = GaussianRational(1)
    ok, residuals = check_cauchy_riemann(realify(ComplexCurve(MultiPoly(2, terms))))
    assert ok and all(r.is_zero for r in residuals)


# entries of Q(i) with small and large heights and mixed denominators
_heights = st.one_of(st.integers(-5, 5), st.integers(-2**40, 2**40))
_entries = st.builds(
    lambda a, b, d, e: GaussianRational(Fraction(a, d), Fraction(b, e)),
    _heights, _heights, st.sampled_from([1, 2, 3, 7, 2**31 - 1]),
    st.sampled_from([1, 2, 5, 3**20]),
)
_curve_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3),
    st.builds(GaussianRational, st.fractions(min_value=-9, max_value=9, max_denominator=4),
              st.fractions(min_value=-9, max_value=9, max_denominator=4)),
    min_size=1, max_size=6,
)


def realified_map(A, t):
    """The images of (x1, y1, x2, y2) under q -> Aq + t on C^2, read in R^4:
    (A q)_j = sum_k a_jk z_k has real part sum Re(a_jk) x_k - Im(a_jk) y_k
    and imaginary part sum Im(a_jk) x_k + Re(a_jk) y_k."""
    x = [MultiPoly.variable(k, 4) for k in range(4)]
    images = []
    for row, shift in zip(A, t):
        re = MultiPoly.constant(shift.re, 4)
        im = MultiPoly.constant(shift.im, 4)
        for k, a in enumerate(row):
            re = re + x[2 * k] * a.re - x[2 * k + 1] * a.im
            im = im + x[2 * k] * a.im + x[2 * k + 1] * a.re
        images += [re, im]
    return images


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_entries, min_size=6, max_size=6), _curve_terms)
@example([gauss(1), gauss(0, 1, 1), gauss(0), gauss(1), gauss(0), gauss(0)],
         {(1, 1): gauss(0, 1, 1), (0, 3): gauss(2, 3, -1, 2)})
def test_realify_commutes_with_an_affine_map(entries, terms):
    # realify(f o A) = realify(f) o A_R, term for term, for f in (z1, z2)
    # and an invertible affine map A of C^2 over Q(i), where A_R is the same
    # map of R^4 = C^2
    a, b, c, d, t1, t2 = entries
    assume(a * d - b * c)
    f = MultiPoly(2, terms)
    assume(not f.is_zero)
    z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    moved = f.substitute([z1 * a + z2 * b + t1, z1 * c + z2 * d + t2])
    images = realified_map(((a, b), (c, d)), (t1, t2))
    got, pair = realify(moved), realify(f)
    for part in ("u", "v"):
        g, w = getattr(got, part), getattr(pair, part).substitute(images)
        assert g.terms == w.terms, part
        assert {type(x) for x in g.terms.values()} <= {Fraction}
