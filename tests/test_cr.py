"""The C^2 <-> R^4 dictionary: embedding, realification, Cauchy-Riemann
equations, the complex-structure map J, and the exceptional planes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incidencekit.cr import (
    CRClass,
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
from incidencekit.poly import GaussianRational, I_UNIT, MultiPoly, gradient, poly_eval


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
                fval = poly_eval(curve.f, list(p))
                assert fval == GaussianRational(
                    poly_eval(pair.u, list(rp)), poly_eval(pair.v, list(rp))
                )


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
