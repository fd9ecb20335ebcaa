"""Tangent distribution, Lie brackets, bracket defect, leaf diagnostics."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from incidencekit import foliation
from incidencekit.configurations import gen_leaf_family, rational_sphere_points
from incidencekit.cr import (
    ComplexCurve,
    PiContainment,
    SingularPointError,
    iota,
    iota_inv,
    j_apply,
    realify,
)
from incidencekit.foliation import (
    BracketDefect,
    DistributionFrame,
    ExceptionalPointError,
    FrameDegenerateError,
    Hypersurface,
    PolyVectorField,
    TangencyRecord,
    bracket_defect,
    bracket_defect_polynomial,
    containment_check,
    distribution_frame,
    graph_form,
    leaf_sample_points,
    leaf_tangency_check,
    lie_bracket,
    tangent_frame_field,
)
from incidencekit.linalg import in_span, kernel_basis, rank, same_span
from incidencekit.poly import GaussianRational, I_UNIT, InvariantError, MultiPoly

X1, Y1, X2, Y2 = (MultiPoly.variable(i, 4) for i in range(4))
Z1 = MultiPoly.variable(0, 2)


def const_field(v):
    return PolyVectorField(tuple(MultiPoly.constant(c, 4) for c in v))


class TestDistributionFrame:
    def test_flat_hyperplane(self):
        # P = y2 - y1: grad = (0,-1,0,1), J grad = (1,0,-1,0); the common
        # orthogonal complement is span{(1,0,1,0),(0,1,0,1)}, exactly the
        # tangent plane of the leaves z2 = z1 + c
        Z = Hypersurface(Y2 - Y1)
        frame = distribution_frame(Z, [0, 0, 0, 0])
        assert list(frame.grad) == [0, -1, 0, 1]
        assert list(frame.jgrad) == [1, 0, -1, 0]
        expected = [
            [Fraction(1), Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0), Fraction(1)],
        ]
        assert same_span([list(v) for v in frame.e_basis], expected)

    def test_sphere_pole(self):
        P = X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - MultiPoly.constant(1, 4)
        frame = distribution_frame(Hypersurface(P), [1, 0, 0, 0])
        assert list(frame.grad) == [2, 0, 0, 0]
        assert list(frame.jgrad) == [0, 2, 0, 0]
        expected = [
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        ]
        assert same_span([list(v) for v in frame.e_basis], expected)

    def test_frame_invariants_on_graph_families(self):
        # J-invariance and orthogonality at sample points of Levi-flat graphs
        rng = random.Random(6)
        for g_coef in (1, 2, -3):
            # P = Im(z2 - a z1^2) = y2 - 2a x1 y1
            a = Fraction(g_coef)
            P = Y2 - X1 * Y1 * (2 * a)
            Z = Hypersurface(P)
            for _ in range(10):
                x1 = Fraction(rng.randrange(-9, 10), 2)
                y1 = Fraction(rng.randrange(-9, 10), 3)
                p = [x1, y1, Fraction(rng.randrange(-9, 10)), 2 * a * x1 * y1]
                frame = distribution_frame(Z, p)
                jb = [list(j_apply(v)) for v in frame.e_basis]
                assert same_span(jb, [list(v) for v in frame.e_basis])
                for v in frame.e_basis:
                    assert sum(a_ * b_ for a_, b_ in zip(v, frame.grad)) == 0
                    assert sum(a_ * b_ for a_, b_ in zip(v, frame.jgrad)) == 0


class TestLieBracket:
    def test_constant_fields_commute(self):
        X = const_field([1, 0, 0, 0])
        Y = const_field([0, 1, 0, 0])
        assert all(c.is_zero for c in lie_bracket(X, Y).components)

    def test_one_dimensional_example(self):
        # [x d/dx, d/dx] = -d/dx
        X = PolyVectorField((X1, MultiPoly.zero(4), MultiPoly.zero(4),
                             MultiPoly.zero(4)))
        Y = const_field([1, 0, 0, 0])
        b = lie_bracket(X, Y)
        assert b.components[0] == MultiPoly.constant(-1, 4)
        assert all(c.is_zero for c in b.components[1:])

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(14)

        def rand_field():
            comps = []
            for _ in range(4):
                terms = {}
                for _ in range(3):
                    exp = [0, 0, 0, 0]
                    for _ in range(rng.randrange(4)):
                        exp[rng.randrange(4)] += 1
                    terms[tuple(exp)] = Fraction(rng.randrange(-4, 5))
                comps.append(MultiPoly(4, terms))
            return PolyVectorField(tuple(comps))

        for _ in range(5):
            X, Y, Z = rand_field(), rand_field(), rand_field()
            anti = lie_bracket(X, Y) + lie_bracket(Y, X)
            assert all(c.is_zero for c in anti.components)
            jac = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert all(c.is_zero for c in jac.components)


class TestFrameFields:
    def test_flat_example(self):
        # P = y2 - y1, |grad|^2 = 2: X1 = 2 e1 - 0 - 1*(1,0,-1,0) = (1,0,1,0)
        Z = Hypersurface(Y2 - Y1)
        vals = tangent_frame_field(Z, 0).evaluate([0, 0, 0, 0])
        assert list(vals) == [1, 0, 1, 0]

    def test_orthogonality_identity(self):
        # <X_i, grad P> = 0 as an exact polynomial identity
        rng = random.Random(22)
        for _ in range(5):
            terms = {}
            for _ in range(5):
                exp = [0, 0, 0, 0]
                for _ in range(rng.randrange(1, 5)):
                    exp[rng.randrange(4)] += 1
                terms[tuple(exp)] = Fraction(rng.randrange(-5, 6))
            P = MultiPoly(4, terms)
            if P.is_zero:
                continue
            Z = Hypersurface(P)
            grads = [P.partial(i) for i in range(4)]
            jg = [-grads[1], grads[0], -grads[3], grads[2]]
            for i in range(4):
                Xi = tangent_frame_field(Z, i)
                dot_g = MultiPoly.zero(4)
                dot_jg = MultiPoly.zero(4)
                for c, g, j in zip(Xi.components, grads, jg):
                    dot_g = dot_g + c * g
                    dot_jg = dot_jg + c * j
                assert dot_g.is_zero
                assert dot_jg.is_zero

    def test_values_in_e_basis(self):
        Z = Hypersurface(Y2 - X1 * Y1 * 2)
        p = [Fraction(1), Fraction(2), Fraction(0), Fraction(4)]
        frame = distribution_frame(Z, p)
        Xa, Xb = tangent_frame_field(Z, 0), tangent_frame_field(Z, 1)
        basis = [list(v) for v in frame.e_basis]
        assert in_span(list(Xa.evaluate(p)), basis)
        assert in_span(list(Xb.evaluate(p)), basis)


def leaf_points_on_hyperplane(rng, count):
    pts = []
    for _ in range(count):
        x1 = Fraction(rng.randrange(-9, 10), 2)
        y1 = Fraction(rng.randrange(-9, 10), 3)
        x2 = Fraction(rng.randrange(-9, 10))
        pts.append([x1, y1, x2, y1])
    return pts


def random_poly(rng, degree):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randrange(1, degree + 1)):
            exp[rng.randrange(4)] += 1
        terms[tuple(exp)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return MultiPoly(4, terms)


def outcome(call):
    """(raw, normalized, indices) of a BracketDefect, or (error type, None)."""
    try:
        d = call()
    except ValueError as exc:  # FrameDegenerate, Singular, ExceptionalPoint too
        return type(exc), None
    return d.raw, d.normalized, d.indices


def lie_defect_polynomial(Z, i, j):
    """sum_k [X_i, X_j]_k (J grad P)_k from the symbolic frame fields and their
    Lie bracket: the definition, independent of the package's closed form."""
    g = [Z.P.partial(k) for k in range(4)]
    jg = [-g[1], g[0], -g[3], g[2]]
    bracket = lie_bracket(tangent_frame_field(Z, i), tangent_frame_field(Z, j))
    return sum((b * c for b, c in zip(bracket.components, jg)), MultiPoly.zero(4))


def symbolic_defect(Z, p, i, j, polys):
    """The defect from the symbolic fields and their Lie bracket; `polys`
    keeps each pair's defect polynomial for reuse at other points."""
    frame = distribution_frame(Z, p)
    if i is None or j is None:
        values = [tangent_frame_field(Z, k).evaluate(p) for k in range(4)]

        def dot(u, v):
            return sum(x * y for x, y in zip(u, v))

        best, best_area = None, 0
        for a in range(4):
            for b in range(a + 1, 4):
                u, v = values[a], values[b]
                area = dot(u, u) * dot(v, v) - dot(u, v) ** 2
                if area > best_area:
                    best, best_area = (a, b), area
        if best is None:
            raise FrameDegenerateError("no independent frame pair")
        i, j = best
    if i == j:
        raise ValueError("frame indices must differ")
    Xi, Xj = tangent_frame_field(Z, i), tangent_frame_field(Z, j)
    if rank([list(Xi.evaluate(p)), list(Xj.evaluate(p))]) != 2:
        raise FrameDegenerateError("degenerate frame pair")
    if (i, j) not in polys:
        polys[i, j] = lie_defect_polynomial(Z, i, j)
    raw = polys[i, j].evaluate(p)
    return BracketDefect(raw, raw / sum(c * c for c in frame.grad) ** 3, (i, j))


class TestBracketDefect:
    def test_flat_hyperplane_zero(self):
        Z = Hypersurface(Y2 - Y1)
        rng = random.Random(30)
        for p in leaf_points_on_hyperplane(rng, 10):
            assert bracket_defect(Z, p).raw == 0

    def test_levi_flat_graph_zero(self):
        # P = Im(z2 - z1^2) = y2 - 2 x1 y1
        Z = Hypersurface(Y2 - X1 * Y1 * 2)
        rng = random.Random(34)
        count = 0
        while count < 100:
            x1 = Fraction(rng.randrange(-9, 10), 2)
            y1 = Fraction(rng.randrange(-9, 10), 3)
            x2 = Fraction(rng.randrange(-9, 10))
            p = [x1, y1, x2, 2 * x1 * y1]
            try:
                d = bracket_defect(Z, p)
            except FrameDegenerateError:
                continue
            assert d.raw == 0 and d.normalized == 0
            count += 1

    def test_defect_polynomial_divisible_by_p(self):
        # the symbolic defect restricted to Z(P) vanishes: P divides it
        P = Y2 - X1 * Y1 * 2
        Z = Hypersurface(P)
        for (i, j) in ((0, 1), (0, 2), (2, 3)):
            poly = bracket_defect_polynomial(Z, i, j)
            if poly.is_zero:
                continue
            quotient = poly.exact_div(P)
            assert quotient * P == poly

    def test_defect_polynomial_matches_lie_bracket(self):
        # the closed form over MultiPoly entries is the Lie-bracket pairing, as
        # a polynomial, on seeded P of degree <= 4, the sphere, the cone and
        # the Levi-flat Im(z2 - z1^2), for every ordered frame pair
        rng = random.Random(77)
        cases = [
            X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - 1,
            X1 * X1 + Y1 * Y1 - X2 * X2 - Y2 * Y2,
            Y2 - X1 * Y1 * 2,
        ]
        cases += [random_poly(rng, 4) for _ in range(8)]
        checked = 0
        for P in cases:
            if P.is_zero:
                continue
            Z = Hypersurface(P)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        want = lie_defect_polynomial(Z, i, j)
                        assert bracket_defect_polynomial(Z, i, j) == want, (P, i, j)
                        checked += not want.is_zero
        assert checked > 100

    def test_sphere_nonzero(self):
        P = X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - MultiPoly.constant(1, 4)
        Z = Hypersurface(P)
        p = [Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0)]
        assert bracket_defect(Z, p).raw != 0

    def test_pointwise_matches_symbolic_defect(self):
        # seeded P = Q - Q(p0) of degree <= 4, so p0 lies on Z(P), plus a
        # cone at its apex, a hyperplane and the sphere; every ordered pair,
        # the default choice and invalid pairs, at p0 and at a point that is
        # usually off Z(P)
        rng = random.Random(2024)
        cases = [
            (X1 * X1 + Y1 * Y1 - X2 * X2 - Y2 * Y2, [0, 0, 0, 0]),
            (Y2 - Y1, [1, 2, 3, 2]),
            (X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - 1, [Fraction(3, 5), 0, Fraction(4, 5), 0]),
        ]
        for _ in range(10):
            Q = random_poly(rng, 4)
            p0 = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(4)]
            cases.append((Q - Q.evaluate(p0), p0))
        pairs = [(None, None), (1, 1), (0, 4), (4, 0), (-1, 2), (2, -1)]
        pairs += [(i, j) for i in range(4) for j in range(4) if i != j]
        seen = set()
        for P, p0 in cases:
            if P.is_zero:
                continue
            Z = Hypersurface(P)
            symbolic = {}
            for p in (p0, [c + 1 for c in p0]):
                for i, j in pairs:
                    got = outcome(lambda: bracket_defect(Z, p, i, j))
                    want = outcome(lambda: symbolic_defect(Z, p, i, j, symbolic))
                    assert got == want, (P, p, i, j)
                    seen.add(got[0] if isinstance(got[0], type) else bool(got[0]))
        assert seen == {True, False, ValueError, SingularPointError, FrameDegenerateError}

    def test_frame_index_errors(self):
        Z = Hypersurface(Y2 - Y1)
        with pytest.raises(ValueError, match="frame indices must differ"):
            bracket_defect(Z, [0, 0, 0, 0], 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            bracket_defect(Z, [0, 0, 0, 0], -1, 2)
        for i, j in ((2, None), (None, 2)):
            with pytest.raises(ValueError, match="both frame indices"):
                bracket_defect(Z, [0, 0, 0, 0], i, j)

    def test_one_pair_rule_for_points_polynomials_and_fields(self):
        Z = Hypersurface(Y2 - Y1)

        def error(call):
            with pytest.raises(ValueError) as exc:
                call()
            return type(exc.value), str(exc.value)

        for i, j in ((1, 1), (0, 4), (-1, 2)):
            want = error(lambda: bracket_defect(Z, [0, 0, 0, 0], i, j))
            assert error(lambda: bracket_defect_polynomial(Z, i, j)) == want
            bad = [k for k in (i, j) if not 0 <= k < 4]
            # a single field has no partner to differ from, only a range
            if bad:
                assert error(lambda: tangent_frame_field(Z, bad[0])) == want

    def test_exceptional_point_raised_before_the_frame(self, monkeypatch):
        # a real gradient never annihilates an exceptional plane, so force it
        monkeypatch.setattr(foliation, "pi_containment", lambda grad: PiContainment.PI1)
        Z = Hypersurface(Y2 - Y1)
        for i, j in ((None, None), (0, 1), (1, 1)):
            assert outcome(lambda: bracket_defect(Z, [0, 0, 0, 0], i, j)) == (
                ExceptionalPointError, None)


def realified(A):
    """The real 4 x 4 matrix of the complex-linear map z -> A z of C^2 on
    (x1, y1, x2, y2): each entry a + bi becomes the block [[a, -b], [b, a]]."""
    rows = []
    for row in A:
        rows.append([c for a in row for c in (a.re, -a.im)])
        rows.append([c for a in row for c in (a.im, a.re)])
    return rows


def test_levi_scalar_is_covariant_under_complex_linear_maps():
    # lambda of P o A is |det A|^2 times lambda of P, moved by A: the Levi
    # form is the bordered complex Hessian, whose determinant picks up
    # det A * conj(det A) when z = A w; on seeded P of degree <= 3 and seeded
    # A over Q(i) with mixed denominators
    rng = random.Random(1313)

    def entry():
        return GaussianRational(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                                Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))

    cases = [X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - 1, X1 * Y2 - Y1 * X2 + Y1**3]
    cases += [random_poly(rng, 3) for _ in range(8)]
    nonzero = 0
    for P in cases:
        if P.is_zero:
            continue
        while True:
            A = [[entry(), entry()], [entry(), entry()]]
            det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
            if det:
                break
        AR = realified(A)
        for v in ([1, 0, 0, 0], [0, 0, 1, 0], [1, 2, -3, 5]):  # A_R J = J A_R
            assert j_apply([sum(r * c for r, c in zip(row, v)) for row in AR]) == tuple(
                sum(r * c for r, c in zip(row, j_apply(v))) for row in AR)
        moved = [sum((MultiPoly.variable(k, 4) * c for k, c in enumerate(row)),
                     MultiPoly.zero(4)) for row in AR]
        Z, Z_moved = Hypersurface(P), Hypersurface(P.substitute(moved))
        lam = foliation._levi_scalar(Z.grad, Z.hess)
        lam_moved = foliation._levi_scalar(Z_moved.grad, Z_moved.hess)
        assert lam_moved == lam.substitute(moved) * (det * det.conjugate()).re, (P, A)
        nonzero += not lam.is_zero
    assert nonzero >= 6


def fraction_frame(Z, p):
    """distribution_frame in Fraction arithmetic, each check on the rational
    vectors themselves: the oracle the integer path is held to."""
    p = tuple(Fraction(c) for c in p)
    if Z.P.evaluate(p) != 0:
        raise ValueError(f"point {p} is not on the hypersurface")
    g = tuple(Z.P.partial(k).evaluate(p) for k in range(4))
    if all(c == 0 for c in g):
        raise SingularPointError(f"gradient vanishes at {p}")
    if foliation.pi_containment(g) is not PiContainment.NONE:
        raise ExceptionalPointError(f"tangent plane at {p} contains an exceptional plane")
    jg = j_apply(g)
    basis = [tuple(v) for v in kernel_basis([list(g), list(jg)])]
    assert sum(a * b for a, b in zip(g, jg)) == 0
    for v in basis:
        assert sum(a * b for a, b in zip(v, g)) == 0 == sum(a * b for a, b in zip(v, jg))
    assert rank(basis) == 2 and same_span(basis, [j_apply(v) for v in basis])
    return DistributionFrame(p, g, jg, tuple(basis))


def fraction_defect(Z, p, i=None, j=None):
    """bracket_defect by the pointwise formulas in Fraction arithmetic: the
    frame values X_k = |g|^2 e_k - g_k g - (Jg)_k Jg, the widest pair by
    Gram determinant, and sum_k X_i[k] w_j[k] - X_j[k] w_i[k] with
    w_a[k] = (Jg)_a (Hg)_k - g_a (H Jg)_k - |g|^2 (JH)_ak."""
    frame = fraction_frame(Z, p)
    g, jg = frame.grad, frame.jgrad
    n2 = sum(c * c for c in g)
    values = [[(n2 if l == k else 0) - g[k] * g[l] - jg[k] * jg[l] for l in range(4)]
              for k in range(4)]

    def gram(a, b):
        ab = sum(x * y for x, y in zip(a, b))
        return sum(x * x for x in a) * sum(y * y for y in b) - ab * ab

    if i is None:
        area, i, j = max((gram(values[a], values[b]), -a, -b)
                         for a in range(4) for b in range(a + 1, 4))
        i, j = -i, -j
        if area == 0:
            raise FrameDegenerateError(f"no independent frame pair at {p}")
    elif gram(values[i], values[j]) == 0:
        raise FrameDegenerateError(f"frame pair ({i},{j}) degenerate at {p}; "
                                   "choose another pair")
    H = [[Z.P.partial(a).partial(b).evaluate(frame.base_point) for b in range(4)]
         for a in range(4)]
    hg = [sum(h * c for h, c in zip(row, g)) for row in H]
    hjg = [sum(h * c for h, c in zip(row, jg)) for row in H]
    jh = [j_apply(row) for row in H]  # jh[k][a] = (JH)_ak, H being symmetric

    def w(a):
        return [jg[a] * hg[k] - g[a] * hjg[k] - n2 * jh[k][a] for k in range(4)]

    wi, wj = w(i), w(j)
    raw = sum(x * b - y * a for x, y, a, b in zip(values[i], values[j], wi, wj))
    return BracketDefect(raw, raw / n2**3, (i, j))


def fraction_tangency(Z, curve, samples):
    """leaf_tangency_check with every rank and span test on rational vectors."""
    pair = realify(curve)
    records = []
    for raw in samples:
        p = tuple(Fraction(c) for c in raw)
        if pair.u.evaluate(p) != 0 or pair.v.evaluate(p) != 0:
            records.append(TangencyRecord(p, "skip", "point not on the curve"))
            continue
        gu = [pair.u.partial(k).evaluate(p) for k in range(4)]
        gv = [pair.v.partial(k).evaluate(p) for k in range(4)]
        if rank([gu, gv]) != 2:
            records.append(TangencyRecord(p, "skip", "curve not regular at point"))
            continue
        try:
            frame = fraction_frame(Z, p)
        except ValueError as exc:
            records.append(TangencyRecord(p, "skip", str(exc)))
            continue
        ok = same_span([gu, gv], [frame.grad, frame.jgrad])
        records.append(TangencyRecord(p, "pass" if ok else "fail",
                                      "" if ok else "tangent plane differs from E_p"))
    return records


def exact_outcome(call):
    """The result with the type of every Fraction field, or the error's type
    and message."""
    try:
        d = call()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(d, BracketDefect):
        return type(d.raw), d.raw, type(d.normalized), d.normalized, d.indices
    return d, [type(c) for c in d.grad + d.jgrad + sum(d.e_basis, ())]


def tangent_line(Z, p):
    """The complex line through iota^-1(p) whose tangent plane is E_p."""
    e = fraction_frame(Z, p).e_basis[0]
    w1, w2 = GaussianRational(p[0], p[1]), GaussianRational(p[2], p[3])
    d1, d2 = GaussianRational(e[0], e[1]), GaussianRational(e[2], e[3])
    z1, z2 = Z1, MultiPoly.variable(1, 2)
    return ComplexCurve((z1 - MultiPoly.constant(w1, 2)) * d2 - (z2 - MultiPoly.constant(w2, 2)) * d1)


class TestIntegerPathMatchesFractionOracle:
    PAIRS = [(None, None)] + [(i, j) for i in range(4) for j in range(4) if i != j]

    def cases(self):
        """(Z, points, [(curve, samples)]): AC4's leaf families with a line
        across their leaves, the sphere, and seeded P = Q - Q(p0) of degree
        <= 4 with p0 of mixed denominators, its tangent line, a line across
        it, and points off the curve or off Z."""
        z1 = MultiPoly.variable(0, 1)
        for g in (z1, z1**2, z1**3 + z1 * I_UNIT):
            family = gen_leaf_family(g, count=3, seed=0, samples_per_leaf=4)
            Z = family.hypersurface
            points = [p for idx in range(3) for p in family.samples[idx]]
            curves = [(curve, family.samples[idx]) for idx, curve in enumerate(family.curves)]
            across = ComplexCurve(MultiPoly.variable(1, 2) - Z1 * 2)
            cusp = ComplexCurve(MultiPoly.variable(1, 2) ** 2 - Z1**3)
            curves += [(across, [iota((0, 0)), iota((1, 2)), iota((2, 4)), [1, 1, 1, 1]]),
                       (cusp, [[0, 0, 0, 0]])]
            yield Z, points + [iota((0, 0)), iota((1, 2))], curves
        sphere = Hypersurface(X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - 1)
        yield sphere, rational_sphere_points(20, seed=1), []
        cone = Hypersurface(X1 * X1 + Y1 * Y1 - X2 * X2 - Y2 * Y2)
        yield cone, [[0, 0, 0, 0], [1, 0, 1, 0]], [
            (ComplexCurve(MultiPoly.variable(1, 2) - Z1), [[0, 0, 0, 0], [1, 0, 1, 0]])]
        rng = random.Random(4096)
        for _ in range(24):
            Q = random_poly(rng, 4)
            p0 = [Fraction(rng.randrange(-7, 8), rng.randrange(1, 7)) for _ in range(4)]
            P = Q - Q.evaluate(p0)
            if P.is_zero:
                continue
            Z = Hypersurface(P)
            points = [p0, [c + Fraction(1, 3) for c in p0]]
            curves = []
            if isinstance(exact_outcome(lambda: fraction_frame(Z, p0))[0], DistributionFrame):
                line = tangent_line(Z, p0)
                w1, w2 = iota_inv(p0)
                across = ComplexCurve(MultiPoly.variable(1, 2) - Z1 * 3
                                      - MultiPoly.constant(w2 - w1 * 3, 2))
                curves = [(line, [p0, [c + 1 for c in p0]]), (across, [p0])]
            yield Z, points, curves

    def test_defects_frames_and_tangency_match(self):
        defects, statuses = set(), set()
        for Z, points, curves in self.cases():
            for p in points:
                got = exact_outcome(lambda: distribution_frame(Z, p))
                assert got == exact_outcome(lambda: fraction_frame(Z, p)), (Z.P, p)
                for i, j in self.PAIRS:
                    got = exact_outcome(lambda: bracket_defect(Z, p, i, j))
                    want = exact_outcome(lambda: fraction_defect(Z, p, i, j))
                    assert got == want, (Z.P, p, i, j)
                    defects.add(got[0].__name__ if len(got) == 2 else bool(got[1]))
            for curve, samples in curves:
                got = leaf_tangency_check(Z, curve, samples)
                assert got == fraction_tangency(Z, curve, samples), (Z.P, curve.f)
                statuses.update((r.status, "off Z" if r.reason.endswith("hypersurface")
                                 else r.reason.split(" at ")[0]) for r in got)
        assert defects == {True, False, "ValueError", "SingularPointError",
                           "FrameDegenerateError"}
        assert statuses == {("pass", ""), ("fail", "tangent plane differs from E_p"),
                            ("skip", "point not on the curve"),
                            ("skip", "curve not regular"), ("skip", "gradient vanishes"),
                            ("skip", "off Z")}


def test_real_coefficients_written_in_q_i_act_as_rationals():
    # P = Im(z2 - z1^2) with one coefficient a Gaussian rational of zero
    # imaginary part, as a file writing it as {"re": ..., "im": "0/1"} gives
    P = Y2 - X1 * Y1 * 2
    P_qi = MultiPoly(4, {**P.terms, (1, 1, 0, 0): GaussianRational(-2, 0)})
    assert any(isinstance(c, GaussianRational) for c in P_qi.terms.values())
    Z, Z_qi = Hypersurface(P), Hypersurface(P_qi)
    curve = ComplexCurve(MultiPoly.variable(1, 2) - Z1 * Z1 - MultiPoly.constant(2, 2))
    samples = leaf_sample_points(Z1 * Z1, Fraction(2), [GaussianRational(Fraction(k, 3), 1)
                                                         for k in range(-4, 5)])
    assert leaf_tangency_check(Z_qi, curve, samples) == leaf_tangency_check(Z, curve, samples)
    for p in samples + [[1, 2, 0, 4], iota((1, 2))]:
        for i, j in ((None, None), (0, 1), (2, 3)):
            got = outcome(lambda: bracket_defect(Z_qi, p, i, j))
            assert got == outcome(lambda: bracket_defect(Z, p, i, j)), (p, i, j)


class TestLeafTangency:
    def test_linear_leaves_pass(self):
        Z = Hypersurface(Y2 - Y1)
        c = Fraction(5)
        curve = ComplexCurve(
            MultiPoly.variable(1, 2) - Z1 - MultiPoly.constant(c, 2)
        )
        pts = []
        rng = random.Random(38)
        for _ in range(10):
            x1 = Fraction(rng.randrange(-9, 10), 2)
            y1 = Fraction(rng.randrange(-9, 10), 3)
            pts.append([x1, y1, x1 + c, y1])
        records = leaf_tangency_check(Z, curve, pts)
        assert all(r.status == "pass" for r in records)

    def test_quadratic_leaves_pass(self):
        Z = Hypersurface(Y2 - X1 * Y1 * 2)
        c = Fraction(-3, 2)
        curve = ComplexCurve(
            MultiPoly.variable(1, 2) - Z1 * Z1 - MultiPoly.constant(c, 2)
        )
        rng = random.Random(42)
        pts = []
        for _ in range(10):
            x1 = Fraction(rng.randrange(-9, 10), 2)
            y1 = Fraction(rng.randrange(-9, 10), 3)
            pts.append([x1, y1, x1 * x1 - y1 * y1 + c, 2 * x1 * y1])
        records = leaf_tangency_check(Z, curve, pts)
        assert all(r.status == "pass" for r in records)

    def test_off_curve_point_skipped(self):
        Z = Hypersurface(Y2 - Y1)
        curve = ComplexCurve(MultiPoly.variable(1, 2) - Z1)
        records = leaf_tangency_check(Z, curve, [[1, 1, 99, 1]])
        assert records[0].status == "skip"
        assert "curve" in records[0].reason

    def test_line_across_the_leaves_fails_then_passes(self):
        # Z = Im(z2 - z1^2) is foliated by the leaves z2 = z1^2 + c, c real; the
        # line z2 = 2 z1 crosses the leaf c = 0 at the origin and is tangent
        # to the leaf c = 1 at (1, 2)
        Z = Hypersurface(Y2 - X1 * Y1 * 2)
        curve = ComplexCurve(MultiPoly.variable(1, 2) - Z1 * 2)
        records = leaf_tangency_check(Z, curve, [iota((0, 0)), iota((1, 2))])
        assert [(r.status, r.reason) for r in records] == [
            ("fail", "tangent plane differs from E_p"), ("pass", "")]

    def test_cusp_skipped_as_not_regular(self):
        Z = Hypersurface(Y2 - X1 * Y1 * 2)
        z2 = MultiPoly.variable(1, 2)
        records = leaf_tangency_check(Z, ComplexCurve(z2 * z2 - Z1**3), [[0, 0, 0, 0]])
        assert [(r.status, r.reason) for r in records] == [
            ("skip", "curve not regular at point")]

    def test_cone_apex_skipped_as_singular(self):
        Z = Hypersurface(X1 * X1 + Y1 * Y1 - X2 * X2 - Y2 * Y2)
        curve = ComplexCurve(MultiPoly.variable(1, 2) - Z1)
        records = leaf_tangency_check(Z, curve, [[0, 0, 0, 0]])
        zero = Fraction(0)
        assert [(r.status, r.reason) for r in records] == [
            ("skip", f"gradient vanishes at {(zero, zero, zero, zero)}")]

    def test_broken_frame_invariant_raises(self, monkeypatch):
        # a wrong kernel, span{e1, e3}, is neither orthogonal to grad P nor
        # J-invariant; the broken invariant must surface, not a frame.  Leaf
        # tangency reads grad P(p) alone, so the check lives in the frame
        Z = Hypersurface(Y2 - Y1)
        e1, e3 = [Fraction(1), 0, 0, 0], [0, 0, Fraction(1), 0]
        monkeypatch.setattr(foliation, "kernel_basis", lambda rows: [e1, e3])
        with pytest.raises(InvariantError):
            distribution_frame(Z, [1, 2, 1, 2])


class TestContainment:
    def test_contained_leaf(self):
        Z = Hypersurface(Y2 - Y1)
        curve = ComplexCurve(
            MultiPoly.variable(1, 2) - Z1 - MultiPoly.constant(5, 2)
        )
        assert containment_check(Z, curve).status == "true"

    def test_shifted_by_i_not_contained(self):
        Z = Hypersurface(Y2 - Y1)
        curve = ComplexCurve(
            MultiPoly.variable(1, 2) - Z1 - MultiPoly.constant(I_UNIT, 2)
        )
        result = containment_check(Z, curve)
        assert result.status == "false"

    def test_sphere_contains_no_complex_line(self):
        P = X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - MultiPoly.constant(1, 4)
        Z = Hypersurface(P)
        line = ComplexCurve(MultiPoly.variable(1, 2) - Z1)
        assert containment_check(Z, line).status == "false"

    def test_graph_of_zero_is_decided(self):
        # z2 = 0 is the graph of g = 0; realify(0) is the zero pair, so
        # the residual is P(x1, y1, 0, 0)
        line = ComplexCurve(MultiPoly.variable(1, 2))
        assert containment_check(Hypersurface(Y2), line).status == "true"
        result = containment_check(Hypersurface(Y2 - Y1), line)
        assert result.status == "false" and result.residual == -Y1

    def test_non_graph_curve_unknown(self):
        Z = Hypersurface(Y2 - Y1)
        # z1*z2 - 1 is not solvable as z2 = g(z1) polynomially
        curve = ComplexCurve(Z1 * MultiPoly.variable(1, 2) - MultiPoly.constant(1, 2))
        assert graph_form(curve) is None
        assert containment_check(Z, curve).status == "unknown"

    def test_leaf_disjointness(self):
        # distinct constants give leaves sharing no point: the difference of
        # the defining polynomials is the nonzero constant c - c'
        z2 = MultiPoly.variable(1, 2)
        f1 = z2 - Z1 - MultiPoly.constant(2, 2)
        f2 = z2 - Z1 - MultiPoly.constant(7, 2)
        diff = f1 - f2
        assert diff.total_degree == 0 and not diff.is_zero


class TestLeafSamples:
    def test_samples_land_on_leaf_and_surface(self):
        g1 = MultiPoly.variable(0, 1) ** 2
        c = Fraction(3, 4)
        z1_values = [GaussianRational(Fraction(k, 2)) for k in range(-3, 4)]
        pts = leaf_sample_points(g1, c, z1_values)
        P = Y2 - X1 * Y1 * 2  # Im(z2 - z1^2)
        for p in pts:
            assert P.evaluate(list(p)) == 0


def curves_c2_inputs(seed):
    """The curves-c2 benchmark's Levi-flat inputs for one seed: five leaves
    with eight samples each of Im(z2 - g(z1)) for four g, and 60 points of
    the unit sphere."""
    z1 = MultiPoly.variable(0, 1)
    for g in (z1, z1**2, z1**3 + z1 * I_UNIT, z1**4 - z1**2 * I_UNIT + 3):
        family = gen_leaf_family(g, 5, seed, samples_per_leaf=8)
        yield family.hypersurface, [(leaf, family.samples[idx])
                                    for idx, leaf in enumerate(family.curves)]
    sphere = Hypersurface(X1 * X1 + Y1 * Y1 + X2 * X2 + Y2 * Y2 - 1)
    yield sphere, [(None, rational_sphere_points(60, seed))]


# sha256 of every bracket_defect outcome (default pair and all 12 ordered
# pairs) and every leaf_tangency_check record on the curves-c2 inputs of
# seeds 1-5, recorded when both still built E_p at each point
CURVES_C2_DIGEST = "eb8364ba7a632d3b9c9885efe37f4089f595e1b52dffc4b2a558b109681efeda"


def test_curves_c2_diagnostics_digest():
    pairs = [(None, None)] + [(i, j) for i in range(4) for j in range(4) if i != j]
    h = hashlib.sha256()
    for seed in range(1, 6):
        for Z, leaves in curves_c2_inputs(seed):
            for curve, samples in leaves:
                if curve is not None:
                    for r in leaf_tangency_check(Z, curve, samples):
                        h.update(f"{r.point} {r.status} {r.reason}\n".encode())
                for p in samples:
                    for i, j in pairs:
                        got = exact_outcome(lambda: bracket_defect(Z, p, i, j))
                        h.update(f"{p} {i} {j} {got}\n".encode())
    assert h.hexdigest() == CURVES_C2_DIGEST


# -- the leaf diagnostics under invertible affine maps of C^2 ------------------

Z2 = MultiPoly.variable(1, 2)
BOWL = Y2 - X1 * X1 - Y1 * Y1  # Im z2 = |z1|^2: lambda != 0 everywhere
QUARTIC = Y2 - (X1 * X1 + Y1 * Y1) ** 2  # Im z2 = |z1|^4: lambda = 0 iff z1 = 0
FLAT = Y2 - X1 * Y1 * 2  # Im(z2 - z1^2), foliated by z2 = z1^2 + c, c real
CONE = X1 * X1 + Y1 * Y1 - X2 * X2 - Y2 * Y2  # |z1| = |z2|, singular at 0
# (P, points): a defect that is zero and nonzero on QUARTIC, nonzero on
# BOWL, zero on FLAT and the cone, and points off Z(P) or singular on it
DEFECT_CASES = [
    (BOWL, [(1, 2, 3, 5), (Fraction(1, 2), 0, -1, Fraction(1, 4)), (0, 0, 0, 1)]),
    (QUARTIC, [(0, 0, 3, 0), (1, Fraction(1, 2), 0, Fraction(25, 16)), (1, 0, 0, 1)]),
    (FLAT, [(1, 2, 5, 4), (Fraction(-1, 3), 3, 0, -2)]),
    (CONE, [(3, 4, 5, 0), (0, 0, 0, 0)]),
]
# (P, curve f, samples as points of C^2): a pass, a fail, and a skip of each kind
TANGENCY_CASES = [
    (FLAT, Z2 - Z1 * Z1 - 2, [(GaussianRational(1, 1), GaussianRational(2, 2)),
                              (Fraction(1, 2), Fraction(9, 4)), (1, 4)]),
    (FLAT, Z2 - Z1 * 2, [(0, 0), (1, 2)]),
    (BOWL, Z2 - Z1, [(0, 0), (1, 1)]),
    (BOWL, Z2 * Z2 - Z1**3, [(0, 0)]),
    (CONE, Z2 - Z1, [(0, 0), (GaussianRational(3, 4), GaussianRational(3, 4))]),
]

_affine_entries = st.builds(
    lambda a, b, d, e: GaussianRational(Fraction(a, d), Fraction(b, e)),
    st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]),
    st.sampled_from([1, 2, 5]),
)


class AffineMap:
    """F(q) = A q + t on C^2 over Q(i), A invertible, acting on points of
    R^4 = C^2, and by pullback along F^-1 on hypersurfaces and curves: F(p)
    lies on a moved object exactly when p lies on the object."""

    def __init__(self, entries):
        a, b, c, d, t1, t2 = entries
        self.A, self.t = ((a, b), (c, d)), (t1, t2)
        det = a * d - b * c
        inverse = ((d / det, -b / det), (-c / det, a / det))
        shift = [-(row[0] * t1 + row[1] * t2) for row in inverse]
        self.complex_images = [Z1 * row[0] + Z2 * row[1] + MultiPoly.constant(s, 2)
                               for row, s in zip(inverse, shift)]
        x = (X1, Y1, X2, Y2)
        self.real_images = [
            sum((v * m for v, m in zip(x, row)), MultiPoly.constant(s, 4))
            for row, s in zip(realified(inverse), iota(shift))]

    def point(self, p):
        q = iota_inv(p)
        return iota([row[0] * q[0] + row[1] * q[1] + tk for row, tk in zip(self.A, self.t)])

    def hypersurface(self, P):
        return Hypersurface(P.substitute(self.real_images))

    def curve(self, f):
        return ComplexCurve(f.substitute(self.complex_images))


def defect_answer(Z, p):
    """Whether the bracket defect at p is zero, or the error it raises."""
    try:
        return bracket_defect(Z, p).raw == 0
    except ValueError as exc:
        return type(exc)


def tangency_answers(Z, curve, samples):
    """(status, reason) per sample, with the point in a reason left out."""
    return [(r.status, re.sub(r"\(.*\)", "", r.reason))
            for r in leaf_tangency_check(Z, curve, samples)]


def tangency_base():
    return [(Hypersurface(P), ComplexCurve(f), [iota(q) for q in samples])
            for P, f, samples in TANGENCY_CASES]


class TestAffineInvariance:
    """An invertible affine map of C^2 over Q(i) is a real-affine map A_R of
    R^4 with A_R J = J A_R.  It carries tangent planes and E_p along, so leaf
    tangency keeps its status, and it scales the Levi form by a nonzero
    factor, so the bracket defect stays zero exactly where it was."""

    def test_base_has_every_kind_of_answer(self):
        defects = [defect_answer(Hypersurface(P), p) for P, pts in DEFECT_CASES for p in pts]
        assert defects == [False, False, ValueError, True, False, False,
                           True, True, True, SingularPointError]
        answers = [a for Z, curve, samples in tangency_base()
                   for a in tangency_answers(Z, curve, samples)]
        assert answers == [
            ("pass", ""), ("pass", ""), ("skip", "point not on the curve"),
            ("fail", "tangent plane differs from E_p"), ("pass", ""),
            ("fail", "tangent plane differs from E_p"),
            ("skip", "point  is not on the hypersurface"),
            ("skip", "curve not regular at point"),
            ("skip", "gradient vanishes at "), ("pass", "")]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_affine_entries, min_size=6, max_size=6))
    @example([GaussianRational(0), GaussianRational(1), GaussianRational(1),
              GaussianRational(0), GaussianRational(0), GaussianRational(0)])
    def test_bracket_defect_is_zero_where_it_was(self, entries):
        a, b, c, d = entries[:4]
        assume(a * d - b * c)
        F = AffineMap(entries)
        for P, pts in DEFECT_CASES:
            Z, Z_moved = Hypersurface(P), F.hypersurface(P)
            for p in pts:
                assert defect_answer(Z_moved, F.point(p)) == defect_answer(Z, p), (P, p)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_affine_entries, min_size=6, max_size=6))
    def test_leaf_tangency_keeps_its_status(self, entries):
        a, b, c, d = entries[:4]
        assume(a * d - b * c)
        F = AffineMap(entries)
        for (Z, curve, samples), (P, f, _) in zip(tangency_base(), TANGENCY_CASES):
            moved = tangency_answers(F.hypersurface(P), F.curve(f),
                                     [F.point(p) for p in samples])
            assert moved == tangency_answers(Z, curve, samples), (P, f)
