"""Tangent distribution, Lie brackets, bracket defect, leaf diagnostics."""

import random
from fractions import Fraction

import pytest

from incidencekit import foliation
from incidencekit.cr import ComplexCurve, PiContainment, SingularPointError, j_apply
from incidencekit.foliation import (
    BracketDefect,
    ExceptionalPointError,
    FrameDegenerateError,
    Hypersurface,
    PolyVectorField,
    bracket_defect,
    bracket_defect_polynomial,
    containment_check,
    distribution_frame,
    graph_form,
    leaf_sample_points,
    leaf_tangency_check,
    lie_bracket,
    tangent_frame_field,
    tangent_frame_fields,
)
from incidencekit.linalg import in_span, rank, same_span
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
        Xa, _ = tangent_frame_fields(Z, 0, 1)
        vals = Xa.evaluate([0, 0, 0, 0])
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
                Xi, _ = tangent_frame_fields(Z, i, (i + 1) % 4)
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
        Xa, Xb = tangent_frame_fields(Z, 0, 1)
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
    Xi, Xj = tangent_frame_fields(Z, i, j)
    if rank([list(Xi.evaluate(p)), list(Xj.evaluate(p))]) != 2:
        raise FrameDegenerateError("degenerate frame pair")
    if (i, j) not in polys:
        polys[i, j] = bracket_defect_polynomial(Z, i, j)
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

    def test_exceptional_point_raised_before_the_frame(self, monkeypatch):
        # a real gradient never annihilates an exceptional plane, so force it
        monkeypatch.setattr(foliation, "pi_containment", lambda grad: PiContainment.PI1)
        Z = Hypersurface(Y2 - Y1)
        for i, j in ((None, None), (0, 1), (1, 1)):
            assert outcome(lambda: bracket_defect(Z, [0, 0, 0, 0], i, j)) == (
                ExceptionalPointError, None)


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

    def test_broken_frame_invariant_raises(self, monkeypatch):
        # a wrong kernel, span{e1, e3}, is neither orthogonal to grad P nor
        # J-invariant; the broken invariant must surface, not become a "skip"
        Z = Hypersurface(Y2 - Y1)
        curve = ComplexCurve(MultiPoly.variable(1, 2) - Z1)
        e1, e3 = [Fraction(1), 0, 0, 0], [0, 0, Fraction(1), 0]
        monkeypatch.setattr(foliation, "kernel_basis", lambda rows, n_cols=None: [e1, e3])
        with pytest.raises(InvariantError):
            leaf_tangency_check(Z, curve, [[1, 2, 1, 2]])


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
