"""Incidence matrices, certification, double counting, bounds, fits."""

import collections
import decimal
import functools
import itertools
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from incidencekit.incidence import (
    FILTER_BLOCK,
    FILTER_CHUNK,
    FILTER_PRIME,
    FILTER_SQRT_M1,
    SUBSET_TABLE_CAP,
    Configuration,
    DofCertificate,
    IncidenceMatrix,
    build_matrix,
    certify_dof,
    evaluate_bounds,
    exponent_fit,
    filter_candidates,
    kst_double_count,
    project_generic,
)
from incidencekit import cr, incidence, poly
from incidencekit.configurations import gen_complex_lines_product, gen_grid_lines
from incidencekit.poly import GaussianRational, I_UNIT, MultiPoly, _parts

Z1, Z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
X, Y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)


def brute_force_count(config):
    count = 0
    for p in config.points:
        for f in config.curves:
            if not f.evaluate(list(p)):
                count += 1
    return count


class TestBuildMatrix:
    def test_origin_on_line(self):
        config = Configuration.build(
            "C2", [(GaussianRational(0), GaussianRational(0))], [Z2 - Z1]
        )
        M = build_matrix(config)
        assert (0, 0) in M.incidences

    def test_complex_point_on_parabola(self):
        config = Configuration.build(
            "C2", [(I_UNIT, GaussianRational(-1))], [Z2 - Z1 * Z1]
        )
        assert build_matrix(config).count == 1

    def test_grid_lines_recount(self):
        from incidencekit.configurations import gen_grid_lines

        config = gen_grid_lines(3)
        M = build_matrix(config)
        assert M.count == 81
        assert M.count == brute_force_count(config)

    def test_order_independence(self):
        rng = random.Random(52)
        pts = [(Fraction(k), Fraction(k * k)) for k in range(5)]
        curves = [Y - X * X, Y - X, Y - MultiPoly.constant(4, 2)]
        c1 = Configuration.build("R2", pts, curves)
        perm_pts = list(pts)
        rng.shuffle(perm_pts)
        perm_curves = list(curves)
        rng.shuffle(perm_curves)
        c2 = Configuration.build("R2", perm_pts, perm_curves)
        assert build_matrix(c1).count == build_matrix(c2).count

    def test_embedding_cross_check(self):
        config = Configuration.build(
            "C2", [(I_UNIT, GaussianRational(-1))], [Z2 - Z1 * Z1]
        )
        M = build_matrix(config, cross_check_embedding=True)
        assert M.count == 1

    def test_dedup(self):
        config = Configuration.build(
            "R2",
            [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))],
            [Y - X, (Y - X) * 3],
        )
        assert config.m == 1 and config.n == 1

    def test_dedup_of_a_gaussian_multiple(self):
        # i (2 z1 + z2 + 1) is the same curve as 2 z1 + z2 + 1: both points lie
        # on it, and it counts once
        f = Z1 * 2 + Z2 + 1
        points = [(GaussianRational(0), GaussianRational(-1)),
                  (GaussianRational(1), GaussianRational(-3))]
        config = Configuration.build("C2", points, [f, f * I_UNIT])
        assert config.n == 1 and build_matrix(config).count == 2
        for c in (I_UNIT, GaussianRational(3, -4), GaussianRational(Fraction(-1, 2), 7)):
            assert (f * c)._key() == f._key()
        # the key of a rational curve is its primitive form, over the
        # homogenised exponents
        assert f._key() == {((1, 0, 0), 2, 0), ((0, 1, 0), 1, 0), ((0, 0, 1), 1, 0)}
        # a curve with no real multiple keeps a non-real part
        h = Z2 - Z1 * I_UNIT + 1
        assert (h * GaussianRational(2, 1))._key() == h._key()
        assert any(im for _, _, im in h._key())


P = FILTER_PRIME
W = GaussianRational(Fraction(1, 2), Fraction(1, 3))


def residue(value) -> int | None:
    """Image of a rational or Gaussian rational under the ring map
    Z_(p)[i] -> F_p, i -> FILTER_SQRT_M1; None when a denominator is
    divisible by p (the value lies outside Z_(p)[i]).  The reference the
    modular filter's candidates are held to."""
    re, im = _parts(value)
    den = re.denominator * im.denominator
    if den % P == 0:
        return None
    num = re.numerator * im.denominator + im.numerator * re.denominator * FILTER_SQRT_M1
    return num * pow(den, -1, P) % P
# denominators divisible by p put a point outside the filter's reach
_rationals = st.builds(
    Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 7, P, 5 * P])
)
_gaussians = st.builds(GaussianRational, _rationals, _rationals)
_exponents = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]


@st.composite
def filter_configurations(draw, field):
    scalar = _rationals if field == "R2" else _gaussians
    # R2 curves may carry Gaussian coefficients whose imaginary parts are 0
    coef = _gaussians if field == "C2" else st.one_of(
        _rationals, _rationals.map(GaussianRational))
    points = draw(st.lists(st.tuples(scalar, scalar), min_size=1, max_size=6))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.lists(st.sampled_from(_exponents), min_size=1,
                             max_size=4, unique=True))
        f = MultiPoly(2, {e: draw(coef) for e in exps})
        # shift the value at one point to 0 (an incidence) or to a nonzero
        # multiple of p (a residue of 0 that is not an incidence)
        at = list(draw(st.sampled_from(points)))
        shift = draw(st.sampled_from([0, 0, P, -3 * P, P * P]))
        f = f - f.evaluate(at) + MultiPoly.constant(shift, 2)
        if not f.is_zero:
            curves.append(f)
    # translates of the first curve, which differ from it in the constant term
    # alone: a pencil, with members that vanish at a point, are congruent mod
    # p to one that does, or have a constant over another denominator
    if not curves:
        return Configuration.build(field, points, curves)
    shifts = st.sampled_from([0, 0, P, 1, Fraction(1, 3), Fraction(2, P)])
    for q, shift in draw(st.lists(st.tuples(st.sampled_from(points), shifts), max_size=4)):
        g = curves[0] - curves[0].evaluate(list(q)) + MultiPoly.constant(shift, 2)
        if not g.is_zero:
            curves.append(g)
    return Configuration.build(field, points, curves)


def exact_incidences(config, modular=False):
    """The pairs (i, j) with f_j(p_i) = 0, by MultiPoly.evaluate.  With
    `modular`, the pairs the modular filter returns instead: those where
    f_j(p_i) times the lcm of f_j's coefficient denominators has residue 0,
    and every pair at a point outside Z_(p)[i]."""
    pairs = set()
    for i, p in enumerate(config.points):
        unreduced = any(residue(c) is None for c in p)
        for j, f in enumerate(config.curves):
            value = f.evaluate(list(p))
            if modular:
                parts = [GaussianRational.coerce(c) for c in f.terms.values()]
                scale = math.lcm(*(q.denominator for z in parts for q in (z.re, z.im)))
                hit = unreduced or residue(value * scale) == 0
            else:
                hit = not value
            if hit:
                pairs.add((i, j))
    return pairs


def mixed_supports(field):
    """Points and curves of many monomial supports: lines (one through the
    origin, a vertical and a horizontal one), conics, one-term curves and one
    support reached through three term orders; then a constant curve and one
    whose value is -p at the origin, the only curves with no incidence."""
    points = [(Fraction(x), Fraction(y)) for x, y in
              [(0, 0), (1, 1), (2, 4), (3, 9), (5, 0), (0, 5), (3, 4), (-1, 1), (2, 3),
               (4, -3), (3, 3), (2, 1)]] + [(Fraction(1, 2), Fraction(1, 4))]
    curves = [Y - X, Y - X * 2 + 1, X - 3, Y - 4, Y - X * X, X * X + Y * Y - 25, X * Y - 6,
              X, Y * Y * 3, X * Y, MultiPoly(2, {(0, 0): -6, (1, 0): 1, (0, 1): 1}),
              MultiPoly(2, {(0, 1): 2, (1, 0): 3, (0, 0): -8})]
    last = [MultiPoly.constant(7, 2), X + Y - MultiPoly.constant(P, 2)]
    if field == "C2":
        points = [(GaussianRational(x), GaussianRational(y)) for x, y in points] + [
            (I_UNIT, GaussianRational(-1)), (GaussianRational(1, 1), GaussianRational(1, 1)),
            (GaussianRational(0, 2), GaussianRational(0, -3)), (GaussianRational(1), I_UNIT)]
        scales = itertools.cycle([GaussianRational(1), I_UNIT, GaussianRational(2, 1)])
        curves = [f * c for f, c in zip(curves, scales)] + [Z2 - Z1 * I_UNIT]
        last = [f * I_UNIT for f in last]
    return Configuration.build(field, points, curves + last)


def pencils():
    """Configurations whose curves fall into pencils, curves that differ in
    the constant term alone, with incidences on two or more curves."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    c = MultiPoly.constant
    grid = gen_grid_lines(3)
    radii = [1, 4, 25, 2]
    gaussians = [GaussianRational(0), I_UNIT, GaussianRational(1, 1), GaussianRational(half, -third)]
    slope = GaussianRational(1, 1)
    return {
        "grid lines": ("R2", grid.points, grid.curves),
        # D = 5 at (3/5, 4/5) and (6/5, 8/5)
        "concentric circles": (
            "R2", [(1, 0), (0, 1), (3, 4), (5, 0), (Fraction(3, 5), Fraction(4, 5)),
                   (Fraction(6, 5), Fraction(8, 5)), (1, 1), (7, 7)],
            [X * X + Y * Y - c(r, 2) for r in radii]),
        "horizontal complex lines": (
            "C2", [(z, b) for z in (GaussianRational(half, 1), GaussianRational(0, 3))
                   for b in gaussians] + [(GaussianRational(1), GaussianRational(2, 7))],
            [Z2 - c(b, 2) for b in gaussians]),
        "complex lines of one slope": (
            "C2", [(z, slope * z + b) for z in (GaussianRational(1), I_UNIT,
                                                GaussianRational(third, half))
                   for b in gaussians],
            [Z2 - Z1 * slope - c(b, 2) for b in gaussians]),
        # b and b + p: both candidates where one vanishes, never both incidences
        "constants congruent mod p": (
            "R2", [(0, 1), (1, 2), (2, 3), (half, Fraction(3, 2)), (0, 2)],
            [Y - X - c(1, 2), Y - X - c(1 + P, 2), Y - X - c(2, 2)]),
        "a member without a constant term": (
            "R2", [(0, 0), (1, 2), (1, 3), (0, -3), (half, 1), (half, 2)],
            [Y - X * 2, Y - X * 2 - c(1, 2), Y - X * 2 + c(3, 2)]),
        # integer forms 2y - x - 1, 2y - x - 3, 6y - 3x - 2 and 6y - 6x - 1
        "translates over different denominators": (
            "R2", [(1, 1), (1, 2), (Fraction(2, 3), Fraction(2, 3)), (0, third),
                   (third, half)],
            [Y - X * half - c(half, 2), Y - X * half - c(Fraction(3, 2), 2),
             Y - X * half - c(third, 2), Y - X - c(Fraction(1, 6), 2)]),
        # D = 2, 3 and 6 on a degree-2 pencil: D^-2 is not D^-1
        "parabolas at non-integer points": (
            "R2", [(half, Fraction(1, 4)), (half, Fraction(5, 4)), (third, Fraction(1, 9) - 3),
                   (Fraction(5, 6), Fraction(25, 36) + Fraction(1, 4))],
            [Y - X * X - c(b, 2) for b in (0, 1, -3, Fraction(1, 4))]),
        "a point whose denominator p divides": (
            "R2", [(Fraction(1, P), Fraction(2)), (Fraction(1, P), Fraction(2, P)), (1, 2),
                   (2, 3), (0, 2)],
            [Y - X - c(b, 2) for b in (1, 2, Fraction(1, P))]),
    }


class TestModularFilter:
    def test_prime(self):
        assert P < 2**26 and P % 8 == 5
        assert all(P % d for d in range(2, math.isqrt(P) + 1))
        # the largest such prime: every larger q = 5 (mod 8) below 2^26 has a factor
        assert all(any(q % d == 0 for d in range(2, math.isqrt(q) + 1))
                   for q in range(P + 8, 2**26, 8))
        assert FILTER_SQRT_M1**2 % P == P - 1
        # a chunk of products of two residues, plus a residue, sums exactly in int64
        assert FILTER_CHUNK >= 1 and FILTER_CHUNK * (P - 1)**2 + P - 1 < 2**63

    def test_residue_is_a_ring_map(self):
        a = GaussianRational(Fraction(3, 7), Fraction(-5, 2))
        b = GaussianRational(Fraction(-1, 9), Fraction(4))
        assert residue(a * b) == residue(a) * residue(b) % P
        assert residue(a + b) == (residue(a) + residue(b)) % P
        assert residue(I_UNIT) == FILTER_SQRT_M1

    def test_denominator_divisible_by_p(self):
        assert residue(Fraction(1, P)) is None
        assert residue(GaussianRational(1, Fraction(2, 3 * P))) is None
        assert residue(Fraction(P, P + 1)) == 0

    def test_unreduced_point_takes_exact_path(self):
        pt = (Fraction(1, P), Fraction(2))
        config = Configuration.build("R2", [pt], [X * P - Y + 1, X + Y])
        assert filter_candidates(config) == [(0, 0), (0, 1)]
        assert build_matrix(config).incidences == {(0, 0)}

    def test_multiple_of_p_is_candidate_not_incidence(self):
        config = Configuration.build(
            "R2", [(Fraction(0), Fraction(0))], [X + Y - MultiPoly.constant(P, 2)]
        )
        assert filter_candidates(config) == [(0, 0)]
        assert build_matrix(config).count == 0

    def test_i_collides_with_its_image(self):
        # z1 - s vanishes mod p at z1 = i, but not exactly
        config = Configuration.build(
            "C2", [(I_UNIT, GaussianRational(0))],
            [Z1 - MultiPoly.constant(FILTER_SQRT_M1, 2)],
        )
        assert filter_candidates(config) == [(0, 0)]
        assert build_matrix(config).count == 0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["R2", "C2"]).flatmap(filter_configurations))
    def test_filter_matches_exact_evaluation(self, config):
        exact = exact_incidences(config)
        candidates = filter_candidates(config)
        assert exact <= set(candidates)
        for i, p in enumerate(config.points):
            if any(residue(c) is None for c in p):
                assert {(i, j) for j in range(config.n)} <= set(candidates)
        assert build_matrix(config).incidences == exact
        if config.ground_field == "C2":
            assert build_matrix(config, cross_check_embedding=True).incidences == exact

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["R2", "C2"]).flatmap(filter_configurations))
    def test_filter_on_the_integer_form_keeps_its_candidates(self, config):
        assert filter_candidates(config) == sorted(exact_incidences(config, modular=True))
        assert build_matrix(config).incidences == exact_incidences(config)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["R2", "C2"]).flatmap(filter_configurations))
    def test_filter_in_blocks_and_chunks_of_one_keeps_its_candidates(self, config):
        # one point, one curve and one term per product
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(incidence, "FILTER_CHUNK", 1)
            mp.setattr(incidence, "FILTER_BLOCK", 1)
            assert filter_candidates(config) == sorted(exact_incidences(config, modular=True))

    @pytest.mark.parametrize("chunk, block", [(FILTER_CHUNK, FILTER_BLOCK), (1, 1), (2, 5)])
    @pytest.mark.parametrize("field", ["R2", "C2"])
    def test_mixed_supports(self, monkeypatch, field, chunk, block):
        monkeypatch.setattr(incidence, "FILTER_CHUNK", chunk)
        monkeypatch.setattr(incidence, "FILTER_BLOCK", block)
        config = mixed_supports(field)
        supports = collections.defaultdict(set)
        for f in config.curves:
            supports[frozenset(f.terms)].add(tuple(f.terms))
        # lines, conics and one-term curves, and a support in more than one term order
        assert len(supports) >= 6 and max(map(len, supports.values())) > 1
        exact = exact_incidences(config)
        assert {j for _, j in exact} >= set(range(config.n - 2))
        assert filter_candidates(config) == sorted(exact_incidences(config, modular=True))
        assert build_matrix(config).incidences == exact

    @pytest.mark.parametrize("chunk, block", [(FILTER_CHUNK, FILTER_BLOCK), (1, 1)])
    @pytest.mark.parametrize("field", ["R2", "C2"])
    def test_every_point_outside_the_filter(self, monkeypatch, field, chunk, block):
        # every denominator is divisible by p: no point is reduced, and every
        # pair is a candidate
        monkeypatch.setattr(incidence, "FILTER_CHUNK", chunk)
        monkeypatch.setattr(incidence, "FILTER_BLOCK", block)
        points = [(Fraction(1, P), Fraction(2)), (Fraction(0), Fraction(7, P)),
                  (Fraction(3, 5 * P), Fraction(1, P))]
        curves = [X * P - Y + 1, X, X * X + Y - 3, MultiPoly.constant(5, 2)]
        if field == "C2":
            points = [(GaussianRational(0, Fraction(1, P)), GaussianRational(1, 1)),
                      (GaussianRational(0), GaussianRational(0, Fraction(7, P))),
                      (GaussianRational(Fraction(3, 5 * P), 1), GaussianRational(Fraction(1, P)))]
            curves[3] = Z1 * Z2 - I_UNIT
        config = Configuration.build(field, points, curves)
        assert filter_candidates(config) == [(i, j) for i in range(3) for j in range(4)]
        assert filter_candidates(config) == sorted(exact_incidences(config, modular=True))
        exact = exact_incidences(config)
        assert exact and build_matrix(config).incidences == exact

    @pytest.mark.parametrize("chunk, block", [(FILTER_CHUNK, FILTER_BLOCK), (1, 1)])
    @pytest.mark.parametrize("name", pencils())
    def test_pencils_keep_their_candidates(self, monkeypatch, name, chunk, block):
        monkeypatch.setattr(incidence, "FILTER_CHUNK", chunk)
        monkeypatch.setattr(incidence, "FILTER_BLOCK", block)
        field, points, curves = pencils()[name]
        config = Configuration.build(field, points, curves)
        assert config.n == len(curves)
        translates = collections.Counter(
            frozenset((exp, c) for exp, c in f.terms.items() if any(exp)) for f in config.curves)
        assert max(translates.values()) > 1
        exact = exact_incidences(config)
        assert len({j for _, j in exact}) > 1
        assert filter_candidates(config) == sorted(exact_incidences(config, modular=True))
        assert build_matrix(config).incidences == exact

    def test_filter_memory_is_bounded_by_its_blocks(self):
        # gen_grid_lines(10): 1,000 lines at 2,000 points; one product of all
        # pairs at once peaks near 31 MiB
        config = gen_grid_lines(10)
        tracemalloc.start()
        try:
            candidates = filter_candidates(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(candidates) == 10**4
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("field, points, curves, incidences, candidates", [
        # a mixed-degree curve at coordinates with different denominators
        # tests the D^(d - |e|) factor
        ("R2", [(Fraction(1, 3), Fraction(1, 9)), (Fraction(1, 3), Fraction(1, 7))],
         [X * X - Y], {(0, 0)}, [(0, 0)]),
        # an R2 curve with Gaussian coefficients whose imaginary parts are 0:
        # 3x^2 - 3y - x/2 + 1/6
        ("R2", [(Fraction(1, 3), Fraction(1, 9)), (Fraction(2), Fraction(5, 2))],
         [MultiPoly(2, {(2, 0): GaussianRational(3), (0, 1): GaussianRational(-3),
                        (1, 0): GaussianRational(Fraction(-1, 2)),
                        (0, 0): GaussianRational(Fraction(1, 6))})],
         {(0, 0)}, [(0, 0)]),
        # C2 points with denominators in both parts: (w, w^2) and (w, w^2 + i/5)
        # for w = 1/2 + i/3, on z2 - z1^2 and z1^3 z2 - w^5
        ("C2", [(W, W**2), (W, W**2 + GaussianRational(0, Fraction(1, 5)))],
         [Z2 - Z1 * Z1, Z1 * Z1 * Z1 * Z2 - W**5],
         {(0, 0), (0, 1)}, [(0, 0), (0, 1)]),
        # an unreduced point stays a candidate for every curve:
        # p^2 x^2 + y - 3 and x^2 - y at (1/p, 2)
        ("R2", [(Fraction(1, P), Fraction(2))],
         [X * X * (P * P) + Y - MultiPoly.constant(3, 2), X * X - Y],
         {(0, 0)}, [(0, 0), (0, 1)]),
    ])
    def test_integer_confirmation_cases(self, field, points, curves, incidences, candidates):
        config = Configuration.build(field, points, curves)
        assert exact_incidences(config) == incidences
        assert build_matrix(config).incidences == incidences
        assert filter_candidates(config) == candidates
        assert candidates == sorted(exact_incidences(config, modular=True))

    def test_generated_families_match_exact_evaluation(self):
        from incidencekit.configurations import (
            gen_complex_lines_product,
            gen_grid_lines,
            gen_random,
            gen_unit_circles,
        )

        for config in (
            gen_grid_lines(4),
            gen_unit_circles(3, seed=1),
            gen_complex_lines_product(4, 3, seed=2),
            gen_random(40, 8, 3, seed=3),
        ):
            assert build_matrix(config).incidences == exact_incidences(config)


@functools.cache
def affine_base():
    """A small C2 configuration with incidences on lines and on curves of
    degree 2 and 3: a 3 x 3 complex line product, two parabolas and a cubic
    through some of its points; and its incidences."""
    base = gen_complex_lines_product(3, 3, seed=19)
    extra = []
    for k, (a, b) in enumerate(base.points[:6:2]):
        if k < 2:
            extra.append(Z2 - Z1 * Z1 + MultiPoly.constant(a * a - b, 2))
        else:
            extra.append(Z1 * Z2 * Z2 - Z1 * Z1 * Z1 + MultiPoly.constant(a * a * a - a * b * b, 2))
    config = Configuration.build("C2", base.points, [*base.curves, *extra])
    return config, build_matrix(config, cross_check_embedding=True).incidences


_map_entries = st.builds(
    lambda a, b, d, e: GaussianRational(Fraction(a, d), Fraction(b, e)),
    st.integers(-5, 5), st.integers(-5, 5),
    st.sampled_from([1, 2, 3, 7, FILTER_PRIME]), st.sampled_from([1, 2, 5, FILTER_PRIME]),
)


def moved_configuration(config, A, t):
    """The points q -> Aq + t and the curves f -> f(A^-1 (z - t)), for an
    invertible A over Q(i): f(q) = 0 iff the moved f vanishes at Aq + t."""
    (a, b), (c, d) = A
    det = a * d - b * c
    inverse = ((d / det, -b / det), (-c / det, a / det))
    shifted = [Z1 - MultiPoly.constant(t[0], 2), Z2 - MultiPoly.constant(t[1], 2)]
    replacements = [shifted[0] * row[0] + shifted[1] * row[1] for row in inverse]
    points = [tuple(row[0] * q[0] + row[1] * q[1] + tk for row, tk in zip(A, t))
              for q in config.points]
    curves = [f.substitute(replacements) for f in config.curves]
    return Configuration.build("C2", points, curves)


def certify_base():
    """affine_base with one more curve, L z2 + (z1 - a0)(z1 - a1), which meets
    a line L of the base at two of its points (a0, b0), (a1, b1): the (k, s)
    in CERTIFY_CASES then give point-subset and curve-pair witnesses and
    certificates."""
    base, _ = affine_base()
    rows = build_matrix(base).curve_rows()
    j = next(j for j, r in enumerate(rows) if len(r) >= 2 and base.curves[j].total_degree == 1)
    (a0, _), (a1, _) = (base.points[i] for i in rows[j][:2])
    extra = base.curves[j] * Z2 + (Z1 - MultiPoly.constant(a0, 2)) * (Z1 - MultiPoly.constant(a1, 2))
    return Configuration.build("C2", base.points, [*base.curves, extra])


CERTIFY_CASES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


class TestAffineInvariance:
    """An invertible affine map of C^2 over Q(i) moves points and curves
    together, so it keeps every incidence, through the filter, the exact
    confirmation and the R^4 cross-check alike."""

    def test_base_has_incidences_on_every_degree(self):
        base, expected = affine_base()
        assert {base.curves[j].total_degree for _, j in expected} == {1, 2, 3}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_map_entries, min_size=6, max_size=6))
    @example([GaussianRational(1), GaussianRational(0), GaussianRational(0),
              GaussianRational(1), GaussianRational(Fraction(1, FILTER_PRIME)),
              GaussianRational(0, Fraction(2, FILTER_PRIME))])
    @example([GaussianRational(Fraction(1, FILTER_PRIME), 1), GaussianRational(2),
              GaussianRational(0, -1), GaussianRational(Fraction(3, 7), Fraction(1, 2)),
              GaussianRational(0), GaussianRational(Fraction(-1, 3))])
    def test_incidences_survive_an_affine_map(self, entries):
        a, b, c, d, t1, t2 = entries
        assume(a * d - b * c)
        base, expected = affine_base()
        moved = moved_configuration(base, ((a, b), (c, d)), (t1, t2))
        assert (moved.m, moved.n) == (base.m, base.n)
        assert build_matrix(moved, cross_check_embedding=True).incidences == expected
        assert set(filter_candidates(moved)) >= expected

    def test_certify_base_has_every_kind_of_answer(self):
        M = build_matrix(certify_base())
        answers = {(c.status, c.witness and c.witness[0])
                   for c in (certify_dof(M, k, s) for k, s in CERTIFY_CASES)}
        assert answers == {("violated", "point-subset"), ("violated", "curve-pair"),
                           ("certified", None)}

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_map_entries, min_size=6, max_size=6))
    def test_certificates_survive_an_affine_map(self, entries):
        # the moved configuration, written out and read back, certifies alike:
        # the same status and witness for every (k, s)
        a, b, c, d, t1, t2 = entries
        assume(a * d - b * c)
        base = certify_base()
        moved = Configuration.from_json(
            moved_configuration(base, ((a, b), (c, d)), (t1, t2)).to_json())
        M, M_moved = build_matrix(base), build_matrix(moved, cross_check_embedding=True)
        for k, s in CERTIFY_CASES:
            want, got = certify_dof(M, k, s), certify_dof(M_moved, k, s)
            assert (got.status, got.witness) == (want.status, want.witness), (k, s)


class TestRowsBuiltOnce:
    def test_build_matrix_builds_each_point_row_once(self, monkeypatch):
        config = gen_grid_lines(3)
        expected = brute_force_count(config)
        calls = []

        def counted(point):
            calls.append(point)
            return poly_point_row(point)

        poly_point_row = poly._point_row
        monkeypatch.setattr(poly, "_point_row", counted)
        monkeypatch.setattr(incidence, "_point_row", counted)
        M = build_matrix(config)
        assert len(calls) == config.m
        assert M.count == expected
        # the filter also builds the rows itself when called on its own
        assert filter_candidates(config) == sorted(M.incidences)
        assert len(calls) == 2 * config.m

    def test_the_cross_check_reads_the_rows_too(self, monkeypatch):
        # the R^4 image of each point's row is read from the row itself
        config = gen_complex_lines_product(4, 4, seed=5)
        calls = []

        def counted(point):
            calls.append(point)
            return poly_point_row(point)

        poly_point_row = poly._point_row
        monkeypatch.setattr(poly, "_point_row", counted)
        monkeypatch.setattr(incidence, "_point_row", counted)
        M = build_matrix(config, cross_check_embedding=True)
        assert M.count > 0
        assert len(calls) == config.m


class TestRealifiedOnce:
    def test_repeated_cross_checks_expand_each_curve_once(self, monkeypatch):
        config = gen_complex_lines_product(4, 4, seed=6)
        expanded = []

        def counted(u, v):
            expanded.append((u, v))
            return real_pair(u, v)

        real_pair = cr.RealPair
        monkeypatch.setattr(cr, "RealPair", counted)
        first = build_matrix(config, cross_check_embedding=True)
        incident = {j for _, j in first.incidences}
        assert len(expanded) == len(incident) > 0
        assert build_matrix(config, cross_check_embedding=True) == first
        assert len(expanded) == len(incident)
        assert all((config.curves[j]._real_pair is None) == (j not in incident)
                   for j in range(config.n))


def certify_dof_pairwise(M, k, s):
    """certify_dof with condition 2 as one set intersection per curve pair in
    lexicographic order: the reference the point -> curves index is held to."""
    rows = M.curve_rows()
    table, entries = {}, 0
    for j, row in enumerate(rows):
        if len(row) < k:
            continue
        entries += math.comb(len(row), k)
        if entries > SUBSET_TABLE_CAP:
            return DofCertificate(
                k, s, "indeterminate",
                detail=f"k-subset table exceeded cap {SUBSET_TABLE_CAP}",
            )
        for subset in itertools.combinations(row, k):
            curves_here = table.setdefault(subset, [])
            curves_here.append(j)
            if len(curves_here) > s:
                return DofCertificate(
                    k, s, "violated",
                    witness=("point-subset", subset, tuple(curves_here)),
                    detail=f"{len(curves_here)} curves through one {k}-subset",
                )
    for j1 in range(M.n):
        r1 = set(rows[j1])
        if len(r1) <= s:
            continue
        for j2 in range(j1 + 1, M.n):
            shared = r1.intersection(rows[j2])
            if len(shared) > s:
                return DofCertificate(
                    k, s, "violated",
                    witness=("curve-pair", (j1, j2), tuple(sorted(shared))),
                    detail=f"curves share {len(shared)} incident points",
                )
    return DofCertificate(k, s, "certified")


def certify_dof_table_first(M, k, s):
    """certify_dof with the k-subset table always walked before condition 2,
    whatever k and s: the reference the k > s shortcut is held to."""
    cap = incidence.SUBSET_TABLE_CAP
    rows = M.curve_rows()
    table, entries = {}, 0
    for j, row in enumerate(rows):
        if len(row) < k:
            continue
        entries += math.comb(len(row), k)
        if entries > cap:
            return DofCertificate(k, s, "indeterminate",
                                  detail=f"k-subset table exceeded cap {cap}")
        for subset in itertools.combinations(row, k):
            count = table[subset] = table.get(subset, 0) + 1
            if count > s:
                curves_here = tuple(j2 for j2 in range(j + 1) if set(subset).issubset(rows[j2]))
                return DofCertificate(
                    k, s, "violated",
                    witness=("point-subset", subset, curves_here),
                    detail=f"{count} curves through one {k}-subset",
                )
    point_curves = {}
    for j, row in enumerate(rows):
        for i in row:
            point_curves.setdefault(i, []).append(j)
    for j1, row in enumerate(rows):
        if len(row) <= s:
            continue
        shared_counts = collections.Counter(
            j2 for i in row for j2 in point_curves[i] if j2 > j1)
        j2 = min((j2 for j2, c in shared_counts.items() if c > s), default=None)
        if j2 is not None:
            shared = sorted(set(row) & set(rows[j2]))
            return DofCertificate(
                k, s, "violated",
                witness=("curve-pair", (j1, j2), tuple(shared)),
                detail=f"curves share {len(shared)} incident points",
            )
    return DofCertificate(k, s, "certified")


class TestCertifyShortcut:
    """For k > s, certify_dof walks condition 2 first and builds the table
    only when it fails; every certificate stays the table-first one."""

    @pytest.mark.parametrize("cap", [SUBSET_TABLE_CAP, 40])
    def test_matches_the_table_first_walk(self, monkeypatch, cap):
        monkeypatch.setattr(incidence, "SUBSET_TABLE_CAP", cap)
        kinds = collections.Counter()
        for seed in range(150):
            rng = random.Random(seed)
            m, n = rng.randint(1, 14), rng.randint(1, 10)
            M = IncidenceMatrix(m, n, frozenset(
                (i, j) for j in range(n)
                for i in rng.sample(range(m), rng.randint(0, min(m, 7)))
            ))
            rows = [set(r) for r in M.curve_rows()]
            for k in (1, 2, 3, 4):
                for s in (1, 2, 3):
                    cert = certify_dof(M, k, s)
                    assert cert == certify_dof_table_first(M, k, s), (seed, k, s)
                    order = "k > s" if k > s else "k = s" if k == s else "k < s"
                    kind = cert.witness[0] if cert.witness else cert.status
                    if kind == "indeterminate":
                        pairs_fail = any(len(a & b) > s for a, b in itertools.combinations(rows, 2))
                        kind += " (condition 2 fails)" if pairs_fail else " (condition 2 holds)"
                    kinds[order, kind] += 1
        wanted = ["certified", "point-subset", "curve-pair"]
        if cap < SUBSET_TABLE_CAP:
            wanted += ["indeterminate (condition 2 holds)", "indeterminate (condition 2 fails)"]
        missing = {(order, kind) for order in ("k > s", "k = s", "k < s")
                   for kind in wanted} - set(kinds)
        assert not missing

    def test_certified_k_above_s_builds_no_table(self, monkeypatch):
        M = build_matrix(gen_grid_lines(3))

        def no_table(*args):
            raise AssertionError("the k-subset table was built")

        monkeypatch.setattr(incidence, "_subset_violation", no_table)
        assert certify_dof(M, 2, 1) == DofCertificate(2, 1, "certified")


class TestCertify:
    def test_only_condition2_fires(self):
        # two curves share exactly two points; k = 3 leaves condition 1 empty
        M = IncidenceMatrix(4, 3, frozenset(
            [(2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (1, 2), (3, 2)]
        ))
        cert = certify_dof(M, 3, 1)
        assert cert == DofCertificate(
            3, 1, "violated", witness=("curve-pair", (1, 2), (0, 1)),
            detail="curves share 2 incident points",
        )
        assert cert == certify_dof_pairwise(M, 3, 1)

    def test_matches_the_pair_loop(self):
        kinds = collections.Counter()
        for seed in range(300):
            rng = random.Random(seed)
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            # rows of at most 5 points leave room for condition 2 to fire first
            M = IncidenceMatrix(m, n, frozenset(
                (i, j) for j in range(n)
                for i in rng.sample(range(m), rng.randint(0, min(m, 5)))
            ))
            for k in (1, 2, 3):
                for s in (1, 2):
                    cert = certify_dof(M, k, s)
                    assert cert == certify_dof_pairwise(M, k, s)
                    kinds[cert.witness[0] if cert.witness else cert.status] += 1
        assert min(kinds[kind] for kind in ("certified", "point-subset", "curve-pair")) > 100

    def test_lines_certified(self):
        from incidencekit.configurations import gen_grid_lines

        M = build_matrix(gen_grid_lines(2))
        cert = certify_dof(M, 2, 1)
        assert cert.status == "certified"

    def test_two_conics_through_two_points(self):
        # x^2 + y^2 - 1 and x^2 + 2 y^2 - ... both through (1,0) and (-1,0)
        conic1 = X * X + Y * Y - MultiPoly.constant(1, 2)
        conic2 = X * X + Y * Y * 2 - MultiPoly.constant(1, 2)
        pts = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
        config = Configuration.build("R2", pts, [conic1, conic2])
        M = build_matrix(config)
        cert = certify_dof(M, 2, 1)
        assert cert.status == "violated"
        assert cert.witness[0] in ("point-subset", "curve-pair")

    def test_duplicate_rows_violate_condition2(self):
        # two curves incident to the same large point set
        M = IncidenceMatrix(4, 2, frozenset(
            [(i, j) for i in range(4) for j in range(2)]
        ))
        cert = certify_dof(M, 2, 1)
        assert cert.status == "violated"

    def test_cap_triggers_indeterminate(self):
        M = IncidenceMatrix(40, 1, frozenset((i, 0) for i in range(40)))
        cert = certify_dof(M, 20, 1)
        assert cert.status == "indeterminate"

    def test_witness_deterministic(self):
        M = IncidenceMatrix(4, 2, frozenset(
            [(i, j) for i in range(4) for j in range(2)]
        ))
        w1 = certify_dof(M, 2, 1).witness
        w2 = certify_dof(M, 2, 1).witness
        assert w1 == w2


class TestKst:
    def test_grid_lines_n3(self):
        from incidencekit.configurations import gen_grid_lines

        M = build_matrix(gen_grid_lines(3))
        report = kst_double_count(M, 2, 1)
        assert report.lhs == 27 * math.comb(3, 2) == 81
        assert report.rhs == math.comb(54, 2)
        assert report.holds

    def test_empty_matrix(self):
        M = IncidenceMatrix(10, 5, frozenset())
        report = kst_double_count(M, 2, 1)
        assert report.lhs == 0 and report.holds

    def test_certified_implies_inequality(self):
        from incidencekit.configurations import gen_complex_lines_product

        for seed in range(5):
            config = gen_complex_lines_product(4, 4, seed=seed)
            M = build_matrix(config)
            cert = certify_dof(M, 2, 1)
            assert cert.status == "certified"
            assert kst_double_count(M, 2, 1).holds


# (m, n, k, s, eps, I) -> (ps_value, ps_complex_value, kst_value, ratio_ps,
# ratio_ps_complex, kst_regime), recorded when the bounds were evaluated with
# mpmath at 30 digits: AC7's inputs, k = 1, eps = 0.999, m = n = 10^6 and
# seeded random inputs up to 10^7.
PINNED_BOUNDS = [
    ((16, 16, 2, 1, 0.05, 38),
     (72.31747359663593, 78.3126155980921, 80.0, 0.525460834154025, 0.4852347186948737, True)),
    ((36, 36, 2, 1, 0.05, 88),
     (190.86938096020657, 214.19526209274164, 252.0, 0.4610482810668658, 0.4108400864716514, True)),
    ((64, 64, 2, 1, 0.05, 146),
     (384.0, 443.1729698162986, 576.0, 0.3802083333333333, 0.3294424749337015, True)),
    ((100, 100, 2, 1, 0.05, 264),
     (664.1588833612778, 784.3414133735176, 1100.0, 0.3974952479200579, 0.33658811774902214, True)),
    ((1, 1, 1, 1, 0.0, 0),
     (3.0, 3.0, 2.0, 0.0, 0.0, True)),
    ((54, 27, 1, 1, 0.0, 81),
     (135.0, 135.0, 81.0, 0.6, 0.6, True)),
    ((54, 27, 2, 1, 0.0, 81),
     (209.57948520942415, 209.57948520942415, 307.59223082615813, 0.38648820956430935, 0.38648820956430935, True)),
    ((1000000, 1000000, 2, 1, 0.0, 0),
     (102000000.0, 102000000.0, 1001000000.0, 0.0, 0.0, True)),
    ((1000000, 1000000, 3, 2, 0.25, 1000000000),
     (253188643.150958, 7945282347.242815, 10001000000.0, 3.949624230988009, 0.12586085129460775, True)),
    ((4096, 4096, 2, 1, 0.01, 0),
     (73728.0, 79412.25595050774, 266240.0, 0.0, 0.0, True)),
    ((1, 100, 2, 1, 0.0, 0),
     (122.54434690031884, 122.54434690031884, 110.0, 0.0, 0.0, False)),
    ((1000, 999, 4, 3, 0.999, 12345),
     (21289.427268645977, 19159631.90138912, 178693.55336981956, 0.5798652938954872, 0.0006443234433488755, True)),
    ((10000000, 10000000, 8, 1, 0.999, 10000000000),
     (18498497974.222908, 1.8183047226419955e+17, 13335224321633.24, 0.5405844309054008, 5.499628239138051e-08, True)),
    ((6491494, 4854272, 2, 2, 0.14771063166745468, 945297950),
     (1008997997.6854608, 10132613453.700312, 14307181618.528133, 0.9368680137804215, 0.09329260948514603, True)),
    ((7903609, 7843572, 7, 2, 0.2644684442432641, 352083490),
     (11993638485.222431, 799182728892.7384, 6418141829427.221, 0.029355853141130452, 0.0004405544280064823, True)),
    ((5743717, 5758898, 5, 3, 0.9033369552418609, 771649109),
     (5823130603.350609, 7415264761757874.0, 1470504112957.602, 0.1325144774455163, 1.0406224643246207e-07, True)),
    ((2915855, 2854932, 1, 3, 0.18508921799899436, 349579245),
     (8686642.0, 51619209.00488615, 5770787.0, 40.2433120876859, 6.772270473321466, True)),
    ((3135814, 3351063, 3, 3, 0.5875037451065505, 415876),
     (1318554597.0159082, 8601747821308.826, 70225161665.70403, 0.00031540294269284815, 4.8347848441890393e-08, True)),
    ((1675333, 637586, 5, 2, 0.43465702492824243, 991177256),
     (416716966.2385456, 210270356552.47095, 73745566443.93262, 2.3785382797028, 0.0047138230621331595, True)),
    ((314341, 6797222, 2, 3, 0.7058438628076026, 346722806),
     (173002116.63722867, 1259304884390.3027, 826330810.2052836, 2.0041535487513684, 0.0002753287232486731, True)),
    ((2886073, 1686050, 2, 3, 0.6976659614424559, 143596962),
     (291728527.99127156, 9231137813453.9, 3749193774.0839357, 0.49222804155888517, 1.5555716413497254e-05, True)),
]


class TestBounds:
    def test_large_symmetric(self):
        report = evaluate_bounds(10**6, 10**6, 2, 1, 0.0, 0)
        # first term m^{2/3} n^{2/3} = 10^8
        assert abs(report.ps_value - (1e8 + 2e6)) / 1e8 < 1e-12

    def test_degenerate_m1(self):
        # m = 1: the bound degenerates to n^(2/3) + 1 + n, i.e. Theta(n)
        report = evaluate_bounds(1, 100, 2, 1, 0.0, 0)
        assert report.ps_value == pytest.approx(100 ** (2 / 3) + 1 + 100)
        assert report.ps_value < 2 * 100

    def test_complex_epsilon_term(self):
        report = evaluate_bounds(4096, 4096, 2, 1, 0.01, 0)
        expected = 4096 ** (2 / 3 + 0.01) * 4096 ** (2 / 3) + 2 * 4096
        assert report.ps_complex_value == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_m_and_n(self):
        prev = 0.0
        for m in (10, 100, 1000):
            v = evaluate_bounds(m, 50, 2, 1, 0.0, 0).ps_value
            assert v > prev
            prev = v
        prev = 0.0
        for n in (10, 100, 1000):
            v = evaluate_bounds(50, n, 2, 1, 0.0, 0).ps_value
            assert v > prev
            prev = v

    def test_kst_regime_flag(self):
        assert evaluate_bounds(10, 99, 2, 1, 0.0, 0).kst_regime
        assert not evaluate_bounds(2, 100, 2, 1, 0.0, 0).kst_regime

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evaluate_bounds(0, 1, 2, 1, 0.0, 0)
        with pytest.raises(ValueError):
            evaluate_bounds(1, 1, 2, 1, 1.5, 0)
        with pytest.raises(ValueError):
            evaluate_bounds(1, 1, 0, 1, 0.0, 0)

    @pytest.mark.parametrize("args, values", PINNED_BOUNDS)
    def test_pinned_values(self, args, values):
        m, n, k, s, eps, I = args
        ps, psc, kst, ratio_ps, ratio_psc, kst_regime = values
        assert evaluate_bounds(*args).to_obj() == {
            "m": m, "n": n, "k": k, "s": s, "eps": eps, "I": I,
            "ps_value": ps, "ps_complex_value": psc, "kst_value": kst,
            "ratio_ps": ratio_ps, "ratio_ps_complex": ratio_psc,
            "kst_regime": kst_regime, "precision_dps": 30,
        }

    def test_caller_decimal_context_is_ignored(self):
        expected = [evaluate_bounds(*args).to_obj() for args, _ in PINNED_BOUNDS]
        coarse = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)
        with decimal.localcontext(coarse):
            assert [evaluate_bounds(*args).to_obj() for args, _ in PINNED_BOUNDS] == expected


class TestExponentFit:
    def test_exact_model_recovery(self):
        series = []
        rng = random.Random(60)
        for _ in range(12):
            m = rng.randrange(10, 10000)
            n = rng.randrange(10, 10000)
            i = round(m ** (2 / 3) * n ** (2 / 3))
            series.append((m, n, max(i, 1)))
        fit = exponent_fit(series)
        assert not fit.combined
        assert abs(fit.a - 2 / 3) < 1e-3
        assert abs(fit.b - 2 / 3) < 1e-3

    def test_planted_exponents_high_precision(self):
        series = [
            (m, n, None) for m in (16, 64, 256) for n in (81, 729)
        ]
        series = [
            (m, n, m**2 * n) for m, n, _ in series
        ]
        fit = exponent_fit(series)
        assert abs(fit.a - 2) < 1e-6
        assert abs(fit.b - 1) < 1e-6
        assert fit.residual < 1e-9

    def test_constant_incidences(self):
        series = [(10, 10, 7), (100, 50, 7), (30, 900, 7), (500, 2, 7)]
        fit = exponent_fit(series)
        assert abs(fit.a) < 1e-9 and abs(fit.b) < 1e-9

    def test_degenerate_ray_combined(self):
        # m and n proportional: single combined exponent
        series = [(2 * t**3, t**3, t**4) for t in (2, 3, 4, 5, 6)]
        fit = exponent_fit(series)
        assert fit.combined
        assert fit.b == 0.0
        assert abs(fit.a - 4 / 3) < 0.01

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            exponent_fit([(1, 1, 1), (2, 2, 2)])

    @pytest.mark.parametrize("row", [(0, 1, 1), (-3, 4, 5), (2, 0, 4), (5, -6, 7)])
    def test_m_and_n_below_one_are_rejected_before_numpy(self, row):
        # log(0) and log of a negative number would reach LAPACK as nan or -inf
        series = [row, (2, 3, 4), (5, 6, 7), (8, 9, 10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="m, n"):
                exponent_fit(series)


class TestProjectGeneric:
    def test_two_distinct_points(self):
        pts = [(1, 0, 0, 0), (0, 1, 0, 0)]
        matrix, projected, injective = project_generic(pts, seed=0)
        assert injective
        assert projected[0] != projected[1]

    def test_large_random_set(self):
        rng = random.Random(68)
        pts = list({
            tuple(Fraction(rng.randrange(-999, 1000), 7) for _ in range(4))
            for _ in range(300)
        })
        _, projected, injective = project_generic(pts, seed=0)
        assert injective
        assert len(set(projected)) == len(pts)

    def test_deterministic(self):
        pts = [(1, 2, 3, 4), (4, 3, 2, 1), (0, 0, 0, 1)]
        m1, p1, _ = project_generic(pts, seed=5)
        m2, p2, _ = project_generic(pts, seed=5)
        assert m1 == m2 and p1 == p2


class TestConfigurationSerialization:
    def test_roundtrip(self):
        config = Configuration.build(
            "C2",
            [(I_UNIT, GaussianRational(-1)), (GaussianRational(0), GaussianRational(0))],
            [Z2 - Z1 * Z1],
            metadata={"generator": "test", "seed": 0},
        )
        again = Configuration.from_json(config.to_json())
        assert again.points == config.points
        assert again.curves == config.curves
        assert again.ground_field == config.ground_field

    def test_line_incidence_inequalities(self):
        # two points determine a line: I <= m + n^2 and I <= n + m^2
        from incidencekit.configurations import gen_grid_lines

        for N in (1, 2, 3):
            config = gen_grid_lines(N)
            M = build_matrix(config)
            assert M.count <= M.m + M.n**2
            assert M.count <= M.n + M.m**2


def fraction_reading(obj):
    """The configuration in `obj` read with one `Fraction` per string, the
    reference for `Configuration.from_obj`."""
    def number(x):
        if isinstance(x, dict):
            return GaussianRational(Fraction(x["re"]), Fraction(x["im"]))
        return Fraction(x)

    points = [[number(c) for c in p] for p in obj["points"]]
    curves = [MultiPoly(c["vars"], {tuple(t["exp"]): number(t["coef"]) for t in c["terms"]})
              for c in obj["curves"]]
    return Configuration.build(obj["field"], points, curves, obj.get("metadata", {}))


def read_strings(obj, config):
    """(string, Fraction) for every number string of `obj` and the Fraction
    that `config`, read from it, holds there; `obj` has no duplicates."""
    def pairs(raw, value):
        if isinstance(raw, dict):
            return [(raw["re"], value.re), (raw["im"], value.im)]
        return [(raw, _parts(value)[0])]

    for raw_point, point in zip(obj["points"], config.points, strict=True):
        for raw, value in zip(raw_point, point):
            yield from pairs(raw, value)
    for raw_curve, curve in zip(obj["curves"], config.curves, strict=True):
        for t in raw_curve["terms"]:
            yield from pairs(t["coef"], curve.terms[tuple(t["exp"])])


def repeated_strings():
    """A grid file, and a C2 file whose points and curves repeat Q(i) values."""
    w, v = GaussianRational(Fraction(1, 2), Fraction(-1, 3)), GaussianRational(2, 1)
    complex_lines = Configuration.build(
        "C2", [(w, v), (v, w), (w, w * v), (I_UNIT, w), (v, I_UNIT)],
        [Z2 - Z1 * w - MultiPoly.constant(b, 2) for b in (0, v, w, I_UNIT)]
        + [Z1 * Z2 - MultiPoly.constant(w, 2)])
    return [gen_grid_lines(3).to_obj(), complex_lines.to_obj()]


class TestReading:
    """`Configuration.from_obj` parses each distinct string once per load."""

    @pytest.mark.parametrize("obj", repeated_strings(), ids=["grid", "complex"])
    def test_reads_as_one_fraction_per_string(self, obj):
        config, reference = Configuration.from_obj(obj), fraction_reading(obj)
        assert config.points == reference.points
        assert config.curves == reference.curves
        assert config.to_json() == reference.to_json()

    @pytest.mark.parametrize("obj", repeated_strings(), ids=["grid", "complex"])
    def test_equal_strings_share_one_object_within_a_load(self, obj):
        objects = collections.defaultdict(set)
        for text, value in read_strings(obj, Configuration.from_obj(obj)):
            objects[text].add(id(value))
        counts = collections.Counter(text for text, _ in read_strings(obj, fraction_reading(obj)))
        assert max(counts.values()) > 1
        assert all(len(ids) == 1 for ids in objects.values())

    @pytest.mark.parametrize("obj", repeated_strings(), ids=["grid", "complex"])
    def test_two_loads_share_no_object(self, obj):
        first, again = (Configuration.from_obj(obj) for _ in range(2))
        ids = {id(value) for _, value in read_strings(obj, first)}
        assert ids.isdisjoint(id(value) for _, value in read_strings(obj, again))

    @pytest.mark.parametrize("text, error", [
        ("1/0", ZeroDivisionError), ("1/2/3", ValueError), ("", ValueError)])
    def test_a_malformed_string_raises_at_every_occurrence(self, text, error):
        memo = {}
        with pytest.raises(error) as first:
            poly.coef_from_obj(text, memo)
        with pytest.raises(error) as again:
            poly.coef_from_obj({"re": "1/2", "im": text}, memo)
        assert str(first.value) == str(again.value) and text not in memo
        obj = gen_grid_lines(2).to_obj()
        obj["points"][1][0] = obj["points"][3][1] = text
        with pytest.raises(error, match=re.escape(str(first.value))):
            Configuration.from_obj(obj)
