"""Deterministic configuration generators."""

from fractions import Fraction

import pytest

from incidencekit.configurations import (
    GeneratorSpec,
    gen_complex_lines_product,
    gen_grid_lines,
    gen_leaf_family,
    gen_random,
    gen_unit_circles,
    generate,
    rational_sphere_points,
)
from incidencekit.foliation import containment_check, leaf_tangency_check
from incidencekit.incidence import build_matrix, certify_dof
from incidencekit.poly import GaussianRational, MultiPoly


class TestGridLines:
    def test_small_counts(self):
        for N, m, n, I in ((1, 2, 1, 1), (2, 16, 8, 16), (3, 54, 27, 81)):
            config = gen_grid_lines(N)
            assert config.m == m and config.n == n
            assert build_matrix(config).count == I

    def test_each_line_hits_n_points(self):
        config = gen_grid_lines(3)
        M = build_matrix(config)
        for row in M.curve_rows():
            assert len(row) == 3

    def test_metadata(self):
        config = gen_grid_lines(4)
        assert config.metadata["expected_incidences"] == 256

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_grid_lines(0)


class TestUnitCircles:
    def test_certified_k3_s2(self):
        config = gen_unit_circles(3, seed=0)
        M = build_matrix(config)
        cert = certify_dof(M, 3, 2)
        assert cert.status == "certified"

    def test_pairwise_intersections_at_most_two(self):
        config = gen_unit_circles(4, seed=0)
        M = build_matrix(config)
        rows = [set(r) for r in M.curve_rows()]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert len(rows[i] & rows[j]) <= 2

    def test_size_and_determinism(self):
        c1 = gen_unit_circles(4, seed=0)
        c2 = gen_unit_circles(4, seed=0)
        assert c1.m == 16 and c1.n == 16
        assert c1.to_json() == c2.to_json()

    def test_points_on_their_circles(self):
        config = gen_unit_circles(3, seed=1)
        assert build_matrix(config).count >= config.m


class TestComplexLines:
    def test_tiny_product(self):
        zero, one = GaussianRational(0), GaussianRational(1)
        # points A x B with A = B = {0, 1}; the line z2 = z1 has 2 incidences
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        from incidencekit.incidence import Configuration

        pts = [(a, b) for a in (zero, one) for b in (zero, one)]
        config = Configuration.build("C2", pts, [z2 - z1])
        assert build_matrix(config).count == 2

    def test_generated_family_certified(self):
        config = gen_complex_lines_product(4, 4, seed=0)
        assert config.m == 16
        M = build_matrix(config)
        assert certify_dof(M, 2, 1).status == "certified"

    def test_two_lines_share_at_most_one_point(self):
        config = gen_complex_lines_product(6, 6, seed=3)
        M = build_matrix(config)
        rows = [set(r) for r in M.curve_rows()]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert len(rows[i] & rows[j]) <= 1

    def test_golden_count_seed0(self):
        config = gen_complex_lines_product(8, 8, seed=0)
        M = build_matrix(config)
        # frozen by exhaustive recount at generation time
        golden = sum(
            1
            for p in config.points
            for f in config.curves
            if not f.evaluate(list(p))
        )
        assert M.count == golden
        again = gen_complex_lines_product(8, 8, seed=0)
        assert build_matrix(again).count == golden


class TestLeafFamily:
    def test_linear_leaves(self):
        g = MultiPoly.variable(0, 1)
        family = gen_leaf_family(g, count=3, seed=0)
        # P = Im(z2 - z1) = y2 - y1
        y1, y2 = MultiPoly.variable(1, 4), MultiPoly.variable(3, 4)
        assert family.hypersurface.P._key() == (y2 - y1)._key()
        assert len(family.curves) == 3
        assert len(set(family.leaf_constants)) == 3

    def test_quadratic_hypersurface(self):
        g = MultiPoly.variable(0, 1) ** 2
        family = gen_leaf_family(g, count=2, seed=0)
        x1, y1, y2 = (MultiPoly.variable(i, 4) for i in (0, 1, 3))
        expected = y2 - x1 * y1 * 2
        assert family.hypersurface.P._key() == expected._key()

    def test_containment_and_tangency(self):
        g = MultiPoly.variable(0, 1)
        family = gen_leaf_family(g, count=3, seed=0)
        for idx, curve in enumerate(family.curves):
            assert containment_check(family.hypersurface, curve).status == "true"
            records = leaf_tangency_check(
                family.hypersurface, curve, family.samples[idx]
            )
            assert records and all(r.status == "pass" for r in records)

    def test_leaves_disjoint(self):
        g = MultiPoly.variable(0, 1)
        family = gen_leaf_family(g, count=4, seed=0)
        for i in range(len(family.curves)):
            for j in range(i + 1, len(family.curves)):
                diff = family.curves[i].f - family.curves[j].f
                assert diff.total_degree == 0 and not diff.is_zero


class TestRandom:
    def test_reproducible(self):
        c1 = gen_random(20, 5, 2, seed=0)
        c2 = gen_random(20, 5, 2, seed=0)
        assert c1.to_json() == c2.to_json()
        assert c1.to_json() != gen_random(20, 5, 2, seed=1).to_json()

    def test_no_curves_no_incidences(self):
        config = gen_random(15, 0, 2, seed=0)
        assert build_matrix(config).count == 0

    def test_random_vanishing_is_rare(self):
        # random rational points almost never land on random curves
        config = gen_random(50, 10, 2, seed=0)
        assert build_matrix(config).count == 0


class TestDispatch:
    def test_generate_by_spec(self):
        config = generate(GeneratorSpec("grid-lines", {"n": 2}))
        assert config.m == 16

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("no-such-family", {}))

    def test_spec_roundtrip(self):
        spec = GeneratorSpec("random", {"points": 5, "curves": 2}, seed=3)
        assert GeneratorSpec.from_obj(spec.to_obj()) == spec


class TestSpherePoints:
    def test_exactly_on_sphere(self):
        pts = rational_sphere_points(50, seed=0)
        assert len(pts) == 50
        for p in pts:
            assert sum(Fraction(c) ** 2 for c in p) == 1

    def test_deterministic(self):
        assert rational_sphere_points(10, seed=4) == rational_sphere_points(10, seed=4)
