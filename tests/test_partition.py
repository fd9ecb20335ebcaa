"""Polynomial partitioning: Veronese lifts, ham-sandwich cuts, occupancy,
and crossing statistics."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from incidencekit.partition import (
    CutResult,
    PartitionResult,
    _best_offset,
    _best_pencil_t,
    _gap_samples,
    ham_sandwich_bisect,
    hyperplane_poly,
    lift_dimension,
    line_crossings,
    min_lift_degree,
    monomial_exponents,
    polynomial_partition,
    sampled_crossings,
    sign_class,
    stage_schedule,
    veronese_lift,
)
from incidencekit.poly import MultiPoly
from incidencekit.roots import isolate_real_roots


def uniform_points(n, seed, dim=2):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randrange(0, 2**20), 2**20) for _ in range(dim))
        for _ in range(n)
    ]


class TestVeronese:
    def test_degree_one_identity(self):
        assert veronese_lift((Fraction(3), Fraction(5)), 1) == (3, 5)

    def test_degree_two_order(self):
        # canonical order: x, y, x^2, xy, y^2
        x, y = Fraction(2), Fraction(3)
        assert veronese_lift((x, y), 2) == (2, 3, 4, 6, 9)
        assert monomial_exponents(2, 2) == [
            (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
        ]

    def test_dimension_counts(self):
        assert lift_dimension(2, 2) == 5
        assert lift_dimension(4, 2) == 14  # C(6,4) - 1

    def test_min_lift_degree(self):
        # smallest t with C(d+t,d) - 1 >= n_sets
        assert min_lift_degree(2, 1) == 1
        assert min_lift_degree(2, 2) == 1
        assert min_lift_degree(2, 3) == 2
        assert min_lift_degree(2, 8) == 3

    def test_hyperplane_poly_matches_lift(self):
        rng = random.Random(44)
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(6)]
        poly = hyperplane_poly(coeffs, 2, 2)
        for _ in range(10):
            p = (Fraction(rng.randrange(-9, 10), 3),
                 Fraction(rng.randrange(-9, 10), 2))
            lifted = veronese_lift(p, 2)
            expected = coeffs[0] + sum(c * v for c, v in zip(coeffs[1:], lifted))
            assert poly.evaluate(list(p)) == expected


class TestHamSandwich:
    def test_two_points_on_line(self):
        cut = ham_sandwich_bisect([[(Fraction(-1),), (Fraction(1),)]])
        c0, c1 = cut.coeffs
        assert c1 != 0
        root = -c0 / c1
        assert -1 < root < 1
        assert cut.counts[0] == (1, 0, 1)

    def test_interleaved_collinear_sets(self):
        a = [(Fraction(0),), (Fraction(2),), (Fraction(4),), (Fraction(6),)]
        b = [(Fraction(1),), (Fraction(3),), (Fraction(5),), (Fraction(7),)]
        cut = ham_sandwich_bisect([a, b])
        for neg, zero, pos in cut.counts:
            assert max(neg, pos) <= 2

    def test_eight_sets_in_q8(self):
        rng = random.Random(2)
        sets = [
            [
                tuple(Fraction(rng.randrange(0, 2**16), 2**16) for _ in range(8))
                for _ in range(64)
            ]
            for _ in range(8)
        ]
        cut = ham_sandwich_bisect(sets, delta=0.1, restarts=60, seed=0)
        # exact post-hoc verification of the imbalance promise
        for neg, zero, pos in cut.counts:
            n = neg + zero + pos
            assert max(neg, pos) <= math.ceil(math.ceil(n / 2) * 1.1)

    def test_fallback_reports_attempts_spent(self):
        # no single threshold bisects both sets, so every attempt falls back
        a = [(Fraction(x),) for x in (0, 1, 2, 3)]
        b = [(Fraction(x),) for x in (10, 11, 12, 13)]
        cut = ham_sandwich_bisect([a, b], delta=1.0, restarts=3)
        assert not cut.strict_ok and cut.delta_ok
        assert cut.restarts_used == 3

    def test_determinism(self):
        sets = [uniform_points(50, s) for s in (1, 2)]
        c1 = ham_sandwich_bisect(sets, seed=7)
        c2 = ham_sandwich_bisect([list(s) for s in sets], seed=7)
        assert c1.coeffs == c2.coeffs


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


def fraction_best_pencil_t(avals, bvals, targets):
    """Reference pencil sweep in Fraction arithmetic: a point's value along
    the pencil is a_p + t*b_p, so its side flips at t = -a_p/b_p; returns
    the best (total overflow, max overflow, zeros, |t|, t) over the
    candidates below, at, between and past the flips."""
    n_sets = len(avals)
    neg = [0] * n_sets
    pos = [0] * n_sets
    zer = [0] * n_sets
    events = []
    for k, (avs, bvs) in enumerate(zip(avals, bvals)):
        for a, b in zip(avs, bvs):
            if b == 0:
                s = _sign(a)
                if s > 0:
                    pos[k] += 1
                elif s < 0:
                    neg[k] += 1
                else:
                    zer[k] += 1
            else:
                events.append((-a / b, k, 1 if b > 0 else -1))
                if b > 0:
                    neg[k] += 1
                else:
                    pos[k] += 1
    if not events:
        return None
    events.sort(key=lambda e: e[0])
    best = None

    def consider(tau):
        nonlocal best
        total_over = 0
        max_over = 0
        zeros = 0
        for k in range(n_sets):
            zeros += zer[k]
            over = max(neg[k] - targets[k], 0) + max(pos[k] - targets[k], 0)
            total_over += over
            max_over = max(max_over, over)
        key = (total_over, max_over, zeros, abs(tau), tau)
        if best is None or key < best:
            best = key

    consider(events[0][0] - 1)
    i = 0
    while i < len(events):
        t = events[i][0]
        j = i
        moved = []
        while j < len(events) and events[j][0] == t:
            _, k, new_sign = events[j]
            if new_sign > 0:
                neg[k] -= 1
            else:
                pos[k] -= 1
            zer[k] += 1
            moved.append((k, new_sign))
            j += 1
        consider(t)
        for k, new_sign in moved:
            zer[k] -= 1
            if new_sign > 0:
                pos[k] += 1
            else:
                neg[k] += 1
        consider((t + events[j][0]) / 2 if j < len(events) else t + 1)
        i = j
    return best


def assert_sweeps_agree(avals, bvals, targets, scale=1):
    """The integer sweep on (A, B, scale) equals the Fraction sweep on
    a = A/scale, b = B, whose flips -a/b = -A/(scale*B) coincide."""
    expected = fraction_best_pencil_t(
        [[Fraction(a, scale) for a in avs] for avs in avals], bvals, targets
    )
    assert _best_pencil_t(avals, bvals, targets, scale) == expected
    return expected


def fraction_best_offset(projs, targets):
    """Reference offset scan in Fraction arithmetic over the projections
    v = normal . p: the threshold tau (the cut is v - tau) runs below the
    smallest value, through each value, midway between neighbours and past
    the largest; returns -tau of the best (total overflow, max overflow,
    zeros, tau), so ties take the smallest tau."""
    events = sorted((v, k) for k, ps in enumerate(projs) for v in ps)
    if not events:
        return Fraction(0)
    sizes = [len(ps) for ps in projs]
    less = [0] * len(projs)
    best = None

    def consider(eq, tau):
        nonlocal best
        total_over = max_over = zeros = 0
        for k, tgt in enumerate(targets):
            z = eq[k] if eq else 0
            neg, pos = less[k], sizes[k] - less[k] - z
            zeros += z
            over = max(neg - tgt, 0) + max(pos - tgt, 0)
            total_over += over
            max_over = max(max_over, over)
        key = (total_over, max_over, zeros, tau)
        if best is None or key < best:
            best = key

    consider(None, events[0][0] - 1)
    i = 0
    while i < len(events):
        v = events[i][0]
        eq = [0] * len(projs)
        j = i
        while j < len(events) and events[j][0] == v:
            eq[events[j][1]] += 1
            j += 1
        consider(eq, v)
        for k, e in enumerate(eq):
            less[k] += e
        consider(None, (v + events[j][0]) / 2 if j < len(events) else v + 1)
        i = j
    return -best[3]


def assert_offsets_agree(projs, targets, factor=1):
    """The integer offset sweep on A = v * D * factor (D the common
    denominator of the projections) equals the Fraction scan on v."""
    den = math.lcm(*(v.denominator for ps in projs for v in ps))
    avals = [[v.numerator * (den // v.denominator) * factor for v in ps] for ps in projs]
    expected = fraction_best_offset(projs, targets)
    assert _best_offset(avals, den * factor, targets) == expected
    return expected


class TestPencilSweep:
    def test_seeded_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n_sets = rng.randrange(1, 5)
            span = rng.choice([3, 50, 2**40, 2**90])
            avals = [[rng.randrange(-span, span + 1) for _ in range(rng.randrange(0, 30))]
                     for _ in range(n_sets)]
            bvals = [[rng.randrange(-span, span + 1) for _ in avs] for avs in avals]
            targets = [-(-len(avs) // 2) + rng.randrange(-2, 2) for avs in avals]
            assert_sweeps_agree(avals, bvals, targets, rng.choice([1, 3, 2**32]))

    def test_no_flip_returns_none(self):
        assert _best_pencil_t([[1, -2, 0]], [[0, 0, 0]], [2]) is None
        assert _best_pencil_t([[]], [[]], [0]) is None

    def test_repeated_flips(self):
        # ten points flipping at t = 3/2 in each set, from both sides
        avals = [[-3 * k for k in range(1, 11)], [3 * k for k in range(1, 11)]]
        bvals = [[2 * k for k in range(1, 11)], [-2 * k for k in range(1, 11)]]
        found = assert_sweeps_agree(avals, bvals, [5, 5])
        assert found[4] == Fraction(3, 2)

    def test_b_zero_points(self):
        avals = [[5, -5, 0, 1, 2], [0, 0, -1, 7]]
        bvals = [[0, 0, 0, 1, -1], [0, 3, 0, 0]]
        assert_sweeps_agree(avals, bvals, [2, 2])

    def test_point_at_t_zero(self):
        # a = 0 flips at t = 0, which is on the surface there
        found = assert_sweeps_agree([[0, 1, -1, 4]], [[1, 1, 1, -1]], [2])
        assert found is not None

    def test_abs_t_tie_break(self):
        # flips at -1 and +1 under a loose target: every gap is balanced,
        # and the smallest |t| wins
        found = assert_sweeps_agree([[1, -1]], [[1, 1]], [2])
        assert found == (0, 0, 0, 0, 0)
        # flips at -2 and +2: only t < -2 and t > 2 balance, so the
        # candidates -3 and 3 tie on |t| and the negative one wins
        found = assert_sweeps_agree([[2, 2]], [[1, -1]], [1])
        assert found == (0, 0, 0, 3, -3)

    def test_flips_below_float_resolution(self):
        # flips 1, 1 + 2^-70 and 1 - 2^-70 round to the same float
        e = 2**70
        avals = [[-e, -(e + 1), -(e - 1), -(e + 2)], [-(e + 1), -e]]
        bvals = [[e, e, e, e], [e, e]]
        for targets in ([2, 1], [1, 1], [3, 2]):
            assert_sweeps_agree(avals, bvals, targets)
        assert_sweeps_agree(avals, bvals, [2, 1], scale=2**32)

    def test_flips_beyond_float_range(self):
        # |t| above 2^1024 has no float; such flips sort by exact value
        big = 10**400
        avals = [[big, -big, big + 1, 1, -3], [2 * big, 5]]
        bvals = [[1, 1, -1, 1, 2], [-1, 1]]
        for targets in ([2, 1], [3, 1], [1, 0]):
            assert_sweeps_agree(avals, bvals, targets)

    def test_lifted_degree_two_sets(self):
        # the shape of the partition polish: four sets lifted at degree 2,
        # a snapped hyperplane, each axis direction
        from incidencekit.partition import _integer_form, _snap

        rng = random.Random(3)
        sets = [[veronese_lift(p, 2) for p in uniform_points(40, seed=s)]
                for s in range(4)]
        coeffs = [_snap(rng.uniform(-1, 1)) for _ in range(6)]
        rows = [_integer_form([(1,) + q for q in s])[1] for s in sets]
        scale, (cints,) = _integer_form([coeffs])
        avals = [[sum(c * x for c, x in zip(cints, q)) for q in s] for s in rows]
        for j in range(6):
            bvals = [[q[j] for q in s] for s in rows]
            assert_sweeps_agree(avals, bvals, [20] * 4, scale)


class TestOffsetSweep:
    def test_seeded_random(self):
        rng = random.Random(17)
        for _ in range(300):
            n_sets = rng.randrange(1, 5)
            span = rng.choice([2, 5, 40, 2**50])
            den = rng.choice([1, 4, 2**20])
            projs = [[Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))
                      for _ in range(rng.randrange(0, 12))] for _ in range(n_sets)]
            targets = [-(-len(ps) // 2) for ps in projs]
            if rng.random() < 0.3:
                targets = [max(t + rng.randrange(-1, 2), 0) for t in targets]
            assert_offsets_agree(projs, targets, rng.choice([1, 3, 2**32]))

    def test_ties_within_and_across_sets(self):
        # every set repeats the same few values, so most candidates tie
        for values in ((0, 0, 1, 1), (2, 2, 2), (0, 1, 1, 1, 2), (5,)):
            for n_sets in (1, 2, 3):
                projs = [[Fraction(v) for v in values] for _ in range(n_sets)]
                targets = [-(-len(values) // 2)] * n_sets
                assert_offsets_agree(projs, targets)
        projs = [[Fraction(x) for x in (0, 2, 4, 6)], [Fraction(x) for x in (1, 3, 5, 7)]]
        assert assert_offsets_agree(projs, [2, 2]) == Fraction(-7, 2)

    def test_empty_sets_and_single_points(self):
        assert assert_offsets_agree([[]], [0]) == 0
        assert assert_offsets_agree([[], []], [0, 0]) == 0
        assert assert_offsets_agree([[Fraction(3, 7)]], [1]) == Fraction(4, 7)
        # c0 = 4 and c0 = 6 both balance; the larger one wins, not the one
        # nearer 0 as in the polish
        assert assert_offsets_agree([[Fraction(-5)]], [1]) == 6
        assert_offsets_agree([[], [Fraction(1)], [Fraction(-2), Fraction(5)]], [0, 1, 1])

    def test_odd_and_even_sizes(self):
        rng = random.Random(5)
        for n in range(1, 10):
            projs = [[Fraction(rng.randrange(-3, 4), 2) for _ in range(n)],
                     [Fraction(rng.randrange(-3, 4), 3) for _ in range(n + 1)]]
            assert_offsets_agree(projs, [-(-n // 2), -(-(n + 1) // 2)])

    def test_values_below_float_resolution_and_beyond_float_range(self):
        e = Fraction(1, 2**70)
        projs = [[1 + e, Fraction(1), 1 - e, 1 + 2 * e], [1 - e, Fraction(1)]]
        assert_offsets_agree(projs, [2, 1])
        big = Fraction(10**400)
        assert_offsets_agree([[big, -big, big + 1], [Fraction(0)]], [2, 1])


# sha256 of json.dumps(polynomial_partition(points, r, seed=seed).to_obj(),
# sort_keys=True): refactors of the search and the recount must keep them
PINNED_PARTITIONS = [
    # (points, dim, denominator, point seed, r, partition seed, sha256)
    (48, 2, 2**20, 1, 4, 0, "f91df74e622c0698d12adc6c02e27907b192d54c0be6761f157f66be9607bb2e"),
    # 40 points on 16 grid positions: heavy ties everywhere
    (40, 2, 4, 3, 4, 1, "533576e633c8c2670268d3c945b42d3d4664f7fd92318b2a57ddb287ff812735"),
    (96, 4, 2**20, 4, 2, 2, "1d21e17b2414377c61d2cef37062942c25a48f4a3850ffb7e147336820d03c9b"),
]


@pytest.mark.parametrize("n, dim, den, point_seed, r, seed, digest", PINNED_PARTITIONS)
def test_pinned_partition_output(n, dim, den, point_seed, r, seed, digest):
    rng = random.Random(point_seed)
    points = [tuple(Fraction(rng.randrange(0, den), den) for _ in range(dim))
              for _ in range(n)]
    obj = polynomial_partition(points, r, seed=seed).to_obj()
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest


class TestPartition:
    def test_stage_schedule_planar_r8(self):
        # the 8 classes of the final stage are halved by two degree-2 cuts
        # (groups of four), so the product degree is exactly 8
        sched = stage_schedule(2, 8)
        assert sched == [[1], [1], [2], [2, 2]]
        assert sum(sum(s) for s in sched) == 8

    def test_small_partition_counts(self):
        pts = uniform_points(64, seed=5)
        result = polynomial_partition(pts, r=4, seed=0)
        assert result.total_degree <= 4
        assert sum(result.occupancy.values()) + result.on_surface == 64
        # every class within the strict halving budget
        stages = len(result.bisectors)
        assert max(result.occupancy.values()) <= math.ceil(64 / 2**stages) * 2

    def test_sign_class_recount(self):
        pts = uniform_points(32, seed=9)
        result = polynomial_partition(pts, r=4, seed=0)
        from collections import Counter

        recount = Counter()
        on_surface = 0
        for p in pts:
            vec = sign_class(p, result)
            if 0 in vec:
                on_surface += 1
            else:
                recount[vec] += 1
        assert on_surface == result.on_surface
        assert dict(recount) == dict(result.occupancy)

    def test_cut_records(self):
        pts = uniform_points(64, seed=5)
        result = polynomial_partition(pts, r=4, seed=0)
        assert len(result.cuts) == len(result.bisectors) == 3
        for cut, bisector, t in zip(result.cuts, result.bisectors, result.stage_degrees):
            assert hyperplane_poly(cut.coeffs, 2, t) == bisector
            assert cut.restarts_used >= 1
        # the first cut bisects every point, and its counts are the signs
        neg = sum(1 for v in result.sign_assignment if v[0] < 0)
        zero = sum(1 for v in result.sign_assignment if v[0] == 0)
        assert result.cuts[0].counts == [(neg, zero, 64 - neg - zero)]

    def test_product_degree(self):
        pts = uniform_points(64, seed=5)
        result = polynomial_partition(pts, r=4, seed=0)
        assert result.product.total_degree == sum(
            b.total_degree for b in result.bisectors
        )

    def test_determinism_bit_for_bit(self):
        pts = uniform_points(64, seed=3)
        r1 = polynomial_partition(pts, r=4, seed=1)
        r2 = polynomial_partition(list(pts), r=4, seed=1)
        assert r1.bisectors == r2.bisectors
        assert r1.to_obj() == r2.to_obj()


@pytest.fixture(scope="module")
def partition64():
    return polynomial_partition(uniform_points(64, seed=5), r=4, seed=0)


class TestCrossings:
    def test_line_crossing_bound(self, partition64):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        rng = random.Random(50)
        for _ in range(10):
            line = (
                x * Fraction(rng.randrange(-5, 6))
                + y * Fraction(rng.randrange(1, 6))
                + MultiPoly.constant(Fraction(rng.randrange(-5, 6), 7), 2)
            )
            report = line_crossings(line, partition64)
            assert not report.contained
            assert report.classes_visited <= report.bound
            assert report.bound == partition64.total_degree + 1

    def test_bisector_contained(self, partition64):
        b = partition64.bisectors[0]
        if b.total_degree == 1:
            report = line_crossings(b, partition64)
            assert report.contained

    def test_opposite_signs_across_cut(self, partition64):
        # some pair of input points is separated by the first bisector
        signs = {
            1 if partition64.bisectors[0].evaluate(list(p)) > 0 else -1
            for p in uniform_points(64, seed=5)
            if partition64.bisectors[0].evaluate(list(p)) != 0
        }
        assert signs == {-1, 1}

    def test_matches_product_isolation(self, partition64):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        rng = random.Random(51)
        for _ in range(10):
            line = (
                x * Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                + y * Fraction(rng.randrange(1, 6))
                + MultiPoly.constant(Fraction(rng.randrange(-9, 10), 5), 2)
            )
            assert_crossings_match(line, partition64)
        # a vertical line (b = 0) as well
        assert_crossings_match(x - MultiPoly.constant(Fraction(1, 3), 2), partition64)

    def test_line_through_crossing_of_two_bisectors(self, partition64):
        b1, b2 = partition64.bisectors[:2]
        if b1.total_degree != 1 or b2.total_degree != 1:
            pytest.skip("fixture's first cuts are not lines")
        (a1, c1, d1), (a2, c2, d2) = (
            [b.terms.get(e, Fraction(0)) for e in ((1, 0), (0, 1), (0, 0))]
            for b in (b1, b2)
        )
        det = a1 * c2 - a2 * c1
        px, py = (c1 * d2 - c2 * d1) / det, (a2 * d1 - a1 * d2) / det
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        for slope in (Fraction(0), Fraction(1, 3), Fraction(-7, 2)):
            line = y - x * slope + MultiPoly.constant(slope * px - py, 2)
            assert line.evaluate([px, py]) == 0
            report = assert_crossings_match(line, partition64)
            assert not report.contained

    def test_shared_and_tangent_roots(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        one = MultiPoly.constant(1, 2)
        bisectors = [x * x + y * y - one, x - y, x + y, x * x - y]
        result = PartitionResult(2, 6, 0.1, 0, bisectors, [2, 1, 1, 2], [], {}, 0, 0)
        # y = 0 passes through the lines' crossing at the origin, where it
        # is tangent to the parabola, and meets the circle at x = +-1
        assert assert_crossings_match(y, result).segments == 4
        # y = 1 is tangent to the circle at x = 0 and meets the parabola and
        # the two lines at x = +-1
        assert assert_crossings_match(y - one, result).segments == 4
        for line in (x * 3 + y * 4 - one * 5, x - one, y - x * Fraction(1, 2)):
            assert_crossings_match(line, result)
        assert assert_crossings_match(x - y, result).contained

    def test_roots_closer_than_refinement_width(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)

        def crossings_on_y0(*bisectors):
            result = PartitionResult(
                2, 6, 0.1, 0, list(bisectors),
                [b.total_degree for b in bisectors], [], {}, 0, 0,
            )
            return assert_crossings_match(y, result).segments

        two = MultiPoly.constant(2, 2)
        tiny = MultiPoly.constant(Fraction(1, 2**70), 2)
        # irrational roots +-sqrt(2) shared by two conics
        assert crossings_on_y0(x * x + y * y - two, x * x - y - two) == 3
        # +-sqrt(2) against +-sqrt(2 + 2^-70): overlapping isolating intervals
        assert crossings_on_y0(x * x - two, x * x - two - tiny) == 5
        # the exact root 0 against +-2^-40.5, which isolate next to it
        assert crossings_on_y0(x, x * x - tiny * Fraction(1, 2**11)) == 4

    def test_sampled_crossings_lower_bound(self, partition64):
        pts = uniform_points(40, seed=77)
        report = sampled_crossings(pts, partition64)
        assert not report.exact
        assert report.classes_visited <= len(partition64.occupancy)


def product_crossings(line, result):
    """Reference line crossings: isolate the real roots of the product of
    the restricted bisectors, then sample one point per gap."""
    a, b, c = (
        Fraction(line.terms.get(e, 0)) for e in ((1, 0), (0, 1), (0, 0))
    )
    p0 = (Fraction(0), -c / b) if b != 0 else (-c / a, Fraction(0))
    t = MultiPoly.variable(0, 1)
    x_t = MultiPoly.constant(p0[0], 1) + t * (-b)
    y_t = MultiPoly.constant(p0[1], 1) + t * a
    restricted = [bi.substitute([x_t, y_t]) for bi in result.bisectors]
    if any(rb.is_zero for rb in restricted):
        return True, 0, 0
    product = MultiPoly.constant(1, 1)
    for rb in restricted:
        product = product * rb
    roots = [] if product.total_degree == 0 else isolate_real_roots(product)
    visited = {
        tuple(_sign(rb.evaluate([tv])) for rb in restricted)
        for tv in _gap_samples(roots)
    }
    return False, len(roots) + 1, len(visited)


def assert_crossings_match(line, result):
    report = line_crossings(line, result)
    assert (
        report.contained, report.segments, report.classes_visited
    ) == product_crossings(line, result)
    return report
