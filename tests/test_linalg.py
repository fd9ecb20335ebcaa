"""Exact linear algebra: fraction-free rank, kernels, determinants."""

import itertools
import random
from fractions import Fraction

import pytest

from incidencekit.linalg import (
    det,
    in_span,
    kernel_basis,
    rank,
    rref,
    same_span,
)
from incidencekit.poly import GaussianRational, MultiPoly


def rand_matrix(rng, rows, cols, target_rank=None):
    if target_rank is None:
        return [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
             for _ in range(cols)]
            for _ in range(rows)
        ]
    # product of rows x r and r x cols factors has rank <= target_rank
    a = rand_matrix(rng, rows, target_rank)
    b = rand_matrix(rng, target_rank, cols)
    return [
        [sum(a[i][k] * b[k][j] for k in range(target_rank)) for j in range(cols)]
        for i in range(rows)
    ]


class TestRank:
    def test_matches_minor_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            tr = rng.randrange(0, min(rows, cols) + 1) or None
            m = rand_matrix(rng, rows, cols, tr)
            assert rank(m) == minor_rank(m)

    def test_invariance_under_scaling_and_permutation(self):
        rng = random.Random(9)
        for _ in range(20):
            m = rand_matrix(rng, 3, 4, target_rank=2)
            r = rank(m)
            scales = [Fraction(rng.randrange(1, 7)) for _ in m]
            scaled = [[s * x for x in row] for s, row in zip(scales, m)]
            assert rank(scaled) == r
            perm = list(range(3))
            rng.shuffle(perm)
            assert rank([m[i] for i in perm]) == r

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([[Fraction(0)] * 3]) == 0


class TestIntegerPath:
    """A matrix of ints is eliminated in ints; the answers do not change."""

    @staticmethod
    def int_matrix(rng, rows, cols):
        target = rng.randrange(0, min(rows, cols) + 1)
        a = [[rng.randrange(-9, 10) for _ in range(target)] for _ in range(rows)]
        b = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(target)]
        m = [[sum(a[i][k] * b[k][j] for k in range(target)) for j in range(cols)]
             for i in range(rows)]
        if cols > 1 and rng.random() < 0.3:
            zero = rng.randrange(cols)
            m = [[0 if j == zero else x for j, x in enumerate(row)] for row in m]
        if rng.random() < 0.3:
            m[0][0] = 0
        return m

    def test_rank_matches_fraction_rank(self):
        rng = random.Random(1970)
        ranks = set()
        for _ in range(300):
            m = self.int_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            r = rank(m)
            assert r == rank([[Fraction(x) for x in row] for row in m]) == minor_rank(m), m
            ranks.add((r == min(len(m), len(m[0])), m[0][0] == 0,
                       any(not any(row[j] for row in m) for j in range(len(m[0])))))
        # full and deficient rank, each with and without a zero leading
        # entry and a zero column
        assert len(ranks) == 8

    def test_large_entries_stay_exact(self):
        # Bareiss's divisions must be exact integer divisions: a float
        # quotient of minors this large overflows
        rng = random.Random(1969)
        big = 10**160
        for _ in range(5):
            m = [[rng.randrange(-big, big) for _ in range(4)] for _ in range(3)]
            m.append([2 * x + 3 * y - z for x, y, z in zip(*m)])
            assert rank(m) == 3
            m[3][3] += 1
            assert rank(m) == 4

    def test_rref_kernel_det_of_ints_are_fractions(self):
        rng = random.Random(1971)
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = self.int_matrix(rng, n, n)
            as_q = [[Fraction(x) for x in row] for row in m]
            reduced, pivots = rref(m)
            assert (reduced, pivots) == rref(as_q)
            assert all(type(x) is Fraction for row in reduced for x in row)
            basis = kernel_basis(m)
            assert basis == kernel_basis(as_q)
            assert all(type(x) is Fraction for v in basis for x in v)
            d = det(m)
            assert type(d) is Fraction and d == det(as_q)


class TestKernel:
    def test_kernel_vectors_annihilated(self):
        rng = random.Random(21)
        for _ in range(20):
            m = rand_matrix(rng, 2, 4)
            basis = kernel_basis(m)
            assert len(basis) == 4 - rank(m)
            for v in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_known_kernel(self):
        m = [[Fraction(1), Fraction(0), Fraction(-1), Fraction(0)]]
        basis = kernel_basis(m)
        assert len(basis) == 3
        assert in_span([1, 0, 1, 0], basis)
        assert not in_span([1, 0, 0, 0], basis)

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            kernel_basis([])


class TestSpan:
    def test_same_span(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        assert same_span(a, b)
        assert not same_span(a, [[Fraction(1), Fraction(1)]])

    def test_rref_reproducible(self):
        rng = random.Random(13)
        m = rand_matrix(rng, 3, 5, target_rank=2)
        r1, piv1 = rref(m)
        r2, piv2 = rref([list(row) for row in m])
        assert r1 == r2 and piv1 == piv2


class TestDet:
    def test_matches_permanent_expansion(self):
        rng = random.Random(41)
        for n in (1, 2, 3, 4):
            m = rand_matrix(rng, n, n)
            expected = _perm_det_oracle(m)
            assert det(m) == expected

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det(m) == 0

    def test_row_swaps_flip_the_sign(self):
        # a zero leading entry forces one swap, a cyclic shift two, and a
        # zero column makes the matrix singular before the last step
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert det([[0, 2, 3], [0, 5, 7], [0, 1, 1]]) == 0
        assert det([]) == 1
        with pytest.raises(ValueError):
            det([[1, 2]])


class TestAgainstGaussJordan:
    """The one fraction-free elimination against textbook Gauss-Jordan
    reduction and the Leibniz determinant, on seeded Q and Q(i) matrices."""

    def test_rank_rref_kernel_det(self):
        rng = random.Random(1968)
        shapes = set()
        for k in range(600):
            field = ("Q", "Q(i)", "mixed")[k % 3]
            m = shaped_matrix(rng, k, field)
            expected, pivots = _rref_oracle(m)
            got, got_pivots = rref(m)
            assert got_pivots == pivots
            assert got == expected
            if field != "mixed":
                # over one coefficient type the types match entry for entry
                assert [[type(x) for x in row] for row in got] == \
                    [[type(x) for x in row] for row in expected]
            assert rank(m) == len(pivots)
            kernel = kernel_basis(m)
            assert kernel == _kernel_from_rref(expected, pivots, len(m[0]))
            for v in kernel:
                for row in m:
                    assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0
            n = min(len(m), len(m[0]))
            square = [row[:n] for row in m[:n]]
            d = det(square)
            assert d == _perm_det_oracle(square)
            if not d:
                assert type(d) is Fraction
            rows, cols = len(m), len(m[0])
            shapes.add("wide" if cols > rows else "tall" if rows > cols else "square")
            if len(pivots) < min(rows, cols):
                shapes.add("rank-deficient")
            if any(all(not row[j] for row in m) for j in range(cols)):
                shapes.add("zero column")
            if not m[0][0]:
                shapes.add("zero leading entry")
        assert shapes == {"wide", "tall", "square", "rank-deficient", "zero column",
                          "zero leading entry"}


class TestPolynomialDet:
    def test_matches_leibniz_expansion(self):
        rng = random.Random(29)
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        zero, one = MultiPoly.zero(2), MultiPoly.constant(1, 2)
        entries = [zero, one, x, y, x - y, x * y + 2, x * x - 3 * y,
                   (x + 1) * GaussianRational(1, 2)]
        kinds = set()
        for k in range(80):
            n = k % 4 + 1
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if k % 5 == 1 and n > 1:  # singular: a multiple of another row
                c = rng.choice(entries[1:])
                m[-1] = [c * a for a in m[0]]
            elif k % 5 == 2:  # a zero leading entry forces a row swap
                m[0][0] = zero
            expected = _perm_det_oracle(m, zero, one)
            d = det(m)
            assert isinstance(d, MultiPoly)
            assert d == expected
            kinds.add("singular" if expected.is_zero else "regular")
            if not m[0][0] and any(row[0] for row in m):
                kinds.add("row swap")
        assert kinds == {"singular", "regular", "row swap"}


def shaped_matrix(rng, k, field):
    """A seeded 1-5 x 1-6 matrix: case k % 4 is full random, rank-deficient,
    with a zero column, or with a zero leading entry.  Over "mixed" the
    entries are Fractions and GaussianRationals side by side."""

    def entry():
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
        if field == "Q" or (field == "mixed" and rng.random() < 0.5):
            return q
        return GaussianRational(q, rng.randrange(-3, 4))

    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    zero = Fraction(0) if field == "Q" else GaussianRational(0)
    case = k % 4
    if case == 1 and rows > 1:
        a, b = rng.randrange(rows - 1), rng.randrange(rows - 1)
        c = entry()
        m[-1] = [p + c * q for p, q in zip(m[a], m[b])]
    elif case == 2:
        j = rng.randrange(cols)
        for row in m:
            row[j] = zero
    elif case == 3:
        m[0][0] = zero
    return m


def _rref_oracle(rows):
    """Gauss-Jordan reduction over the field, pivoting on the first nonzero
    entry down each column: the reduced row-echelon form and pivot columns."""
    m = [[x if isinstance(x, (Fraction, GaussianRational)) else Fraction(x) for x in row]
         for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv_pivot = Fraction(1) / m[r][col]
        m[r] = [x * inv_pivot for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def _kernel_from_rref(m, pivots, n_cols):
    basis = []
    for fcol in (j for j in range(n_cols) if j not in pivots):
        v = [Fraction(0)] * n_cols
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -m[r][fcol]
        basis.append(v)
    return basis


def minor_rank(m):
    """Rank via exhaustive nonzero-minor search (independent oracle; only
    sensible for small matrices)."""
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for ri in itertools.combinations(range(n_rows), k):
            for ci in itertools.combinations(range(n_cols), k):
                if _perm_det_oracle([[m[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def _perm_det_oracle(m, zero=Fraction(0), one=Fraction(1)):
    """Leibniz expansion over the ring with the given zero and one."""
    n = len(m)
    total = zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = one
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod if sign > 0 else total - prod
    return total
