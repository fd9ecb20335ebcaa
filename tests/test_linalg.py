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


def _perm_det_oracle(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total
