"""Exact linear algebra over Q, Q(i), and polynomial rings.

One fraction-free elimination serves every routine.  Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
1968) divides exactly in any integral domain, so the same loop runs on
Fraction, GaussianRational and MultiPoly entries through their plain
operators (see `poly`).  Its pivot rule is deterministic (the first nonzero
entry scanning down the column), so results are reproducible and
independent of evaluation order.  `rank` and `det` read its result, and
`rref`, with it kernels and spans, back-substitutes from its echelon form.
On a matrix of Python ints the elimination stays in ints, as every Bareiss
division is exact; `rank` keeps such a matrix as it is, while `rref`, the
kernels and `det` take their entries as Fractions, so they never return a
float.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv, truediv
from typing import Sequence

from .poly import Coef, GaussianRational, MultiPoly


def _as_entry(x):
    if isinstance(x, (Fraction, GaussianRational, MultiPoly)):
        return x
    return Fraction(x)


def _eliminate(m: list[list]) -> tuple[int, int, list[int]]:
    """Fraction-free elimination of m in place: (rank r, sign of the row
    swaps, pivot columns).  Afterwards row k < r holds its pivot in the k-th
    pivot column with zeros to the left, the rows below r are zero, and each
    pivot is the minor on the rows and pivot columns up to it; so for a
    square m of full rank the last pivot times the sign is det m."""
    pivots: list[int] = []
    if not m:
        return 0, 1, pivots
    n_rows, n_cols = len(m), len(m[0])
    prev = None  # the previous pivot, which divides every later step exactly
    sign = 1
    r = 0
    for col in range(n_cols):
        for i in range(r, n_rows):
            if m[i][col]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        pivot = top[col]
        divide = floordiv if type(pivot) is int else truediv
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
        zero = pivot - pivot
        for row in m[r:]:
            a = row[col]
            for j in range(col + 1, n_cols):
                x = pivot * row[j] - a * top[j]
                row[j] = x if prev is None else divide(x, prev)
            row[col] = zero
        prev = pivot
    return r, sign, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by fraction-free elimination, in ints when every entry is
    an int."""
    if all(type(x) is int for row in rows for x in row):
        return _eliminate([list(row) for row in rows])[0]
    return _eliminate([[_as_entry(x) for x in row] for row in rows])[0]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form over the field; returns (matrix, pivot cols)."""
    m = [[_as_entry(x) for x in row] for row in rows]
    r, _, pivots = _eliminate(m)
    for k in reversed(range(r)):
        # row k is zero left of its pivot; the rows below it have already
        # cleared its entries on their pivot columns
        col = pivots[k]
        row = m[k]
        inv_pivot = 1 / row[col]
        row[col:] = [x * inv_pivot for x in row[col:]]
        for above in m[:k]:
            f = above[col]
            if f:
                above[col:] = [a - f * b for a, b in zip(above[col:], row[col:])]
    return m, pivots


def kernel_basis(rows: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel {v : M v = 0}, deterministic order."""
    if not rows:
        raise ValueError("kernel of an empty matrix: the column count is unknown")
    n_cols = len(rows[0])
    m, pivots = rref(rows)
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for fcol in free:
        v: list = [Fraction(0)] * n_cols
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -m[r][fcol]
        basis.append(v)
    return basis


def same_span(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """Exact subspace equality of the row spans of a and b."""
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    return rank(list(a) + list(b)) == ra


def in_span(vector: Sequence, basis: Sequence[Sequence]) -> bool:
    r = rank(basis)
    return rank(list(basis) + [list(vector)]) == r


def det(rows: Sequence[Sequence]) -> Coef | MultiPoly:
    """Exact determinant over Q, Q(i) or a polynomial ring by the one
    elimination; 1 for an empty matrix, and Fraction(0) for a singular one
    over Q or Q(i)."""
    m = [[_as_entry(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if not m:
        return Fraction(1)
    r, sign, _ = _eliminate(m)
    last = m[-1][-1]
    if r < n:
        # the last row is zero: the ring's zero
        return last if isinstance(last, MultiPoly) else Fraction(0)
    return -last if sign < 0 else last
