"""Exact linear algebra over Q, Q(i), and polynomial rings.

Rank and kernels use fraction-free (Bareiss-style) elimination with a
deterministic pivot rule (first nonzero entry in row-major scan order),
so results are reproducible and independent of evaluation order.  Entries
are Fraction or GaussianRational; plain operators mix them (see `poly`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Coef, GaussianRational, MultiPoly


def _as_field(x) -> Coef:
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    return Fraction(x)


def _eliminate(m: list[list]) -> tuple[int, int, Coef]:
    """Fraction-free elimination of m in place: (rank, sign of the row
    permutation, last pivot).  For a square m of full rank the last pivot
    times the sign is det m."""
    if not m:
        return 0, 1, Fraction(1)
    n_rows, n_cols = len(m), len(m[0])
    prev = Fraction(1)
    sign = 1
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][col]
        for i in range(r + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (pivot * m[i][j] - m[i][col] * m[r][j]) / prev
            m[i][col] = Fraction(0)
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return r, sign, prev


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by fraction-free elimination."""
    return _eliminate([[_as_field(x) for x in row] for row in rows])[0]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row-echelon form over the field; returns (matrix, pivot cols)."""
    m = [[_as_field(x) for x in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col]:
                pivot_row = i
                break
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


def det(rows: Sequence[Sequence]) -> Coef:
    """Exact determinant over Q or Q(i) by `rank`'s elimination; 1 for an
    empty matrix."""
    m = [[_as_field(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    r, sign, last = _eliminate(m)
    if r < n:
        return Fraction(0)
    return -last if sign < 0 else last


def bareiss_det_poly(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant of a matrix of polynomials; all interior
    divisions are exact in the polynomial ring."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nv = rows[0][0].num_vars
    m = [list(row) for row in rows]
    one = MultiPoly.constant(1, nv)
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return MultiPoly.zero(nv)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result
