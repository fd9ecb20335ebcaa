"""Tangent distributions on real hypersurfaces in R^4 and the leaf diagnostics.

At a smooth, non-exceptional point p of Z(P) the distribution E_p is the
exact kernel of [grad P(p); J grad P(p)] -- a two-dimensional, J-invariant
subspace of the tangent space.  Polynomial frame fields spanning E away
from a degeneracy locus let us measure involutivity as an exact rational
"bracket defect".  An embedded complex curve u + iv = 0 is tangent to E at
p when [grad u; grad v] and [grad P(p); J grad P(p)] have the same row space
(both have rank 2 there, so their kernels then agree).

`Hypersurface` builds grad P and Hess P once; nothing differentiates P per
point.  One closed form in grad P and Hess P, `_levi_defect`, gives the
defect at a point (`bracket_defect`) and as a polynomial
(`bracket_defect_polynomial`).  The symbolic fields and their Lie bracket
are the reference the tests hold it to; no program path uses them.

At a point every question is asked of integers.  Each rational vector
(grad P(p), the frame of E_p, grad u and grad v, the Hessian values) is
replaced by its primitive integer multiple (`_primitive`): orthogonality,
rank, equal row spans and the widest pair do not change under positive
scaling, and the defect is homogeneous of degree 4 in grad P and 1 in
Hess P, so `bracket_defect` divides once, exactly, to return to Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .cr import (
    ComplexCurve,
    PiContainment,
    SingularPointError,
    iota,
    j_apply,
    pi_containment,
    realify,
)
from .linalg import kernel_basis, rank, same_span
from .poly import GaussianRational, MultiPoly, check_invariant


class ExceptionalPointError(ValueError):
    """Tangent plane contains one of the exceptional complex planes."""


class FrameDegenerateError(ValueError):
    """Chosen frame fields are linearly dependent at the point."""


@dataclass(frozen=True)
class Hypersurface:
    """Real hypersurface Z(P) in R^4.  Irreducibility is declared by the
    caller, never verified (no real factorization in scope).  P is held
    over Q, also when its real coefficients are given as Gaussian rationals.

    `grad` holds the four first partials of P and `hess` the ten distinct
    second partials, keyed by (a, b) with a <= b; both are built once."""

    P: MultiPoly
    grad: tuple = field(init=False, repr=False, compare=False)
    hess: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.P.num_vars != 4:
            raise ValueError("hypersurface polynomial must be in (x1,y1,x2,y2)")
        if self.P.is_zero:
            raise ValueError("hypersurface polynomial must be nonzero")
        if self.P.is_gaussian:
            raise ValueError("hypersurface polynomial must have rational coefficients")
        if any(isinstance(c, GaussianRational) for c in self.P.terms.values()):
            object.__setattr__(self, "P", MultiPoly(4, {
                e: getattr(c, "re", c) for e, c in self.P.terms.items()}))
        grad = tuple(self.P.partial(k) for k in range(4))
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", {(a, b): grad[a].partial(b)
                                          for a in range(4) for b in range(a, 4)})

    def contains(self, p: Sequence) -> bool:
        return self.P.evaluate(p) == 0


@dataclass(frozen=True)
class DistributionFrame:
    base_point: tuple
    grad: tuple
    jgrad: tuple
    e_basis: tuple  # two vectors spanning E_p


def _primitive(v: Sequence) -> tuple[tuple, int, int]:
    """(w, a, b) with w = (a/b) v the primitive integer multiple of the
    rational vector v and a, b > 0; the zero vector gives itself, a = b."""
    a = lcm(*(x.denominator for x in v))
    w = [x.numerator * (a // x.denominator) for x in v]
    b = gcd(*w) or a
    return tuple(x // b for x in w), a, b


def distribution_frame(Z: Hypersurface, p: Sequence) -> DistributionFrame:
    """Exact frame for E_p = kernel [grad P(p); J grad P(p)].

    Raises SingularPointError off the smooth locus and
    ExceptionalPointError at points whose tangent plane contains an
    exceptional plane.
    """
    return _frame(Z, p)[0]


def _frame(Z: Hypersurface, p: Sequence) -> tuple[DistributionFrame, tuple, dict]:
    """The frame at p, `_primitive(grad P(p))` and the monomial cache of p
    for further evaluation at p."""
    p = tuple(Fraction(c) for c in p)
    cache: dict = {}
    if Z.P.evaluate(p, cache) != 0:
        raise ValueError(f"point {p} is not on the hypersurface")
    g = tuple(d.evaluate(p, cache) for d in Z.grad)
    if all(c == 0 for c in g):
        raise SingularPointError(f"gradient vanishes at {p}")
    if pi_containment(g) is not PiContainment.NONE:
        raise ExceptionalPointError(f"tangent plane at {p} contains an exceptional plane")
    scaled = _primitive(g)
    G = scaled[0]
    basis = kernel_basis([list(G), list(j_apply(G))])
    check_invariant(len(basis) == 2, "E_p must be two-dimensional")
    _check_frame_invariants(G, [_primitive(v)[0] for v in basis])
    frame = DistributionFrame(p, g, j_apply(g), tuple(tuple(v) for v in basis))
    return frame, scaled, cache


def _check_frame_invariants(g: Sequence[int], basis: list[tuple]):
    """Raises InvariantError if the frame breaks an exact identity.  g and the
    basis vectors are primitive integer multiples of grad P(p) and of the
    frame of E_p: no check depends on a positive scale."""
    jg = j_apply(g)
    check_invariant(sum(a * b for a, b in zip(g, jg)) == 0, "grad P must be orthogonal to J grad P")
    for v in basis:
        check_invariant(sum(a * b for a, b in zip(v, g)) == 0, "E_p must be orthogonal to grad P")
        check_invariant(sum(a * b for a, b in zip(v, jg)) == 0,
                        "E_p must be orthogonal to J grad P")
    check_invariant(rank(basis) == 2, "E_p must be two-dimensional")
    jspan = [j_apply(v) for v in basis]
    check_invariant(same_span(basis, jspan), "E_p must be J-invariant")


@dataclass(frozen=True)
class PolyVectorField:
    components: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]

    def __post_init__(self):
        if len(self.components) != 4:
            raise ValueError("vector field on R^4 needs 4 components")
        if any(c.num_vars != 4 for c in self.components):
            raise ValueError("components must be polynomials in 4 variables")

    def evaluate(self, p: Sequence) -> tuple:
        return tuple(c.evaluate(p) for c in self.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __neg__(self):
        return PolyVectorField(tuple(-c for c in self.components))

    def __sub__(self, other):
        return self + (-other)


def lie_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """[X, Y] with components (DY) X - (DX) Y, computed exactly."""
    comps = []
    for i in range(4):
        total = MultiPoly.zero(4)
        for k in range(4):
            total = total + Y.components[i].partial(k) * X.components[k]
            total = total - X.components[i].partial(k) * Y.components[k]
        comps.append(total)
    return PolyVectorField(tuple(comps))


def tangent_frame_field(Z: Hypersurface, i: int) -> PolyVectorField:
    """Polynomial field |grad P|^2 e_i - <e_i,grad P> grad P - <e_i,J grad P> J grad P;
    everywhere orthogonal to grad P and J grad P, hence valued in E at
    smooth non-exceptional points."""
    if not 0 <= i < 4:
        raise ValueError("coordinate index out of range")
    G, JG = Z.grad, j_apply(Z.grad)
    n2 = sum((g * g for g in G), MultiPoly.zero(4))
    comps = []
    for l in range(4):
        c = -G[i] * G[l] - JG[i] * JG[l]
        if l == i:
            c = c + n2
        comps.append(c)
    return PolyVectorField(tuple(comps))


def _frame_vectors(g: Sequence) -> list[tuple]:
    """X_0, ..., X_3 from g = grad P, at a point or as polynomials:
    X_i = |g|^2 e_i - g_i g - (Jg)_i Jg."""
    jg = j_apply(g)
    n2 = sum(c * c for c in g)
    return [
        tuple((n2 if l == i else 0) - g[i] * g[l] - jg[i] * jg[l] for l in range(4))
        for i in range(4)
    ]


def _gram(a: Sequence, b: Sequence):
    """|a|^2 |b|^2 - <a, b>^2, the squared area of a wedge b: zero iff a, b are dependent."""
    ab = sum(x * y for x, y in zip(a, b))
    return sum(x * x for x in a) * sum(y * y for y in b) - ab * ab


def _widest_pair(values: list[tuple], p: Sequence) -> tuple[int, int]:
    """Deterministic frame choice: the (i, j) maximizing the squared area of
    X_i(p) wedge X_j(p), ties broken lexicographically."""
    best = None
    best_area = -1
    for i in range(4):
        for j in range(i + 1, 4):
            area = _gram(values[i], values[j])
            if area > best_area:
                best_area = area
                best = (i, j)
    if best_area == 0:
        raise FrameDegenerateError(f"no independent frame pair at {p}")
    return best


def _check_pair(i, j):
    """The frame-pair rule: two distinct coordinate indices in 0..3."""
    if i is None or j is None:
        raise ValueError("name both frame indices, or neither")
    if i == j:
        raise ValueError("frame indices must differ")
    if not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("coordinate index out of range")


def _levi_defect(g: Sequence, hess: dict, values: Sequence, i: int, j: int):
    """<[X_i, X_j], J grad P> from g = grad P, the Hessian table `hess` and the
    frame values X_0..X_3, over any commutative ring: rationals at a point, or
    the polynomials themselves.  With w_a[k] = <d_k X_a, Jg>, the pairing is
    sum_k X_i[k] w_j[k] - X_j[k] w_i[k], and differentiating
    X_a = |g|^2 e_a - g_a g - (Jg)_a Jg gives, using the polynomial identities
    <g, Jg> = 0 and |Jg| = |g|, w_a[k] = (Jg)_a (Hg)_k - g_a (H Jg)_k - |g|^2 (JH)_ak."""
    jg = j_apply(g)
    H = [[hess[min(a, b), max(a, b)] for b in range(4)] for a in range(4)]
    hg = [sum(h * c for h, c in zip(row, g)) for row in H]
    hjg = [sum(h * c for h, c in zip(row, jg)) for row in H]
    jh_cols = [j_apply(row) for row in H]  # column k of J H, as H is symmetric
    n2 = sum(c * c for c in g)

    def w(a):
        return [jg[a] * hg[k] - g[a] * hjg[k] - n2 * jh_cols[k][a] for k in range(4)]

    wi, wj = w(i), w(j)
    return sum(x * b - y * a for x, y, a, b in zip(values[i], values[j], wi, wj))


@dataclass(frozen=True)
class BracketDefect:
    raw: Fraction
    normalized: Fraction  # raw / |grad P(p)|^6, the frame homogeneity degree
    indices: tuple[int, int]


def bracket_defect(
    Z: Hypersurface, p: Sequence, i: int | None = None, j: int | None = None
) -> BracketDefect:
    """Exact pairing <[X_i, X_j](p), J grad P(p)>; zero iff the bracket stays
    in E_p at p (the grad-P pairing vanishes automatically for fields
    tangent to level sets).  Name both frame indices, or neither for the
    widest pair at p.  Equals `bracket_defect_polynomial(Z, i, j)` at p.

    It runs on G = c grad P(p) and K = e Hess P(p), integer and primitive
    with c, e > 0.  X(G) = c^2 X(grad P(p)) keeps the pair choice, and the
    defect L of (G, K) is c^4 e times the one at p, so raw = L / (c^4 e)
    and normalized = raw / |grad P(p)|^6 = L c^2 / (e |G|^6).
    """
    frame, (G, cn, cd), cache = _frame(Z, p)
    values = _frame_vectors(G)
    if i is None and j is None:
        i, j = _widest_pair(values, p)
    else:
        _check_pair(i, j)
        if _gram(values[i], values[j]) == 0:
            raise FrameDegenerateError(f"frame pair ({i},{j}) degenerate at {p}; "
                                       "choose another pair")
    K, en, ed = _primitive([d.evaluate(frame.base_point, cache) for d in Z.hess.values()])
    L = _levi_defect(G, dict(zip(Z.hess, K)), values, i, j)
    raw = Fraction(L * cd**4 * ed, cn**4 * en)
    n2 = sum(c * c for c in G)
    return BracketDefect(raw, Fraction(L * cn * cn * ed, cd * cd * en * n2**3), (i, j))


def bracket_defect_polynomial(Z: Hypersurface, i: int, j: int) -> MultiPoly:
    """The defect as a polynomial <[X_i,X_j], J grad P>; on Levi-flat
    hypersurfaces its restriction to Z(P) vanishes (divisible by P)."""
    _check_pair(i, j)
    return _levi_defect(Z.grad, Z.hess, _frame_vectors(Z.grad), i, j)


# -- leaf tangency and containment -------------------------------------------


@dataclass(frozen=True)
class TangencyRecord:
    point: tuple
    status: str  # "pass" | "fail" | "skip"
    reason: str = ""


def leaf_tangency_check(
    Z: Hypersurface, curve: ComplexCurve, samples: Sequence[Sequence]
) -> list[TangencyRecord]:
    """At each sample, verify exactly that the embedded curve's tangent plane
    kernel([grad u; grad v]) equals E_p, as equality of the row spaces of
    [grad u; grad v] and [grad P(p); J grad P(p)], each row scaled to its
    primitive integer multiple."""
    pair = realify(curve)
    du = [pair.u.partial(k) for k in range(4)]
    dv = [pair.v.partial(k) for k in range(4)]
    records = []
    for raw in samples:
        p = tuple(Fraction(c) for c in raw)
        cache: dict = {}
        if pair.u.evaluate(p, cache) != 0 or pair.v.evaluate(p, cache) != 0:
            records.append(TangencyRecord(p, "skip", "point not on the curve"))
            continue
        gu = _primitive([d.evaluate(p, cache) for d in du])[0]
        gv = _primitive([d.evaluate(p, cache) for d in dv])[0]
        if rank([gu, gv]) != 2:
            records.append(TangencyRecord(p, "skip", "curve not regular at point"))
            continue
        try:
            G = _frame(Z, p)[1][0]
        except ValueError as exc:  # singular or exceptional point: inapplicable
            records.append(TangencyRecord(p, "skip", str(exc)))
            continue
        ok = same_span([gu, gv], [G, j_apply(G)])
        records.append(
            TangencyRecord(p, "pass" if ok else "fail",
                           "" if ok else "tangent plane differs from E_p")
        )
    return records


@dataclass(frozen=True)
class ContainmentResult:
    status: str  # "true" | "false" | "unknown"
    residual: MultiPoly | None = None

    def __bool__(self):
        return self.status == "true"


def graph_form(curve: ComplexCurve) -> MultiPoly | None:
    """If the curve is c*(z2 - g(z1)) for a constant c, return g; else None."""
    f = curve.f
    if f.degree_in(1) != 1:
        return None
    coeffs = f.as_univariate(1)  # [f0(z1), f1(z1)]
    if coeffs[1].total_degree != 0:
        return None
    lead = coeffs[1].leading_coef()
    return coeffs[0] * (GaussianRational(-1) / GaussianRational.coerce(lead))


def containment_check(Z: Hypersurface, curve: ComplexCurve) -> ContainmentResult:
    """Does iota(curve) lie inside Z(P)?

    Graph-form curves z2 = g(z1) are decided symbolically by substituting the
    parametrization into P; every other curve gets "unknown".
    """
    g = graph_form(curve)
    if g is not None:
        # realify g as a map of z1 alone: embed g(z1) into (x1, y1) variables
        g2 = MultiPoly(2, {(e[0], 0): c for e, c in g.terms.items()})
        pair_g = realify(ComplexCurve(g2))  # u_g, v_g in (x1,y1,_,_)
        x1, y1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
        residual = Z.P.substitute([x1, y1, pair_g.u, pair_g.v])
        status = "true" if residual.is_zero else "false"
        return ContainmentResult(status, residual)
    # no parametrization: deciding needs root solving over Q(i)
    return ContainmentResult("unknown")


def leaf_sample_points(
    g: MultiPoly, c: Fraction, z1_values: Sequence[GaussianRational]
) -> list[tuple]:
    """Exact points of iota(z2 = g(z1) + c) for given z1 values."""
    pts = []
    pad = [GaussianRational(0)] * (g.num_vars - 1)
    for z1 in z1_values:
        z1 = GaussianRational.coerce(z1)
        z2 = GaussianRational.coerce(g.evaluate([z1] + pad)) + GaussianRational.coerce(c)
        pts.append(iota((z1, z2)))
    return pts
