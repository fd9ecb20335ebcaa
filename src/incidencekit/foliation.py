"""Tangent distributions on real hypersurfaces in R^4 and the leaf diagnostics.

At a smooth, non-exceptional point p of Z(P) the distribution E_p is the
exact kernel of [grad P(p); J grad P(p)] -- a two-dimensional, J-invariant
subspace of the tangent space.  Polynomial frame fields spanning E away
from a degeneracy locus let us measure involutivity as an exact rational
"bracket defect", and the tangency of embedded complex curves is checked
as exact subspace equality.

`bracket_defect` evaluates the defect at a point from the gradient and the
Hessian of P there: the frame fields' values and first derivatives at p are
closed forms in those, so no polynomial field is built per point.  The
symbolic fields (`tangent_frame_field`, `lie_bracket`,
`bracket_defect_polynomial`) give the same exact values and serve as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cr import (
    ComplexCurve,
    PiContainment,
    RealPair,
    SingularPointError,
    iota,
    j_apply,
    pi_containment,
    realify,
)
from .linalg import in_span, kernel_basis, rank, same_span
from .poly import GaussianRational, MultiPoly, check_invariant, gradient


class ExceptionalPointError(ValueError):
    """Tangent plane contains one of the exceptional complex planes."""


class FrameDegenerateError(ValueError):
    """Chosen frame fields are linearly dependent at the point."""


@dataclass(frozen=True)
class Hypersurface:
    """Real hypersurface Z(P) in R^4.  Irreducibility is declared by the
    caller, never verified (no real factorization in scope)."""

    P: MultiPoly
    degree_bound: int | None = None

    def __post_init__(self):
        if self.P.num_vars != 4:
            raise ValueError("hypersurface polynomial must be in (x1,y1,x2,y2)")
        if self.P.is_zero:
            raise ValueError("hypersurface polynomial must be nonzero")
        if self.P.is_gaussian:
            raise ValueError("hypersurface polynomial must have rational coefficients")
        if self.degree_bound is None:
            object.__setattr__(self, "degree_bound", self.P.total_degree)

    def contains(self, p: Sequence) -> bool:
        return self.P.evaluate(p) == 0


@dataclass(frozen=True)
class DistributionFrame:
    base_point: tuple
    grad: tuple
    jgrad: tuple
    e_basis: tuple  # two vectors spanning E_p


def distribution_frame(Z: Hypersurface, p: Sequence) -> DistributionFrame:
    """Exact frame for E_p = kernel [grad P(p); J grad P(p)].

    Raises SingularPointError off the smooth locus and
    ExceptionalPointError at points whose tangent plane contains an
    exceptional plane.
    """
    p = tuple(Fraction(c) for c in p)
    if not Z.contains(p):
        raise ValueError(f"point {p} is not on the hypersurface")
    g = tuple(gradient(Z.P, p))
    if all(c == 0 for c in g):
        raise SingularPointError(f"gradient vanishes at {p}")
    if pi_containment(g) is not PiContainment.NONE:
        raise ExceptionalPointError(f"tangent plane at {p} contains an exceptional plane")
    jg = j_apply(g)
    basis = kernel_basis([list(g), list(jg)])
    check_invariant(len(basis) == 2, "E_p must be two-dimensional")
    frame = DistributionFrame(p, g, tuple(jg), tuple(tuple(v) for v in basis))
    _check_frame_invariants(frame)
    return frame


def _check_frame_invariants(frame: DistributionFrame):
    """Raises InvariantError if the frame breaks an exact identity."""
    g, jg = frame.grad, frame.jgrad
    check_invariant(sum(a * b for a, b in zip(g, jg)) == 0, "grad P must be orthogonal to J grad P")
    for v in frame.e_basis:
        check_invariant(sum(a * b for a, b in zip(v, g)) == 0, "E_p must be orthogonal to grad P")
        check_invariant(sum(a * b for a, b in zip(v, jg)) == 0,
                        "E_p must be orthogonal to J grad P")
    check_invariant(rank(list(frame.e_basis)) == 2, "E_p must be two-dimensional")
    jspan = [list(j_apply(v)) for v in frame.e_basis]
    check_invariant(same_span(list(frame.e_basis), jspan), "E_p must be J-invariant")


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


def _grad_fields(P: MultiPoly) -> tuple[list[MultiPoly], list[MultiPoly], MultiPoly]:
    G = [P.partial(k) for k in range(4)]
    JG = list(j_apply(G))
    n2 = MultiPoly.zero(4)
    for g in G:
        n2 = n2 + g * g
    return G, JG, n2


def tangent_frame_field(Z: Hypersurface, i: int) -> PolyVectorField:
    """Polynomial field |grad P|^2 e_i - <e_i,grad P> grad P - <e_i,J grad P> J grad P;
    everywhere orthogonal to grad P and J grad P, hence valued in E at
    smooth non-exceptional points."""
    if not 0 <= i < 4:
        raise ValueError("coordinate index out of range")
    G, JG, n2 = _grad_fields(Z.P)
    comps = []
    for l in range(4):
        c = -G[i] * G[l] - JG[i] * JG[l]
        if l == i:
            c = c + n2
        comps.append(c)
    return PolyVectorField(tuple(comps))


def tangent_frame_fields(Z: Hypersurface, i: int, j: int):
    if i == j:
        raise ValueError("frame indices must differ")
    return tangent_frame_field(Z, i), tangent_frame_field(Z, j)


def _frame_vectors(g: Sequence) -> list[tuple]:
    """The values X_0(p), ..., X_3(p) of the frame fields, from g = grad P(p):
    X_i(p) = |g|^2 e_i - g_i g - (Jg)_i Jg."""
    jg = j_apply(g)
    n2 = sum(c * c for c in g)
    return [
        tuple((n2 if l == i else 0) - g[i] * g[l] - jg[i] * jg[l] for l in range(4))
        for i in range(4)
    ]


def _widest_pair(values: list[tuple], p: Sequence) -> tuple[int, int]:
    best = None
    best_area = Fraction(-1)
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = values[i], values[j]
            aa = sum(x * x for x in a)
            bb = sum(x * x for x in b)
            ab = sum(x * y for x, y in zip(a, b))
            area = aa * bb - ab * ab  # Gram determinant
            if area > best_area:
                best_area = area
                best = (i, j)
    if best_area == 0:
        raise FrameDegenerateError(f"no independent frame pair at {p}")
    return best


def choose_frame_indices(Z: Hypersurface, p: Sequence) -> tuple[int, int]:
    """Deterministic frame choice: the (i, j) maximizing the squared area of
    X_i(p) wedge X_j(p), ties broken lexicographically."""
    return _widest_pair(_frame_vectors(gradient(Z.P, p)), p)


@dataclass(frozen=True)
class BracketDefect:
    raw: Fraction
    normalized: Fraction  # raw / |grad P(p)|^6, the frame homogeneity degree
    indices: tuple[int, int]

    @property
    def is_involutive(self) -> bool:
        return self.raw == 0


def bracket_defect(
    Z: Hypersurface, p: Sequence, i: int | None = None, j: int | None = None
) -> BracketDefect:
    """Exact pairing <[X_i, X_j](p), J grad P(p)>; zero iff the bracket stays
    in E_p at p (the grad-P pairing vanishes automatically for fields
    tangent to level sets).

    Evaluated pointwise from g = grad P(p) and H = Hess P(p).  With
    w_a[k] = <d_k X_a(p), Jg>, the pairing is
    sum_k X_i(p)_k w_j[k] - X_j(p)_k w_i[k], and differentiating
    X_a = |G|^2 e_a - G_a G - (JG)_a JG gives, using <g, Jg> = 0 and
    |Jg| = |g|,  w_a[k] = (Jg)_a (Hg)_k - g_a (H Jg)_k - |g|^2 (JH)_ak.
    The result equals `bracket_defect_polynomial(Z, i, j)` at p exactly.
    """
    frame = distribution_frame(Z, p)
    g, jg = frame.grad, frame.jgrad
    values = _frame_vectors(g)
    if i is None or j is None:
        i, j = _widest_pair(values, p)
    elif i == j:
        raise ValueError("frame indices must differ")
    elif not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("coordinate index out of range")
    vi, vj = values[i], values[j]
    if rank([list(vi), list(vj)]) != 2:
        raise FrameDegenerateError(
            f"frame pair ({i},{j}) degenerate at {p}; choose another pair"
        )
    cache: dict = {}
    grad_polys = [Z.P.partial(k) for k in range(4)]
    H = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            H[a][b] = H[b][a] = grad_polys[a].partial(b).evaluate(frame.base_point, cache)
    hg = [sum(h * c for h, c in zip(row, g)) for row in H]
    hjg = [sum(h * c for h, c in zip(row, jg)) for row in H]
    jh_cols = [j_apply(row) for row in H]  # column k of J H, as H is symmetric
    n2 = sum(c * c for c in g)

    def w(a):
        return [jg[a] * hg[k] - g[a] * hjg[k] - n2 * jh_cols[k][a] for k in range(4)]

    wi, wj = w(i), w(j)
    raw = sum(x * b - y * a for x, y, a, b in zip(vi, vj, wi, wj))
    return BracketDefect(raw, raw / n2**3, (i, j))


def bracket_defect_polynomial(Z: Hypersurface, i: int, j: int) -> MultiPoly:
    """The defect as a polynomial <[X_i,X_j], J grad P>; on Levi-flat
    hypersurfaces its restriction to Z(P) vanishes (divisible by P)."""
    Xi, Xj = tangent_frame_fields(Z, i, j)
    bracket = lie_bracket(Xi, Xj)
    _, JG, _ = _grad_fields(Z.P)
    total = MultiPoly.zero(4)
    for b, jg in zip(bracket.components, JG):
        total = total + b * jg
    return total


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
    kernel([grad u; grad v]) equals E_p as subspaces."""
    pair = realify(curve)
    du = [pair.u.partial(k) for k in range(4)]
    dv = [pair.v.partial(k) for k in range(4)]
    records = []
    for raw in samples:
        p = tuple(Fraction(c) for c in raw)
        if pair.u.evaluate(p) != 0 or pair.v.evaluate(p) != 0:
            records.append(TangencyRecord(p, "skip", "point not on the curve"))
            continue
        cache: dict = {}
        gu = [d.evaluate(p, cache) for d in du]
        gv = [d.evaluate(p, cache) for d in dv]
        if rank([gu, gv]) != 2:
            records.append(TangencyRecord(p, "skip", "curve not regular at point"))
            continue
        try:
            frame = distribution_frame(Z, p)
        except ValueError as exc:  # singular or exceptional point: inapplicable
            records.append(TangencyRecord(p, "skip", str(exc)))
            continue
        tangent = kernel_basis([gu, gv])
        ok = same_span(tangent, list(frame.e_basis))
        records.append(
            TangencyRecord(p, "pass" if ok else "fail",
                           "" if ok else "tangent plane differs from E_p")
        )
    return records


@dataclass(frozen=True)
class ContainmentResult:
    status: str  # "true" | "false" | "unknown"
    residual: MultiPoly | None = None
    evidence: tuple = ()

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


def containment_check(
    Z: Hypersurface, curve: ComplexCurve, sample_budget: int = 64
) -> ContainmentResult:
    """Does iota(curve) lie inside Z(P)?

    Graph-form curves z2 = g(z1) are decided symbolically by substituting the
    parametrization into P; other curves get sampled evidence only.
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
    # no parametrization: dense sampling on the curve is unavailable without
    # root solving over Q(i); report point evidence on the curve's rational
    # locus if any coordinates happen to satisfy it -- conservatively unknown
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
