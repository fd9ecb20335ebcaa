"""Tangent distributions on real hypersurfaces in R^4 and the leaf diagnostics.

At a smooth, non-exceptional point p of Z(P) the distribution E_p is the
exact kernel of [grad P(p); J grad P(p)] -- the complex tangent line, a
two-dimensional, J-invariant subspace of the tangent space
(`distribution_frame`).  An embedded complex curve u + iv = 0 is tangent to
E at p when [grad u; grad v] and [grad P(p); J grad P(p)] have the same row
space (both have rank 2 there, so their kernels then agree).

E_p has one complex dimension, so the Levi form of Z(P) is one number at
each point.  With g = grad P, H = Hess P and Kg = (g3, -g4, -g1, g2), which
spans E together with JKg, it is

    lambda = (Kg)^T H (Kg) + (JKg)^T H (JKg)          (`_levi_scalar`),

of degree 2 in g and 1 in H.  The polynomial frame fields
X_i = |g|^2 e_i - g_i g - (Jg)_i Jg span E away from a degeneracy locus, and
the bracket defect <[X_i, X_j], J grad P> of a pair is q_ij lambda, with
q_ij = <X_i, J X_j> / |g|^2 read from one table (`_pair_table`):

    q_01 = -(g3^2 + g4^2),   q_23 = -(g1^2 + g2^2),
    q_03 = -q_12 = g1 g3 + g2 g4,   q_02 = q_13 = g2 g3 - g1 g4,   q_ji = -q_ij.

A pair is degenerate iff q_ij = 0, and the default pair is the first, in
lexicographic order, with the largest q_ij^2.  The same two pieces give the
defect at a point (`bracket_defect`) and as a polynomial
(`bracket_defect_polynomial`) from grad P and Hess P, which `Hypersurface`
builds once.  Neither the defect nor leaf tangency builds E_p; the symbolic
fields and their Lie bracket are the reference the tests hold them to.

At a point every question is asked of integers.  Whether P, u or v
vanishes there is read from its Gaussian-integer sum (`poly._vanishes`), and
each value vector (grad P(p), grad u and grad v, the Hessian values) is its
primitive integer multiple, read from the same sums over their scales
(`poly._primitive_at`) without building a Fraction per value; the frame of
E_p is scaled the same way (`poly._primitive`).  Orthogonality, rank, equal
row spans, exceptional-plane membership and the pair choice do not change
under positive scaling, and the defect is homogeneous of degree 4 in grad P
and 1 in Hess P, so `bracket_defect` divides once, exactly, to return to Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
from .poly import (
    GaussianRational,
    MultiPoly,
    _primitive,
    _primitive_at,
    _real,
    _vanishes,
    check_invariant,
)


class ExceptionalPointError(ValueError):
    """Tangent plane contains one of the exceptional complex planes."""


class FrameDegenerateError(ValueError):
    """Chosen frame fields are linearly dependent at the point."""


@dataclass(frozen=True)
class Hypersurface:
    """Real hypersurface Z(P) in R^4.  Irreducibility is declared by the
    caller, never verified (no real factorization in scope).  P is held
    over Q: a real coefficient written in Q(i) is read as its rational
    twin (`poly._real`), and a non-real one raises ValueError.
    `contains`, `distribution_frame`, `bracket_defect` and
    `leaf_tangency_check` read the coordinates of their points by the same
    rule.

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
                e: _real(c) for e, c in self.P.terms.items()}))
        grad = tuple(self.P.partial(k) for k in range(4))
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", {(a, b): grad[a].partial(b)
                                          for a in range(4) for b in range(a, 4)})

    def contains(self, p: Sequence) -> bool:
        return _vanishes(self.P, [_real(c) for c in p], {})


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
    p = tuple(_real(c) for c in p)
    G, a, b = _smooth_gradient(Z, p, {})
    basis = kernel_basis([list(G), list(j_apply(G))])
    check_invariant(len(basis) == 2, "E_p must be two-dimensional")
    _check_frame_invariants(G, [_primitive(v)[0] for v in basis])
    g = tuple(Fraction(c * b, a) for c in G)
    return DistributionFrame(p, g, j_apply(g), tuple(tuple(v) for v in basis))


def _smooth_gradient(Z: Hypersurface, p: tuple, cache: dict) -> tuple[tuple, int, int]:
    """(G, a, b) with G = (a/b) grad P(p) primitive (`poly._primitive_at`),
    once p (Fractions, with monomial cache `cache`) is known to be a point
    of Z(P) where grad P is nonzero and the tangent plane contains no
    exceptional plane."""
    if not _vanishes(Z.P, p, cache):
        raise ValueError(f"point {p} is not on the hypersurface")
    G, a, b = _primitive_at(Z.grad, p, cache)
    if not any(G):
        raise SingularPointError(f"gradient vanishes at {p}")
    if pi_containment(G) is not PiContainment.NONE:
        raise ExceptionalPointError(f"tangent plane at {p} contains an exceptional plane")
    return G, a, b


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


def _check_pair(i, j):
    """The frame-pair rule: two distinct coordinate indices in 0..3."""
    if i is None or j is None:
        raise ValueError("name both frame indices, or neither")
    if i == j:
        raise ValueError("frame indices must differ")
    if not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("coordinate index out of range")


def _pair_table(g: Sequence) -> dict:
    """q_ij = <X_i, J X_j> / |g|^2 for the frame X_i = |g|^2 e_i - g_i g - (Jg)_i Jg
    of g = grad P, for all 12 ordered pairs, the pairs i < j first and in
    lexicographic order, over any commutative ring.  The squared area of
    X_i wedge X_j is (|g|^2 q_ij)^2, so a pair is degenerate iff q_ij = 0, and
    q_01 + q_23 = -|g|^2 leaves some pair independent wherever g != 0."""
    g1, g2, g3, g4 = g
    s, t = g1 * g3 + g2 * g4, g2 * g3 - g1 * g4
    q = {(0, 1): -(g3 * g3 + g4 * g4), (0, 2): t, (0, 3): s,
         (1, 2): -s, (1, 3): t, (2, 3): -(g1 * g1 + g2 * g2)}
    q.update({(j, i): -v for (i, j), v in list(q.items())})
    return q


def _levi_scalar(g: Sequence, hess: dict):
    """lambda = (Kg)^T H (Kg) + (JKg)^T H (JKg), Kg = (g3, -g4, -g1, g2), for
    g = grad P and the Hessian table `hess` (keys (a, b) with a <= b), over
    any commutative ring.  Expanded, its coefficients are entries of the
    q table of g."""
    q, h = _pair_table(g), hess
    return (2 * (q[0, 2] * (h[0, 3] - h[1, 2]) - q[0, 3] * (h[0, 2] + h[1, 3]))
            - q[0, 1] * (h[0, 0] + h[1, 1]) - q[2, 3] * (h[2, 2] + h[3, 3]))


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
    with c, e > 0.  q(G) = c^2 q(grad P(p)) keeps the pair choice, and the
    defect L = q_ij(G) lambda(G, K) is c^4 e times the one at p, so
    raw = L / (c^4 e) and normalized = raw / |grad P(p)|^6 = L c^2 / (e |G|^6).
    """
    point = tuple(_real(c) for c in p)
    cache: dict = {}
    G, cn, cd = _smooth_gradient(Z, point, cache)
    q = _pair_table(G)
    if i is None and j is None:
        i, j = max(list(q)[:6], key=lambda ij: q[ij] ** 2)
    else:
        _check_pair(i, j)
        if q[i, j] == 0:
            raise FrameDegenerateError(f"frame pair ({i},{j}) degenerate at {p}; "
                                       "choose another pair")
    K, en, ed = _primitive_at(Z.hess.values(), point, cache)
    L = q[i, j] * _levi_scalar(G, dict(zip(Z.hess, K)))
    raw = Fraction(L * cd**4 * ed, cn**4 * en)
    n2 = sum(c * c for c in G)
    return BracketDefect(raw, Fraction(L * cn * cn * ed, cd * cd * en * n2**3), (i, j))


def bracket_defect_polynomial(Z: Hypersurface, i: int, j: int) -> MultiPoly:
    """The defect as a polynomial <[X_i,X_j], J grad P> = q_ij lambda; on
    Levi-flat hypersurfaces its restriction to Z(P) vanishes (divisible by P)."""
    _check_pair(i, j)
    return _pair_table(Z.grad)[i, j] * _levi_scalar(Z.grad, Z.hess)


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
    du, dv = pair.gradients
    records = []
    for raw in samples:
        p = tuple(_real(c) for c in raw)
        cache: dict = {}
        if not (_vanishes(pair.u, p, cache) and _vanishes(pair.v, p, cache)):
            records.append(TangencyRecord(p, "skip", "point not on the curve"))
            continue
        gu = _primitive_at(du, p, cache)[0]
        gv = _primitive_at(dv, p, cache)[0]
        if rank([gu, gv]) != 2:
            records.append(TangencyRecord(p, "skip", "curve not regular at point"))
            continue
        try:
            G = _smooth_gradient(Z, p, cache)[0]
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
        pair_g = realify(g)  # g is in (z1, z2) with z2-exponent 0: u_g, v_g in (x1, y1)
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
    pad = [GaussianRational(0)] * (g.num_vars - 1)
    return [iota((z1, g.evaluate([z1, *pad]) + c)) for z1 in z1_values]
