"""The C^2 <-> R^4 dictionary: embedding, real/imaginary splitting of complex
polynomials, Cauchy-Riemann verification, the complex-structure map J, and
the two exceptional planes where the CR gradient vectors degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .linalg import rank
from .poly import GaussianRational, I_UNIT, InvariantError, MultiPoly, gradient

# Canonical bases of the two exceptional complex 2-planes in C^4.
# PI1 = {a2 = -i a1, a4 = -i a3}; PI2 is its complex conjugate.
PI1_BASIS = (
    (GaussianRational(1), GaussianRational(0, -1), GaussianRational(0), GaussianRational(0)),
    (GaussianRational(0), GaussianRational(0), GaussianRational(1), GaussianRational(0, -1)),
)
PI2_BASIS = tuple(tuple(c.conjugate() for c in v) for v in PI1_BASIS)


@dataclass(frozen=True)
class ComplexCurve:
    """An affine complex plane curve cut out by f(z1, z2) = 0."""

    f: MultiPoly
    degree_bound: int | None = None

    def __post_init__(self):
        if self.f.num_vars != 2:
            raise ValueError("curve polynomial must be in (z1, z2)")
        if self.f.is_zero:
            raise ValueError("curve polynomial must be nonzero")
        if self.degree_bound is None:
            object.__setattr__(self, "degree_bound", self.f.total_degree)
        elif self.f.total_degree > self.degree_bound:
            raise ValueError("degree exceeds the declared bound")


@dataclass(frozen=True)
class RealPair:
    """Real and imaginary parts of a complex polynomial after the embedding."""

    u: MultiPoly
    v: MultiPoly

    def __post_init__(self):
        if self.u.num_vars != 4 or self.v.num_vars != 4:
            raise ValueError("real pair lives in (x1, y1, x2, y2)")


def iota(point: Sequence) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(z1, z2) -> (Re z1, Im z1, Re z2, Im z2)."""
    z1, z2 = (GaussianRational.coerce(z) for z in point)
    return (z1.re, z1.im, z2.re, z2.im)


def iota_inv(point: Sequence) -> tuple[GaussianRational, GaussianRational]:
    x1, y1, x2, y2 = (Fraction(c) for c in point)
    return (GaussianRational(x1, y1), GaussianRational(x2, y2))


def realify(curve: ComplexCurve | MultiPoly) -> RealPair:
    """Substitute z_k = x_k + i*y_k and split into real and imaginary parts.

    For every point p in C^2: f(p) = u(iota(p)) + i * v(iota(p)) exactly.
    """
    f = curve.f if isinstance(curve, ComplexCurve) else curve
    if f.num_vars != 2:
        raise ValueError("expected a polynomial in (z1, z2)")
    x1, y1, x2, y2 = (MultiPoly.variable(k, 4) for k in range(4))
    i4 = MultiPoly.constant(I_UNIT, 4)
    expanded = f.substitute([x1 + i4 * y1, x2 + i4 * y2])
    u_terms, v_terms = {}, {}
    for exp, coef in expanded.terms.items():
        c = GaussianRational.coerce(coef)
        if c.re:
            u_terms[exp] = c.re
        if c.im:
            v_terms[exp] = c.im
    return RealPair(MultiPoly(4, u_terms), MultiPoly(4, v_terms))


def check_cauchy_riemann(pair: RealPair) -> tuple[bool, list[MultiPoly]]:
    """True iff the four CR difference polynomials vanish identically.

    Variable layout: (x1, y1, x2, y2); for k = 1, 2 the equations are
    du/dx_k = dv/dy_k and du/dy_k = -dv/dx_k.  Residuals are returned
    for diagnostics.
    """
    u, v = pair.u, pair.v
    residuals = [
        u.partial(0) - v.partial(1),
        u.partial(1) + v.partial(0),
        u.partial(2) - v.partial(3),
        u.partial(3) + v.partial(2),
    ]
    return all(r.is_zero for r in residuals), residuals


def j_apply(w: Sequence) -> tuple:
    """The complex-structure map (x1,y1,x2,y2) -> (-y1,x1,-y2,x2); J o J = -id."""
    if len(w) != 4:
        raise ValueError("J acts on 4-vectors")
    return (-w[1], w[0], -w[3], w[2])


class CRClass(Enum):
    INDEPENDENT = "independent"
    DEPENDENT_PLUS_I = "dependent(+i)"
    DEPENDENT_MINUS_I = "dependent(-i)"
    ZERO = "zero"


def classify_cr_vector(a: Sequence) -> CRClass:
    """Classify a in C^4 against the vector (-a2, a1, -a4, a3).

    Either the two are linearly independent over C, or a2 = -lambda*a1 and
    a4 = -lambda*a3 for lambda in {+i, -i} (the zero vector is tagged
    separately for testability).
    """
    a = [GaussianRational.coerce(c) for c in a]
    if len(a) != 4:
        raise ValueError("expected a vector in C^4")
    if all(c.is_zero for c in a):
        return CRClass.ZERO
    ja = j_apply(a)
    if rank([a, list(ja)]) == 2:
        return CRClass.INDEPENDENT
    for lam, tag in ((I_UNIT, CRClass.DEPENDENT_PLUS_I),
                     (-I_UNIT, CRClass.DEPENDENT_MINUS_I)):
        if a[1] == -lam * a[0] and a[3] == -lam * a[2]:
            return tag
    raise InvariantError("dependent CR vector with no witnessing lambda")


class PiContainment(Enum):
    NONE = "none"
    PI1 = "pi1"
    PI2 = "pi2"
    BOTH = "both"


class SingularPointError(ValueError):
    """Gradient vanishes: the tangent-plane test is inapplicable."""


def tangent_contains_pi(P: MultiPoly, p: Sequence) -> PiContainment:
    """Does the (complexified) tangent hyperplane of Z(P) at p contain one of
    the exceptional planes?  Decided by pairing grad P(p) against the plane
    bases, exactly."""
    if P.num_vars != 4:
        raise ValueError("hypersurface polynomial must be in 4 variables")
    grad = gradient(P, p)
    if all(not g for g in (GaussianRational.coerce(c) for c in grad)):
        raise SingularPointError(f"gradient vanishes at {p}")
    return pi_containment(grad)


def pi_containment(grad: Sequence) -> PiContainment:
    """Which exceptional planes the nonzero gradient grad annihilates, that
    is, which ones the tangent hyperplane it defines contains."""
    gc = [GaussianRational.coerce(c) for c in grad]

    def annihilates(basis):
        return all(
            sum((gi * bi for gi, bi in zip(gc, bv)), GaussianRational(0)).is_zero
            for bv in basis
        )

    in1 = annihilates(PI1_BASIS)
    in2 = annihilates(PI2_BASIS)
    if in1 and in2:
        return PiContainment.BOTH
    if in1:
        return PiContainment.PI1
    if in2:
        return PiContainment.PI2
    return PiContainment.NONE
