"""The C^2 <-> R^4 dictionary: embedding, real/imaginary splitting of complex
polynomials, Cauchy-Riemann verification, the complex-structure map J, and
the two exceptional planes where the CR gradient vectors degenerate.

Exceptional-plane membership has one test, `_exceptional_planes`; each
plane is its own annihilator under the bilinear pairing, so the same test
decides `pi_containment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import comb
from typing import Sequence

from .linalg import rank
from .poly import GaussianRational, InvariantError, MultiPoly, _parts, _real, gradient

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

    def __post_init__(self):
        if self.f.num_vars != 2:
            raise ValueError("curve polynomial must be in (z1, z2)")
        if self.f.is_zero:
            raise ValueError("curve polynomial must be nonzero")


@dataclass(frozen=True)
class RealPair:
    """Real and imaginary parts of a complex polynomial after the embedding."""

    u: MultiPoly
    v: MultiPoly

    def __post_init__(self):
        if self.u.num_vars != 4 or self.v.num_vars != 4:
            raise ValueError("real pair lives in (x1, y1, x2, y2)")

    @cached_property
    def gradients(self) -> tuple[tuple, tuple]:
        """(grad u, grad v): the four partials of u and of v, built once."""
        return (tuple(self.u.partial(k) for k in range(4)),
                tuple(self.v.partial(k) for k in range(4)))


def iota(point: Sequence) -> tuple:
    """(z1, z2) -> (Re z1, Im z1, Re z2, Im z2); a real coordinate is its own
    real part, as given, with imaginary part 0."""
    z1, z2 = point
    return (*_parts(z1), *_parts(z2))


def iota_inv(point: Sequence) -> tuple[GaussianRational, GaussianRational]:
    x1, y1, x2, y2 = (_real(c) for c in point)
    return (GaussianRational(x1, y1), GaussianRational(x2, y2))


def realify(curve: ComplexCurve | MultiPoly) -> RealPair:
    """Substitute z_k = x_k + i*y_k and split into real and imaginary parts.

    For every point p in C^2: f(p) = u(iota(p)) + i * v(iota(p)) exactly.
    Each term c z1^a z2^b expands by the binomial theorem into
    c C(a,k) C(b,l) i^(k+l) x1^(a-k) y1^k x2^(b-l) y2^l, and the exponent
    (a-k, k, b-l, l) names its (a, b, k, l), so no two products share a
    monomial: each is a coefficient of u or v as it stands.

    The pair is built once per polynomial and kept on it (the `_real_pair`
    slot of MultiPoly), so later calls return the same u and v, whose
    integer forms and gradients are then built once too.
    """
    f = curve.f if isinstance(curve, ComplexCurve) else curve
    if f._real_pair is not None:
        return f._real_pair
    if f.num_vars != 2:
        raise ValueError("expected a polynomial in (z1, z2)")
    u_terms, v_terms = {}, {}
    for (a, b), c in f.terms.items():
        re, im = _parts(c)
        # (Re, Im) of c * i^n for n = 0, 1, 2, 3
        turns = ((re, im), (-im, re), (-re, -im), (im, -re))
        for k in range(a + 1):
            for l in range(b + 1):
                binom = comb(a, k) * comb(b, l)
                c_re, c_im = turns[(k + l) % 4]
                exp = (a - k, k, b - l, l)
                if c_re:
                    u_terms[exp] = c_re * binom
                if c_im:
                    v_terms[exp] = c_im * binom
    object.__setattr__(f, "_real_pair", RealPair(MultiPoly(4, u_terms), MultiPoly(4, v_terms)))
    return f._real_pair


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


def _exceptional_planes(a: Sequence) -> tuple[bool, bool]:
    """(a in PI1, a in PI2) for rational or Gaussian rational entries: whether
    a2 = -lambda*a1 and a4 = -lambda*a3 for lambda = i and for lambda = -i,
    read from real and imaginary parts (a2 = -i*a1 iff re a2 = im a1 and
    im a2 = -re a1); the zero vector lies in both."""
    (r1, m1), (r2, m2), (r3, m3), (r4, m4) = map(_parts, a)
    return (r2 == m1 and m2 == -r1 and r4 == m3 and m4 == -r3,
            r2 == -m1 and m2 == r1 and r4 == -m3 and m4 == r3)


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
    in1, in2 = _exceptional_planes(a)
    if in1:
        return CRClass.DEPENDENT_PLUS_I
    if in2:
        return CRClass.DEPENDENT_MINUS_I
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
    if not any(grad):
        raise SingularPointError(f"gradient vanishes at {p}")
    return pi_containment(grad)


def pi_containment(grad: Sequence) -> PiContainment:
    """Which exceptional planes the nonzero gradient grad annihilates, that
    is, which ones the tangent hyperplane it defines contains.  A plane is
    annihilated exactly by its own members, so this is plane membership."""
    in1, in2 = _exceptional_planes(grad)
    if in1 == in2:
        return PiContainment.BOTH if in1 else PiContainment.NONE
    return PiContainment.PI1 if in1 else PiContainment.PI2
