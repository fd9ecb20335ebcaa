"""One reading of real values written in Q(i).

A real value often arrives as a GaussianRational with imaginary part 0: from
arithmetic, or from a file entry {"re": ..., "im": "0/1"}.  Every real input
of the package reads it through `poly._real`, as its rational twin, and
rejects a non-real value with ValueError."""

from fractions import Fraction

import pytest

from incidencekit.cr import ComplexCurve, iota_inv
from incidencekit.foliation import (
    Hypersurface,
    bracket_defect,
    distribution_frame,
    leaf_sample_points,
    leaf_tangency_check,
)
from incidencekit.incidence import Configuration, project_generic
from incidencekit.partition import ham_sandwich_bisect, hyperplane_poly, veronese_lift
from incidencekit.poly import GaussianRational, MultiPoly, parse_poly
from incidencekit.roots import cauchy_root_bound, poly_gcd, squarefree_part, sturm_chain

X1, Y1, X2, Y2 = (MultiPoly.variable(k, 4) for k in range(4))
Z1, Z2 = (MultiPoly.variable(k, 2) for k in range(2))


def written(x, kind):
    """x as a Fraction (Q), as the GaussianRational x + 0i (Q(i)), or as the
    non-real x + i."""
    x = Fraction(x)
    return {"Q": x, "Q(i)": GaussianRational(x, 0), "non-real": GaussianRational(x, 1)}[kind]


def point(coords, kind):
    return [written(c, kind) for c in coords]


# Im z2 = |z1|^2, which is not Levi-flat, and a smooth non-exceptional point on it
BOWL = Hypersurface(Y2 - X1 * X1 - Y1 * Y1)
ON_BOWL = (1, 2, 3, 5)
# Im(z2 - z1^2) = 0 and the leaf z2 = z1^2 + 2 inside it
LEVI_FLAT = Hypersurface(Y2 - X1 * Y1 * 2)
LEAF = ComplexCurve(Z2 - Z1 * Z1 - MultiPoly.constant(2, 2))
ON_LEAF = leaf_sample_points(Z1 * Z1, Fraction(2),
                             [GaussianRational(Fraction(k, 3), 1) for k in range(-2, 3)])
POINTS_4 = [(1, 0, 0, 0), (0, 1, 0, 0), (Fraction(1, 2), -3, 7, Fraction(2, 9))]
POINTS_2 = [(0, 0), (1, Fraction(1, 3)), (-2, 5), (Fraction(7, 4), -1)]
SETS = [[(-3, 1), (1, 2), (2, -1), (0, 0)], [(1, 1), (-1, 4), (Fraction(5, 2), 0)]]
# x^2 - 2, and its product with x + 1, as ascending coefficient lists
QUADRATIC = (-2, 0, 1)
CUBIC = (-2, -2, 1, 1)
# 2, written as a Fraction, as the Gaussian rational -2*i*i = 2 + 0i, or as 2 + i
EXPONENT = {"Q": "2", "Q(i)": "(-2*i*i)", "non-real": "(2+i)"}

ENTRY_POINTS = {
    "Hypersurface": lambda kind: Hypersurface(
        MultiPoly(4, {e: written(c, kind) for e, c in BOWL.P.terms.items()})),
    "Hypersurface.contains": lambda kind: BOWL.contains(point(ON_BOWL, kind)),
    "distribution_frame": lambda kind: distribution_frame(BOWL, point(ON_BOWL, kind)),
    "bracket_defect": lambda kind: bracket_defect(BOWL, point(ON_BOWL, kind)),
    "leaf_tangency_check": lambda kind: leaf_tangency_check(
        LEVI_FLAT, LEAF, [point(p, kind) for p in ON_LEAF]),
    "iota_inv": lambda kind: iota_inv(point(POINTS_4[2], kind)),
    "project_generic": lambda kind: project_generic([point(p, kind) for p in POINTS_4], seed=1),
    "Configuration.build R2": lambda kind: Configuration.build(
        "R2", [point(p, kind) for p in POINTS_2], [Z1 + Z2 - 1, Z1 - Z2 * Z2]),
    "veronese_lift": lambda kind: veronese_lift(point((Fraction(1, 2), -3), kind), 3),
    "hyperplane_poly": lambda kind: hyperplane_poly(point((-1, 0, Fraction(2, 3), 5), kind), 2, 1),
    "ham_sandwich_bisect": lambda kind: ham_sandwich_bisect(
        [[point(p, kind) for p in s] for s in SETS], restarts=20, seed=3),
    "parse_poly exponent": lambda kind: parse_poly(f"z1^{EXPONENT[kind]}", ["z1"]),
    "sturm_chain": lambda kind: sturm_chain(point(QUADRATIC, kind)),
    "cauchy_root_bound": lambda kind: cauchy_root_bound(point(QUADRATIC, kind)),
    "poly_gcd": lambda kind: poly_gcd(point(CUBIC, kind), point(QUADRATIC, kind)),
    "squarefree_part": lambda kind: squarefree_part(point(QUADRATIC, kind)),
}


def test_the_q_i_inputs_are_gaussian_rationals():
    assert isinstance(written(3, "Q(i)"), GaussianRational)
    exponent = parse_poly(EXPONENT["Q(i)"], ["z1"]).terms[(0,)]
    assert isinstance(exponent, GaussianRational) and exponent == 2


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_real_values_written_in_q_i_read_as_rationals(name):
    call = ENTRY_POINTS[name]
    assert call("Q(i)") == call("Q")
    with pytest.raises(ValueError):
        call("non-real")
