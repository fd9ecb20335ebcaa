"""Expected answers computed apart from incidencekit.

Everything here works on plain ints and Fractions taken from the generators'
parameters or read off coefficient tables.  Nothing calls the program's
evaluators, so a fault in `MultiPoly.evaluate`, the modular filter or the
partition recount cannot hide in the check that is meant to catch it.

Each `*_problems` function returns a list of human-readable problems; an
empty list means the answer is correct.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from math import comb

# -- Gaussian rationals as (re, im) pairs of Fractions -------------------------


def as_pair(z) -> tuple[Fraction, Fraction]:
    """(re, im) of a rational or of anything with .re and .im."""
    if hasattr(z, "re"):
        return (Fraction(z.re), Fraction(z.im))
    return (Fraction(z), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


ZERO = (Fraction(0), Fraction(0))


def coefficient_table(poly) -> dict[tuple, tuple[Fraction, Fraction]]:
    """A polynomial's nonzero coefficients as exponent -> (re, im)."""
    return {tuple(e): as_pair(c) for e, c in poly.terms.items() if as_pair(c) != ZERO}


def line_solution(table, z1):
    """z2 on the plane line c_y*z2 + c_x*z1 + c_0 = 0 above z1."""
    if not set(table) <= {(0, 1), (1, 0), (0, 0)} or (0, 1) not in table:
        raise ValueError(f"not a line solvable for z2: {sorted(table)}")
    rhs = g_add(g_mul(table.get((1, 0), ZERO), z1), table.get((0, 0), ZERO))
    return g_div((-rhs[0], -rhs[1]), table[(0, 1)])


# -- grid-r2: the Szemeredi-Trotter grid ------------------------------------------


def grid_points(N: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(1, N + 1) for y in range(1, 2 * N * N + 1)]


def grid_lines(N: int) -> list[tuple[int, int]]:
    """(a, b) of the lines y = a*x + b."""
    return [(a, b) for a in range(1, N + 1) for b in range(1, N * N + 1)]


def grid_incidences(N, points, lines) -> set[tuple[int, int]]:
    """(point index, line index) of every incidence, with points and lines in
    the given orders: line (a, b) meets exactly the N points (x, a*x + b)."""
    index = {p: i for i, p in enumerate(points)}
    return {
        (index[(x, a * x + b)], j)
        for j, (a, b) in enumerate(lines)
        for x in range(1, N + 1)
    }


def read_real_line(table) -> tuple[Fraction, Fraction]:
    """(a, b) of a real line c_y*y + c_x*x + c_0 = 0 written as y = a*x + b."""
    if any(c[1] for c in table.values()):
        raise ValueError("real line has a non-real coefficient")
    b = line_solution(table, (Fraction(0), Fraction(0)))[0]
    a = line_solution(table, (Fraction(1), Fraction(0)))[0] - b
    return a, b


def parse_matrix_csv(text: str) -> set[tuple[int, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "point_index,curve_index":
        raise ValueError("matrix CSV lacks its header")
    out = set()
    for row in lines[1:]:
        i, j = row.split(",")
        out.add((int(i), int(j)))
    return out


def grid_count_problems(N, expected, exit_code, report, matrix_csv) -> list[str]:
    """`count --matrix-csv` on the grid: I = N^4 and the exact incidence set."""
    problems = []
    if exit_code != 0:
        problems.append(f"count exited {exit_code}")
    want = {"m": 2 * N**3, "n": N**3, "I": N**4}
    if report != want:
        problems.append(f"count report {report} != {want}")
    try:
        got = parse_matrix_csv(matrix_csv)
    except ValueError as exc:
        return problems + [f"matrix CSV unreadable: {exc}"]
    if got != expected:
        problems.append(
            f"matrix CSV: {len(expected - got)} incidences missing, "
            f"{len(got - expected)} extra"
        )
    return problems


def grid_certificate_problems(N, exit_code, certificate) -> list[str]:
    """`certify --k 2 --s 1`: two grid lines share at most one point and two
    points lie on at most one line, so the grid is certified; every line
    holds N points, so the K-S-T left side is n*C(N, 2)."""
    problems = []
    if exit_code != 0:
        problems.append(f"certify exited {exit_code}")
    m, n = 2 * N**3, N**3
    want_kst = {"lhs": n * comb(N, 2), "rhs": comb(m, 2), "holds": True}
    if certificate.get("status") != "certified":
        problems.append(f"certificate status {certificate.get('status')!r}")
    if (certificate.get("k"), certificate.get("s")) != (2, 1):
        problems.append("certificate is not for k=2, s=1")
    if certificate.get("witness") is not None:
        problems.append("certified grid carries a witness")
    if certificate.get("kst_double_count") != want_kst:
        problems.append(
            f"kst_double_count {certificate.get('kst_double_count')} != {want_kst}"
        )
    return problems


# -- curves-c2: complex lines through a product set ------------------------------


def complex_line_incidences(points, line_tables) -> set[tuple[int, int]]:
    """Incidences of complex lines with points of A x B, found by solving
    z2 = s*z1 + c above every distinct first coordinate z1 of A."""
    index = {p: i for i, p in enumerate(points)}
    firsts = sorted({p[0] for p in points})
    out = set()
    for j, table in enumerate(line_tables):
        for z1 in firsts:
            i = index.get((z1, line_solution(table, z1)))
            if i is not None:
                out.add((i, j))
    return out


def incidence_job_problems(m, n, expected, matrix, certificate, kst, bounds) -> list[str]:
    """build_matrix, certify_dof(2, 1), kst_double_count and evaluate_bounds on
    complex lines: two distinct lines share at most one point, so the set is
    certified and every quantity follows from the row degrees."""
    problems = []
    got = set(matrix.incidences)
    if got != expected:
        problems.append(
            f"incidences: {len(expected - got)} missing, {len(got - expected)} extra"
        )
    if certificate.status != "certified":
        problems.append(f"certificate status {certificate.status!r}")
    degrees = Counter(j for _, j in expected)
    lhs = sum(comb(d, 2) for d in degrees.values())
    if (kst.lhs, kst.rhs, kst.holds) != (lhs, comb(m, 2), lhs <= comb(m, 2)):
        problems.append(f"kst ({kst.lhs}, {kst.rhs}) != ({lhs}, {comb(m, 2)})")
    I = len(expected)
    ps = m ** (2 / 3) * n ** (2 / 3) + m + n
    kst_value = m * n**0.5 + n
    if bounds.measured_incidences != I:
        problems.append(f"bound report counts I={bounds.measured_incidences}, not {I}")
    for name, got_v, want in (
        ("ps_value", bounds.ps_value, ps),
        ("kst_value", bounds.kst_value, kst_value),
        ("ratio_ps", bounds.ratio_ps, I / ps),
    ):
        if not math.isclose(got_v, want, rel_tol=1e-9):
            problems.append(f"{name} {got_v} != {want}")
    return problems


# -- curves-c2: Levi-flat leaves and the sphere -----------------------------------


def on_leaf(g_table, c, point) -> bool:
    """Does the R^4 point (x1, y1, x2, y2) satisfy z2 = g(z1) + c?"""
    z1 = (Fraction(point[0]), Fraction(point[1]))
    value = (Fraction(c), Fraction(0))
    for (e,), coef in g_table.items():
        term = coef
        for _ in range(e):
            term = g_mul(term, z1)
        value = g_add(value, term)
    return value == (Fraction(point[2]), Fraction(point[3]))


def on_unit_sphere(point) -> bool:
    return sum(Fraction(c) ** 2 for c in point) == 1


def leaf_family_problems(g_table, constants, samples, containment, tangency, defects) -> list[str]:
    """Im(z2 - g(z1)) = 0 is Levi-flat and foliated by the leaves
    z2 = g(z1) + c: every leaf is contained, tangent at each sample, and the
    bracket defect is zero at each sample."""
    problems = []
    for idx, c in enumerate(constants):
        if containment[idx] != "true":
            problems.append(f"leaf {idx}: containment {containment[idx]!r}")
        pts = samples[idx]
        if not all(on_leaf(g_table, c, p) for p in pts):
            problems.append(f"leaf {idx}: a sample is off the leaf")
        if tangency[idx] != ["pass"] * len(pts):
            problems.append(f"leaf {idx}: tangency {tangency[idx]}")
        if defects[idx] != [0] * len(pts):
            problems.append(f"leaf {idx}: nonzero or missing defects {defects[idx]}")
    return problems


def sphere_problems(points, defects) -> list[str]:
    """The unit sphere's distribution is contact: the defect is nonzero at
    every point where the frame pair is independent ("degenerate" marks the
    others), and every point is accounted for."""
    problems = []
    if len(defects) != len(points):
        problems.append(f"{len(defects)} defects for {len(points)} points")
    if not all(on_unit_sphere(p) for p in points):
        problems.append("a sample is off the unit sphere")
    for p, d in zip(points, defects):
        if d != "degenerate" and d == 0:
            problems.append(f"zero defect on the sphere at {p}")
    return problems


# -- partitions --------------------------------------------------------------------


def degree(table) -> int:
    """Total degree of a coefficient table exponent -> coefficient."""
    return max(sum(e) for e, c in table.items() if c)


def integer_signs(points, bisector_tables, den):
    """Sign of every bisector at every point, in integers.

    Points have coordinates k/den.  A bisector of degree t with coefficient
    lcm L has value * L * den^t = sum c_e * prod X_i^e_i * den^(t-|e|) with
    integer X = den * x, so both have the same sign.  Returns the sign vectors
    and the bisector degrees."""
    X = []
    for p in points:
        row = []
        for c in p:
            scaled = Fraction(c) * den
            if scaled.denominator != 1:
                raise ValueError(f"coordinate {c} is not a multiple of 1/{den}")
            row.append(scaled.numerator)
        X.append(row)
    forms, degrees = [], []
    for table in bisector_tables:
        nonzero = {e: Fraction(c) for e, c in table.items() if c}
        t = degree(nonzero)
        L = math.lcm(*(c.denominator for c in nonzero.values()))
        forms.append([
            (e, c.numerator * (L // c.denominator) * den ** (t - sum(e)))
            for e, c in nonzero.items()
        ])
        degrees.append(t)
    signs = []
    for x in X:
        vec = []
        for terms in forms:
            v = 0
            for e, c in terms:
                for xi, ei in zip(x, e):
                    if ei:
                        c *= xi**ei
                v += c
            vec.append((v > 0) - (v < 0))
        signs.append(tuple(vec))
    return signs, degrees


def partition_problems(points, den, r, result, max_class=None):
    """A PartitionResult against signs recomputed in integers.  Returns the
    problems and the total degree of the bisectors."""
    tables = [dict(b.terms) for b in result.bisectors]
    if not tables:
        return ["no bisectors"], 0
    signs, degrees = integer_signs(points, tables, den)
    total = sum(degrees)
    problems = []
    if total > r:
        problems.append(f"total degree {total} > r = {r}")
    if [tuple(v) for v in result.sign_assignment] != signs:
        wrong = sum(tuple(a) != b for a, b in zip(result.sign_assignment, signs))
        problems.append(f"sign assignment differs at {wrong} points")
    occupancy = Counter(v for v in signs if 0 not in v)
    on_surface = sum(1 for v in signs if 0 in v)
    if dict(result.occupancy) != dict(occupancy):
        problems.append("occupancy differs from the integer recount")
    if result.on_surface != on_surface:
        problems.append(f"on_surface {result.on_surface} != {on_surface}")
    if sum(result.occupancy.values()) + result.on_surface != len(points):
        problems.append("points are not each counted once")
    if max_class is not None and max(occupancy.values(), default=0) > max_class:
        problems.append(
            f"largest class holds {max(occupancy.values())} > {max_class} points"
        )
    return problems, total


def crossing_problems(total_degree, reports) -> list[str]:
    """A line that is not contained in the zero set meets it in at most
    deg + 1 segments and visits at most one class per segment."""
    problems = []
    for k, rep in enumerate(reports):
        if rep.contained:
            continue
        if rep.segments > total_degree + 1:
            problems.append(f"line {k}: {rep.segments} segments > deg + 1")
        if rep.classes_visited > rep.segments:
            problems.append(f"line {k}: {rep.classes_visited} classes > segments")
    return problems
