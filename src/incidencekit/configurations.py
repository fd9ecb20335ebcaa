"""Deterministic generators for the structured configurations experiments use.

Every generator is a pure function of its spec: the same name, scale
parameters, and seed always produce a bit-identical Configuration.  Seeds
are namespaced per generator name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

try:  # as in `random`: hashlib loads OpenSSL (about 4 MiB resident), so
    # prefer CPython's lean built-in module where it exists (up to 3.11)
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .cr import ComplexCurve, realify
from .foliation import Hypersurface, containment_check, leaf_sample_points
from .incidence import Configuration, build_matrix, certify_dof
from .poly import GaussianRational, MultiPoly, check_invariant

# Pythagorean-style unit offsets: rational points at exact distance 1
_UNIT_OFFSETS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(-12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(-20, 29), Fraction(21, 29)),
    (Fraction(7, 25), Fraction(-24, 25)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
]


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_obj(self):
        return {"name": self.name, "params": self.params, "seed": self.seed}

    @staticmethod
    def from_obj(obj):
        return GeneratorSpec(obj["name"], dict(obj.get("params", {})),
                             int(obj.get("seed", 0)))

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True)


def _rng(name: str, seed) -> random.Random:
    # namespaced, process-independent seeding (tuple seeds would go through
    # randomized str hashing)
    digest = sha256(f"{name}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate(spec: GeneratorSpec):
    """Dispatch a GeneratorSpec to its generator."""
    name = spec.name
    p = spec.params
    if name == "grid-lines":
        return gen_grid_lines(int(p["n"]))
    if name == "unit-circles":
        return gen_unit_circles(int(p["n"]), spec.seed)
    if name == "complex-lines-product":
        return gen_complex_lines_product(
            int(p["size_a"]), int(p["size_b"]), spec.seed
        )
    if name == "leaf":
        from .poly import parse_poly

        g = parse_poly(p["g"], ["z1"])
        return gen_leaf_family(g, int(p.get("count", 5)), spec.seed)
    if name == "random":
        return gen_random(
            int(p.get("points", 100)),
            int(p.get("curves", 10)),
            int(p.get("degree", 2)),
            spec.seed,
        )
    raise ValueError(f"unknown generator {name!r}")


def gen_grid_lines(N: int) -> Configuration:
    """The classical Szemeredi-Trotter matching construction: points
    {1..N} x {1..2N^2} and lines y = ax + b for a in 1..N, b in 1..N^2.
    Every line meets exactly N grid points, so I = N^4 exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    points = [
        (Fraction(x), Fraction(y))
        for x in range(1, N + 1)
        for y in range(1, 2 * N * N + 1)
    ]
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    curves = [
        y - a * x - b
        for a in range(1, N + 1)
        for b in range(1, N * N + 1)
    ]
    return Configuration.build(
        "R2", points, curves,
        {"generator": "grid-lines", "N": N,
         "expected_incidences": N**4},
    )


def gen_unit_circles(N: int, seed: int = 0) -> Configuration:
    """N^2 rational points and N^2 unit circles with rational centers,
    arranged so each circle passes through grid-adjacent points; the (k=3,
    s=2) claim is certified before emission (at most 50 tries)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    for attempt in range(50):
        rng = _rng("unit-circles", f"{seed}:{attempt}")
        centers = []
        seen = set()
        while len(centers) < N * N:
            c = (
                Fraction(rng.randrange(0, 8 * N)) + Fraction(rng.randrange(0, 4), 16),
                Fraction(rng.randrange(0, 8 * N)) + Fraction(rng.randrange(0, 4), 16),
            )
            if c not in seen:
                seen.add(c)
                centers.append(c)
        points = []
        pt_seen = set()
        for c in centers:
            off = _UNIT_OFFSETS[rng.randrange(len(_UNIT_OFFSETS))]
            p = (c[0] + off[0], c[1] + off[1])
            if p not in pt_seen:
                pt_seen.add(p)
                points.append(p)
            if len(points) >= N * N:
                break
        while len(points) < N * N:
            p = (
                Fraction(rng.randrange(0, 8 * N)) + Fraction(1, 3),
                Fraction(rng.randrange(0, 8 * N)) + Fraction(1, 3),
            )
            if p not in pt_seen:
                pt_seen.add(p)
                points.append(p)
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        curves = [(x - cx) ** 2 + (y - cy) ** 2 - 1 for cx, cy in centers]
        config = Configuration.build(
            "R2", points, curves,
            {"generator": "unit-circles", "N": N, "seed": seed,
             "attempt": attempt},
        )
        cert = certify_dof(build_matrix(config), 3, 2)
        if cert.status == "certified":
            return config
    raise RuntimeError("unit-circle generator failed certification 50 times")


def gen_complex_lines_product(size_a: int, size_b: int, seed: int = 0) -> Configuration:
    """Cartesian-product point set A x B in C^2 with complex lines through
    seeded point pairs; certified (k=2, s=1) before emission (at most 50
    tries)."""
    if size_a < 1 or size_b < 1:
        raise ValueError("sizes must be >= 1")
    for attempt in range(50):
        rng = _rng("complex-lines-product", f"{seed}:{attempt}")
        A = _distinct_gaussians(rng, size_a)
        B = _distinct_gaussians(rng, size_b)
        points = [(a, b) for a in A for b in B]
        z1, z2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        curves = []
        seen = set()
        target = size_a * size_b
        guard = 0
        while len(curves) < target and guard < 50 * target:
            guard += 1
            p = points[rng.randrange(len(points))]
            q = points[rng.randrange(len(points))]
            if p[0] == q[0]:
                continue
            slope = (q[1] - p[1]) / (q[0] - p[0])
            intercept = p[1] - slope * p[0]
            line = z2 - MultiPoly.constant(slope, 2) * z1 - MultiPoly.constant(intercept, 2)
            key = line._key()
            if key in seen:
                continue
            seen.add(key)
            curves.append(line)
        config = Configuration.build(
            "C2", points, curves,
            {"generator": "complex-lines-product", "size_a": size_a,
             "size_b": size_b, "seed": seed, "attempt": attempt},
        )
        cert = certify_dof(build_matrix(config), 2, 1)
        if cert.status == "certified":
            return config
    raise RuntimeError("complex-lines generator failed certification")


def _distinct_gaussians(rng: random.Random, count: int) -> list[GaussianRational]:
    out: list[GaussianRational] = []
    seen = set()
    while len(out) < count:
        z = GaussianRational(
            Fraction(rng.randrange(-8 * count, 8 * count), 4),
            Fraction(rng.randrange(-4, 5), 4),
        )
        if z not in seen:
            seen.add(z)
            out.append(z)
    return out


@dataclass(frozen=True)
class LeafFamily:
    hypersurface: Hypersurface
    curves: tuple  # ComplexCurve leaves z2 = g(z1) + c
    leaf_constants: tuple  # the rational constants c
    samples: dict  # leaf index -> list of R^4 sample points on the leaf
    g: MultiPoly


def gen_leaf_family(g: MultiPoly, count: int, seed: int = 0,
                    samples_per_leaf: int = 10) -> LeafFamily:
    """Levi-flat family: hypersurface Im(z2 - g(z1)) = 0 with leaves
    z2 = g(z1) + c for distinct rational c; every leaf is verified to be
    contained in the hypersurface."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if g.num_vars != 1:
        raise ValueError("g must be a univariate polynomial in z1")
    rng = _rng("leaf", seed)
    g2 = MultiPoly(2, {(e[0], 0): c for e, c in g.terms.items()})
    z2 = MultiPoly.variable(1, 2)
    pair = realify(ComplexCurve(z2 - g2))
    Z = Hypersurface(pair.v)  # imaginary part of z2 - g(z1)

    constants = []
    seen = set()
    while len(constants) < count:
        c = Fraction(rng.randrange(-20 * count, 20 * count), 8)
        if c not in seen:
            seen.add(c)
            constants.append(c)
    curves = []
    samples = {}
    for idx, c in enumerate(constants):
        leaf = ComplexCurve(z2 - g2 - MultiPoly.constant(c, 2))
        check = containment_check(Z, leaf)
        check_invariant(check.status == "true", "leaf must be contained in the hypersurface")
        curves.append(leaf)
        z1_vals = [
            GaussianRational(
                Fraction(rng.randrange(-64, 65), 8),
                Fraction(rng.randrange(-64, 65), 8),
            )
            for _ in range(samples_per_leaf)
        ]
        samples[idx] = leaf_sample_points(g, c, z1_vals)
    return LeafFamily(Z, tuple(curves), tuple(constants), samples, g)


def gen_random(n_points: int, n_curves: int, degree: int, seed: int = 0) -> Configuration:
    """Seeded uniform rational points in a box and random bounded-degree
    curves; a null model with no certification promises."""
    if degree < 1:
        raise ValueError("degree must be >= 1")  # else no curve can be drawn
    rng = _rng("random", seed)
    points = []
    seen = set()
    while len(points) < n_points:
        p = (
            Fraction(rng.randrange(0, 2**20), 2**20),
            Fraction(rng.randrange(0, 2**20), 2**20),
        )
        if p not in seen:
            seen.add(p)
            points.append(p)
    curves = []
    seen_c = set()
    exps = [
        (i, j)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        if i + j > 0
    ]
    while len(curves) < n_curves:
        terms = {
            e: Fraction(rng.randrange(-9, 10)) for e in exps
        }
        terms[(0, 0)] = Fraction(rng.randrange(-9, 10))
        poly = MultiPoly(2, terms)
        if poly.is_zero or poly.total_degree < 1:
            continue
        key = poly._key()
        if key in seen_c:
            continue
        seen_c.add(key)
        curves.append(poly)
    return Configuration.build(
        "R2", points, curves,
        {"generator": "random", "points": n_points, "curves": n_curves,
         "degree": degree, "seed": seed},
    )


def rational_sphere_points(count: int, seed: int = 0) -> list[tuple]:
    """Exact rational points on the unit sphere in R^4 via inverse
    stereographic projection of seeded rational triples."""
    rng = _rng("sphere", seed)
    pts = []
    seen = set()
    while len(pts) < count:
        t = [Fraction(rng.randrange(-40, 41), 8) for _ in range(3)]
        n2 = sum(c * c for c in t)
        denom = n2 + 1
        p = (
            2 * t[0] / denom,
            2 * t[1] / denom,
            2 * t[2] / denom,
            (n2 - 1) / denom,
        )
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts
