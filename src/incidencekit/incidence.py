"""Incidence matrices, degrees-of-freedom certification, double-counting
checks, bound-formula evaluation, and exponent fitting.

An incidence is exact vanishing of a curve's defining polynomial at a
point, over Q or Q(i).  Certification is a property of the given
arrangement, decided combinatorially with a hard enumeration cap -- never
sampled."""

from __future__ import annotations

import decimal
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .cr import iota, realify
from .poly import (GaussianRational, MultiPoly, _point_row, _real, _real_row, _vanishes,
                   coef_from_obj, coef_to_obj)

SUBSET_TABLE_CAP = 10**7
BOUND_PRECISION_DPS = 30  # ~100-bit significand, above the 64-bit floor


@dataclass(frozen=True)
class Configuration:
    """A point set plus a curve set over a declared ground field."""

    ground_field: str  # "R2" | "C2"
    points: tuple
    curves: tuple  # MultiPoly, num_vars matching the ground field
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def build(ground_field, points, curves, metadata=None) -> "Configuration":
        if ground_field not in ("R2", "C2"):
            raise ValueError("ground field must be R2 or C2")
        # dicts keep the first of equal keys in input order, hashing each once
        pts = {}
        for p in points:
            key = tuple(
                GaussianRational.coerce(c) if ground_field == "C2" else _real(c)
                for c in p
            )
            if len(key) != 2:
                raise ValueError("points live in a plane")
            pts.setdefault(key)
        cvs = {}
        for c in curves:
            if c.is_zero:
                raise ValueError("curves must be nonzero")
            if c.num_vars != 2:
                raise ValueError("curves are plane curves in 2 variables")
            cvs.setdefault(c._key(), c)
        return Configuration(
            ground_field, tuple(pts), tuple(cvs.values()), dict(metadata or {})
        )

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.curves)

    def to_obj(self) -> dict:
        return {
            "field": self.ground_field,
            "points": [[coef_to_obj(GaussianRational.coerce(c))
                        if self.ground_field == "C2"
                        else coef_to_obj(Fraction(c)) for c in p]
                       for p in self.points],
            "curves": [c.to_obj() for c in self.curves],
            "metadata": self.metadata,
        }

    @staticmethod
    def from_obj(obj: dict) -> "Configuration":
        """The configuration `to_obj` writes.  Each distinct number string is
        parsed once, through a memo that lives for this call only."""
        gf = obj["field"]
        memo: dict[str, Fraction] = {}
        points = [
            [coef_from_obj(c, memo) for c in p] for p in obj["points"]
        ]
        curves = [MultiPoly.from_obj(c, memo) for c in obj["curves"]]
        return Configuration.build(gf, points, curves, obj.get("metadata", {}))

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "Configuration":
        return Configuration.from_obj(json.loads(text))


@dataclass(frozen=True)
class IncidenceMatrix:
    m: int
    n: int
    incidences: frozenset  # of (point_index, curve_index)
    # the filter candidates build_matrix confirmed exactly; not part of the
    # matrix, so equal matrices stay equal however they were built
    candidates: int | None = field(default=None, compare=False)

    @property
    def count(self) -> int:
        return len(self.incidences)

    def curve_rows(self) -> list[tuple[int, ...]]:
        rows = [[] for _ in range(self.n)]
        for i, j in self.incidences:
            rows[j].append(i)
        return [tuple(sorted(r)) for r in rows]

    def to_csv(self) -> str:
        lines = ["point_index,curve_index"]
        for i, j in sorted(self.incidences):
            lines.append(f"{i},{j}")
        return "\n".join(lines) + "\n"


# The modular filter works in F_p for the largest prime p < 2^26 with
# p = 5 (mod 8).  As p = 1 (mod 4), i maps to a square root of -1, and as 2
# is a non-residue, 2^((p-1)/4) squares to -1.  A product of two residues is
# below 2^52, so FILTER_CHUNK products plus a residue sum exactly in int64
# and one reduction serves a chunk of terms.  A block of the products holds
# at most FILTER_BLOCK (point, curve) entries, which bounds the memory.
FILTER_PRIME = 67_108_837
FILTER_SQRT_M1 = pow(2, (FILTER_PRIME - 1) // 4, FILTER_PRIME)
FILTER_CHUNK = (2**63 - FILTER_PRIME) // (FILTER_PRIME - 1) ** 2
FILTER_BLOCK = 2**14


def filter_candidates(config: Configuration, _rows: list | None = None) -> list[tuple[int, int]]:
    """Sorted (point, curve) pairs that the modular filter cannot rule out.

    Each curve's integer form (the one MultiPoly.evaluate sums) is evaluated
    at every point's integer row (D*p_1, D*p_2, D) in numpy int64 modulo
    FILTER_PRIME.  A nonzero residue proves the pair is not an incidence, so
    the result is a superset of the incidences: the pairs whose value
    vanishes mod p, plus every pair at a point with a denominator divisible
    by p.  `_rows`, when given, holds each point's `poly._point_row`,
    already built by the caller.

    The curves of one total degree d whose integer forms have the same
    non-constant terms mod p form a pencil class: they differ in the
    constant term alone.  A class of two or more evaluates its shared part N
    once per point; its members that vanish there are those with the
    constant residue -N * D^(-d), found by a sorted search on (class,
    constant) keys.  A curve alone in its class is evaluated whole.  The
    polynomials evaluated (whole curves, or the shared parts of classes)
    with the same homogenised exponents share one matrix of monomial
    residues at the points, and their coefficient residues form another, so
    their values are the product of the two, taken in blocks of
    FILTER_BLOCK entries and chunks of FILTER_CHUNK terms."""
    p, s = FILTER_PRIME, FILTER_SQRT_M1
    rows = [row for row, _ in _rows or map(_point_row, config.points)]
    reduced = np.array([i for i, row in enumerate(rows) if row[-1][0] % p], dtype=np.int64)
    unreduced = np.array([i for i, row in enumerate(rows) if not row[-1][0] % p],
                         dtype=np.int64)
    coords = np.array(
        [[(a + b * s) % p for a, b in rows[i]] for i in reduced.tolist()], dtype=np.int64,
    ).reshape(len(reduced), 3)
    classes: dict[tuple, list] = {}  # (shared support, its residues) -> members
    for j, curve in enumerate(config.curves):
        terms = sorted(curve._integer_terms()[1])
        support = tuple(exp for exp, _, _ in terms)
        coefs = [(re + im * s) % p for _, re, im in terms]
        # 1 if the curve has a constant term: its exponent (0, 0, d) sorts first
        c = int(not any(support[0][:-1]))
        classes.setdefault((support[c:], tuple(coefs[c:])), []).append(
            (j, support, coefs, coefs[0] if c else 0))
    wholes: dict[tuple, tuple[list, list]] = {}  # support -> (curves, coefficient rows)
    pencils: dict[tuple, tuple[list, list]] = {}  # shared support -> (classes, rows)
    keys, owners = [], []  # class * p + constant residue, and the member it keys
    for k, ((shared, residues), members) in enumerate(classes.items()):
        if len(members) == 1 or not shared:
            for j, support, coefs, _ in members:
                curves, coef_rows = wholes.setdefault(support, ([], []))
                curves.append(j)
                coef_rows.append(coefs)
            continue
        ids, coef_rows = pencils.setdefault(shared, ([], []))
        ids.append(k)
        coef_rows.append(residues)
        for j, _, _, constant in members:
            keys.append(k * p + constant)
            owners.append(j)
    monomials: dict[tuple, np.ndarray] = {}
    point_step = max(1, min(len(reduced), FILTER_BLOCK))
    row_step = FILTER_BLOCK // point_step

    def blocks(support, coefs):
        """(a, b, values): the residues of coefficient rows b, b + 1, ... on
        `support` at the reduced points a, a + 1, ..., a block at a time."""
        for exp in support:
            if exp not in monomials:
                value = np.ones(len(reduced), dtype=np.int64)
                for var, e in enumerate(exp):
                    for _ in range(e):
                        value = value * coords[:, var] % p
                monomials[exp] = value
        mon = np.stack([monomials[exp] for exp in support], axis=1)
        coef = np.array(coefs, dtype=np.int64)
        for a, b in itertools.product(range(0, len(reduced), point_step),
                                      range(0, len(coefs), row_step)):
            acc = 0
            for t in range(0, len(support), FILTER_CHUNK):
                acc = (acc + mon[a:a + point_step, t:t + FILTER_CHUNK]
                       @ coef[b:b + row_step, t:t + FILTER_CHUNK].T) % p
            yield a, b, acc

    found = [(np.repeat(unreduced, config.n), np.tile(np.arange(config.n), len(unreduced)))]
    for support, (curves, coefs) in wholes.items():
        curves = np.array(curves, dtype=np.int64)
        for a, b, values in blocks(support, coefs):
            i, k = np.nonzero(values == 0)
            found.append((reduced[i + a], curves[k + b]))
    order = np.argsort(np.array(keys, dtype=np.int64))
    keys, owners = np.array(keys, dtype=np.int64)[order], np.array(owners, dtype=np.int64)[order]
    for support, (ids, coefs) in pencils.items():
        # D^(-d) at each reduced point, d the degree the support is homogenised to
        scale = _power(coords[:, 2], -sum(support[0]) % (p - 1))
        ids = np.array(ids, dtype=np.int64)
        for a, b, values in blocks(support, coefs):
            wanted = ids[b:b + row_step] * p + (p - values) * scale[a:a + point_step, None] % p
            lo = np.searchsorted(keys, wanted, "left")
            count = np.searchsorted(keys, wanted, "right") - lo
            i, k = np.nonzero(count)
            start, count = lo[i, k], count[i, k]
            # every member keyed by a match: keys[start], ..., keys[start + count - 1]
            step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            found.append((np.repeat(reduced[i + a], count), owners[np.repeat(start, count) + step]))
    points = np.concatenate([i for i, _ in found])
    curves = np.concatenate([k for _, k in found])
    order = np.lexsort((curves, points))
    return list(zip(points[order].tolist(), curves[order].tolist()))


def _power(base: np.ndarray, e: int) -> np.ndarray:
    """base**e modulo FILTER_PRIME, entry by entry, by square and multiply."""
    result = np.ones_like(base)
    while e:
        if e & 1:
            result = result * base % FILTER_PRIME
        e >>= 1
        if e:
            base = base * base % FILTER_PRIME
    return result


class EmbeddingMismatchError(RuntimeError):
    """A complex incidence that the R^4 embedding does not reproduce."""


def build_matrix(config: Configuration, cross_check_embedding: bool = False) -> IncidenceMatrix:
    """Exact vanishing test on every pair the modular filter lets through
    (see filter_candidates); optionally cross-checks every confirmed complex
    incidence through the R^4 embedding.  Each point's row is built once:
    the filter reads it, and it seeds the point's evaluation cache and, as
    `poly._real_row`, that of its image in R^4.  Each curve's realification
    is kept on the curve (`cr.realify`), so repeated calls expand it once."""
    rows = [_point_row(pt) for pt in config.points]
    candidates = filter_candidates(config, _rows=rows)
    pairs = set()
    check = cross_check_embedding and config.ground_field == "C2"
    embedded: dict = {}
    cache: dict = {}
    last_point = None
    for i, j in candidates:
        p = config.points[i]
        if i != last_point:
            # candidates are sorted by point: one cache per point in C^2,
            # and one for its image in R^4 that u and v of every curve share
            cache, cache4, last_point = {None: rows[i]}, {}, i
        if config.curves[j].evaluate(p, _cache=cache):
            continue
        if check:
            if None not in cache4:
                cache4[None] = _real_row(rows[i])
            if j not in embedded:
                embedded[j] = realify(config.curves[j])
            q = iota(p)
            if not (_vanishes(embedded[j].u, q, cache4) and _vanishes(embedded[j].v, q, cache4)):
                raise EmbeddingMismatchError(
                    f"point {i} lies on curve {j} but not on its realification"
                )
        pairs.add((i, j))
    return IncidenceMatrix(config.m, config.n, frozenset(pairs), len(candidates))


@dataclass(frozen=True)
class DofCertificate:
    k: int
    s: int
    status: str  # "certified" | "violated" | "indeterminate"
    witness: tuple | None = None  # see certify_dof
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "status": self.status,
            "witness": list(self.witness) if self.witness else None,
            "detail": self.detail,
        }


def certify_dof(M: IncidenceMatrix, k: int, s: int) -> DofCertificate:
    """Certify k degrees of freedom and multiplicity type s on the arrangement.

    Condition 1: every k-subset of points lies on at most s curves (only
    subsets incident to some curve can violate, so the table counts
    per-curve k-subsets; the curves of a violating subset are found again by
    scanning the rows up to the current one).  Condition 2: every curve pair shares at most s
    incident points; each curve counts the points it shares with every later
    curve through a point -> curves index, which costs the sum of squared
    point degrees rather than one intersection per pair.  The first violation
    in deterministic (curve index, subset lex) order is returned as a
    witness, condition 1's before condition 2's.  Past SUBSET_TABLE_CAP table
    entries the answer is "indeterminate".

    For k > s condition 2 implies condition 1: a k-subset on s + 1 curves
    makes two of them share k > s points.  So condition 2 runs first, and the
    table is built only when it fails, for the witness it would have given."""
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    rows = M.curve_rows()
    if k <= s:
        return (_subset_violation(rows, k, s) or _pair_violation(rows, k, s)
                or DofCertificate(k, s, "certified"))
    pair_violation = _pair_violation(rows, k, s)
    if pair_violation is not None:
        return _subset_violation(rows, k, s) or pair_violation
    if sum(comb(len(row), k) for row in rows) > SUBSET_TABLE_CAP:
        return _indeterminate(k, s)
    return DofCertificate(k, s, "certified")


def _indeterminate(k: int, s: int) -> DofCertificate:
    return DofCertificate(k, s, "indeterminate",
                          detail=f"k-subset table exceeded cap {SUBSET_TABLE_CAP}")


def _subset_violation(rows: list[tuple], k: int, s: int) -> DofCertificate | None:
    """Condition 1's first violation, or "indeterminate" once the table
    passes SUBSET_TABLE_CAP entries; None if neither happens."""
    table: dict[tuple, int] = {}
    entries = 0
    for j, row in enumerate(rows):
        if len(row) < k:
            continue
        n_subsets = comb(len(row), k)
        entries += n_subsets
        if entries > SUBSET_TABLE_CAP:
            return _indeterminate(k, s)
        for subset in itertools.combinations(row, k):
            count = table[subset] = table.get(subset, 0) + 1
            if count > s:
                curves_here = tuple(j2 for j2 in range(j + 1) if set(subset).issubset(rows[j2]))
                return DofCertificate(
                    k, s, "violated",
                    witness=("point-subset", subset, curves_here),
                    detail=f"{count} curves through one {k}-subset",
                )
    return None


def _pair_violation(rows: list[tuple], k: int, s: int) -> DofCertificate | None:
    """Condition 2's first violation, or None."""
    point_curves: dict[int, list[int]] = {}
    for j, row in enumerate(rows):
        for i in row:
            point_curves.setdefault(i, []).append(j)
    for j1, row in enumerate(rows):
        if len(row) <= s:
            continue
        shared_counts = Counter(j2 for i in row for j2 in point_curves[i] if j2 > j1)
        j2 = min((j2 for j2, c in shared_counts.items() if c > s), default=None)
        if j2 is not None:
            shared = sorted(set(row) & set(rows[j2]))
            return DofCertificate(
                k, s, "violated",
                witness=("curve-pair", (j1, j2), tuple(shared)),
                detail=f"curves share {len(shared)} incident points",
            )
    return None


@dataclass(frozen=True)
class KstReport:
    lhs: int  # sum over curves of C(row degree, k)
    rhs: int  # s * C(m, k)
    holds: bool

    def to_obj(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


def kst_double_count(M: IncidenceMatrix, k: int, s: int) -> KstReport:
    """Exact double counting of k-subsets with multiplicity: on a certified
    arrangement, sum_curves C(d_curve, k) <= s * C(m, k)."""
    lhs = sum(comb(len(row), k) for row in M.curve_rows())
    rhs = s * comb(M.m, k)
    return KstReport(lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class BoundReport:
    m: int
    n: int
    k: int
    s: int
    eps: float
    measured_incidences: int
    ps_value: float
    ps_complex_value: float
    kst_value: float
    ratio_ps: float
    ratio_ps_complex: float
    kst_regime: bool  # n <= m^k
    precision_dps: int = BOUND_PRECISION_DPS

    def to_obj(self):
        return {
            "m": self.m, "n": self.n, "k": self.k, "s": self.s,
            "eps": self.eps, "I": self.measured_incidences,
            "ps_value": self.ps_value,
            "ps_complex_value": self.ps_complex_value,
            "kst_value": self.kst_value,
            "ratio_ps": self.ratio_ps,
            "ratio_ps_complex": self.ratio_ps_complex,
            "kst_regime": self.kst_regime,
            "precision_dps": self.precision_dps,
        }


def evaluate_bounds(m: int, n: int, k: int, s: int, eps: float, I: int) -> BoundReport:
    """The three incidence-bound formulas at stated precision.

    ps:         m^(k/(2k-1)) n^((2k-2)/(2k-1)) + m + n
    ps_complex: m^(k/(2k-1)+eps) n^((2k-2)/(2k-1)) + m + n
    kst:        m n^(1-1/k) + n

    Each is computed in decimal arithmetic with BOUND_PRECISION_DPS
    significant digits, in a context of its own, so the caller's decimal
    context cannot change a result.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    context = decimal.Context(prec=BOUND_PRECISION_DPS, rounding=decimal.ROUND_HALF_EVEN)
    with decimal.localcontext(context):
        mm, nn = Decimal(m), Decimal(n)
        a = Decimal(k) / (2 * k - 1)
        b = Decimal(2 * k - 2) / (2 * k - 1)
        ps = mm**a * nn**b + mm + nn
        psc = mm ** (a + Decimal(eps)) * nn**b + mm + nn
        kst = mm * nn ** (1 - Decimal(1) / k) + nn
        return BoundReport(
            m, n, k, s, eps, I,
            float(ps), float(psc), float(kst),
            float(I / ps), float(I / psc),
            n <= m**k,
        )


@dataclass(frozen=True)
class ExponentFit:
    a: float  # exponent of m
    b: float  # exponent of n
    c: float  # log constant
    residual: float
    combined: bool  # degenerate design: a is the single combined exponent

    def predict(self, m: int, n: int) -> float:
        import math

        return math.exp(self.a * math.log(m) + self.b * math.log(n) + self.c)

    def to_obj(self):
        return {"a": self.a, "b": self.b, "c": self.c,
                "residual": self.residual, "combined": self.combined}


def exponent_fit(series: Sequence[tuple[int, int, int]]) -> ExponentFit:
    """Least-squares fit log I ~ a log m + b log n + c.

    When all (log m, log n) lie on an affine line (a family ray), the design
    is degenerate and a single combined exponent of log m is fitted with
    b = 0."""
    if len(series) < 3:
        raise ValueError("need at least 3 data points")
    if any(x < 1 for row in series for x in row):
        raise ValueError("m, n and the incidence count must be >= 1 in every row")
    lm = np.log([float(m) for m, _, _ in series])
    ln = np.log([float(n) for _, n, _ in series])
    li = np.log([float(i) for _, _, i in series])
    design = np.column_stack([lm, ln, np.ones(len(series))])
    if np.linalg.matrix_rank(design, tol=1e-9) < 3:
        design2 = np.column_stack([lm, np.ones(len(series))])
        sol, *_ = np.linalg.lstsq(design2, li, rcond=None)
        resid = float(np.linalg.norm(design2 @ sol - li))
        return ExponentFit(float(sol[0]), 0.0, float(sol[1]), resid, True)
    sol, *_ = np.linalg.lstsq(design, li, rcond=None)
    resid = float(np.linalg.norm(design @ sol - li))
    return ExponentFit(float(sol[0]), float(sol[1]), float(sol[2]), resid, False)


def project_generic(points: Sequence[Sequence], seed: int = 0):
    """Seeded random rational 2x4 projection, regenerated until exactly
    injective on the given points (at most 100 tries)."""
    import random

    pts = [tuple(_real(c) for c in p) for p in points]
    for attempt in range(100):
        rng = random.Random(seed * 1000003 + attempt)
        matrix = [
            [Fraction(rng.randrange(-2**16, 2**16), 2**8) for _ in range(4)]
            for _ in range(2)
        ]
        images = [
            tuple(sum(a * c for a, c in zip(row, p)) for row in matrix)
            for p in pts
        ]
        seen: dict = {}
        collision = None
        for idx, img in enumerate(images):
            if img in seen:
                collision = (seen[img], idx)
                break
            seen[img] = idx
        if collision is None:
            return matrix, images, True
    raise RuntimeError(
        "no injective projection found in 100 attempts; "
        f"last collision {collision}"
    )
