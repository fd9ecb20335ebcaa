"""Discrete polynomial partitioning via iterated ham-sandwich bisection on
Veronese lifts.

The bisecting hyperplanes are found numerically (annealed smoothed-imbalance
descent) but every reported count is re-verified by exact sign evaluation
over Q; coefficients are snapped to rationals before anything downstream
sees them.  Sign classes (the vector of bisector signs at a point) stand in
for connected cells: they refine unions of cells and inherit the
few-points-per-class guarantee directly.

Lift and recount run on one integer form.  The points share one common
denominator D, and for each lift degree t the row of the point a/D is
D^t * (1, lift(a/D)), whose entries a^e * D^(t-|e|) are integers, built once
per partition (veronese_lift is the rational view of the same row).  A cut
reads its group's rows directly; its exact steps are integer sweeps along a
line of hyperplanes (_best_pencil_t): the offset scan moves the constant
term, the polish each coefficient in turn.  The recount then takes each
bisector's sign at every point from the integer dot product of its scaled
coefficients with the point's row; those signs split the classes and are the
sign assignment.  The rows come from `poly._integer_form`, the package's
one denominator clearing (with `poly._primitive`, which also divides out
the content).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from .poly import MultiPoly, _integer_form, _primitive, _real
from .roots import (
    _halve,
    _sign_at,
    isolate_real_roots,
    poly_gcd,
    squarefree_part,
)

SNAP_DENOMINATOR = 2**32


class BudgetExhaustedError(RuntimeError):
    """Bisection search ran out of restarts; carries the best attempt."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree 1..degree, ordered by (degree,
    lexicographically descending) -- e.g. d=2, t=2: x, y, x^2, xy, y^2."""
    out = []
    for t in range(1, degree + 1):
        level = [
            e
            for e in itertools.product(range(t + 1), repeat=dim)
            if sum(e) == t
        ]
        level.sort(reverse=True)
        out.extend(level)
    return out


def veronese_lift(point: Sequence, degree: int) -> tuple[Fraction, ...]:
    """All monomials of degree 1..degree at the point; length C(d+t,d)-1.
    The rational view of the integer lift: its row divided by D^degree."""
    if degree < 1:
        raise ValueError("lift degree must be >= 1")
    pt = [_real(c) for c in point]
    den, nums = _integer_form([pt])
    (row,) = _lift_rows(nums, den, len(pt), degree)
    return tuple(Fraction(x, row[0]) for x in row[1:])


def _lift_rows(nums, den, dim, degree):
    """The integer rows den^degree * (1, lift(a/den)) of integer points a in
    Z^dim: (den^degree, then a^e * den^(degree-|e|) for each exponent e in
    monomial_exponents order)."""
    exps = monomial_exponents(dim, degree)
    return [
        [den**degree] + [
            math.prod((x**k for x, k in zip(a, e) if k), start=den ** (degree - sum(e)))
            for e in exps
        ]
        for a in nums
    ]


def lift_dimension(dim: int, degree: int) -> int:
    return comb(dim + degree, dim) - 1


def min_lift_degree(dim: int, n_sets: int) -> int:
    t = 1
    while lift_dimension(dim, t) < n_sets:
        t += 1
    return t


def hyperplane_poly(coeffs: Sequence[Fraction], dim: int, degree: int) -> MultiPoly:
    """Hyperplane (c0, c1..cD) in lifted space as a polynomial in R^dim."""
    exps = [(0,) * dim, *monomial_exponents(dim, degree)]
    return MultiPoly(dim, dict(zip(exps, map(_real, coeffs))))


@dataclass
class CutResult:
    coeffs: tuple[Fraction, ...]  # (c0, c1..cD)
    counts: list[tuple[int, int, int]]  # per set: (neg, zero, pos)
    strict_ok: bool  # every side <= ceil(n/2)
    delta_ok: bool
    restarts_used: int  # attempts spent on this cut
    # the work spent on this cut over all its attempts
    polish_rounds: int = 0
    pencil_sweeps: int = 0  # offset scans and polish sweeps
    seconds: float = field(default=0.0, compare=False)


class _IntegerRows(NamedTuple):
    """Point sets of Q^dim in one integer form: rows[k][i] is den*(1, p) for
    the i-th point p of set k, with den > 0 common to every row.  Internal
    to polynomial_partition, which hands each cut its group's lifted rows."""

    den: int
    rows: list[list[list[int]]]
    dim: int

    @classmethod
    def of(cls, sets: Sequence[Sequence[Sequence]]) -> "_IntegerRows":
        """The rows of rational point sets, over their least common
        denominator."""
        points = [[tuple(_real(c) for c in p) for p in s] for s in sets]
        dim = len(points[0][0]) if points and points[0] else 0
        _check_dimension((p for s in points for p in s), dim)
        sizes = [len(s) for s in points]
        den, flat = _integer_form([(1, *p) for s in points for p in s])
        ends = list(itertools.accumulate(sizes))
        return cls(den, [flat[e - n : e] for e, n in zip(ends, sizes)], dim)


def _check_dimension(points, dim):
    if any(len(p) != dim for p in points):
        raise ValueError("all points must share a dimension")


def _integer_values(rows, coeffs):
    """Values of the hyperplane (c0, c1..cD) at the integer rows D*(1, p) of
    a cut, in integers: returns (S, values) with values[k][i] equal to S*D
    times the exact value at the i-th point of set k, S > 0 being the common
    denominator of the coefficients.  Positive scalings keep every sign."""
    scale, (cints,) = _integer_form([coeffs])
    return scale, [
        [sum(c * x for c, x in zip(cints, q)) for q in s] for s in rows
    ]


def _exact_projections(rows, normal):
    """The offset step's start: the integer values of the hyperplane
    (0, normal), see _integer_values.  normal excludes the constant term."""
    return _integer_values(rows, [0, *normal])


def _counts(values):
    """Per set (neg, zero, pos): the signs of exact integer values."""
    out = []
    for vs in values:
        neg = sum(1 for v in vs if v < 0)
        zero = vs.count(0)
        out.append((neg, zero, len(vs) - neg - zero))
    return out


def _imbalance(counts, targets):
    """(total overflow, largest overflow, points on the cut) of per-set
    (neg, zero, pos) counts against the targets ceil(n/2).  A cut is strict
    iff the total is 0.  Only one side of a set can overflow, since
    neg + pos <= n <= 2 * target."""
    overs = [max(neg - t, 0) + max(pos - t, 0) for (neg, _, pos), t in zip(counts, targets)]
    return sum(overs), max(overs, default=0), sum(zero for _, zero, _ in counts)


def _delta_ok(counts, targets, delta):
    return not any(max(neg, pos) > t * (1 + delta) for (neg, _, pos), t in zip(counts, targets))


def _snap(x: float) -> Fraction:
    return Fraction(x).limit_denominator(SNAP_DENOMINATOR)


def _best_offset(avals, scale, targets):
    """Exact constant term c0 for a normal, from the integer projections
    avals[k][i] = scale * (normal . p_i) with scale > 0.

    This is the pencil sweep along e_0 from (0, normal): every point moves
    at the same rate, so its side flips where c0 = -(normal . p_i).  Among
    the candidates (below, at, between and past the flips) it takes the one
    with the least (total overflow, max overflow, points on the cut) and,
    of those, the largest c0; 0 when there are no points."""
    ones = [[1] * len(avs) for avs in avals]
    found = _best_pencil_t(avals, ones, targets, scale, largest=True)
    return Fraction(0) if found is None else found[4]


def _float_ratio(num: int, den: int) -> float:
    """num/den correctly rounded (so monotone in the exact ratio), with
    overflow saturating to +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _best_pencil_t(avals, bvals, targets, scale=1, largest=False):
    """Exact 1-D search over the hyperplane pencil c + t*g, in integers.

    avals and bvals hold per set the integers A_p and B_p of each point,
    whose value along the pencil has the sign of A_p + t*scale*B_p
    (scale > 0), so its side flips at t = -A_p/(scale*B_p).  The candidates
    are below the first flip, at each flip, midway between neighbouring
    flips and past the last; the best key (total overflow, max overflow,
    points on surface, |t|, t) over their exact per-set (neg, zero, pos)
    counts is returned, or None when no point depends on t.  With largest,
    the largest t wins the ties on the first three entries instead of the
    one nearest 0.

    Flips stay (numerator, denominator) pairs.  They are sorted by their
    correctly rounded float value, which is monotone in the exact value, and
    each run of equal floats is then ordered exactly.  The counts at every
    candidate come from cumulative sums over the sorted flips, and only the
    final tie-break looks at exact t values."""
    n_sets = len(avals)
    neg0 = [0] * n_sets
    pos0 = [0] * n_sets
    zer0 = [0] * n_sets
    fkeys, nums, dens, owner, rising = [], [], [], [], []
    for k, (avs, bvs) in enumerate(zip(avals, bvals)):
        for a, b in zip(avs, bvs):
            if b == 0:
                if a > 0:
                    pos0[k] += 1
                elif a < 0:
                    neg0[k] += 1
                else:
                    zer0[k] += 1
                continue
            # side as t -> -infinity is -sign(b)
            if b > 0:
                num, den = -a, scale * b
                neg0[k] += 1
            else:
                num, den = a, -scale * b
                pos0[k] += 1
            fkeys.append(_float_ratio(num, den))
            nums.append(num)
            dens.append(den)
            owner.append(k)
            rising.append(b > 0)
    n_events = len(nums)
    if not n_events:
        return None

    def exact(e):
        return Fraction(nums[e], dens[e])

    groups = []  # event indices with exactly equal flips, in increasing t
    by_float = sorted(range(n_events), key=fkeys.__getitem__)
    for _, run in itertools.groupby(by_float, key=fkeys.__getitem__):
        run = list(run)
        if len(run) == 1:
            groups.append(run)
            continue
        run.sort(key=exact)
        groups.extend(list(g) for _, g in itertools.groupby(run, key=exact))
    order = [e for g in groups for e in g]
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    n_groups = len(groups)

    # candidate c: 0 below the first flip, 2g+1 at group g, 2g+2 just past it
    owner_sorted = np.array(owner)[order]
    rising_sorted = np.array(rising)[order]
    total = np.zeros(2 * n_groups + 1, dtype=np.int64)
    worst = np.zeros_like(total)
    zeros = np.zeros_like(total)
    for k in range(n_sets):
        mine = owner_sorted == k
        up = np.add.reduceat((mine & rising_sorted).astype(np.int64), starts)
        down = np.add.reduceat((mine & ~rising_sorted).astype(np.int64), starts)
        up_past, down_past = np.cumsum(up), np.cumsum(down)
        up_before, down_before = up_past - up, down_past - down
        neg = np.empty_like(total)
        pos = np.empty_like(total)
        zer = np.full_like(total, zer0[k])
        neg[0], pos[0] = neg0[k], pos0[k]
        neg[1::2] = neg0[k] - up_before - up + down_before
        pos[1::2] = pos0[k] + up_before - down_before - down
        zer[1::2] += up + down
        neg[2::2] = neg0[k] - up_past + down_past
        pos[2::2] = pos0[k] + up_past - down_past
        over = np.maximum(neg - targets[k], 0) + np.maximum(pos - targets[k], 0)
        total += over
        np.maximum(worst, over, out=worst)
        zeros += zer
    tied = total == total.min()
    tied &= worst == worst[tied].min()
    tied &= zeros == zeros[tied].min()
    tied = np.flatnonzero(tied).tolist()

    reps = [g[0] for g in groups]

    def candidate_t(c):
        if c == 0:
            n, d = nums[reps[0]], dens[reps[0]]
            return n - d, d
        g, at = divmod(c - 1, 2)
        n, d = nums[reps[g]], dens[reps[g]]
        if at == 0:
            return n, d
        if g + 1 < n_groups:
            n2, d2 = nums[reps[g + 1]], dens[reps[g + 1]]
            return n * d2 + n2 * d, 2 * d * d2
        return n + d, d

    def t_at(c):
        return Fraction(*candidate_t(c))

    if largest:
        c = tied[-1]
    else:
        # candidates increase in t, so the smallest |t| among the tied ones
        # is the last negative or the first non-negative; ties on |t| take
        # t < 0
        lo, hi = 0, len(tied)
        while lo < hi:
            mid = (lo + hi) // 2
            if candidate_t(tied[mid])[0] >= 0:
                hi = mid
            else:
                lo = mid + 1
        c = min(tied[max(lo - 1, 0) : lo + 1], key=lambda c: (abs(t_at(c)), t_at(c)))
    t = t_at(c)
    return int(total[c]), int(worst[c]), int(zeros[c]), abs(t), t


def _pencil_polish(rows, coeffs, targets):
    """Exact coordinate descent over hyperplane coefficients.

    Sweeps each coefficient direction e_j in turn with _best_pencil_t and
    applies any move that strictly improves the overflow key; every step is
    exact, so the key decreases monotonically and near-miss cuts (a side one
    or two points over target) are repaired deterministically.  Returns the
    polished coefficients, their exact per-set counts, and the rounds and
    pencil sweeps spent; it stops after 8 rounds.

    The arithmetic runs on Python ints: rows are the cut's integer rows
    D*(1, p), and the coefficients are scaled by their common denominator
    (_integer_values).  Positive scalings leave every sign, and so every
    flip point, unchanged."""
    dim = len(coeffs) - 1
    scale, avals = _integer_values(rows, coeffs)
    counts = _counts(avals)
    current = _imbalance(counts, targets)
    # axis directions are cheap and usually enough; pairwise combinations
    # only run when a full axis round stalls, to escape plateaus where no
    # single-coefficient move helps
    axis: list[tuple[tuple[int, int], ...]] = [((j, 1),) for j in range(dim + 1)]
    pairs: list[tuple[tuple[int, int], ...]] = []
    for j1 in range(dim + 1):
        for j2 in range(j1 + 1, dim + 1):
            pairs.append(((j1, 1), (j2, 1)))
            pairs.append(((j1, 1), (j2, -1)))

    sweeps = 0

    def sweep_round(directions):
        nonlocal coeffs, scale, avals, counts, current, sweeps
        improved = False
        for direction in directions:
            if len(direction) == 1:
                (j, _), = direction
                bvals = [[q[j] for q in s] for s in rows]
            else:
                (j1, _), (j2, w2) = direction
                bvals = [[q[j1] + w2 * q[j2] for q in s] for s in rows]
            found = _best_pencil_t(avals, bvals, targets, scale)
            sweeps += 1
            if found is None:
                continue
            total_over, max_over, zeros, _, t = found
            if (total_over, max_over, zeros) >= current or t == 0:
                continue
            trial = list(coeffs)
            for j, w in direction:
                trial[j] += t * w
            if all(c == 0 for c in trial[1:]):
                continue
            coeffs = trial
            scale, avals = _integer_values(rows, coeffs)
            counts = _counts(avals)
            current = _imbalance(counts, targets)
            improved = True
            if current[0] == 0:
                return improved
        return improved

    rounds = 0
    for _ in range(8):
        if current[0] == 0:
            break
        rounds += 1
        if sweep_round(axis):
            continue
        if not sweep_round(pairs):
            break
    return coeffs, counts, rounds, sweeps


def _descend(arrays, dim, rng, sigma_schedule):
    """Annealed smoothed-imbalance descent; returns a unit normal in R^{D+1}."""
    # loaded on first use, so that a program that never partitions does not
    # load the minimiser (or, without a bytecode cache, compile it)
    from .powell import powell

    h = rng.standard_normal(dim)
    stacked = np.vstack([a for a in arrays if len(a)])
    offsets = np.cumsum([0] + [len(a) for a in arrays if len(a)])[:-1]

    for sigma in sigma_schedule:
        seen = {}  # a stage's value is a function of hv's bytes: compute each once

        def objective(hv, sigma=sigma, seen=seen):
            key = hv.tobytes()
            value = seen.get(key)
            if value is None:
                nv = math.sqrt(hv.dot(hv))
                if nv < 1e-12:
                    value = 1e18
                else:
                    s = np.tanh((stacked @ (hv / nv)) / sigma)
                    sums = np.add.reduceat(s, offsets) if len(s) else np.zeros(0)
                    value = (float(np.add.reduce(sums * sums))
                             + 1e-9 * float(np.add.reduce(hv * hv)))
                seen[key] = value
            return value

        h = powell(objective, h)
    n = np.linalg.norm(h)
    return h / n if n > 0 else h


def ham_sandwich_bisect(
    sets: Sequence[Sequence[Sequence]] | _IntegerRows,
    delta: float = 0.1,
    restarts: int = 200,
    seed: int = 0,
) -> CutResult:
    """Simultaneously bisect finite point sets in Q^D by an affine hyperplane.

    Strategy: numeric descent for the normal direction, an exact sweep for
    the offset, then exact coordinate-descent polish over the hyperplane
    coefficients (each move is an exact 1-D pencil sweep, so the imbalance
    key decreases monotonically).  All counts exact; failure to reach the
    imbalance target within the restart budget raises BudgetExhaustedError
    carrying the best cut found.

    Every exact step reads one integer form of the points: the rows
    D*(1, p), D > 0 common to all of them.  Rational point sets reach their
    rows through _IntegerRows.of; polynomial_partition passes its lifted
    rows as an _IntegerRows value, checked for D > 0 and row length.  The
    offset step is the pencil sweep along the constant term, and the polish
    sweeps the same rows.  The descent's floats are the correctly rounded
    ratios row/D, the same floats as those of the rational coordinates.
    Every step depends only on these ratios, so any D gives the same cut.
    A ratio beyond the float range raises ValueError.
    """
    started = time.perf_counter()
    if isinstance(sets, _IntegerRows):
        den, rows, dim = sets
        if den <= 0:
            raise ValueError("the common denominator must be positive")
        _check_dimension((q for s in rows for q in s), dim + 1)
    else:
        den, rows, dim = _IntegerRows.of(sets)
    # more sets than dimensions leaves no guarantee of a common bisector,
    # but the exact offset scan can still find one (interleaved sets); let
    # the restart budget decide instead of rejecting up front
    targets = [-(-len(s) // 2) for s in rows]  # ceil(n/2)
    try:
        arrays = [
            np.array([[x / den for x in q] for q in s], dtype=float)
            if s
            else np.zeros((0, dim + 1))
            for s in rows
        ]
        extent = max((abs(x) for s in rows for q in s for x in q), default=den) / den
    except OverflowError:
        raise ValueError("a coordinate is too large for the descent's floats") from None
    sigma_schedule = [extent * s for s in (0.5, 0.1, 0.02, 0.004)]

    rng = np.random.default_rng(seed)
    best: CutResult | None = None
    rounds = sweeps = 0

    def spent(cut, attempts):
        return replace(cut, restarts_used=attempts, polish_rounds=rounds,
                       pencil_sweeps=sweeps,
                       seconds=time.perf_counter() - started)

    for attempt in range(max(restarts, 1)):
        h = _descend(arrays, dim + 1, rng, sigma_schedule)
        normal = [_snap(float(c)) for c in h[1:]]
        if all(c == 0 for c in normal):
            continue
        scale, avals = _exact_projections(rows, normal)
        coeffs = [_best_offset(avals, scale * den, targets)] + normal
        sweeps += 1
        counts = _counts(_integer_values(rows, coeffs)[1])
        if _imbalance(counts, targets)[0]:
            coeffs, counts, polish_rounds, polish_sweeps = _pencil_polish(
                rows, coeffs, targets
            )
            rounds += polish_rounds
            sweeps += polish_sweeps

        total_over, max_over, _ = _imbalance(counts, targets)
        result = CutResult(
            tuple(coeffs),
            counts,
            total_over == 0,
            _delta_ok(counts, targets, delta),
            attempt + 1,
        )
        if result.strict_ok:
            return spent(result, attempt + 1)
        if best is None or max_over < _imbalance(best.counts, targets)[1]:
            best = result
        # give strict balance a fair shot, then settle for the tolerance
        if best.delta_ok and attempt + 1 >= min(60, restarts):
            return spent(best, attempt + 1)

    if best is not None:
        best = spent(best, max(restarts, 1))
        if best.delta_ok:
            return best
    raise BudgetExhaustedError(
        f"no cut met the imbalance tolerance after {restarts} restarts", best
    )


# -- iterated partitioning -----------------------------------------------------


@dataclass
class PartitionResult:
    dim: int
    r: int
    delta: float
    seed: int
    bisectors: list[MultiPoly]
    stage_degrees: list[int]
    sign_assignment: list[tuple[int, ...]]  # per input point
    occupancy: dict[tuple[int, ...], int]
    on_surface: int
    achieved_classes: int
    cuts: list[CutResult] = field(default_factory=list)  # one per bisector

    @property
    def product(self) -> MultiPoly:
        out = MultiPoly.constant(1, self.dim)
        for b in self.bisectors:
            out = out * b
        return out

    @property
    def total_degree(self) -> int:
        return sum(self.stage_degrees)

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "r": self.r,
            "delta": self.delta,
            "seed": self.seed,
            "stage_degrees": self.stage_degrees,
            "bisectors": [b.to_obj() for b in self.bisectors],
            "sign_assignment": ["".join(_sign_char(s) for s in v)
                                 for v in self.sign_assignment],
            "occupancy": {
                "".join(_sign_char(s) for s in k): v
                for k, v in sorted(self.occupancy.items())
            },
            "on_surface": self.on_surface,
            "achieved_classes": self.achieved_classes,
        }


def _sign(x: Fraction) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


def _sign_char(s: int) -> str:
    return {1: "+", -1: "-", 0: "0"}[s]


# Bisecting many sets with a single cut degrades sharply as the set count
# grows (the search space is high-dimensional while strict halving demands
# one-point precision per set), so each cut handles at most this many sets;
# a stage with more classes uses several cuts of smaller degree instead.
GROUP_CAP = 4


def stage_schedule(dim: int, r: int) -> list[list[int]]:
    """Lift degrees of the cuts per stage.

    Stage j halves the 2^(j-1) classes of the previous stages; classes are
    grouped GROUP_CAP at a time and each group receives its own cut of the
    minimal lift degree, so every class is strictly halved by exactly one cut
    of its stage.  Scheduling stops when the cumulative product degree would
    exceed r or the class count reaches r^dim."""
    stages: list[list[int]] = []
    total = 0
    stage = 0
    while 2**stage < r**dim:
        k = 2**stage
        cuts = []
        while k > 0:
            g = min(k, GROUP_CAP)
            cuts.append(min_lift_degree(dim, g))
            k -= g
        if total + sum(cuts) > r:
            break
        stages.append(cuts)
        total += sum(cuts)
        stage += 1
    return stages


def polynomial_partition(
    points: Sequence[Sequence],
    r: int,
    delta: float = 0.1,
    restarts: int = 200,
    seed: int = 0,
) -> PartitionResult:
    """Iterated simultaneous bisection; deg(product) <= r; occupancy verified
    by exact recount on the integer rows of the lifted points."""
    if r < 2:
        raise ValueError("partition parameter r must be >= 2")
    pts = [tuple(c if isinstance(c, Fraction) else _real(c) for c in p)
           for p in points]
    if not pts:
        raise ValueError("no points to partition")
    dim = len(pts[0])
    _check_dimension(pts, dim)
    den, nums = _integer_form(pts)
    lifts: dict[int, list[list[int]]] = {}  # lift degree -> row of every point
    stages = stage_schedule(dim, r)
    bisectors: list[MultiPoly] = []
    cut_degrees: list[int] = []
    cuts: list[CutResult] = []
    columns: list[list[int]] = []  # per bisector, its sign at every point
    # classes hold point indices; removed indices are on some bisector
    classes: list[list[int]] = [list(range(len(pts)))]
    cut_index = 0

    for _ in stages:
        # group the surviving classes and halve each group with its own cut
        groups = [
            classes[g : g + GROUP_CAP] for g in range(0, len(classes), GROUP_CAP)
        ]
        next_classes: list[list[int]] = []
        for group in groups:
            t = min_lift_degree(dim, len(group))
            if t not in lifts:
                lifts[t] = _lift_rows(nums, den, dim, t)
            rows = lifts[t]
            sets = _IntegerRows(
                den**t, [[rows[i] for i in c] for c in group], lift_dimension(dim, t)
            )
            cut = ham_sandwich_bisect(
                sets,
                delta=delta,
                restarts=restarts,
                seed=seed * 1_000_003 + cut_index,
            )
            cut_index += 1
            bisector = hyperplane_poly(cut.coeffs, dim, t)
            bisectors.append(bisector)
            cut_degrees.append(t)
            cuts.append(cut)
            # exact recount, never trusting the search: one integer value
            # per point, whose sign splits the group's classes and is this
            # bisector's entry of every point's sign vector
            signs = [_sign(v) for v in _integer_values([rows], cut.coeffs)[1][0]]
            columns.append(signs)
            for c in group:
                neg_idx = [i for i in c if signs[i] < 0]
                pos_idx = [i for i in c if signs[i] > 0]
                if neg_idx:
                    next_classes.append(neg_idx)
                if pos_idx:
                    next_classes.append(pos_idx)
        classes = next_classes

    assignment = [tuple(col[i] for col in columns) for i in range(len(pts))]
    occupancy: dict[tuple[int, ...], int] = {}
    surface_count = 0
    for v in assignment:
        if 0 in v:
            surface_count += 1
        else:
            occupancy[v] = occupancy.get(v, 0) + 1
    return PartitionResult(
        dim=dim,
        r=r,
        delta=delta,
        seed=seed,
        bisectors=bisectors,
        stage_degrees=cut_degrees,
        sign_assignment=assignment,
        occupancy=occupancy,
        on_surface=surface_count,
        achieved_classes=len(occupancy),
        cuts=cuts,
    )


def sign_class(point: Sequence, result: PartitionResult) -> tuple[int, ...]:
    p = [_real(c) for c in point]
    return tuple(_sign(b.evaluate(p)) for b in result.bisectors)


# -- curve crossing statistics --------------------------------------------------


@dataclass
class CrossingReport:
    contained: bool
    exact: bool  # True: every report comes from exact root isolation
    segments: int  # root count + 1 along the line
    classes_visited: int
    bound: int | None = None  # deg(product) + 1


def line_crossings(line: MultiPoly, result: PartitionResult) -> CrossingReport:
    """Exact sign-class visits of a planar line across the partition, via real
    root isolation of the bisectors restricted to the line (the distinct
    roots of their product, see _product_roots)."""
    if line.num_vars != 2 or line.total_degree != 1:
        raise ValueError("expected a planar line (degree-1 polynomial in x, y)")
    if result.dim != 2:
        raise ValueError("partition is not planar")
    if line.is_gaussian:
        raise ValueError("expected a real line (rational coefficients)")
    # real coefficients may be written as GaussianRationals: read their real parts
    a, b, c = (_real(line.terms.get(e, 0)) for e in ((1, 0), (0, 1), (0, 0)))
    if b != 0:
        p0 = (Fraction(0), -c / b)
    else:
        p0 = (-c / a, Fraction(0))
    d = (-b, a)
    t = MultiPoly.variable(0, 1)
    x_t = MultiPoly.constant(p0[0], 1) + t * d[0]
    y_t = MultiPoly.constant(p0[1], 1) + t * d[1]
    restricted = [bi.substitute([x_t, y_t]) for bi in result.bisectors]
    if any(rb.is_zero for rb in restricted):
        return CrossingReport(True, True, 0, 0)
    ints = [_primitive(rb.univariate_coeffs())[0] for rb in restricted]
    roots = _product_roots([c for c in ints if len(c) > 1])
    samples = _gap_samples(roots)
    visited = []
    for tv in samples:
        vec = tuple(_sign_at(c, *tv.as_integer_ratio()) for c in ints)
        if vec not in visited:
            visited.append(vec)
    return CrossingReport(
        False,
        True,
        len(roots) + 1,
        len(visited),
        bound=result.total_degree + 1,
    )


def _product_roots(factors) -> list[tuple[Fraction, Fraction]]:
    """Sorted, strictly separated intervals, one per distinct real root of
    the product of the factors (ascending integer coefficient lists), in the
    form isolate_real_roots gives: (r, r) for an exact root, else an open interval
    that holds exactly one root and whose ends are not roots of the product.
    So every gap between them is free of roots.

    Each factor is isolated on its own, which is far cheaper than isolating
    the product.  Where intervals of different factors overlap, a gcd decides
    whether they hold one shared root (kept once, on the overlap) or two
    distinct roots (bisected until they separate).  Only _halve needs a
    factor's squarefree part; the other steps read the factor itself."""
    # [lo, hi, factor]: one root of factors[factor] in (lo, hi), or exactly lo == hi
    entries = [
        [lo, hi, f] for f, c in enumerate(factors) for lo, hi in isolate_real_roots(c)
    ]
    # squarefree gcds of factor pairs and squarefree parts, as primitive ints
    gcds: dict[tuple[int, int], tuple[int, ...]] = {}
    sfs: dict[int, tuple[int, ...]] = {}

    def shared(e1, e2) -> bool:
        (lo1, hi1, f1), (lo2, hi2, f2) = e1, e2
        if lo1 == hi1 or lo2 == hi2:
            # an exact root x inside the other's closed interval: shared iff
            # the other factor vanishes there
            x, f = (lo1, f2) if lo1 == hi1 else (lo2, f1)
            return _sign_at(factors[f], *x.as_integer_ratio()) == 0
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if (f1, f2) not in gcds:
            gcds[f1, f2] = _primitive(squarefree_part(poly_gcd(factors[f1], factors[f2])))[0]
        h = gcds[f1, f2]
        # h is squarefree and has at most one root on the overlap, whose
        # ends are not roots of h: a sign change decides it
        return len(h) > 1 and _sign_at(h, *lo.as_integer_ratio()) != _sign_at(
            h, *hi.as_integer_ratio())

    while True:
        entries.sort(key=lambda e: (e[0], e[1]))
        clash = next(
            (k for k in range(len(entries) - 1)
             if entries[k][1] >= entries[k + 1][0]),
            None,
        )
        if clash is None:
            return [(lo, hi) for lo, hi, _ in entries]
        e1, e2 = entries[clash], entries[clash + 1]
        if shared(e1, e2):
            # keep the root once, on the part of e1 that e2 also covers
            if e2[0] == e2[1]:
                e1[:] = e2
            elif e1[0] != e1[1]:
                e1[0], e1[1] = max(e1[0], e2[0]), min(e1[1], e2[1])
            del entries[clash + 1]
        else:
            for e in (e1, e2):
                lo, hi, f = e
                if lo != hi:
                    if f not in sfs:
                        sfs[f] = _primitive(squarefree_part(factors[f]))[0]
                    c, ((a, b),) = _integer_form([(lo, hi)])
                    a, b, c = _halve(sfs[f], a, b, c, _sign_at(sfs[f], b, c))
                    e[:2] = Fraction(a, c), Fraction(b, c)


def _gap_samples(intervals) -> list[Fraction]:
    """Rational points strictly between (and outside) disjoint sorted root
    intervals: one sample per gap."""
    if not intervals:
        return [Fraction(0)]
    samples = [intervals[0][0] - 1]
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        samples.append((hi1 + lo2) / 2)
    samples.append(intervals[-1][1] + 1)
    return samples
