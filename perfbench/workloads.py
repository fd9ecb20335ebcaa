"""The workloads: inputs made from the seed, the timed calls into the
program's public entry points, and the checks against `oracles`.

Calls go through module attributes (`incidence.build_matrix(...)`, not a
name imported into this file), so that the traced run's wrappers see them.

A workload has three parts.  `setup(seed, workdir)` makes the inputs and
writes any files; the harness times it.  `expect(state)` computes the
expected answers apart from the program; it is not timed.  `ops(state, k)`
lists the operations of pass k: each has a `run(ctx)` that calls the
program (timed; `ctx` is shared by the operations of one pass) and a
`check(output)` that returns the problems found (not timed).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from incidencekit import cli, configurations, foliation, incidence, partition, poly

from . import oracles


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], list]


def _quiet(argv) -> int:
    """cli.main with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- grid-r2 ----------------------------------------------------------------------


class GridR2:
    """The Szemeredi-Trotter grid gen_grid_lines(N), with its points and lines
    shuffled by the seed, written to a configuration file and run through
    `count --matrix-csv` and `certify --k 2 --s 1` as a user does."""

    name = "grid-r2"
    imports = ()

    def __init__(self, N: int = 10):
        self.N = N

    def setup(self, seed, workdir: Path):
        config = configurations.gen_grid_lines(self.N)
        rng = random.Random(f"{self.name}:{seed}")
        point_order = list(range(config.m))
        curve_order = list(range(config.n))
        rng.shuffle(point_order)
        rng.shuffle(curve_order)
        shuffled = incidence.Configuration.build(
            "R2",
            [config.points[i] for i in point_order],
            [config.curves[j] for j in curve_order],
            config.metadata,
        )
        path = workdir / "grid.json"
        path.write_text(shuffled.to_json() + "\n", encoding="utf-8")
        return {"config": shuffled, "dir": workdir, "path": path}

    def expect(self, state):
        N, config = self.N, state["config"]
        problems = []
        points = []
        for p in config.points:
            if any(Fraction(c).denominator != 1 for c in p):
                problems.append(f"grid point {p} is not integral")
            points.append(tuple(int(c) for c in p))
        lines = [oracles.read_real_line(oracles.coefficient_table(c)) for c in config.curves]
        if set(points) != set(oracles.grid_points(N)) or len(points) != 2 * N**3:
            problems.append("generated points are not the grid")
        if set(lines) != set(oracles.grid_lines(N)) or len(lines) != N**3:
            problems.append("generated lines are not the grid's lines")
        state["input_problems"] = problems
        state["expected"] = set() if problems else oracles.grid_incidences(N, points, lines)

    def ops(self, state, k):
        d, path = state["dir"], str(state["path"])
        count_out, matrix_out, cert_out = d / "count.json", d / "matrix.csv", d / "certificate.json"

        def check_count(code):
            if not count_out.is_file() or not matrix_out.is_file():
                return state["input_problems"] + ["count wrote no report or matrix"]
            return state["input_problems"] + oracles.grid_count_problems(
                self.N, state["expected"], code, _read_json(count_out),
                matrix_out.read_text(encoding="utf-8"))

        def check_certificate(code):
            if not cert_out.is_file():
                return state["input_problems"] + ["certify wrote no certificate"]
            return state["input_problems"] + oracles.grid_certificate_problems(
                self.N, code, _read_json(cert_out))

        for stale in (count_out, matrix_out, cert_out):
            stale.unlink(missing_ok=True)
        return [
            Op("count", lambda ctx: _quiet(
                ["count", path, "--matrix-csv", str(matrix_out), "--out", str(count_out)]),
               check_count),
            Op("certify", lambda ctx: _quiet(
                ["certify", path, "--k", "2", "--s", "1", "--out", str(cert_out)]),
               check_certificate),
        ]


# -- curves-c2 ----------------------------------------------------------------------


def leaf_generators():
    """g(z1) of the Levi-flat hypersurfaces Im(z2 - g(z1)) = 0."""
    z1 = poly.MultiPoly.variable(0, 1)
    i = poly.I_UNIT
    return [z1, z1**2, z1**3 + z1 * i, z1**4 - z1**2 * i + 3]


def unit_sphere() -> foliation.Hypersurface:
    v = [poly.MultiPoly.variable(k, 4) for k in range(4)]
    return foliation.Hypersurface(sum((x * x for x in v), poly.MultiPoly.constant(-1, 4)))


class CurvesC2:
    """Complex curves: incidences of complex lines with a product set in C^2,
    and the Levi-flat checks of leaf families plus the sphere contrast."""

    name = "curves-c2"
    imports = ()

    def __init__(self, size: int = 16, leaves: int = 5, samples: int = 8, sphere_points: int = 60):
        self.size, self.leaves, self.samples, self.sphere_points = size, leaves, samples, sphere_points

    def setup(self, seed, workdir: Path):
        return {
            "lines": configurations.gen_complex_lines_product(self.size, self.size, seed),
            "families": [
                configurations.gen_leaf_family(g, self.leaves, seed, samples_per_leaf=self.samples)
                for g in leaf_generators()
            ],
            "sphere": unit_sphere(),
            "sphere_points": configurations.rational_sphere_points(self.sphere_points, seed),
        }

    def expect(self, state):
        config = state["lines"]
        points = [(oracles.as_pair(a), oracles.as_pair(b)) for a, b in config.points]
        tables = [oracles.coefficient_table(c) for c in config.curves]
        state["expected"] = oracles.complex_line_incidences(points, tables)

    def ops(self, state, k):
        config = state["lines"]

        def incidences(ctx):
            M = incidence.build_matrix(config, cross_check_embedding=True)
            return (
                M,
                incidence.certify_dof(M, 2, 1),
                incidence.kst_double_count(M, 2, 1),
                incidence.evaluate_bounds(config.m, config.n, 2, 1, 0.0, M.count),
            )

        out = [Op("incidences", incidences,
                  lambda res: oracles.incidence_job_problems(
                      config.m, config.n, state["expected"], *res))]
        for family in state["families"]:
            out.append(self._levi_flat_op(family))
        out.append(self._sphere_op(state["sphere"], state["sphere_points"]))
        return out

    @staticmethod
    def _levi_flat_op(family):
        Z = family.hypersurface

        def run(ctx):
            containment, tangency, defects = [], [], []
            for idx, leaf in enumerate(family.curves):
                containment.append(foliation.containment_check(Z, leaf).status)
                samples = family.samples[idx]
                tangency.append([r.status for r in foliation.leaf_tangency_check(Z, leaf, samples)])
                defects.append([_defect(Z, p) for p in samples])
            return containment, tangency, defects

        g_table = {e: oracles.as_pair(c) for e, c in family.g.terms.items()}
        return Op(
            f"levi-flat {family.g.format(['z1'])}",
            run,
            lambda res: oracles.leaf_family_problems(
                g_table, family.leaf_constants, family.samples, *res),
        )

    @staticmethod
    def _sphere_op(sphere, points):
        return Op(
            "sphere",
            lambda ctx: [_defect(sphere, p) for p in points],
            lambda defects: oracles.sphere_problems(points, defects),
        )


def _defect(Z, p):
    """The raw bracket defect, or "degenerate" where no frame pair is
    independent."""
    try:
        return foliation.bracket_defect(Z, p).raw
    except foliation.FrameDegenerateError:
        return "degenerate"


# -- partitions ------------------------------------------------------------------------

DENOMINATOR = 2**20


@dataclass
class Instance:
    points: list
    seed: int
    lines: list = field(default_factory=list)


class _Partition:
    """A pool of seeded point sets; pass k partitions instance k (mod the
    pool), so a run's passes cover distinct inputs.  The time of one
    partition depends on the restarts its cuts need, which differ from one
    point set to the next, and the median over many point sets is steady
    where one point set is not."""

    name = ""
    r = 0
    max_class = None
    # _descend imports scipy.optimize on its first call; a user pays that
    # once per process, so the benchmark counts it in set-up
    imports = ("scipy.optimize",)

    def __init__(self, points: int = 128, pool: int = 64):
        self.m, self.pool = points, pool

    def make_points(self, rng):
        raise NotImplementedError

    def make_lines(self, rng):
        return []

    def setup(self, seed, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        return {"instances": [
            Instance(self.make_points(rng), rng.randrange(2**31), self.make_lines(rng))
            for _ in range(self.pool)
        ]}

    def expect(self, state):
        pass

    def ops(self, state, k):
        inst = state["instances"][k % len(state["instances"])]

        def run(ctx):
            ctx["result"] = partition.polynomial_partition(
                inst.points, self.r, delta=0.1, seed=inst.seed)
            return ctx["result"]

        def check(result):
            return oracles.partition_problems(
                inst.points, DENOMINATOR, self.r, result, self.max_class)[0]

        def crossings(ctx):
            result = ctx["result"]
            return result, [partition.line_crossings(line, result) for line in inst.lines]

        def check_crossings(output):
            result, reports = output
            if len(reports) != len(inst.lines):
                return [f"{len(reports)} reports for {len(inst.lines)} lines"]
            degree = sum(oracles.degree(dict(b.terms)) for b in result.bisectors)
            return oracles.crossing_problems(degree, reports)

        out = [Op(f"{self.name} partition", run, check)]
        if inst.lines:
            out.append(Op("line_crossings", crossings, check_crossings))
        return out


class PartitionR2(_Partition):
    """Points of [0, 1)^2 with denominator 2^20 (the AC5 construction),
    partitioned at r = 4: cuts of lift degree 1, 1 and 2, the last bisecting
    4 sets in R^5.  Every instance also crosses 10 seeded lines with the
    partition.  The largest class must hold at most 4m/r^2 = m/4 points.

    r = 4 rather than AC5's r = 8: at r = 8 the bound m/16 holds only if all
    five cuts are strict, and on some point sets a cut falls back to a
    non-strict one after 60 restarts, so the check would fail on some seeds
    only."""

    name = "partition-r2"
    r = 4

    def __init__(self, points: int = 128, pool: int = 64, lines: int = 10):
        super().__init__(points, pool)
        self.lines = lines
        self.max_class = 4 * points // self.r**2

    def make_points(self, rng):
        return [
            (Fraction(rng.randrange(0, DENOMINATOR), DENOMINATOR),
             Fraction(rng.randrange(0, DENOMINATOR), DENOMINATOR))
            for _ in range(self.m)
        ]

    def make_lines(self, rng):
        x, y = poly.MultiPoly.variable(0, 2), poly.MultiPoly.variable(1, 2)
        out = []
        for _ in range(self.lines):
            a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
            b = Fraction(rng.randrange(1, 9))
            c = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
            out.append(x * a + y * b + poly.MultiPoly.constant(c, 2))
        return out


class PartitionR4(_Partition):
    """iota(P) in R^4 for points P of C^2 whose coordinates are Gaussian
    rationals with denominator 2^20, partitioned at r = 2: two cuts of lift
    degree 1, bisecting 1 and then 2 sets in R^4.

    r = 2 stops before the stage whose cuts bisect 4 sets in R^4.  Those
    cuts exhaust their restarts on some point sets (BudgetExhaustedError),
    although the ham-sandwich theorem guarantees a strict cut there, and a
    benchmark operation must not fail on some seeds only."""

    name = "partition-r4"
    r = 2

    def __init__(self, points: int = 2048, pool: int = 16):
        super().__init__(points, pool)

    def make_points(self, rng):
        # iota(z1, z2) = (Re z1, Im z1, Re z2, Im z2), drawn directly
        return [
            tuple(Fraction(rng.randrange(0, DENOMINATOR), DENOMINATOR) for _ in range(4))
            for _ in range(self.m)
        ]


class Partition:
    """One partition-r2 instance, its line crossings and one partition-r4
    instance per pass: the plane and the paper's C^2 = R^4 in one workload.

    Alone, partition-r2 spreads too widely from seed to seed.  Its time per
    instance varies by about a fifth with the descent, and a run partitions
    too few instances to even that out.  The partition-r4 instance varies
    less and steadies the pass, while each of the two keeps its own pool,
    made from the seed as when it ran alone."""

    name = "partition"
    imports = _Partition.imports

    def __init__(self, plane: PartitionR2 | None = None, space: PartitionR4 | None = None):
        self.parts = (plane or PartitionR2(), space or PartitionR4())

    def setup(self, seed, workdir: Path):
        return [part.setup(seed, workdir) for part in self.parts]

    def expect(self, state):
        for part, sub in zip(self.parts, state):
            part.expect(sub)

    def ops(self, state, k):
        return [op for part, sub in zip(self.parts, state) for op in part.ops(sub, k)]


WORKLOADS = {w.name: w for w in (GridR2, CurvesC2, Partition)}
