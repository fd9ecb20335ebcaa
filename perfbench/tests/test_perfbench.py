"""Tests of the benchmark's own code: the oracles agree with the program on
small inputs, a corrupted answer counts as a failed operation, and the
tracer patches and restores the program from outside.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from incidencekit import cli, configurations, foliation, incidence, partition
from incidencekit.partition import CrossingReport
from perfbench import oracles, reference, trace, workloads
from perfbench.harness import run_workload

ROOT = Path(__file__).resolve().parents[2]


def run_once(workload, tmp_path, seed=0):
    """One pass of the workload, end-to-end metrics, problems kept quiet."""
    return run_workload(workload, seed, 0, False, tmp_path, setups=1, log=io.StringIO())


def small_r2_points(seed, m=32):
    rng = random.Random(seed)
    D = workloads.DENOMINATOR
    return [(Fraction(rng.randrange(D), D), Fraction(rng.randrange(D), D)) for _ in range(m)]


# -- the oracles agree with the program ----------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_grid_oracle_matches_build_matrix(N):
    config = configurations.gen_grid_lines(N)
    points = [tuple(int(c) for c in p) for p in config.points]
    lines = [oracles.read_real_line(oracles.coefficient_table(c)) for c in config.curves]
    assert set(points) == set(oracles.grid_points(N))
    assert set(lines) == set(oracles.grid_lines(N))
    expected = oracles.grid_incidences(N, points, lines)
    assert expected == set(incidence.build_matrix(config).incidences)
    assert len(expected) == N**4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complex_line_oracle_matches_build_matrix(seed):
    config = configurations.gen_complex_lines_product(4, 4, seed)
    points = [(oracles.as_pair(a), oracles.as_pair(b)) for a, b in config.points]
    tables = [oracles.coefficient_table(c) for c in config.curves]
    expected = oracles.complex_line_incidences(points, tables)
    assert expected == set(incidence.build_matrix(config).incidences)


def test_integer_signs_match_the_program():
    points = small_r2_points(3)
    result = partition.polynomial_partition(points, 4, seed=3)
    signs, degrees = oracles.integer_signs(
        points, [dict(b.terms) for b in result.bisectors], workloads.DENOMINATOR)
    assert signs == [partition.sign_class(p, result) for p in points]
    assert degrees == [b.total_degree for b in result.bisectors]
    assert oracles.partition_problems(points, workloads.DENOMINATOR, 4, result)[0] == []


def test_leaf_and_sphere_oracles_match_the_generators():
    for g in workloads.leaf_generators():
        family = configurations.gen_leaf_family(g, 2, 0, samples_per_leaf=3)
        table = {e: oracles.as_pair(c) for e, c in family.g.terms.items()}
        for idx, c in enumerate(family.leaf_constants):
            for p in family.samples[idx]:
                assert oracles.on_leaf(table, c, p)
                assert not oracles.on_leaf(table, c + 1, p)
                assert family.hypersurface.contains(p)
    for p in configurations.rational_sphere_points(5, 0):
        assert oracles.on_unit_sphere(p)
        assert not oracles.on_unit_sphere((p[0] + 1,) + tuple(p[1:]))


def test_workloads_pass_at_small_sizes(tmp_path):
    for workload in (
        workloads.GridR2(N=3),
        workloads.CurvesC2(size=4, leaves=2, samples=2, sphere_points=5),
        workloads.PartitionR2(points=32, pool=1, lines=3),
        workloads.PartitionR4(points=32, pool=1),
        workloads.Partition(workloads.PartitionR2(points=32, pool=2, lines=2),
                            workloads.PartitionR4(points=32, pool=1)),
    ):
        result = run_once(workload, tmp_path)
        assert result["correct"] and result["failed"] == 0, workload.name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {"setup_s", "solve_rel", "peak_rss_mib"}


# -- corrupted answers are failed operations --------------------------------------------


def test_dropped_incidence_fails_the_grid_count(tmp_path, monkeypatch):
    real = incidence.build_matrix

    def drop_one(config, **kwargs):
        M = real(config, **kwargs)
        return dataclasses.replace(M, incidences=frozenset(sorted(M.incidences)[1:]))

    monkeypatch.setattr(incidence, "build_matrix", drop_one)
    monkeypatch.setattr(cli, "build_matrix", drop_one)
    result = run_once(workloads.GridR2(N=3), tmp_path)
    assert result["failed"] == 2 and not result["correct"]


def test_wrong_certificate_fails(tmp_path, monkeypatch):
    def violated(M, k, s, **kwargs):
        return incidence.DofCertificate(k, s, "violated", ("curve-pair", (0, 1), ()))

    monkeypatch.setattr(cli, "certify_dof", violated)
    result = run_once(workloads.GridR2(N=3), tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)

    monkeypatch.setattr(incidence, "certify_dof", violated)
    result = run_once(workloads.CurvesC2(size=4, leaves=1, samples=1, sphere_points=2), tmp_path)
    assert result["failed"] == 1 and not result["correct"]


def test_flipped_sign_fails_the_partition(tmp_path, monkeypatch):
    real = partition.polynomial_partition

    def flip_first(*args, **kwargs):
        result = real(*args, **kwargs)
        first = result.sign_assignment[0]
        result.sign_assignment[0] = (-first[0],) + tuple(first[1:])
        return result

    monkeypatch.setattr(partition, "polynomial_partition", flip_first)
    result = run_once(workloads.PartitionR4(points=32, pool=1), tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_raising_operation_fails_but_is_not_wrong(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(partition, "line_crossings", broken)
    result = run_once(workloads.PartitionR2(points=32, pool=1, lines=2), tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)


def test_checks_reject_corrupted_outputs():
    points = small_r2_points(5)
    result = partition.polynomial_partition(points, 4, seed=5)
    D = workloads.DENOMINATOR
    lost = dataclasses.replace(result, on_surface=result.on_surface + 1)
    assert oracles.partition_problems(points, D, 4, lost)[0]
    assert oracles.partition_problems(points, D, 2, result)[0]  # degree 4 > r = 2
    assert oracles.partition_problems(points, D, 4, result, max_class=1)[0]

    bad = CrossingReport(False, True, 2, 3, bound=5)
    too_many = CrossingReport(False, True, 6, 1, bound=5)
    assert oracles.crossing_problems(4, [bad]) and oracles.crossing_problems(4, [too_many])
    assert not oracles.crossing_problems(4, [CrossingReport(True, True, 0, 0)])

    family = configurations.gen_leaf_family(workloads.leaf_generators()[1], 1, 0, samples_per_leaf=2)
    table = {e: oracles.as_pair(c) for e, c in family.g.terms.items()}
    good = (["true"], [["pass", "pass"]], [[0, 0]])
    assert not oracles.leaf_family_problems(table, family.leaf_constants, family.samples, *good)
    for broken in ((["unknown"], good[1], good[2]),
                   (good[0], [["pass", "skip"]], good[2]),
                   (good[0], good[1], [[0, Fraction(1, 3)]]),
                   (good[0], good[1], [[0, "degenerate"]])):
        assert oracles.leaf_family_problems(table, family.leaf_constants, family.samples, *broken)

    sphere = configurations.rational_sphere_points(2, 0)
    assert not oracles.sphere_problems(sphere, [Fraction(1), "degenerate"])
    assert oracles.sphere_problems(sphere, [Fraction(1), 0])
    assert oracles.sphere_problems(sphere, [Fraction(1)])

    N = 2
    good_cert = {"k": 2, "s": 1, "status": "certified", "witness": None,
                 "detail": "", "kst_double_count": {"lhs": 8, "rhs": 120, "holds": True}}
    assert not oracles.grid_certificate_problems(N, 0, good_cert)
    assert oracles.grid_certificate_problems(N, 0, {**good_cert, "status": "indeterminate"})
    assert oracles.grid_certificate_problems(N, 3, good_cert)


# -- the reference chunk ------------------------------------------------------------------


def test_reference_chunk_does_the_same_work_every_time():
    assert reference.chunk() == reference.chunk()


def test_solve_rel_is_pass_time_over_reference_chunk_time(tmp_path, monkeypatch):
    class Sleeper:
        name, imports = "sleeper", ()

        def setup(self, seed, workdir):
            return None

        def expect(self, state):
            pass

        def ops(self, state, k):
            return [workloads.Op("sleep", lambda ctx: time.sleep(0.05), lambda out: [])] * 2

    monkeypatch.setattr(reference, "chunk", lambda: time.sleep(0.01))
    result = run_once(Sleeper(), tmp_path)
    # two 50 ms operations against 10 ms chunks: about 10 chunk times
    assert 7 < result["metrics"]["solve_rel"]["value"] < 13
    assert result["attempted"] == 2 and result["failed"] == 0


# -- the tracer -----------------------------------------------------------------------


def test_tracer_patches_names_imported_elsewhere_and_restores_them():
    originals = (incidence.build_matrix, cli.build_matrix, foliation.rank,
                 partition.isolate_real_roots, incidence.Configuration.from_obj)
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cli.build_matrix is incidence.build_matrix is not originals[0]
        assert foliation.rank is not originals[2]
        assert partition.isolate_real_roots is not originals[3]
        config = configurations.gen_grid_lines(2)
        incidence.Configuration.from_obj(config.to_obj())
        cli.build_matrix(config)
    finally:
        tracer.uninstall()
    assert (incidence.build_matrix, cli.build_matrix, foliation.rank,
            partition.isolate_real_roots, incidence.Configuration.from_obj) == originals
    values = tracer.metrics(1)
    assert values["incidence.build_matrix.calls"] == 1
    assert values["incidence.filter.candidates"] == 16 == values["poly.evaluate.calls"]
    assert values["incidence.filter.pairs"] == 16 * 8
    assert values["incidence.confirm.hit_ratio"] == 1.0
    assert values["cli.load_config.s"] > 0
    assert not tracer.absent_keys


def test_missing_function_is_absent_not_an_error():
    probes = trace.PROBES + (trace.Probe("incidencekit.partition:_no_such_phase",
                                         time="partition.descend.s"),)
    tracer = trace.Tracer(probes)
    tracer.install()
    tracer.uninstall()
    values = tracer.metrics(1)
    assert "partition.descend.s" not in values
    assert "partition.attempts" in values


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run_workload(workloads.PartitionR2(points=32, pool=1, lines=2), 0, 0, True,
                          tmp_path, setups=1, log=io.StringIO())
    assert list(result["metrics"]) == [name for name, _ in trace.PER_LAYER]
    assert result["metrics"]["partition.cuts"]["value"] == 3
    assert result["metrics"]["roots.isolate_real_roots.calls"]["value"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert any(name.endswith(":_descend") for name, *_ in spans)


# -- BENCHMARK.json and the command ------------------------------------------------------


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_rel", "peak_rss_mib"]


def test_command_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-r2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
