"""Source-level guards over the package."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import incidencekit

SRC = Path(incidencekit.__file__).parent


def test_no_assert_statements_in_src():
    # invariants raise explicit exceptions; `assert` would vanish under -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep).group(0) for dep in pyproject["project"]["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared == {"numpy"}


def test_generators_and_bounds_load_neither_mpmath_nor_hashlib():
    # hashlib loads OpenSSL (about 4 MiB resident); where CPython has the
    # lean _sha256 module, seeding and manifest hashing use that instead
    script = """
import importlib.util, json, sys
import incidencekit
from incidencekit.configurations import gen_complex_lines_product, rational_sphere_points
from incidencekit.incidence import evaluate_bounds
gen_complex_lines_product(4, 4)
rational_sphere_points(8)
evaluate_bounds(54, 27, 2, 1, 0.05, 81)
print(json.dumps({"mpmath": "mpmath" in sys.modules, "hashlib": "hashlib" in sys.modules,
                  "lean_sha256": importlib.util.find_spec("_sha256") is not None}))
"""
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert not loaded["mpmath"]
    if loaded["lean_sha256"]:
        assert not loaded["hashlib"]


def test_partitioning_loads_no_scipy(tmp_path):
    # the descent's minimiser is the package's own; scipy is a test oracle
    script = """
import json, sys
from fractions import Fraction
from incidencekit.cli import main
from incidencekit.partition import polynomial_partition
polynomial_partition([(Fraction(i, 7), Fraction(i * i % 5, 3)) for i in range(12)], r=2)
codes = [main(["generate", "--family", "random", "--points", "16", "--curves", "0",
               "--out", "r.json"]),
         main(["partition", "r.json", "--r", "2", "--out", "p.json"])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"codes": [0, 0], "scipy": False}


def references_outside(reference: set, allowed: set = frozenset()) -> list[str]:
    """Where program code refers to a name in `reference`, outside the
    top-level definitions of those names and of `allowed`.  A module may
    import such a name only for the allowed code it holds, and the package's
    re-exports are not uses."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        may_import = any(getattr(top, "name", None) in allowed for top in tree.body)
        for top in tree.body:
            if getattr(top, "name", None) in reference | allowed:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (isinstance(node, ast.alias) and path.name != "__init__.py"
                      and not may_import):
                    name = node.asname or node.name
                else:
                    continue
                if name in reference:
                    found.append(f"{path.name}:{getattr(node, 'lineno', top.lineno)} {name}")
    return found


def test_no_program_path_uses_the_symbolic_lie_bracket():
    # the Levi defect has one closed form; the symbolic frame fields and their
    # bracket stay only as the reference the tests hold it to
    found = references_outside({"lie_bracket", "PolyVectorField", "tangent_frame_field"})
    assert not found, f"program code refers to the Lie-bracket reference: {found}"


def test_only_distribution_frame_builds_e_p():
    # E_p is built only for the frame distribution_frame returns; the defect
    # and leaf tangency read grad P(p) alone, so no per-sample path builds it
    found = references_outside({"kernel_basis"}, {"distribution_frame"})
    assert not found, f"program code outside distribution_frame builds E_p: {found}"


def test_no_program_path_evaluates_in_fractions_by_horner():
    # root isolation and line crossings read signs from the integer rule
    # roots._sign_at; the Fraction Horner evaluation stays only in
    # tests/test_roots.py, beside the Fraction isolation it is held to
    found = references_outside({"poly_eval_coeffs"})
    assert not found, f"program code refers to poly_eval_coeffs: {found}"


def test_only_poly_clears_denominators():
    # poly._integer_form and poly._primitive are the one denominator and
    # content clearing; any other module taking an lcm or gcd would be a copy
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            else:
                continue
            found += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
                      for name in names & {"lcm", "gcd"}]
    assert not found, f"denominator or content clearing outside poly: {found}"


def _calls(node, name: str) -> bool:
    """Whether `node` is a call of a function or method named `name`."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_integer_questions_read_the_integer_sum():
    # whether a value is 0, and its primitive integer direction, are read from
    # the Gaussian-integer sum (poly._vanishes, poly._primitive_at); building
    # a Fraction per value to compare it with 0 or clear it again is waste.
    # A truth test on one evaluate value (the incidence confirmation) and
    # signs of evaluate values (sign_class) stay.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                zero = any(isinstance(o, ast.Constant) and type(o.value) is int and o.value == 0
                           for o in operands)
                if zero and any(_calls(n, "evaluate") for o in operands for n in ast.walk(o)):
                    found.append(f"{path.name}:{node.lineno} evaluate(...) compared with 0")
            elif _calls(node, "_primitive"):
                if any(_calls(n, "evaluate") for a in node.args for n in ast.walk(a)):
                    found.append(f"{path.name}:{node.lineno} _primitive of evaluate(...) values")
    assert not found, f"integer questions answered through Fractions: {found}"


def test_only_poly_reads_parts_of_q_i():
    # poly knows how a value of Q(i) is written: every (re, im) split outside
    # it goes through poly._parts, and every real input through poly._real
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("re", "im"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif _calls(node, "getattr") and any(
                    isinstance(a, ast.Constant) and a.value in ("re", "im") for a in node.args):
                found.append(f"{path.name}:{node.lineno} getattr")
    assert not found, f"values of Q(i) split outside poly: {found}"
