"""Source-level guards over the package."""

import ast
from pathlib import Path

import incidencekit


def test_no_assert_statements_in_src():
    # invariants raise explicit exceptions; `assert` would vanish under -O
    found = []
    for path in sorted(Path(incidencekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
