"""Seeded mutation fuzzing of the CLI's file inputs.

Each mutation sets one field of a valid input file to an odd value, or
deletes it, and runs commands on the result in process: `count` and
`certify` on a `grid-lines --n 2` file, `foliate` and `count` on a leaf
file.  The contract: no exception escapes `cli.main`, every exit code is one
of 0-3, and every call ends within its alarm."""

import json
import random
import signal
from pathlib import Path

import pytest

from incidencekit.cli import main

MUTATIONS_PER_FILE = 40
ALARM_S = 20

# an exponent 2^70 is rejected at read time; one of 10,000 is allowed and
# slow, so it is not among the values
ODD_VALUES = [
    None, True, False, 0, -1, 2, 5, 1.5, -0.0, 1e308, float("nan"), 2**70, -(2**70),
    "", "x", "1/0", "1/2/3", "0/1", "-3/2", " 7 ", "1e400", f"{10**400}/3",
    [], [0], [1, 2, 3], ["1/1", "1/1"], {}, {"re": "1/1"}, {"re": "1/2", "im": "1/3"},
]


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the CLI takes it."""


def _paths(obj, prefix=()):
    """Every path of keys and indices below the root of a JSON value."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutate(obj, rng: random.Random):
    """A copy of `obj` with one field set to an odd value or deleted, and a
    description of the change."""
    obj = json.loads(json.dumps(obj))
    path = rng.choice(list(_paths(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
        return obj, f"delete {path}"
    value = rng.choice(ODD_VALUES)
    parent[path[-1]] = value
    return obj, f"set {path} to {value!r}"


def _on_alarm(signum, frame):
    raise Hang()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("family, commands", [
    (["grid-lines", "--n", "2"], [["count", "{}"], ["certify", "{}", "--k", "2", "--s", "1"]]),
    (["leaf", "--g", "z1^2", "--count", "2"],
     [["foliate", "--hypersurface", "{}", "--curves", "{}"], ["count", "{}"]]),
], ids=["grid", "leaf"])
def test_mutated_files_are_answered_or_rejected(tmp_path, monkeypatch, capsys, family,
                                                commands):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", *family, "--out", "base.json"]) == 0
    base = json.loads(Path("base.json").read_text())
    rng = random.Random(f"fuzz:{family[0]}")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    problems = []
    try:
        for _ in range(MUTATIONS_PER_FILE):
            obj, change = mutate(base, rng)
            Path("mutated.json").write_text(json.dumps(obj))
            for command in commands:
                argv = [a.format("mutated.json") for a in command] + ["--out", "out.json"]
                signal.alarm(ALARM_S)
                try:
                    code = main(argv)
                except Hang:
                    problems.append(f"{argv[0]} after {change}: no answer in {ALARM_S} s")
                except Exception as exc:  # the contract: nothing escapes
                    problems.append(f"{argv[0]} after {change}: {exc!r}")
                else:
                    if code not in (0, 1, 2, 3):
                        problems.append(f"{argv[0]} after {change}: exit {code!r}")
                finally:
                    signal.alarm(0)
            capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not problems, "\n".join(problems)
