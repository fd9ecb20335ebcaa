"""A fixed computation of the benchmark's own, timed beside the program.

The shared host this benchmark runs on changes the speed of its virtual CPUs
by up to 1.7x for tens of seconds at a time, so two runs of the same code can
differ in wall time by more than any useful bound.  The harness therefore
runs `chunk()` before every operation and after the last one, and reports
each pass's wall time in units of the mean chunk time of that pass: the
chunk and the operations beside it see the same host.

The chunk does the kind of work incidencekit does -- rational arithmetic on
denominators of 2^20, big-integer products, tuples hashed into dicts and
sets, sorting -- but calls nothing of the program.  A change to the program
moves the ratio; a change in the host's speed moves both of its sides.  The
work is the same on every call, whatever the workload or the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

_rng = random.Random("perfbench-reference")
_D = 2**20
_FRACTIONS = [Fraction(_rng.randrange(1, _D), _D) for _ in range(1200)]
_INTS = [_rng.getrandbits(256) | 1 for _ in range(1200)]
_P = 2**127 - 1


def chunk() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    acc = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        acc += a * b - a / (b + 1)
    prod = 1
    for x in _INTS:
        prod = prod * x % _P
    seen: dict = {}
    cells = set()
    for i, a in enumerate(_FRACTIONS):
        key = (a.numerator % 251, i % 17)
        seen[key] = seen.get(key, 0) + 1
        cells.add((key, a.denominator))
    order = sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))
    return (acc.numerator + prod + len(cells) + len(order)) % _P
