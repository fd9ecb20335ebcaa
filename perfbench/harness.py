"""The measuring loop: set up several times, then run passes until the time
is up, checking every operation's output after its pass.

A closed loop with one caller: each operation starts when the previous one
has returned.  In untraced passes the fixed `reference.chunk` runs before
every operation and after the last one, and the pass is reported in units of
its mean chunk time (see reference.py).  With tracing off the result holds
the end-to-end metrics; with tracing on, every pass runs twice on the same
input, first untraced and then traced, and the result holds the per-layer
metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time

from . import reference
from .trace import PER_LAYER, Tracer

SETUPS = 3
PROBLEMS_SHOWN = 5


def _timed_chunk(chunk_s):
    t = time.perf_counter()
    reference.chunk()
    chunk_s.append(time.perf_counter() - t)


def _run_pass(ops, chunk_s=None):
    """Run the operations in order; (wall seconds, CPU seconds, outputs).

    With a list `chunk_s`, a reference chunk is timed into it before every
    operation and after the last one, outside the operations' wall time."""
    ctx: dict = {}
    outputs = []
    wall = cpu = 0.0
    gc.collect()  # the garbage of the previous pass and its checks
    for op in ops:
        if chunk_s is not None:
            _timed_chunk(chunk_s)
        t, c = time.perf_counter(), time.process_time()
        try:
            out, error = op.run(ctx), None
        except Exception as exc:  # a failed operation, counted and reported
            out, error = None, exc
        wall += time.perf_counter() - t
        cpu += time.process_time() - c
        outputs.append((op, out, error))
    if chunk_s is not None:
        _timed_chunk(chunk_s)
    return wall, cpu, outputs


class Tally:
    """Operations attempted, failed (raised or answered wrongly) and wrong."""

    def __init__(self, log):
        self.attempted = self.failed = self.wrong = 0
        self.log = log

    def check(self, pass_index, outputs):
        for op, out, error in outputs:
            self.attempted += 1
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    problems = op.check(out)
                except Exception as exc:  # an answer too malformed to check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                self.wrong += bool(problems)
            if problems:
                self.failed += 1
                if self.failed <= PROBLEMS_SHOWN:
                    print(f"pass {pass_index} {op.name}: " + "; ".join(problems[:3]),
                          file=self.log)


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir,
                 import_s: float = 0.0, setups: int = SETUPS, log=sys.stderr) -> dict:
    tracer = Tracer() if trace else None
    setup_s, generate_s = [], []
    for _ in range(setups):
        if tracer:
            tracer.reset()
            tracer.install()
        t = time.perf_counter()
        try:
            state = workload.setup(seed, workdir)
        finally:
            setup_s.append(time.perf_counter() - t)
            if tracer:
                tracer.uninstall()
                generate_s.append(tracer.totals["configurations.generate.s"])
    workload.expect(state)

    tally = Tally(log)
    wall_s, cpu_s, traced_s, chunk_means, solve_rel = [], [], [], [], []
    if tracer:
        tracer.reset()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        chunk_s: list = []
        wall, cpu, outputs = _run_pass(workload.ops(state, k), chunk_s)
        chunk_means.append(statistics.fmean(chunk_s))
        wall_s.append(wall)
        solve_rel.append(wall / chunk_means[-1])
        cpu_s.append(cpu)
        tally.check(k, outputs)
        if tracer:
            tracer.pass_index = k
            tracer.install()
            try:
                wall, _, outputs = _run_pass(workload.ops(state, k))
            finally:
                tracer.uninstall()
            traced_s.append(wall)
            tally.check(k, outputs)
        k += 1

    if tracer:
        tracer.write_spans(workdir / "spans.json", start)
        values = tracer.metrics(len(traced_s))
        if "configurations.generate.s" not in tracer.absent_keys:
            values["configurations.generate.s"] = statistics.median(generate_s)
        values["run.wall_s"] = statistics.median(wall_s)
        values["run.cpu_s"] = statistics.median(cpu_s)
        values["run.reference_s"] = statistics.median(chunk_means)
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(wall_s)
        absent = [name for name, _ in PER_LAYER if name not in values]
        if absent:
            print("absent per-layer metrics: " + ", ".join(absent), file=log)
        units = dict(PER_LAYER)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _ in PER_LAYER if name in values}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_s), "unit": "s"},
            "solve_rel": {"value": statistics.median(solve_rel), "unit": "ref"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    print(f"{workload.name} seed {seed}: {k} passes, {tally.attempted} operations, "
          f"{tally.failed} failed; pass seconds " + " ".join(f"{t:.3f}" for t in wall_s)
          + "; reference chunk seconds " + " ".join(f"{t:.4f}" for t in chunk_means),
          file=log)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
