"""Per-layer tracing from outside the program.

`Tracer.install` replaces functions of incidencekit's modules with timing and
counting wrappers, in every module that holds them: a function that another
module imported by name (`cli.build_matrix`, `foliation.rank`,
`partition.isolate_real_roots`, the package re-exports) is the same object,
so each of those attributes is replaced too.  `uninstall` puts the originals
back.  Nothing under src/ changes.

A timed probe adds a span (name, parent span, pass, start, end) to an
in-memory list, written out once at the end of the run.  Its seconds metric
counts only the outermost span of that metric, so recursion and functions
that share a metric (all of `linalg`) are not counted twice.  A probe whose
target no longer exists marks its metrics absent; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _after_filter(totals, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    totals["incidence.filter.pairs"] += config.m * config.n
    totals["incidence.filter.candidates"] += len(result)


def _after_build(totals, args, kwargs, result):
    totals["incidence.incidences"] += result.count


def _after_bisect(totals, args, kwargs, result):
    totals["partition.strict"] += bool(result.strict_ok)


def _after_write(totals, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    totals["cli.bytes_written"] += len(text.encode("utf-8"))


@dataclass(frozen=True)
class Probe:
    target: str  # "module:qualname"
    time: str | None = None  # seconds metric fed by the outermost spans
    count: str | None = None  # calls metric
    after: Callable | None = None  # (totals, args, kwargs, result) -> None
    after_keys: tuple = ()  # the totals `after` writes

    @property
    def keys(self) -> set:
        return {k for k in (self.time, self.count) if k} | set(self.after_keys)


_IK = "incidencekit."
_LINALG = ("rank", "rref", "kernel_basis", "same_span", "in_span", "det")

PROBES = (
    Probe(_IK + "cli:cmd_count", time="cli.count.s"),
    Probe(_IK + "cli:cmd_certify", time="cli.certify.s"),
    Probe(_IK + "incidence:Configuration.from_obj", time="cli.load_config.s"),
    Probe(_IK + "cli:_write", after=_after_write, after_keys=("cli.bytes_written",)),
    Probe(_IK + "incidence:build_matrix", time="incidence.build_matrix.s",
          count="incidence.build_matrix.calls", after=_after_build,
          after_keys=("incidence.incidences",)),
    Probe(_IK + "incidence:filter_candidates", time="incidence.filter.s",
          after=_after_filter,
          after_keys=("incidence.filter.pairs", "incidence.filter.candidates")),
    Probe(_IK + "incidence:certify_dof", time="incidence.certify_dof.s"),
    Probe(_IK + "poly:MultiPoly.evaluate", count="poly.evaluate.calls"),
    Probe(_IK + "cr:realify", time="cr.realify.s", count="cr.realify.calls"),
    Probe(_IK + "foliation:bracket_defect", time="foliation.bracket_defect.s",
          count="foliation.bracket_defect.calls"),
    Probe(_IK + "foliation:leaf_tangency_check", time="foliation.leaf_tangency_check.s"),
    Probe(_IK + "foliation:containment_check", time="foliation.containment_check.s"),
    Probe(_IK + "foliation:tangent_frame_field", count="foliation.tangent_frame_field.calls"),
    Probe(_IK + "foliation:lie_bracket", count="foliation.lie_bracket.calls"),
    *(
        Probe(_IK + "linalg:" + name, time="linalg.s",
              count=f"linalg.{name}.calls" if name in ("rank", "kernel_basis") else None)
        for name in _LINALG
    ),
    Probe(_IK + "partition:polynomial_partition", time="partition.partition.s"),
    Probe(_IK + "partition:ham_sandwich_bisect", time="partition.bisect.s",
          count="partition.cuts", after=_after_bisect, after_keys=("partition.strict",)),
    Probe(_IK + "partition:_descend", time="partition.descend.s", count="partition.attempts"),
    Probe(_IK + "partition:_exact_projections", time="partition.offset_scan.s"),
    Probe(_IK + "partition:_best_offset", time="partition.offset_scan.s"),
    Probe(_IK + "partition:_pencil_polish", time="partition.polish.s", count="partition.polishes"),
    Probe(_IK + "partition:_best_pencil_t", count="partition.pencil_sweeps"),
    Probe(_IK + "partition:veronese_lift", time="partition.lift.s"),
    Probe(_IK + "partition:line_crossings", time="partition.line_crossings.s"),
    Probe(_IK + "roots:isolate_real_roots", time="roots.isolate_real_roots.s",
          count="roots.isolate_real_roots.calls"),
    *(
        Probe(_IK + "configurations:" + name, time="configurations.generate.s")
        for name in ("generate", "gen_grid_lines", "gen_unit_circles",
                     "gen_complex_lines_product", "gen_leaf_family", "gen_random",
                     "rational_sphere_points")
    ),
)


def _ratio(a, b):
    return a / b if b else 0.0


# metric -> (totals it is computed from, formula)
DERIVED = {
    "incidence.confirm.s": (("incidence.build_matrix.s", "incidence.filter.s"),
                            lambda build, filt: build - filt),
    "incidence.confirm.hit_ratio": (("incidence.incidences", "incidence.filter.candidates"),
                                    _ratio),
    "partition.strict_ratio": (("partition.strict", "partition.cuts"), _ratio),
    "partition.recount.s": (("partition.partition.s", "partition.bisect.s", "partition.lift.s"),
                            lambda total, bisect, lift: total - bisect - lift),
}

# The per-layer metrics in report order, with units.  The run.* metrics and
# trace.overhead_s come from the harness, not from a probe.
PER_LAYER = (
    ("cli.count.s", "s"), ("cli.certify.s", "s"), ("cli.load_config.s", "s"),
    ("cli.bytes_written", "bytes"),
    ("incidence.build_matrix.calls", "count"), ("incidence.build_matrix.s", "s"),
    ("incidence.filter.pairs", "count"), ("incidence.filter.candidates", "count"),
    ("incidence.filter.s", "s"), ("incidence.confirm.s", "s"),
    ("incidence.confirm.hit_ratio", "ratio"), ("incidence.certify_dof.s", "s"),
    ("poly.evaluate.calls", "count"),
    ("cr.realify.calls", "count"), ("cr.realify.s", "s"),
    ("foliation.bracket_defect.calls", "count"), ("foliation.bracket_defect.s", "s"),
    ("foliation.leaf_tangency_check.s", "s"), ("foliation.containment_check.s", "s"),
    ("foliation.tangent_frame_field.calls", "count"), ("foliation.lie_bracket.calls", "count"),
    ("linalg.rank.calls", "count"), ("linalg.kernel_basis.calls", "count"), ("linalg.s", "s"),
    ("partition.cuts", "count"), ("partition.bisect.s", "s"),
    ("partition.attempts", "count"), ("partition.descend.s", "s"),
    ("partition.strict_ratio", "ratio"), ("partition.offset_scan.s", "s"),
    ("partition.polishes", "count"), ("partition.pencil_sweeps", "count"),
    ("partition.polish.s", "s"), ("partition.lift.s", "s"), ("partition.recount.s", "s"),
    ("partition.line_crossings.s", "s"),
    ("roots.isolate_real_roots.calls", "count"), ("roots.isolate_real_roots.s", "s"),
    ("configurations.generate.s", "s"),
    ("run.wall_s", "s"), ("run.cpu_s", "s"), ("run.reference_s", "s"),
    ("trace.overhead_s", "s"),
)

# measured over set-ups rather than over passes
SETUP_METRICS = ("configurations.generate.s",)


def _lookup(target):
    """(owner, attribute name, raw attribute) of "module:qualname"."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Wrappers for PROBES, their totals, and the spans they record."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.totals: defaultdict = defaultdict(float)
        self.spans: list = []
        self.pass_index = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original, replacement)
        self.absent_keys: set = set()
        for probe in probes:
            try:
                owner, attr, raw = _lookup(probe.target)
            except (ImportError, AttributeError):
                self.absent_keys |= probe.keys
                continue
            descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            func = raw.__func__ if descriptor else raw
            wrapped = self._wrap(probe, func)
            self._patches.append((owner, attr, raw, descriptor(wrapped) if descriptor else wrapped))
            if inspect.ismodule(owner):
                # the same function imported by name elsewhere in the package
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if module is owner or not (name == "incidencekit" or name.startswith(_IK)):
                        continue
                    for other, value in list(vars(module).items()):
                        if value is func:
                            self._patches.append((module, other, func, wrapped))

    def _wrap(self, probe, func):
        totals, depth, stack, spans = self.totals, self._depth, self._stack, self.spans
        key, count, after = probe.time, probe.count, probe.after

        if key is None:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                if count:
                    totals[count] += 1
                result = func(*args, **kwargs)
                if after:
                    after(totals, args, kwargs, result)
                return result
            return counted

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if count:
                totals[count] += 1
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span)
            depth[key] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[key] -= 1
                stack.pop()
                if not depth[key]:
                    totals[key] += end - start
                spans[span] = (probe.target, parent, self.pass_index, start, end)
            if after:
                after(totals, args, kwargs, result)
            return result

        return timed

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reset(self):
        self.totals.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of every probe metric and derived metric that is
        not absent (SETUP_METRICS excluded)."""
        out = {}
        for name, _ in PER_LAYER:
            if name in SETUP_METRICS:
                continue
            if name in DERIVED:
                sources, formula = DERIVED[name]
                if self.absent_keys & set(sources):
                    continue
                out[name] = formula(*(self.totals[s] / passes for s in sources))
            elif any(name in p.keys for p in self.probes) and name not in self.absent_keys:
                out[name] = self.totals[name] / passes
        return out

    def write_spans(self, path, origin: float):
        """Spans as JSON rows [name, parent, pass, start, end], times in
        seconds from `origin`."""
        rows = [
            [name, parent, pass_index, start - origin, end - origin]
            for name, parent, pass_index, start, end in self.spans
        ]
        path.write_text(json.dumps({"fields": ["name", "parent", "pass", "start_s", "end_s"],
                                    "spans": rows}) + "\n", encoding="utf-8")
