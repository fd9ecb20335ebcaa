"""Benchmark command for incidencekit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's own src/, never from an installed copy; without it the command
exits with code 2 and prints no result.  Working files and, with --trace 1,
the recorded spans go to .perfbench-out/ in the checkout.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Progress and problems go to standard error.
"""

import os

# one caller and one BLAS thread: the closed loop is single-threaded, and
# the machine's other cores stay free for noise rather than for the program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "incidencekit" / "__init__.py").is_file():
        print(f"perfbench: no incidencekit sources in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    started = time.perf_counter()
    import incidencekit
    import incidencekit.cli  # noqa: F401  (the package does not import the CLI)

    if not Path(incidencekit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported incidencekit from {incidencekit.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    for module in workload.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - started

    workdir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir,
                          import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
