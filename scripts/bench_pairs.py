"""Paired speed record: the benchmark on two revisions, run in alternation.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload partition \
        --seeds 101 102 103 104 105 106 107 108 109 110 --tag 6

Both revisions (--parent and --change, default HEAD) are extracted with
`git archive` into a temporary directory, so each side runs its committed
files and nothing else.  The command, the run length and the end-to-end
metrics with their `better` and `bound` are read from BENCHMARK.json in the
change's tree.  For each seed the script runs the command with
`--workload W --seed S --seconds <run_seconds> --trace 0` once in each tree,
one run at a time; the side that goes first alternates from pair to pair, so
slow drifts of the machine fall on both sides alike.  It writes
BENCH_<tag>.json with both SHAs, the core count, the Python version, the
seeds, every run's metrics, the failed operations of each side, and for
every end-to-end metric each side's median and quartiles, the pairs the
change won, the gap between the medians and its verdict (see compare).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> str:
    """Write the files of `rev` into `into`; returns its full SHA."""
    sha = _git("rev-parse", "--verify", rev + "^{commit}")
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `tree`; its last stdout line, parsed."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed in {tree} (exit {done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs: list[dict], metric: dict) -> dict:
    """Both sides of one end-to-end metric, {"name", "better", "bound"} as in
    BENCHMARK.json, and its verdict, the first of these that holds:

    - "gain": the change won at least nine tenths of the pairs (ties count
      for neither) and the gap between the medians exceeds the parent's
      interquartile range;
    - "worse beyond bound": the change's median is worse than the parent's
      by more than bound times the parent's median;
    - "unresolved": the spread of either side (interquartile range over
      median) is wider than the bound, and not every run of the change reads
      better than every run of the parent;
    - "within bound".

    Each pair is {"seed": S, "parent": result, "change": result}, a result
    being the parsed last line of perfbench/run.py."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1  # gains are positive
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    sides = {side: spread(values[side]) for side in SIDES}
    parent, change = sides["parent"], sides["change"]
    wins = sum(sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"]))
    gap = sign * (parent["median"] - change["median"])
    widest = max(s["iqr"] / s["median"] if s["median"] else 0.0 for s in sides.values())
    apart = all(sign * (a - b) > 0 for a in values["parent"] for b in values["change"])
    if 10 * wins >= 9 * len(pairs) and gap > parent["iqr"]:
        verdict = "gain"
    elif -gap > bound * abs(parent["median"]):
        verdict = "worse beyond bound"
    elif widest > bound and not apart:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": metric["better"],
        "bound": bound,
        "wins": wins,
        "median_gap": gap,
        "parent_iqr": parent["iqr"],
        "relative_change": (change["median"] / parent["median"] - 1
                            if parent["median"] else None),
        "widest_spread": widest,
        "verdict": verdict,
        "sides": sides,
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """compare() for every end-to-end metric, and each side's operations."""
    return {
        "pairs": len(pairs),
        "operations": {
            side: {
                "attempted": sum(p[side]["attempted"] for p in pairs),
                "failed": sum(p[side]["failed"] for p in pairs),
                "incorrect_runs": sum(not p[side]["correct"] for p in pairs),
            }
            for side in SIDES
        },
        "metrics": {m["name"]: compare(pairs, m) for m in end_to_end},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--change", default="HEAD", help="revision that claims the gain")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--tag", required=True, help="the record is written to BENCH_<tag>.json")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        shas = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        command, seconds = bench["command"], bench["run_seconds"]
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run_once(trees[side], command, args.workload, seed, seconds)
                shown = ", ".join(f"{m['name']} {pair[side]['metrics'][m['name']]['value']:.4g}"
                                  for m in bench["end_to_end"])
                print(f"seed {seed} {side}: {shown}", file=sys.stderr)
            pairs.append(pair)

    record = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "command": [*command, "--workload", args.workload, "--seed", "<seed>",
                    "--seconds", str(seconds), "--trace", "0"],
        "summary": summarize(pairs, bench["end_to_end"]),
        "runs": pairs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = record["summary"]
    for name, m in summary["metrics"].items():
        print(f"{out.name} {args.workload} {name}: {m['verdict']}; median "
              f"{m['sides']['parent']['median']:.4g} -> {m['sides']['change']['median']:.4g}, "
              f"won {m['wins']} of {summary['pairs']} pairs, gap {m['median_gap']:.4g} vs "
              f"parent IQR {m['parent_iqr']:.4g}, bound {m['bound']}")
    ops = summary["operations"]
    print(f"failed operations: parent {ops['parent']['failed']} of {ops['parent']['attempted']}, "
          f"change {ops['change']['failed']} of {ops['change']['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
