"""Command-line front door.

Exit codes: 0 success/certified, 1 property violated, 2 input error,
3 indeterminate/budget exhausted.  All randomness flows from --seed
(default 0, never entropy); every output file gets a sidecar manifest and
reruns from a manifest reproduce outputs byte-for-byte.  A manifest records
each input file's sha256 and its path relative to the manifest, so a rerun
finds its inputs from any working directory and refuses (exit 2) to run on
an input that changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

try:  # as in `random`: hashlib loads OpenSSL (about 4 MiB resident), so
    # prefer CPython's lean built-in module where it exists (up to 3.11)
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .configurations import GeneratorSpec, LeafFamily, generate
from .foliation import (
    FrameDegenerateError,
    Hypersurface,
    bracket_defect,
    containment_check,
    leaf_tangency_check,
)
from .cr import ComplexCurve
from .incidence import (
    Configuration,
    build_matrix,
    certify_dof,
    evaluate_bounds,
    exponent_fit,
    kst_double_count,
)
from .partition import BudgetExhaustedError, line_crossings, polynomial_partition
from .poly import MultiPoly

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


class InputError(Exception):
    pass


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _sha256(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_path: Path, command: str, params: dict,
                    inputs: tuple[str, ...], started: float,
                    extra_outputs: tuple[str, ...] = (), stats: dict | None = None):
    """`inputs` names the params that are input files; each is recorded with
    its sha256 and its path relative to the manifest's directory.  The
    outputs are out_path and then `extra_outputs`, relative to the same
    directory.  `stats` (what the run did, never part of an output) is
    recorded as given."""
    base = out_path.resolve().parent

    def relative(path):
        return Path(os.path.relpath(Path(path).resolve(), base)).as_posix()

    manifest = {
        "artifact_version": __version__,
        "command": command,
        "params": params,
        "seed": params.get("seed", 0),
        "inputs": [
            {"param": key, "path": relative(params[key]),
             "sha256": _sha256(Path(params[key]))}
            for key in sorted(inputs)
        ],
        "outputs": [out_path.name, *(relative(path) for path in extra_outputs)],
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    if stats is not None:
        manifest["stats"] = stats
    _write(out_path.with_suffix(out_path.suffix + ".manifest.json"),
           _dump_json(manifest))


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_config(path: str) -> Configuration:
    obj = _load_json(path)
    try:
        return Configuration.from_obj(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed configuration {path}: {exc}") from exc


# -- commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    started = time.monotonic()
    params = {"family": args.family, "seed": args.seed}
    spec_params: dict = {}
    if args.family == "grid-lines":
        spec_params["n"] = _require(args.n, "--n")
    elif args.family == "unit-circles":
        spec_params["n"] = _require(args.n, "--n")
    elif args.family == "complex-lines-product":
        spec_params["size_a"] = _require(args.size_a, "--size-a")
        spec_params["size_b"] = _require(args.size_b, "--size-b")
    elif args.family == "leaf":
        spec_params["g"] = _require(args.g, "--g")
        spec_params["count"] = args.count
    elif args.family == "random":
        spec_params.update(
            {"points": args.points, "curves": args.curves, "degree": args.degree}
        )
    params.update(spec_params)
    result = generate(GeneratorSpec(args.family, spec_params, args.seed))
    out = Path(args.out or f"{args.family}.json")
    if isinstance(result, LeafFamily):
        obj = {
            "kind": "leaf-family",
            "hypersurface": result.hypersurface.P.to_obj(),
            "g": result.g.to_obj(),
            "curves": [c.f.to_obj() for c in result.curves],
            "constants": [str(c) for c in result.leaf_constants],
            "samples": {
                str(k): [[str(c) for c in p] for p in v]
                for k, v in result.samples.items()
            },
        }
        _write(out, _dump_json(obj))
    else:
        _write(out, result.to_json() + "\n")
    _write_manifest(out, "generate", params, (), started)
    print(f"wrote {out}")
    return EXIT_OK


def _require(value, flag):
    if value is None:
        raise InputError(f"missing required flag {flag}")
    return value


def cmd_count(args) -> int:
    started = time.monotonic()
    config = _load_config(args.config)
    matrix = build_matrix(config)
    out = Path(args.out or "count.json")
    report = {"m": matrix.m, "n": matrix.n, "I": matrix.count}
    if args.format == "csv":
        _write(out, "m,n,I\n" f"{matrix.m},{matrix.n},{matrix.count}\n")
    else:
        _write(out, _dump_json(report))
    if args.matrix_csv:
        _write(Path(args.matrix_csv), matrix.to_csv())
    _write_manifest(
        out, "count",
        {"config": args.config, "format": args.format, "seed": args.seed,
         "threads": args.threads, "matrix_csv": args.matrix_csv},
        ("config",), started,
        extra_outputs=(args.matrix_csv,) if args.matrix_csv else (),
    )
    print(f"I = {matrix.count}")
    return EXIT_OK


def cmd_certify(args) -> int:
    started = time.monotonic()
    config = _load_config(args.config)
    matrix = build_matrix(config)
    cert = certify_dof(matrix, args.k, args.s)
    kst = kst_double_count(matrix, args.k, args.s) if cert.status == "certified" else None
    out = Path(args.out or "certificate.json")
    obj = cert.to_obj()
    if kst is not None:
        obj["kst_double_count"] = kst.to_obj()
    _write(out, _dump_json(obj))
    _write_manifest(
        out, "certify",
        {"config": args.config, "k": args.k, "s": args.s, "seed": args.seed,
         "threads": args.threads},
        ("config",), started,
    )
    if cert.status == "certified":
        print("certified")
        return EXIT_OK
    if cert.status == "violated":
        print(f"violated: {cert.detail}; witness {cert.witness}")
        return EXIT_VIOLATED
    print(f"indeterminate: {cert.detail}")
    return EXIT_INDETERMINATE


def cmd_partition(args) -> int:
    started = time.monotonic()
    config = _load_config(args.config)
    if config.ground_field != "R2":
        raise InputError("partitioning expects a real planar configuration")
    try:
        result = polynomial_partition(
            config.points, args.r, delta=args.delta,
            restarts=args.restarts, seed=args.seed,
        )
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}")
        return EXIT_INDETERMINATE
    out = Path(args.out or "partition.json")
    if args.format == "csv":
        lines = ["sign_class,count"]
        for key, cnt in sorted(result.to_obj()["occupancy"].items()):
            lines.append(f"{key},{cnt}")
        lines.append(f"on_surface,{result.on_surface}")
        _write(out, "\n".join(lines) + "\n")
    else:
        _write(out, _dump_json(result.to_obj()))
    _write_manifest(
        out, "partition",
        {"config": args.config, "r": args.r, "delta": args.delta,
         "restarts": args.restarts, "seed": args.seed,
         "format": args.format, "threads": args.threads},
        ("config",), started,
        stats={"cuts": [
            {"restarts_used": cut.restarts_used, "strict_ok": cut.strict_ok,
             "counts": [list(c) for c in cut.counts]}
            for cut in result.cuts
        ]},
    )
    max_class = max(result.occupancy.values(), default=0)
    print(f"classes={result.achieved_classes} max_class={max_class} "
          f"on_surface={result.on_surface} degree={result.total_degree}")
    return EXIT_OK


def cmd_foliate(args) -> int:
    started = time.monotonic()
    hobj = _load_json(args.hypersurface)
    if "hypersurface" in hobj:
        Z = Hypersurface(MultiPoly.from_obj(hobj["hypersurface"]))
    else:
        Z = Hypersurface(MultiPoly.from_obj(hobj))
    cobj = _load_json(args.curves)
    curve_objs = cobj["curves"] if isinstance(cobj, dict) else cobj
    curves = [ComplexCurve(MultiPoly.from_obj(c)) for c in curve_objs]
    samples = {}
    if isinstance(cobj, dict) and "samples" in cobj:
        samples = {
            int(k): [tuple(Fraction(c) for c in p) for p in v]
            for k, v in cobj["samples"].items()
        }
    records = []
    any_fail = False
    for idx, curve in enumerate(curves):
        contain = containment_check(Z, curve)
        pts = samples.get(idx, [])
        tangency = leaf_tangency_check(Z, curve, pts)
        for rec in tangency:
            defect = None
            if rec.status == "pass":
                try:
                    defect = str(bracket_defect(Z, rec.point).raw)
                except (ValueError, FrameDegenerateError):
                    defect = None
            if rec.status == "fail":
                any_fail = True
            records.append({
                "curve": idx,
                "point": [str(c) for c in rec.point],
                "containment": contain.status,
                "tangency": rec.status,
                "reason": rec.reason,
                "defect": defect,
            })
        if not pts:
            records.append({
                "curve": idx, "point": None,
                "containment": contain.status,
                "tangency": None, "reason": "no sample points", "defect": None,
            })
        if contain.status == "false":
            any_fail = True
    out = Path(args.out or "foliation.json")
    if args.format == "csv":
        lines = ["curve,point,containment,tangency,defect"]
        for r in records:
            pt = ";".join(r["point"]) if r["point"] else ""
            lines.append(
                f"{r['curve']},{pt},{r['containment']},{r['tangency']},{r['defect']}"
            )
        _write(out, "\n".join(lines) + "\n")
    else:
        _write(out, _dump_json(records))
    _write_manifest(
        out, "foliate",
        {"hypersurface": args.hypersurface, "curves": args.curves,
         "seed": args.seed, "format": args.format, "threads": args.threads},
        ("hypersurface", "curves"), started,
    )
    print(f"{len(records)} records; failures={any_fail}")
    return EXIT_VIOLATED if any_fail else EXIT_OK


def cmd_bound(args) -> int:
    started = time.monotonic()
    report = evaluate_bounds(args.m, args.n, args.k, args.s, args.eps, args.i)
    out = Path(args.out or "bound.json")
    _write(out, _dump_json(report.to_obj()))
    _write_manifest(
        out, "bound",
        {"m": args.m, "n": args.n, "k": args.k, "s": args.s,
         "eps": args.eps, "i": args.i, "seed": args.seed},
        (), started,
    )
    print(f"ps={report.ps_value:.6g} ps_complex={report.ps_complex_value:.6g} "
          f"kst={report.kst_value:.6g}")
    return EXIT_OK


def cmd_fit(args) -> int:
    started = time.monotonic()
    series = []
    text = Path(args.series).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.strip().splitlines()):
        if line_no == 0 and not line.split(",")[0].strip().isdigit():
            continue  # header row
        m, n, i = (int(x) for x in line.split(","))
        series.append((m, n, i))
    try:
        fit = exponent_fit(series)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = Path(args.out or "fit.json")
    _write(out, _dump_json(fit.to_obj()))
    _write_manifest(
        out, "fit", {"series": args.series, "seed": args.seed},
        ("series",), started,
    )
    print(f"a={fit.a:.6f} b={fit.b:.6f} residual={fit.residual:.3g}"
          + (" (combined)" if fit.combined else ""))
    return EXIT_OK


def _verified_inputs(manifest: dict, base: Path) -> dict:
    """param -> input path resolved against the manifest's directory `base`,
    after checking each file against its recorded sha256."""
    resolved = {}
    try:
        for entry in manifest["inputs"]:
            path = base / entry["path"]
            try:
                digest = _sha256(path)
            except OSError as exc:
                raise InputError(f"cannot read input {path}: {exc}") from exc
            if digest != entry["sha256"]:
                raise InputError(
                    f"input {path} changed since the manifest was written "
                    f"(sha256 {digest}, recorded {entry['sha256']})"
                )
            resolved[entry["param"]] = str(path)
    except (KeyError, TypeError) as exc:
        raise InputError(f"manifest does not record its inputs' hashes: {exc!r}") from exc
    return resolved


def cmd_rerun(args) -> int:
    manifest = _load_json(args.manifest)
    out_dir = Path(args.manifest).parent
    command = manifest["command"]
    params = {**manifest["params"], **_verified_inputs(manifest, out_dir)}
    outputs = [out_dir / path for path in manifest["outputs"]]
    if params.get("matrix_csv"):
        if len(outputs) < 2:
            raise InputError("manifest does not record the matrix CSV's path")
        params["matrix_csv"] = str(outputs[1])
    argv = [command]
    for key, value in sorted(params.items()):
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if command in ("count", "certify", "partition") and key == "config":
            continue
        argv.append(flag)
        argv.append(str(value))
    if "config" in params:
        argv.insert(1, params["config"])
    argv += ["--out", str(outputs[0])]
    return main(argv)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incidencekit",
        description="exact point-curve incidence workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the manifest; never changes a result")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)

    g = sub.add_parser("generate", help="emit a configuration file")
    g.add_argument("--family", required=True,
                   choices=["grid-lines", "unit-circles",
                            "complex-lines-product", "leaf", "random"])
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--size-a", type=int, default=None)
    g.add_argument("--size-b", type=int, default=None)
    g.add_argument("--g", default=None, help="leaf generator g(z1), e.g. 'z1^2'")
    g.add_argument("--count", type=int, default=5)
    g.add_argument("--points", type=int, default=100)
    g.add_argument("--curves", type=int, default=10)
    g.add_argument("--degree", type=int, default=2)
    common(g)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("count", help="exact incidence count")
    c.add_argument("config")
    c.add_argument("--matrix-csv", default=None)
    common(c)
    c.set_defaults(func=cmd_count)

    ce = sub.add_parser("certify", help="degrees-of-freedom certificate")
    ce.add_argument("config")
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--s", type=int, required=True)
    common(ce)
    ce.set_defaults(func=cmd_certify)

    pa = sub.add_parser("partition", help="polynomial partitioning")
    pa.add_argument("config")
    pa.add_argument("--r", type=int, required=True)
    pa.add_argument("--delta", type=float, default=0.1)
    pa.add_argument("--restarts", type=int, default=200)
    common(pa)
    pa.set_defaults(func=cmd_partition)

    fo = sub.add_parser("foliate", help="containment/tangency/defect report")
    fo.add_argument("--hypersurface", required=True)
    fo.add_argument("--curves", required=True)
    common(fo)
    fo.set_defaults(func=cmd_foliate)

    bo = sub.add_parser("bound", help="evaluate incidence bound formulas")
    bo.add_argument("--m", type=int, required=True)
    bo.add_argument("--n", type=int, required=True)
    bo.add_argument("--k", type=int, required=True)
    bo.add_argument("--s", type=int, default=1)
    bo.add_argument("--eps", type=float, default=0.0)
    bo.add_argument("--i", type=int, required=True)
    common(bo)
    bo.set_defaults(func=cmd_bound)

    fi = sub.add_parser("fit", help="fit exponents to an (m,n,I) series CSV")
    fi.add_argument("--series", required=True)
    common(fi)
    fi.set_defaults(func=cmd_fit)

    re = sub.add_parser("rerun", help="re-execute a command from its manifest")
    re.add_argument("--manifest", required=True)
    re.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
