"""CLI contract: subcommands, exit codes, manifests, determinism."""

import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import incidencekit
from incidencekit.cli import main
from incidencekit.incidence import FILTER_PRIME, Configuration
from incidencekit.poly import MultiPoly


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGenerate:
    def test_grid_lines_counts(self, ws):
        assert run(["generate", "--family", "grid-lines", "--n", 4,
                    "--out", "g.json"]) == 0
        obj = json.loads(Path("g.json").read_text())
        assert len(obj["points"]) == 128
        assert len(obj["curves"]) == 64

    def test_leaf_family_shape(self, ws):
        assert run(["generate", "--family", "leaf", "--g", "z1^2",
                    "--count", 5, "--out", "leaf.json"]) == 0
        obj = json.loads(Path("leaf.json").read_text())
        assert len(obj["curves"]) == 5
        assert "hypersurface" in obj

    def test_missing_flag_exit2(self, ws):
        assert run(["generate", "--family", "grid-lines"]) == 2

    def test_usage_error_exit2(self, ws):
        with pytest.raises(SystemExit) as exc:
            run(["generate"])  # argparse: missing required --family
        assert exc.value.code == 2

    def test_manifest_written(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        manifest = json.loads(Path("g.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 0
        assert manifest["outputs"] == ["g.json"]


class TestCount:
    def test_grid_n3(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 3, "--out", "g.json"])
        assert run(["count", "g.json", "--out", "c.json"]) == 0
        assert json.loads(Path("c.json").read_text())["I"] == 81

    def test_empty_curves(self, ws):
        run(["generate", "--family", "random", "--points", 5, "--curves", 0,
             "--out", "r.json"])
        run(["count", "r.json", "--out", "c.json"])
        assert json.loads(Path("c.json").read_text())["I"] == 0

    def test_malformed_config_exit2(self, ws):
        Path("bad.json").write_text("{notjson")
        assert run(["count", "bad.json"]) == 2

    def test_csv_format(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        run(["count", "g.json", "--format", "csv", "--out", "c.csv"])
        lines = Path("c.csv").read_text().splitlines()
        assert lines[0] == "m,n,I"
        assert lines[1] == "16,8,16"


class TestCertify:
    def test_lines_exit0(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        assert run(["certify", "g.json", "--k", 2, "--s", 1,
                    "--out", "cert.json"]) == 0

    def test_duplicate_curve_exit1(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        obj = json.loads(Path("g.json").read_text())
        # a scaled copy dedups away, so add a line and a parabola that both
        # pass through the grid points (1,1) and (2,2): the 2-subset then
        # lies on two curves, violating s = 1
        obj["curves"].append({
            "vars": 2, "field": "Q",
            "terms": [
                {"exp": [1, 0], "coef": "-1/1"},
                {"exp": [0, 1], "coef": "1/1"},
            ],
        })
        obj["curves"].append({
            "vars": 2, "field": "Q",
            "terms": [
                {"exp": [2, 0], "coef": "1/1"},
                {"exp": [1, 0], "coef": "-2/1"},
                {"exp": [0, 1], "coef": "-1/1"},
                {"exp": [0, 0], "coef": "2/1"},
            ],
        })
        Path("g2.json").write_text(json.dumps(obj))
        code = run(["certify", "g2.json", "--k", 2, "--s", 1,
                    "--out", "cert.json"])
        assert code == 1

    def test_huge_k_exit3(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 4, "--out", "g.json"])
        obj = json.loads(Path("g.json").read_text())
        # one vertical line x = 1 through 32 grid points, k = 16: C(32,16)
        # subsets exceed the 10^7 cap
        obj["curves"] = [{
            "vars": 2, "field": "Q",
            "terms": [
                {"exp": [1, 0], "coef": "1/1"},
                {"exp": [0, 0], "coef": "-1/1"},
            ],
        }]
        Path("g3.json").write_text(json.dumps(obj))
        code = run(["certify", "g3.json", "--k", 16, "--s", 1,
                    "--out", "cert.json"])
        assert code == 3


class TestPartitionFoliateBoundFit:
    def test_partition_command(self, ws):
        run(["generate", "--family", "random", "--points", 64, "--curves", 0,
             "--out", "r.json"])
        assert run(["partition", "r.json", "--r", 4, "--out", "p.json"]) == 0
        obj = json.loads(Path("p.json").read_text())
        assert sum(obj["occupancy"].values()) + obj["on_surface"] == 64

    def test_partition_manifest_records_each_cut(self, ws):
        run(["generate", "--family", "random", "--points", 64, "--curves", 0,
             "--out", "r.json"])
        assert run(["partition", "r.json", "--r", 4, "--out", "p.json"]) == 0
        obj = json.loads(Path("p.json").read_text())
        assert "stats" not in obj
        cuts = json.loads(Path("p.json.manifest.json").read_text())["stats"]["cuts"]
        assert len(cuts) == len(obj["bisectors"]) == 3
        for cut in cuts:
            assert cut["restarts_used"] >= 1
            assert isinstance(cut["strict_ok"], bool)
            assert sum(sum(c) for c in cut["counts"]) <= 64
            # each attempt runs one offset scan, and polishes run sweeps
            assert cut["pencil_sweeps"] >= cut["restarts_used"]
            assert cut["polish_rounds"] >= 0
            assert cut["seconds"] >= 0
        # the first cut bisects every point
        assert sum(cuts[0]["counts"][0]) == 64

    def test_count_and_certify_manifests_record_the_filter_work(self, ws):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        # x + y - p vanishes mod p at the origin, but not exactly
        config = Configuration.build(
            "R2", [(0, 0), (1, 0)],
            [x + y - MultiPoly.constant(FILTER_PRIME, 2), y],
        )
        Path("c.json").write_text(config.to_json())
        assert run(["count", "c.json", "--out", "n.json"]) == 0
        assert run(["certify", "c.json", "--k", 2, "--s", 1,
                    "--out", "cert.json"]) == 0
        for out in ("n.json", "cert.json"):
            assert "stats" not in json.loads(Path(out).read_text())
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            assert manifest["stats"] == {"pairs": 4, "candidates": 3, "confirmed": 2}

    def test_foliate_all_pass(self, ws):
        run(["generate", "--family", "leaf", "--g", "z1", "--count", 3,
             "--out", "leaf.json"])
        code = run(["foliate", "--hypersurface", "leaf.json",
                    "--curves", "leaf.json", "--out", "f.json"])
        assert code == 0
        records = json.loads(Path("f.json").read_text())
        assert all(r["tangency"] == "pass" for r in records if r["tangency"])
        assert all(r["containment"] == "true" for r in records)

    def test_partition_budget_exhausted_exit3(self, ws, capsys):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        capsys.readouterr()
        assert run(["partition", "g.json", "--r", 8, "--restarts", 1, "--delta", 0,
                    "--out", "p.json"]) == 3
        out, err = capsys.readouterr()
        assert "budget exhausted" in err and "budget exhausted" not in out
        assert not Path("p.json").exists()
        assert not Path("p.json.manifest.json").exists()

    def test_foliate_reads_real_coefficients_written_in_q_i(self, ws):
        run(["generate", "--family", "leaf", "--g", "z1^2", "--count", 3, "--out", "leaf.json"])
        obj = json.loads(Path("leaf.json").read_text())
        term = obj["hypersurface"]["terms"][0]
        term["coef"] = {"re": term["coef"], "im": "0/1"}
        Path("leaf_qi.json").write_text(json.dumps(obj))
        for fmt in ("json", "csv"):
            for source in ("leaf", "leaf_qi"):
                assert run(["foliate", "--hypersurface", source + ".json", "--curves", "leaf.json",
                            "--format", fmt, "--out", f"f_{source}.{fmt}"]) == 0
            assert Path(f"f_leaf_qi.{fmt}").read_bytes() == Path(f"f_leaf.{fmt}").read_bytes()

    def test_foliate_reads_real_samples_written_in_q_i(self, ws):
        run(["generate", "--family", "leaf", "--g", "z1^2", "--count", 3, "--out", "leaf.json"])
        obj = json.loads(Path("leaf.json").read_text())
        for im, name in (("0/1", "real"), ("1/2", "nonreal")):
            samples = {k: [[{"re": c, "im": im} for c in p] for p in v]
                       for k, v in obj["samples"].items()}
            Path(f"{name}.json").write_text(json.dumps({**obj, "samples": samples}))
        assert run(["foliate", "--hypersurface", "leaf.json", "--curves", "leaf.json",
                    "--out", "f.json"]) == 0
        assert run(["foliate", "--hypersurface", "leaf.json", "--curves", "real.json",
                    "--out", "f_real.json"]) == 0
        assert Path("f_real.json").read_bytes() == Path("f.json").read_bytes()
        assert run(["foliate", "--hypersurface", "leaf.json", "--curves", "nonreal.json",
                    "--out", "f_nonreal.json"]) == 2
        assert not Path("f_nonreal.json").exists()

    def test_bound_command(self, ws):
        assert run(["bound", "--m", 54, "--n", 27, "--k", 2, "--i", 81,
                    "--out", "b.json"]) == 0
        obj = json.loads(Path("b.json").read_text())
        assert obj["I"] == 81 and obj["kst_regime"]

    def test_fit_command(self, ws):
        Path("s.csv").write_text(
            "m,n,I\n16,81,256\n64,81,1024\n16,729,512\n64,729,2048\n"
        )
        assert run(["fit", "--series", "s.csv", "--out", "fit.json"]) == 0
        obj = json.loads(Path("fit.json").read_text())
        assert abs(obj["a"] - 1.0) < 1e-6

    def test_fit_rejects_m_below_one_by_name(self, ws, capsys):
        Path("s.csv").write_text("0,1,1\n2,3,4\n5,6,7\n")
        assert run(["fit", "--series", "s.csv"]) == 2
        err = capsys.readouterr().err
        assert "m, n" in err and "SVD" not in err

    def test_fit_reads_a_first_row_of_three_integers_as_data(self, ws, capsys):
        # only a first line that does not parse as three integers is a header
        Path("s.csv").write_text("-3,4,5\n16,81,256\n64,81,1024\n16,729,512\n")
        assert run(["fit", "--series", "s.csv"]) == 2
        assert "m, n" in capsys.readouterr().err
        # three of these rows fit exactly; the fourth, written with a sign, leaves a residual
        Path("h.csv").write_text("+16,81,250\n64,81,1024\n16,729,512\n64,729,2048\n")
        assert run(["fit", "--series", "h.csv", "--out", "h.json"]) == 0
        assert json.loads(Path("h.json").read_text())["residual"] > 1e-3


INPUT_ERRORS = {
    "grid of size 0": ["generate", "--family", "grid-lines", "--n", 0],
    "unparsable leaf": ["generate", "--family", "leaf", "--g", "z1^"],
    "non-integer series row": ["fit", "--series", "bad.csv"],
    "missing series": ["fit", "--series", "missing.csv"],
    "zero hypersurface": ["foliate", "--hypersurface", "zero.json", "--curves", "leaf.json"],
    "partition r = 1": ["partition", "g.json", "--r", 1],
    "bound m = 0": ["bound", "--m", 0, "--n", 1, "--k", 2, "--i", 0],
    "manifest without params": ["rerun", "--manifest", "noparams.manifest.json"],
    "random curves of degree 0": ["generate", "--family", "random", "--degree", 0],
    "leaf dividing by zero": ["generate", "--family", "leaf", "--g", "z1/0"],
    "leaf with a non-real exponent": ["generate", "--family", "leaf", "--g", "z1^(2+i)"],
    "samples not a mapping": ["foliate", "--hypersurface", "leaf.json", "--curves", "listed.json"],
    "point coordinate 1/0": ["count", "g_zero_den.json"],
    "hypersurface coefficient 1/0": ["foliate", "--hypersurface", "leaf_zero_den.json",
                                     "--curves", "leaf.json"],
    "partition coordinate 10^400": ["partition", "huge.json", "--r", 2],
}

# numbers a file may not hold: the path to one field of a grid-lines --n 2
# file (whose first curve is -x + y - 1), and the value written there
NUMBER_ERRORS = {
    "bool coordinate": (("points", 0, 0), True),
    "bool in a Q(i) coefficient": (("curves", 0, "terms", 0, "coef"), {"re": True, "im": "0/1"}),
    "bool exponent": (("curves", 0, "terms", 0, "exp"), [True, 0]),
    "float exponent": (("curves", 0, "terms", 0, "exp"), [1.5, 0]),
    # once read together as the one term 2x
    "float and bool exponents": (("curves", 0, "terms"), [
        {"exp": [1.5, 0], "coef": "-1/1"}, {"exp": [True, 0], "coef": "2/1"}]),
    "float vars": (("curves", 0, "vars"), 2.9),
    "duplicate exponent": (("curves", 0, "terms", 1, "exp"), [1, 0]),
    "float coefficient": (("curves", 0, "terms", 0, "coef"), 0.5),
    "float coordinate": (("points", 0, 1), 0.1),
}


class TestInputErrors:
    """Bad input exits 2; exit 1 means a property was violated."""

    @pytest.fixture()
    def inputs(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        run(["generate", "--family", "leaf", "--g", "z1", "--count", 2, "--out", "leaf.json"])
        Path("bad.csv").write_text("m,n,I\n1,2,x\n")
        Path("zero.json").write_text(json.dumps({"vars": 4, "terms": []}))
        leaf = json.loads(Path("leaf.json").read_text())
        Path("listed.json").write_text(json.dumps({**leaf, "samples": [1]}))
        grid = json.loads(Path("g.json").read_text())
        grid["points"][0][1] = "1/0"
        Path("g_zero_den.json").write_text(json.dumps(grid))
        leaf["hypersurface"]["terms"][0]["coef"] = "1/0"
        Path("leaf_zero_den.json").write_text(json.dumps(leaf))
        run(["generate", "--family", "random", "--out", "r.json"])
        huge = json.loads(Path("r.json").read_text())
        huge["points"][0][0] = f"{10**400}/1"  # beyond the float range
        Path("huge.json").write_text(json.dumps(huge))
        Path("noparams.manifest.json").write_text(json.dumps(
            {"command": "count", "inputs": [], "outputs": ["c.json"]}))

    @pytest.mark.parametrize("argv", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
    def test_exit2(self, inputs, argv, capsys):
        assert run(argv) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", NUMBER_ERRORS.values(), ids=NUMBER_ERRORS.keys())
    def test_numbers_the_format_does_not_allow_exit2(self, inputs, path, value, capsys):
        obj = json.loads(Path("g.json").read_text())
        assert obj["curves"][0]["terms"][0]["exp"] == [1, 0]
        field = obj
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        Path("odd_number.json").write_text(json.dumps(obj))
        assert run(["count", "odd_number.json"]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "foliate"])
    def test_huge_exponent_exit2_without_hanging(self, inputs, command):
        # an exponent 2^70 once ran 2^70 products: in the modular filter for
        # count, in the containment check's substitution for foliate
        if command == "count":
            obj = json.loads(Path("g.json").read_text())
            obj["curves"][0]["terms"][0]["exp"][0] = 2**70
            argv = ["count", "huge_exponent.json"]
        else:
            obj = json.loads(Path("leaf.json").read_text())
            obj["hypersurface"]["terms"][0]["exp"][0] = 2**70
            argv = ["foliate", "--hypersurface", "huge_exponent.json", "--curves", "leaf.json"]
        Path("huge_exponent.json").write_text(json.dumps(obj))
        src = str(Path(incidencekit.__file__).parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "incidencekit.cli", *argv],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "exceeds the limit" in done.stderr

    @pytest.mark.parametrize("command", [
        ["generate", "--family", "grid-lines", "--n", 2],
        ["certify", "g.json", "--k", 2, "--s", 1],
        ["bound", "--m", 2, "--n", 2, "--k", 2, "--i", 0],
        ["fit", "--series", "s.csv"],
    ])
    def test_format_only_where_honoured(self, ws, command):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--format", "csv"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_rerun_from_manifest_byte_identical(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 3, "--out", "g.json"])
        run(["count", "g.json", "--out", "c.json"])
        first = Path("c.json").read_bytes()
        assert run(["rerun", "--manifest", "c.json.manifest.json"]) == 0
        assert Path("c.json").read_bytes() == first

    def test_rerun_refuses_a_changed_input(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 3, "--out", "g.json"])
        run(["count", "g.json", "--out", "c.json"])
        first = Path("c.json").read_bytes()
        manifest = Path("c.json.manifest.json").read_bytes()
        entry, = json.loads(manifest)["inputs"]
        assert entry["param"] == "config" and entry["path"] == "g.json"
        assert len(entry["sha256"]) == 64
        run(["generate", "--family", "grid-lines", "--n", 2, "--out", "g.json"])
        assert run(["rerun", "--manifest", "c.json.manifest.json"]) == 2
        assert Path("c.json").read_bytes() == first
        assert Path("c.json.manifest.json").read_bytes() == manifest

    def test_rerun_from_another_directory(self, ws, monkeypatch):
        (ws / "runs").mkdir()
        (ws / "elsewhere").mkdir()
        run(["generate", "--family", "grid-lines", "--n", 3, "--out", "runs/g.json"])
        run(["generate", "--family", "leaf", "--g", "z1", "--count", 2,
             "--out", "runs/leaf.json"])
        run(["count", "runs/g.json", "--out", "runs/c.json"])
        run(["foliate", "--hypersurface", "runs/leaf.json",
             "--curves", "runs/leaf.json", "--out", "runs/f.json"])
        outputs = {name: (ws / "runs" / name).read_bytes() for name in ("c.json", "f.json")}
        monkeypatch.chdir(ws / "elsewhere")
        for name in outputs:
            assert run(["rerun", "--manifest", f"../runs/{name}.manifest.json"]) == 0
            assert (ws / "runs" / name).read_bytes() == outputs[name]
        assert not any((ws / "elsewhere").iterdir())

    def test_rerun_writes_the_matrix_csv_beside_the_original(self, ws, monkeypatch):
        (ws / "runs").mkdir()
        (ws / "other").mkdir()
        run(["generate", "--family", "grid-lines", "--n", 3, "--out", "runs/g.json"])
        run(["count", "runs/g.json", "--matrix-csv", "runs/m.csv", "--out", "runs/c.json"])
        manifest = json.loads((ws / "runs" / "c.json.manifest.json").read_text())
        assert manifest["outputs"] == ["c.json", "m.csv"]
        outputs = {name: (ws / "runs" / name).read_bytes() for name in ("c.json", "m.csv")}
        for name in outputs:
            (ws / "runs" / name).unlink()
        monkeypatch.chdir(ws / "other")
        assert run(["rerun", "--manifest", "../runs/c.json.manifest.json"]) == 0
        for name, data in outputs.items():
            assert (ws / "runs" / name).read_bytes() == data
        assert not any((ws / "other").iterdir())
        # a manifest that names no place for the CSV is refused
        manifest["outputs"] = ["c.json"]
        (ws / "runs" / "c.json.manifest.json").write_text(json.dumps(manifest))
        (ws / "runs" / "m.csv").unlink()
        assert run(["rerun", "--manifest", "../runs/c.json.manifest.json"]) == 2
        assert not (ws / "runs" / "m.csv").exists()
        assert not any((ws / "other").iterdir())

    def test_rerun_replays_values_that_begin_with_a_dash(self, ws):
        assert run(["generate", "--family", "leaf", "--g=-z1^2", "--count", 3,
                    "--out=-leaf.json"]) == 0
        first = Path("-leaf.json").read_bytes()
        assert json.loads(Path("-leaf.json.manifest.json").read_text())["params"]["g"] == "-z1^2"
        Path("-leaf.json").unlink()
        assert run(["rerun", "--manifest=-leaf.json.manifest.json"]) == 0
        assert Path("-leaf.json").read_bytes() == first

    def test_threads_do_not_change_output(self, ws):
        run(["generate", "--family", "grid-lines", "--n", 4, "--out", "g.json"])
        run(["count", "g.json", "--threads", 1, "--out", "c1.json"])
        run(["count", "g.json", "--threads", 4, "--out", "c4.json"])
        assert Path("c1.json").read_bytes() == Path("c4.json").read_bytes()

    def test_generate_reruns_identical(self, ws):
        run(["generate", "--family", "unit-circles", "--n", 3, "--seed", 2,
             "--out", "u1.json"])
        run(["generate", "--family", "unit-circles", "--n", 3, "--seed", 2,
             "--out", "u2.json"])
        assert Path("u1.json").read_bytes() == Path("u2.json").read_bytes()


# sha256 of the files `foliate` (JSON and CSV) writes for a generated leaf
# family, and `partition --format csv` for a generated grid: refactors of
# the foliation layer and the partition must keep them
PINNED_FOLIATE = [
    # (g, JSON sha256, CSV sha256)
    ("z1", "f0073100e72d1dd94eec04985c62ac296ef09df0dae0c83b3e75a324935474f7",
     "794fc7ddbbecb6ff9cb2d90668d368c16a966f794f709d674a6c87c695a70531"),
    ("z1^2", "58955abc20823c8fcf5a241da486a20a0732e7b3070264261323ce99c6e86bf1",
     "c9a2726989ecc6995347e000224fde741dd23aae44513afdb57f6f6dc0c94b1d"),
    ("z1^3 + i*z1", "348e3edfc4e1fd895502efc31adf8067ed0e18e9e85fafbf83841617fcd905ea",
     "c1ee9d9a7222860f2522c72da73b8877e77abf680e0139e0e2c6870cf8737de5"),
]
PINNED_PARTITION_CSV = [
    # (grid-lines n, r, CSV sha256)
    (3, 2, "d24844e1d5d951ea4cbc5b9ebe8660c9ba349599670a22dc5fec6289cd55b076"),
    (4, 2, "10bbdbdb1932e74c478c5ee430bb6090bb6671d50c0a0276ef2f4c3675117579"),
]


def digest(path):
    return sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("g, json_digest, csv_digest", PINNED_FOLIATE)
def test_pinned_foliate_output(ws, g, json_digest, csv_digest):
    run(["generate", "--family", "leaf", "--g", g, "--count", 3, "--out", "leaf.json"])
    for fmt, expected in (("json", json_digest), ("csv", csv_digest)):
        run(["foliate", "--hypersurface", "leaf.json", "--curves", "leaf.json",
             "--format", fmt, "--out", "f." + fmt])
        assert digest("f." + fmt) == expected


@pytest.mark.parametrize("n, r, expected", PINNED_PARTITION_CSV)
def test_pinned_partition_csv(ws, n, r, expected):
    run(["generate", "--family", "grid-lines", "--n", n, "--out", "grid.json"])
    assert run(["partition", "grid.json", "--r", r, "--format", "csv", "--out", "p.csv"]) == 0
    assert digest("p.csv") == expected
