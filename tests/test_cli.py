"""CLI contract: subcommands, exit codes, manifests, determinism."""

import json
from pathlib import Path

import pytest

from incidencekit.cli import main


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
        # the first cut bisects every point
        assert sum(cuts[0]["counts"][0]) == 64

    def test_foliate_all_pass(self, ws):
        run(["generate", "--family", "leaf", "--g", "z1", "--count", 3,
             "--out", "leaf.json"])
        code = run(["foliate", "--hypersurface", "leaf.json",
                    "--curves", "leaf.json", "--out", "f.json"])
        assert code == 0
        records = json.loads(Path("f.json").read_text())
        assert all(r["tangency"] == "pass" for r in records if r["tangency"])
        assert all(r["containment"] == "true" for r in records)

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
