import json
import time

import pytest

from grpd.catalog import catalog_get, catalog_list
from grpd.cli import main
from grpd.core import parse_groupoid, write_groupoid


@pytest.fixture()
def g1_file(tmp_path):
    path = tmp_path / "G1.gpd"
    path.write_text(write_groupoid(catalog_get("G1").groupoid))
    return str(path)


@pytest.fixture()
def g3_file(tmp_path):
    path = tmp_path / "G3.gpd"
    path.write_text(write_groupoid(catalog_get("G3").groupoid))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_command(capsys, g3_file):
    code, out, _ = run(capsys, "spectrum", g3_file, "--max-n", "5")
    assert code == 0
    assert "1 1 2 5 14" in out


def test_spectrum_json_shape(capsys, g3_file):
    code, out, _ = run(capsys, "spectrum", g3_file, "--max-n", "4", "--classes", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["values"] == [1, 1, 2, 5]
    assert sum(len(c) for c in doc["classes"][3]) == 5


def test_ns_command(capsys, g1_file):
    code, out, _ = run(capsys, "ns", g1_file, "--triples")
    assert code == 0
    assert "ns = 1" in out and "(a,b,c)" in out


def test_sh_type_command(capsys, g3_file, tmp_path):
    code, out, _ = run(capsys, "sh-type", g3_file)
    assert code == 0 and "(a,b,c)" in out and "minimal SH: True" in out
    sg = tmp_path / "sl.gpd"
    sg.write_text("0 1\n0 0\n0 1\n")
    code, out, _ = run(capsys, "sh-type", str(sg))
    assert code == 1 and "not an SH-groupoid" in out


def test_check_command_fails_with_witness(capsys, g1_file):
    code, out, _ = run(capsys, "check", g1_file, "(x (y (z u))) = (x ((y z) u))")
    assert code == 1
    assert "x=a y=a z=b u=c" in out


def test_check_command_passes(capsys, g1_file):
    code, out, _ = run(capsys, "check", g1_file, "(x (x y)) = (x y)")
    assert code == 0 and "holds" in out


def test_variety_command(capsys, g1_file):
    assert run(capsys, "variety", g1_file, "B")[0] == 0
    assert run(capsys, "variety", g1_file, "Cp:2")[0] == 1
    assert run(capsys, "variety", g1_file, "nonsense")[0] == 2


def test_clone_command(capsys, g1_file):
    code, out, _ = run(capsys, "clone", g1_file, "--proxy", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4 and doc["proxy"]["passes"]


def test_clone_witness(capsys, tmp_path):
    path = tmp_path / "aba4.gpd"
    path.write_text(write_groupoid(catalog_get("aba-4").groupoid))
    code, out, _ = run(capsys, "clone", str(path), "--witness", "(x (y x))", "--proxy")
    assert code == 1
    assert "partition" in out and "{b,d}" in out


def test_catalog_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "G1" in out.split()
    code, out, _ = run(capsys, "catalog", "show", "G3")
    assert code == 0
    assert parse_groupoid(out) == catalog_get("G3").groupoid
    outdir = tmp_path / "exported"
    code, out, _ = run(capsys, "catalog", "export", str(outdir))
    assert code == 0
    files = {p.name for p in outdir.iterdir()}
    assert files == {f"{name}.gpd" for name in catalog_list()}
    for name in ("G6", "A3", "chain-3"):
        assert parse_groupoid((outdir / f"{name}.gpd").read_text()) == catalog_get(name).groupoid


def test_search_command(capsys):
    code, out, _ = run(
        capsys, "search", "--size", "3", "--idempotent",
        "--satisfy", "left_eq_right:4", "--check", "is_semigroup", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 729 and doc["satisfying"] == 35 and doc["violations"] == 0


def test_search_with_violations_exits_1(capsys):
    code, out, _ = run(
        capsys, "search", "--size", "3", "--idempotent", "--satisfy", "nulla:4",
    )
    assert code == 1
    assert "first witness" in out


def test_search_identity_instance_guard_exits_2_before_scanning(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--size", "3", "--idempotent", "--satisfy", "left_eq_right:30")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "identity instances" in err


def test_search_bad_scheme(capsys):
    code, _, err = run(capsys, "search", "--size", "3", "--satisfy", "zig:4")
    assert code == 2 and "bad scheme" in err


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "spectrum", str(tmp_path / "missing.gpd"))
    assert code == 2
    bad = tmp_path / "bad.gpd"
    bad.write_text("a b\na a\n")
    code, _, err = run(capsys, "ns", str(bad))
    assert code == 2 and "error" in err


def test_verify_paper_fast(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] >= 25
    statuses = {c["status"] for c in doc["claims"]}
    assert statuses <= {"pass", "skipped"}
    skipped = [c for c in doc["claims"] if c["status"] == "skipped"]
    assert skipped and all(c["claimId"] == "scan-size4-leftright-n4" for c in skipped)
