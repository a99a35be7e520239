import argparse
import hashlib
import inspect
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import grpd
from grpd import cli, clone, search
from grpd.catalog import catalog_get, catalog_list
from grpd.cli import main
from grpd.core import Groupoid, parse_groupoid, write_groupoid
from grpd.terms import parse_term

from brute import idempotent_3_tables, relabelled, repro


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
    """Exit code, stdout and stderr of one command; a usage error's exit code is its SystemExit's."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


@pytest.mark.parametrize("argv", [["--satisfy", "left_eq_right:70"], ["--idempotent", "--satisfy", "nulla:200"]])
def test_search_size1_with_more_than_64_variables(capsys, argv):
    code, out, err = run(capsys, "search", "--size", "1", *argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["total"], doc["satisfying"], doc["violations"]) == (1, 1, 0)


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


@pytest.mark.parametrize("content, message", [
    ("a a\na a\na a\n".encode(), "duplicate element name 'a'"),
    (b"# only a comment\n\n", "empty document"),
    ("a b\na b\n".encode(), "expected 2 table rows, got 1"),
    ("a b\na b\nb a b\n".encode(), "row length mismatch in row 2: expected 2 entries, got 3"),
    ("é b\né b\nb é\u3000# é\nb\n".encode(), "expected 2 table rows, got 3"),
    ("é b\né q\nb é\n".encode(), "unknown element 'q' in row 1"),
    ("é b\né b\nb éé\n".encode(), "unknown element 'éé' in row 2"),
    (b"a b\na b\nb \xff\n", "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
], ids=["duplicate-name", "empty", "too-few-rows", "long-row", "too-many-rows", "unknown", "unknown-longer-than-every-name", "not-utf-8"])
def test_parse_errors_exit_2_with_the_message_alone(capsys, tmp_path, content, message):
    path = tmp_path / "bad.gpd"
    path.write_bytes(content)
    assert run(capsys, "ns", str(path)) == (2, "", f"error: {message}\n")


def test_a_byte_order_mark_reads_as_no_mark(capsys, g3_file, tmp_path):
    marked = tmp_path / "G3-bom.gpd"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(g3_file).read_bytes())
    for argv in (["ns"], ["ns", "--json"], ["spectrum", "--max-n", "4"]):
        plain, bom = (run(capsys, argv[0], path, *argv[1:]) for path in (g3_file, str(marked)))
        assert bom == plain and plain[0] == 0


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


def test_variety_lists_are_pinned(capsys, g1_file):
    with pytest.raises(SystemExit) as exc:
        main(["variety", "--help"])
    assert exc.value.code == 0
    assert ("semigroup, left-zero, right-zero, rect-band, left-regular-band, "
            "right-regular-band, B, Bd, A, D, DcapA, Cp:<prime>") in " ".join(capsys.readouterr().out.split())
    code, out, err = run(capsys, "variety", g1_file, "nonsense")
    assert (code, out) == (2, "")
    assert err == ("error: unknown variety 'nonsense'; choose from A, B, Bd, D, DcapA, left-regular-band, "
                   "left-zero, rect-band, right-regular-band, right-zero, semigroup, Cp:<prime>\n")


def test_public_api_is_pinned():
    # a name added to or dropped from the package shows here; the API keeps only names
    # a command or a claim calls, plus left_depth_sequence and run_claims
    names = sorted(name for name, value in vars(grpd).items() if not name.startswith("_") and not inspect.ismodule(value))
    assert names == [
        "BinaryClonePart", "CatalogEntry", "ClaimResult", "Groupoid", "GuardError", "Identity", "ParseError",
        "Partition", "SearchSummary", "ShReport", "SpectrumReport", "Term", "binary_clone_part",
        "binary_minimality_proxy", "binary_term_table", "build_ak", "build_chain_groupoid", "build_f2_cp",
        "catalan", "catalog_get", "catalog_list", "check_sh_factor_property", "dual", "enumerate_bracketings",
        "evaluate", "f2_table", "find_isomorphism", "find_relational_witness", "generate_subuniverse",
        "generated_congruence", "generates_basic", "in_A", "in_B", "in_Cp", "in_D", "in_D_cap_A",
        "is_congruence", "is_idempotent", "is_left_regular_band", "is_left_zero", "is_rect_band",
        "is_right_regular_band", "is_right_zero", "is_semigroup", "is_trivial_clone", "left_depth_sequence",
        "ns_index", "nulla_satisfied", "parse_groupoid", "parse_identity", "parse_term", "quotient",
        "run_claims", "satisfies_D_scheme", "satisfies_identity", "scheme_identity", "search_tables",
        "spectrum", "spectrum_ak_oracle", "term_function", "term_to_string", "write_groupoid",
    ]


@pytest.fixture()
def f2cp2_file(tmp_path):
    path = tmp_path / "f2cp-2.gpd"
    path.write_text(write_groupoid(catalog_get("f2cp-2").groupoid))
    return str(path)


@pytest.mark.parametrize("spec", ["Cp:x", "Cp:"])
def test_variety_cp_needs_an_integer(capsys, f2cp2_file, spec):
    code, out, err = run(capsys, "variety", f2cp2_file, spec)
    assert (code, out) == (2, "")
    assert err == f"error: bad variety '{spec}'; use Cp:<prime>, e.g. Cp:3\n"


@pytest.mark.parametrize("spec", ["Cp:997", "Cp:1000000000000000003"])
def test_variety_cp_above_the_depth_cap_exits_2_before_the_primality_test(capsys, f2cp2_file, spec):
    start = time.perf_counter()
    code, out, err = run(capsys, "variety", f2cp2_file, spec)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: Cp capped at p = 256 (term depth)\n"


def test_check_deeply_nested_term_exits_2(capsys, g3_file):
    deep = "(" * 1000 + "x" + " x)" * 1000
    code, out, err = run(capsys, "check", g3_file, f"{deep} = x")
    assert (code, out) == (2, "")
    assert err == "error: terms capped at depth 256 (nested products)\n"


def test_search_deep_scheme_exits_2(capsys):
    code, out, err = run(capsys, "search", "--size", "2", "--idempotent", "--satisfy", "nulla:1200")
    assert (code, out) == (2, "")
    assert err == "error: scheme identities capped at n = 256 (term depth)\n"


def test_identity_check_past_the_evaluation_budget_exits_2_before_any_work(capsys, tmp_path):
    n = 256
    path = tmp_path / "cyclic-256.gpd"
    path.write_text(write_groupoid(Groupoid(tuple(map(str, range(n))), np.add.outer(np.arange(n), np.arange(n)) % n)))
    start = time.perf_counter()
    code, out, err = run(capsys, "variety", str(path), "A")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: evaluation budget exceeded (256^4 > 100000000)\n"


def test_unknown_catalog_entry_message_is_not_quoted_twice(capsys):
    code, out, err = run(capsys, "catalog", "show", "nope")
    assert (code, out) == (2, "")
    assert err == "error: unknown catalog entry 'nope'\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_spectrum_budget_below_one_exits_2(capsys, g3_file, budget):
    code, out, err = run(capsys, "spectrum", g3_file, "--budget", budget)
    assert (code, out) == (2, "")
    assert err == "error: budget must be >= 1\n"


@pytest.mark.parametrize("budget", ["1", "2"])
def test_spectrum_budget_below_the_carrier_exits_2(capsys, g3_file, budget):
    code, out, err = run(capsys, "spectrum", g3_file, "--budget", budget)
    assert (code, out) == (2, "")
    assert err == f"error: evaluation budget exceeded (3^1 > {budget})\n"


def test_spectrum_budget_of_one_size_reports_s1(capsys, g3_file):
    code, out, err = run(capsys, "spectrum", g3_file, "--budget", "3")
    assert (code, out, err) == (0, "spectrum: 1\n(budget stopped the computation after n=1)\n", "")


def test_clone_witness_on_long_chains_answers_up_to_the_witness_cap(capsys, tmp_path):
    for n in (13, 20, 21):
        path = tmp_path / f"chain-{n}.gpd"
        path.write_text(write_groupoid(Groupoid(tuple(f"e{i}" for i in range(n)), np.minimum.outer(np.arange(n), np.arange(n)))))
        code, out, err = run(capsys, "clone", str(path), "--witness", "x")
        if n <= 20:
            blocks = " | ".join(["{e0,e2}", "{e1}"] + [f"{{e{i}}}" for i in range(3, n)])
            assert (code, err) == (0, "")
            assert out.endswith(f"partition preserved by x but not by the product: {blocks}\n")
        else:
            assert (code, out, err) == (2, "", "error: witness search capped at n=20\n")


def test_clone_f2_proxy_json_over_the_catalog_is_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    for name in catalog_list():
        path = tmp_path / f"{name}.gpd"
        path.write_text(write_groupoid(catalog_get(name).groupoid))
        code, out, err = run(capsys, "clone", str(path), "--f2", "--proxy", "--json")
        assert err == ""
        digest.update(f"{name}\n{code}\n{out}".encode())
    assert digest.hexdigest() == "3aa40417d04f119a2f299841fd7e5adc32eccf679a7b06a25d555138283b8471"


def test_clone_witness_text_and_json_over_the_catalog_are_pinned(capsys, tmp_path):
    # the suspects: the proxy's witness term when the proxy fails, then three fixed terms;
    # the digests hold the subset and partition text, the JSON and the exit codes
    text, doc = hashlib.sha256(), hashlib.sha256()
    for name in catalog_list():
        path = tmp_path / f"{name}.gpd"
        path.write_text(write_groupoid(catalog_get(name).groupoid))
        code, out, _ = run(capsys, "clone", str(path), "--proxy", "--json")
        failing = [json.loads(out)["proxy"]["witness"]] if code == 1 else []
        for term in failing + ["(x (y x))", "(x (x y))", "x"]:
            code, out, err = run(capsys, "clone", str(path), "--proxy", "--witness", term)
            text.update(f"{name}\n{term}\n{code}\n{out}{err}".encode())
            code, out, err = run(capsys, "clone", str(path), "--witness", term, "--json")
            doc.update(f"{name}\n{term}\n{code}\n{out}{err}".encode())
    assert text.hexdigest() == "c782e02de0bad7d81664fb8bd62591484869e0232376b66e3f1580a84a605f25"
    assert doc.hexdigest() == "7444e0586c8d9b486c94dea1c43784dcf2988a14bcc042730f8c073d62a50958"


@pytest.mark.parametrize("flags", [("--f2", "--proxy"), ("--f2", "--proxy", "--json"), ("--proxy",)])
def test_clone_closes_the_binary_part_once(capsys, monkeypatch, g3_file, flags):
    # generates_basic closes with a stop op; every other closure is Clo2(g)
    full_closures = []

    def counted(combiner, stop=None, real=clone._close_under):
        full_closures.append(stop is None)
        return real(combiner, stop)
    monkeypatch.setattr(clone, "_close_under", counted)
    code, _, err = run(capsys, "clone", g3_file, *flags)
    assert (code, err) == (0, "")
    assert sum(full_closures) == 1


@pytest.mark.parametrize("flags", [("--proxy",), ("--f2", "--proxy")])
@pytest.mark.parametrize("g", [Groupoid(("p", "q"), [[0, 0], [1, 1]]), Groupoid(("e",), [[0]])],
                         ids=["left-zero", "one-element"])
def test_clone_proxy_on_a_projection_exits_2(capsys, tmp_path, g, flags):
    path = tmp_path / "projection.gpd"
    path.write_text(write_groupoid(g))
    code, out, err = run(capsys, "clone", str(path), *flags)
    assert (code, out, err) == (2, "", "error: basic operation is a projection; proxy needs a nontrivial clone\n")


def test_clone_past_the_closure_guard_exits_2(capsys, tmp_path):
    # the binary clone of this 3-element table has more than 2,048 ops;
    # the largest in the catalog has 10
    path = tmp_path / "wide-clone.gpd"
    path.write_text("a b c\nb c a\nc c a\nb c b\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "clone", str(path))
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", "error: binary clone closure exceeded 2048 operations\n")


def test_clone_witness_runs_past_the_closure_guard(capsys, tmp_path):
    # the binary clone of this 4-element table has more than 2,048 ops,
    # yet the subset {a} separates x from the product
    path = tmp_path / "wide-clone-4.gpd"
    path.write_text("a b c d\nb c d d\na a d d\na b d b\nb d b b\n")
    code, out, err = run(capsys, "clone", str(path), "--witness", "x")
    assert (code, err) == (0, "")
    assert out == ("binary clone part: over the 2048-operation guard\n"
                   "subset preserved by x but not by the product: {a}\n")
    code, out, err = run(capsys, "clone", str(path), "--witness", "x", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"schemaVersion": 1, "size": None, "ops": None, "basicIndex": None,
                               "witness": {"kind": "subset", "elements": ["a"]}}
    # the product itself: no relation separates it, so the exit code is 1
    code, out, err = run(capsys, "clone", str(path), "--witness", "(x y)", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["witness"] is None
    # the proxy and the f2 table need the closure
    for flag in ("--proxy", "--f2"):
        code, out, err = run(capsys, "clone", str(path), "--witness", "x", flag)
        assert (code, out, err) == (2, "", "error: binary clone closure exceeded 2048 operations\n")


def test_clone_witness_says_the_product_is_not_generated_when_no_subset_or_partition_separates(capsys, tmp_path):
    # the order {(a,a), (a,b), (b,b), (c,c)} separates (y (x y)) from the product,
    # but no subset or partition does
    path = tmp_path / "t96.gpd"
    path.write_text("a b c\na a a\na b a\nb a c\n")
    code, out, err = run(capsys, "clone", str(path), "--proxy", "--witness", "(y (x y))")
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        "minimality proxy: FAILS with witness (y (x y)) (clone is not minimal)",
        "no subset or partition separates (y (x y)) from the basic operation,"
        " but the product is not in the clone (y (x y)) generates",
    ]
    code, out, err = run(capsys, "clone", str(path), "--witness", "(y (x y))", "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert (doc["witness"], doc["generatesBasic"]) == (None, False)
    code, out, err = run(capsys, "clone", str(path), "--witness", "(x y)", "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert (doc["witness"], doc["generatesBasic"]) == (None, True)


def test_clone_witness_past_the_closure_guard_of_the_suspect_exits_2(capsys, tmp_path):
    # no subset or partition separates ((x y) x) from this product, and the
    # suspect's clone passes 2,048 ops before the product turns up
    path = tmp_path / "wide-clone.gpd"
    path.write_text("a b c\nb c a\nc c a\nb c b\n")
    code, out, err = run(capsys, "clone", str(path), "--witness", "((x y) x)")
    assert (code, out, err) == (2, "", "error: binary clone closure exceeded 2048 operations\n")


def test_no_relation_separates_only_a_suspect_that_generates_the_product(capsys, monkeypatch, tmp_path):
    # one table per relabelling class of the 729 idempotent 3-element tables: the
    # proxy's witness term, the subset and partition witnesses and generates_basic
    # are all invariant under relabelling.  Each table's suspects are the proxy's
    # witness, when it fails, and the product itself
    parts = {}
    monkeypatch.setattr(cli, "binary_clone_part", lambda g: parts[g.table.tobytes()])
    path, reps, sentences = tmp_path / "t.gpd", 0, {True: 0, False: 0}
    for g in idempotent_3_tables():
        table = g.table
        if any(np.array(p)[table[np.ix_(np.argsort(p), np.argsort(p))]].tobytes() < table.tobytes()
               for p in itertools.permutations(range(3))):
            continue
        reps += 1
        part = parts[table.tobytes()] = clone.binary_clone_part(g)
        suspects = ["(x y)"]
        if len(part) > 2 and (witness := clone.binary_minimality_proxy(part)) is not None:
            suspects.append(witness)
        path.write_text(write_groupoid(g))
        for term in suspects:
            generated = clone.generates_basic(g, clone.binary_term_table(g, parse_term(term)))
            code, out, err = run(capsys, "clone", str(path), "--witness", term)
            separated = clone.find_relational_witness(g, clone.binary_term_table(g, parse_term(term))) is not None
            assert err == "" and code == (0 if separated else 1)
            assert out.endswith(f"no relation separates {term} from the basic operation\n") == generated
            assert ("no subset or partition separates" in out) == (not separated and not generated)
            sentences[generated] += not separated
    assert reps == 138
    assert sentences == {True: 138, False: 17}  # 17 classes hold the 96 tables where only generation separates


@pytest.mark.parametrize("size", ["0", "-1"])
def test_search_size_below_one_exits_2(capsys, size):
    code, out, err = run(capsys, "search", "--size", size)
    assert (code, out) == (2, "")
    assert err == "error: search size must be >= 1\n"


def large_tables():
    """Seeded tables above one slab: Z_70 and Z_130 relabelled, each with three cells
    changed; a uniform random 70-element table; and the 100-element table that is 0
    except t[1,1] = 2 and t[2,1] = 99, whose rows 0 and 3..99 repeat."""
    rng = np.random.default_rng(25)
    tables = {}
    for n in (70, 130):
        perm = rng.permutation(n)
        t = np.empty((n, n), dtype=np.int64)
        t[np.ix_(perm, perm)] = perm[np.add.outer(np.arange(n), np.arange(n)) % n]
        for _ in range(3):
            i, j = rng.integers(n, size=2)
            t[i, j] = (t[i, j] + rng.integers(1, n)) % n
        tables[f"perturbed-{n}"] = t
    tables["random-70"] = rng.integers(0, 70, (70, 70))
    tables["repro-100"] = repro(100).table
    return tables


def test_ns_and_sh_type_on_large_carriers_are_pinned(capsys, tmp_path):
    # the digest holds each command's exit code, output and error text
    digest = hashlib.sha256()
    for name, table in large_tables().items():
        path = tmp_path / f"{name}.gpd"
        path.write_text(write_groupoid(Groupoid(tuple(map(str, range(len(table)))), table)))
        for argv in (["ns", str(path), "--triples", "--json"], ["sh-type", str(path)]):
            code, out, err = run(capsys, *argv)
            digest.update(f"{name}\n{argv[0]}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == "0eacf82e38d1abb6a7caf38e2d581233bfb904d3568fcaa728a90f1e23cda1a5"


def test_main_builds_no_parser_per_command(capsys, monkeypatch, g3_file):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    for argv in (["ns", g3_file], ["spectrum", g3_file, "--max-n", "3"], ["variety", g3_file, "B"], ["spectrum"]):
        run(capsys, *argv)
    assert built == []


def test_main_is_reentrant(capsys, g3_file):
    # each command's exit code and output, whichever commands ran before it in the process
    commands = [
        ["ns", g3_file, "--json"], ["ns", g3_file],
        ["spectrum", g3_file, "--max-n", "3", "--classes"], ["spectrum", g3_file, "--max-n", "3"],
        ["search", "--size", "3", "--check", "in_B"], ["search", "--size", "3"],
        ["spectrum"], ["search", "--size", "5"], ["search", "--size", "3", "--check", "nope"],
    ]
    forward = [run(capsys, *argv) for argv in commands]
    backward = [run(capsys, *argv) for argv in reversed(commands)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 1, 1, 2, 2, 2]
    assert "classes" not in forward[1][1] and "n=3: " not in forward[3][1]
    assert "violating in_B" in forward[4][1] and "violating is_semigroup" in forward[5][1]


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 5.50 GiB for an array with shape (2048, 600, 600) and data type uint8"),
     "error: out of memory: Unable to allocate 5.50 GiB for an array with shape (2048, 600, 600) and data type uint8\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "no-message"])
def test_out_of_memory_exits_2(capsys, monkeypatch, g3_file, exc, err):
    def exhausted(g):
        raise exc
    monkeypatch.setattr(cli, "binary_clone_part", exhausted)
    assert run(capsys, "clone", g3_file) == (2, "", err)


@pytest.mark.filterwarnings("error")
def test_search_one_size_past_the_guards(capsys, monkeypatch):
    # the guards raised in process (the source keeps its constants): no brute force
    # reaches 4^16 or 5^20 tables, so the counts are pinned instead, 3,492 associative
    # operations on a labelled 4-set (OEIS A023814) and the 16,727 idempotent size-5
    # tables with ((x1 x2) x3) = x1 (x2 x3), each with the command's exit and no violation
    monkeypatch.setattr(search, "MAX_SIZE_GENERAL", 4)
    monkeypatch.setattr(search, "MAX_SIZE_IDEMPOTENT", 5)
    for argv, satisfying in ((["--size", "4"], 3492), (["--size", "5", "--idempotent"], 16727)):
        code, out, _ = run(capsys, "search", *argv, "--satisfy", "left_eq_right:3", "--json")
        doc = json.loads(out)
        assert (code, doc["satisfying"], doc["violations"], doc["firstWitnessIndex"]) == (0, satisfying, 0, None)


def test_non_ascii_names_and_separators_give_the_ascii_answers(capsys, tmp_path):
    # Z_300 relabelled, written with names \u00e90..\u00e9299, entries parted by tabs and
    # U+3000 and a comment after each line: the byte scan must give the ASCII file's exit
    # codes and documents
    ascii_path, wide_path = tmp_path / "z300.gpd", tmp_path / "z300-wide.gpd"
    ascii_path.write_text(write_groupoid(relabelled("cyclic", 300, 0, 1)), encoding="utf-8")
    wide = []
    for i, line in enumerate(ascii_path.read_text(encoding="utf-8").splitlines()):
        tokens = ["\u00e9" + tok for tok in line.split()]
        wide.append(tokens[0] + "".join("\t\u3000"[(i + j) % 2] + tok for j, tok in enumerate(tokens[1:])) + f"  # line {i}")
    wide_path.write_text("\n".join(wide) + "\n", encoding="utf-8")
    for command, *argv in (("ns",), ("check", "((x y) z) = (x (y z))"), ("variety", "semigroup")):
        ascii_run, wide_run = (run(capsys, command, str(path), *argv, "--json") for path in (ascii_path, wide_path))
        assert ascii_run == wide_run
