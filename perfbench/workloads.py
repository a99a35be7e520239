"""The four workloads: the operations each runs and how each output is checked.

Every operation is one ``grpd`` command line.  Its check returns None
when the exit code and the JSON output are right, else a description
of what is wrong.

Why these workloads:

* ``ledger``: ``verify-paper --json``, the paper's claim ledger.  Sparse
  spectra (2^(n-2) at n=7) dominate its time and peak memory; clone
  closure, isomorphism, congruence and variety claims make up the rest.
* ``spectrum-catalog``: ``spectrum --max-n n_e`` on every exported
  catalog entry, n_e the largest n <= 8 within the default budget.
  Mostly near-Catalan spectra with many small evaluations.
* ``search``: the size-4 idempotent theorem scan, where decoding and
  identity filtering prune 4^12 tables to 604, then the unfiltered
  size-3 sweep once per ``--check``, where every table reaches the
  variety check.  Two opposite uses of one layer.
* ``large-carrier``: seeded tables with |A| from 128 to 384.  The (n,n,n)
  intermediates outgrow the last-level cache, and it is the only
  workload with carriers above 256, where the known uint8 spectrum
  defect shows.

Only ``large-carrier`` depends on the seed; the others are fixed inputs
whose answers are recorded in golden.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("ledger", "spectrum-catalog", "search", "large-carrier")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

ASSOCIATIVITY = "((x y) z) = (x (y z))"
QUICK_SPECTRUM_MAX_N = 5

# (kind, |A|): "cyclic" is a relabelled Z_m addition table (associative),
# "perturbed" the same with a few seeded cells changed, "repro" the table
# that is all 0 except t[1,1] = 2 and t[2,1] = |A| - 1 (one defect).
LARGE_TABLES = (
    ("cyclic", 128), ("perturbed", 160), ("repro", 200),
    ("cyclic", 256), ("repro", 257), ("perturbed", 384),
)
QUICK_LARGE_TABLES = (("cyclic", 24), ("perturbed", 32), ("repro", 40), ("repro", 257))
PERTURBED_CELLS = 3


@dataclass
class Op:
    """One CLI invocation with the check of its result."""

    label: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    # True when a wrong answer is exactly the one a known defect predicts.
    known_defect: Callable[[int, str], bool] = lambda rc, out: False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (table label, bytes of its largest (n,n,n) int64 intermediate)
    intermediates: list[tuple[str, int]] = field(default_factory=list)


def load_golden() -> dict:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    problems = reference.check_golden(golden)
    if problems:
        raise RuntimeError("golden.json fails its cross-checks: " + "; ".join(problems))
    return golden


def build(name: str, seed: int, quick: bool, workdir: Path, cli_main) -> Workload:
    """Write the workload's inputs under ``workdir`` and return its operations."""
    golden = load_golden()
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "ledger":
        return Workload(name, [_ledger_op(golden["ledger"])])
    if name == "spectrum-catalog":
        return _spectrum_catalog(golden["spectrum"], quick, workdir, cli_main)
    if name == "search":
        return Workload(name, [_search_op(s) for s in golden["search_quick" if quick else "search"]])
    if name == "large-carrier":
        return _large_carrier(seed, QUICK_LARGE_TABLES if quick else LARGE_TABLES, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON ({exc})"


def _ledger_op(want: dict) -> Op:
    def check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        got = [[c["claimId"], c["status"]] for c in doc["claims"]]
        if rc != want["exit"] or doc["summary"] != want["summary"] or got != want["claims"]:
            wrong = [f"{g[0]}={g[1]}" for g, w in zip(got, want["claims"]) if g != w]
            return f"exit {rc}, summary {doc['summary']}, differing claims {wrong[:5]}"
        return None

    return Op("verify-paper", ["verify-paper", "--json"], check)


def _spectrum_catalog(entries: list[dict], quick: bool, workdir: Path, cli_main) -> Workload:
    outdir = workdir / "catalog"
    if cli_main(["catalog", "export", str(outdir), "--json"]) != 0:
        raise RuntimeError("grpd catalog export failed")
    exported = sorted(p.stem for p in outdir.glob("*.gpd"))
    if exported != sorted(e["entry"] for e in entries):
        raise RuntimeError(f"exported catalog {exported} differs from golden.json")
    ops = []
    for e in entries:
        path = outdir / f"{e['entry']}.gpd"
        size = len(path.read_text(encoding="utf-8").split("\n", 1)[0].split())
        if size != e["size"]:
            raise RuntimeError(f"{e['entry']} has {size} elements, golden.json says {e['size']}")
        max_n = min(e["max_n"], QUICK_SPECTRUM_MAX_N) if quick else e["max_n"]
        ops.append(Op(f"spectrum {e['entry']} n={max_n}",
                      ["spectrum", str(path), "--max-n", str(max_n), "--json"],
                      _values_check(e["values"][:max_n])))
    return Workload("spectrum-catalog", ops)


def _values_check(want: list[int]):
    def check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        if rc != 0 or doc.get("values") != want:
            return f"exit {rc}, values {doc.get('values')}, want {want}"
        return None

    return check


def _search_op(want: dict) -> Op:
    fields = ("total", "satisfying", "violations", "firstWitnessIndex")

    def check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        got = {f: doc.get(f) for f in fields}
        if rc != want["exit"] or any(got[f] != want[f] for f in fields):
            return f"exit {rc}, {got}, want exit {want['exit']}, {[want[f] for f in fields]}"
        return None

    return Op(" ".join(want["argv"][1:]), want["argv"] + ["--json"], check)


# ---------------------------------------------------------------------------
# large-carrier


def make_table(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "repro":
        table = np.zeros((size, size), dtype=np.int64)
        table[1, 1] = 2
        table[2, 1] = size - 1
        return table
    perm = rng.permutation(size)
    table = np.empty((size, size), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[np.add.outer(np.arange(size), np.arange(size)) % size]
    if kind == "perturbed":
        for _ in range(PERTURBED_CELLS):
            i, j = rng.integers(size, size=2)
            table[i, j] = (table[i, j] + rng.integers(1, size)) % size
    return table


def write_gpd(path: Path, table: np.ndarray) -> None:
    """Write a table in the .gpd format with elements named 0..n-1."""
    rows = [" ".join(map(str, range(table.shape[0])))]
    rows += [" ".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _large_carrier(seed: int, specs, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    intermediates = []
    for kind, size in specs:
        table = make_table(kind, size, rng)
        census = reference.defect_census(table)
        label = f"{kind}-{size}"
        path = workdir / f"{label}.gpd"
        write_gpd(path, table)
        intermediates.append((f"{label} (ns={census.count})", 8 * size ** 3))
        ops += _large_ops(label, str(path), table, census)
    return Workload("large-carrier", ops, intermediates)


def _large_ops(label: str, path: str, table: np.ndarray, census) -> list[Op]:
    size = table.shape[0]
    assoc = census.count == 0
    sh_type = minimal = None
    if census.count == 1:
        sh_type = reference.classify_triple(*census.first)
        minimal = reference.generates_carrier(table, set(census.first))

    def ns_check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        got = (rc, doc.get("nsCount"), doc.get("shType"), doc.get("minimalSh"))
        want = (0, census.count, sh_type, minimal)
        return None if got == want else f"(exit, ns, type, minimal) = {got}, want {want}"

    def variety_check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        got = (rc, doc.get("member"))
        want = (0 if assoc else 1, assoc)
        return None if got == want else f"(exit, member) = {got}, want {want}"

    max_n = reference.budget_max_n(size, 3)

    def spectrum_values(defects: int) -> list[int]:
        return [1, 1, 1 if defects == 0 else 2][:max_n]

    want_values = spectrum_values(census.count)
    uint8_values = spectrum_values(census.mod256)

    def spectrum_defect(rc, out):
        # The known defect: values stored as uint8 wrap modulo 256 for
        # carriers above 256, so distinct term functions can merge.
        doc, err = _json(out)
        return (err is None and size > 256 and uint8_values != want_values
                and rc == 0 and doc.get("values") == uint8_values)

    def check_check(rc, out):
        doc, err = _json(out)
        if err:
            return err
        witness = None
        if census.first is not None:
            witness = dict(zip("xyz", map(str, census.first)))
        got = (rc, doc.get("holds"), doc.get("witness"))
        want = (0 if assoc else 1, assoc, witness)
        return None if got == want else f"(exit, holds, witness) = {got}, want {want}"

    return [
        Op(f"ns {label}", ["ns", path, "--json"], ns_check),
        Op(f"variety {label}", ["variety", path, "semigroup", "--json"], variety_check),
        Op(f"spectrum {label}", ["spectrum", path, "--max-n", "3", "--json"],
           _values_check(want_values), spectrum_defect),
        Op(f"check {label}", ["check", path, ASSOCIATIVITY, "--json"], check_check),
    ]
