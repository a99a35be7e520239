"""Self-tests of the benchmark: its references, its tracer and its determinism.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
The determinism tests run the benchmark on its small ``--quick`` inputs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import workloads
from run import EXACT_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def _traced(workload: str, seed: int) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exact_counters(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name in EXACT_COUNTERS or name.endswith(".calls")}


@pytest.mark.parametrize("workload", ["ledger", "spectrum-catalog", "search"])
def test_seed_independent_workloads_repeat_exactly_across_seeds(workload):
    a, b = _traced(workload, 1), _traced(workload, 2)
    assert a["correct"] and b["correct"]
    assert a["failed"] == b["failed"] == 0
    assert _exact_counters(a) == _exact_counters(b)
    assert any(v > 0 for v in _exact_counters(a).values())


def test_large_carrier_repeats_exactly_for_one_seed():
    a, b = _traced("large-carrier", 7), _traced("large-carrier", 7)
    assert a["correct"] and b["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert _exact_counters(a) == _exact_counters(b)
    assert a["metrics"]["nonassoc.ns_index.calls"]["value"] == len(workloads.QUICK_LARGE_TABLES)


def test_plain_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "search", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_grpd_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ledger", "--seed", "1", "--seconds", "1", "--trace", "0",
                  root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _naive_defects(t: np.ndarray) -> list[tuple[int, int, int]]:
    n = t.shape[0]
    return [(a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
            if t[t[a, b], c] != t[a, t[b, c]]]


@pytest.mark.parametrize("seed", range(5))
def test_defect_census_matches_a_triple_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    t = rng.integers(0, n, size=(n, n))
    census = reference.defect_census(t)
    naive = _naive_defects(t)
    assert census.count == len(naive)
    assert census.first == (naive[0] if naive else None)
    assert census.mod256 == census.count  # no value reaches 256


def test_repro_table_census_predicts_the_uint8_collapse():
    t = workloads.make_table("repro", 257, np.random.default_rng(0))
    census = reference.defect_census(t)
    assert (census.count, census.first, census.mod256) == (1, (1, 1, 1), 0)
    assert not reference.generates_carrier(t, {1})


def test_generated_tables_are_what_they_claim():
    rng = np.random.default_rng(3)
    assert reference.defect_census(workloads.make_table("cyclic", 40, rng)).count == 0
    assert reference.defect_census(workloads.make_table("perturbed", 40, rng)).count > 0


def test_golden_outputs_pass_their_cross_checks():
    assert reference.check_golden(workloads.load_golden()) == []
    assert reference.ak_oracle(2, 8) == [1, 1, 2, 4, 8, 16, 32, 64]


def test_golden_cross_checks_catch_a_wrong_value():
    golden = workloads.load_golden()
    entry = next(e for e in golden["spectrum"] if e["entry"] == "A3")
    entry["values"][4] += 1
    assert any("A3" in p for p in reference.check_golden(golden))


def test_tracer_rebinds_registries_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import grpd.cli  # noqa: F401  (loads every grpd module)
    from tracer import Tracer

    search = sys.modules["grpd.search"]
    before = dict(search.CHECKS)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in search.CHECKS.values())
        assert hasattr(sys.modules["grpd.claims"]._TAG_CHECKS["semigroup"], "__wrapped__")
        assert hasattr(sys.modules["grpd.cli"]._VARIETIES["semigroup"], "__wrapped__")
        g = sys.modules["grpd.core"].parse_groupoid("a b\nb b\nb b\n")  # constant: a semigroup, not idempotent
        assert search.CHECKS["is_rect_band"](g) is False
    finally:
        tracer.uninstall()
    assert search.CHECKS == before
    agg = tracer.aggregate()
    assert agg["spans"]["terms.variety"]["calls"] == 2       # is_rect_band -> is_semigroup
    assert agg["spans"]["terms.is_rect_band"]["calls"] == 1
