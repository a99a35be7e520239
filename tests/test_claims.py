import json
from pathlib import Path

import numpy as np
import pytest

from grpd.catalog import catalog_get
from grpd.claims import CLAIMS, CONGRUENCE_CAP, run_claims
from grpd.core import Groupoid, dual


@pytest.fixture(scope="module")
def fast_results():
    return run_claims(fast=True)


def test_ledger_is_green(fast_results):
    failed = [r for r in fast_results if r.status == "fail"]
    assert not failed, failed


def test_fast_ledger_matches_its_pinned_output(fast_results):
    # every fast claim's id, status and detail, pinned; CI also diffs the whole
    # verify-paper --json output against this file
    pinned = json.loads((Path(__file__).parent / "verify-paper.json").read_text(encoding="utf-8"))["claims"]
    got = [(r.claim_id, r.status, r.detail) for r in fast_results]
    assert got == [(c["claimId"], c["status"], c["detail"]) for c in pinned]


def test_ledger_size(fast_results):
    assert len(fast_results) >= 25


def test_claim_ids_unique():
    ids = [c.claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_slow_claims_reported_skipped(fast_results):
    skipped = [r for r in fast_results if r.status == "skipped"]
    assert {r.claim_id for r in skipped} == {"scan-size4-leftright-n4"}
    for r in skipped:
        assert r.status == "skipped"


def test_every_result_has_detail(fast_results):
    for r in fast_results:
        assert r.detail


def test_corrupting_g3_breaks_spectrum_claim():
    # turn G3 into a left zero semigroup: the maximal-spectrum claim dies
    g3 = catalog_get("G3").groupoid
    table = g3.table.copy()
    table[0, 2] = 0
    mutant = Groupoid(g3.names, table)
    results = run_claims(fast=True, overrides={"G3": mutant, "G3d": dual(mutant)})
    by_id = {r.claim_id: r for r in results}
    assert by_id["G3-spectrum-catalan"].status == "fail"


def test_stop_on_fail_short_circuits():
    g3 = catalog_get("G3").groupoid
    table = g3.table.copy()
    table[1, 0] = 2
    mutant = Groupoid(g3.names, table)
    results = run_claims(fast=True, overrides={"G3": mutant, "G3d": dual(mutant)}, stop_on_fail=True)
    assert results[-1].status == "fail"
    assert len(results) < len(CLAIMS)


def test_congruence_rich_override_fails_at_the_congruence_cap():
    # on the left zero semigroup x*y = x every partition is a congruence (4,140 on 8 elements)
    g6 = catalog_get("G6").groupoid
    left_zero = Groupoid(g6.names, np.repeat(np.arange(g6.n)[:, None], g6.n, axis=1))
    results = run_claims(fast=True, overrides={"G6": left_zero, "G6d": dual(left_zero)})
    by_id = {r.claim_id: r for r in results}
    assert by_id["quotient-G6-four"].status == "fail"
    assert by_id["quotient-G6-four"].detail == f"error: congruence search capped at {CONGRUENCE_CAP} congruences"
