"""Answers the benchmark checks grpd against, computed without grpd.

Two kinds of reference live here:

* ``defect_census``: a row-chunked brute-force count of the triples
  with (ab)c != a(bc) for the large-carrier tables, from which the
  expected ``ns``, ``variety semigroup``, ``spectrum --max-n 3`` and
  ``check`` answers follow (s(3) = 1 iff the count is 0; semigroup iff
  the count is 0).
* ``check_golden``: cross-checks of the recorded golden outputs against
  facts that hold independently of the program (Catalan bounds, the
  2^(n-2) law, the wraparound left-depth oracle, counts of semigroups on
  small sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPECTRUM_BUDGET = 10 ** 8   # the CLI's default --budget
CHUNK_ROWS = 16             # rows of the (n, n, n) cube held at once


def catalan(n: int) -> int:
    """Bracketings of x1..xn: C(n-1)."""
    return math.comb(2 * n - 2, n - 1) // n


def budget_max_n(size: int, cap: int) -> int:
    """Largest n <= cap with C(n-1) * size^n within the default budget."""
    return max(n for n in range(1, cap + 1) if catalan(n) * size ** n <= SPECTRUM_BUDGET)


@dataclass(frozen=True)
class DefectCensus:
    """Associativity defects of one table, counted exactly.

    ``mod256`` counts the triples whose two sides still differ after
    reduction modulo 256; it predicts what a spectrum that stores term
    values as uint8 reports (the known defect for carriers above 256).
    """

    count: int
    first: tuple[int, int, int] | None
    mod256: int


def defect_census(table: np.ndarray) -> DefectCensus:
    """Count (ab)c != a(bc) row chunk by row chunk, memory O(CHUNK_ROWS * n^2)."""
    n = table.shape[0]
    count = 0
    mod256 = 0
    first = None
    for lo in range(0, n, CHUNK_ROWS):
        rows = table[lo:lo + CHUNK_ROWS]
        left = table[rows]          # left[a, b, c] = (ab)c
        right = rows[:, table]      # right[a, b, c] = a(bc)
        mask = left != right
        hits = int(mask.sum())
        if hits and first is None:
            a, b, c = np.argwhere(mask)[0].tolist()
            first = (lo + a, b, c)
        count += hits
        if n > 256:
            mod256 += int(((left % 256) != (right % 256)).sum())
    return DefectCensus(count, first, mod256 if n > 256 else count)


def classify_triple(a: int, b: int, c: int) -> str:
    """Type of a defect triple as ``grpd ns`` names it."""
    if a == b == c:
        return "aaa"
    if a == c != b:
        return "aba"
    if a == b != c:
        return "aab"
    if b == c != a:
        return "abb"
    return "abc"


def generates_carrier(table: np.ndarray, seeds) -> bool:
    """Does the subgroupoid generated by ``seeds`` cover the carrier?"""
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[list(seeds)] = True
    while True:
        members = np.flatnonzero(inside)
        grown = inside.copy()
        grown[table[np.ix_(members, members)].ravel()] = True
        if grown.sum() == inside.sum():
            return bool(inside.all())
        inside = grown


def ak_oracle(k: int, max_n: int) -> list[int]:
    """Spectrum of the wraparound groupoid A_k: distinct left-depth
    sequences modulo k, built by seq(P*Q) = (seq(P) + 1) ++ seq(Q)."""
    seqs = {1: {(0,)}}
    for n in range(2, max_n + 1):
        seqs[n] = {
            tuple((d + 1) % k for d in p) + q
            for split in range(1, n)
            for p in seqs[split]
            for q in seqs[n - split]
        }
    return [len(seqs[n]) for n in range(1, max_n + 1)]


# Semigroups (associative tables) on a labelled set of 1, 2, 3 elements:
# OEIS A023814.
LABELLED_SEMIGROUPS = {1: 1, 2: 8, 3: 113}


def check_golden(golden: dict) -> list[str]:
    """Problems found in the golden outputs; empty when every cross-check holds."""
    problems = []

    ledger = golden["ledger"]
    statuses = [status for _, status in ledger["claims"]]
    if ledger["summary"] != {"pass": 59, "fail": 0, "skipped": 1} or len(statuses) != 60:
        problems.append(f"ledger golden is not 59 passed + 1 skipped: {ledger['summary']}")
    if ledger["exit"] != 0 or statuses.count("skipped") != 1 or statuses.count("pass") != 59:
        problems.append("ledger golden statuses disagree with its summary")

    for e in golden["spectrum"]:
        name, values, tags = e["entry"], e["values"], set(e["tags"])
        if e["max_n"] != budget_max_n(e["size"], 8) or len(values) != e["max_n"]:
            problems.append(f"{name}: max_n {e['max_n']} is not the budget rule's")
        if any(not 1 <= v <= catalan(n) for n, v in enumerate(values, start=1)):
            problems.append(f"{name}: a value lies outside 1..C(n-1): {values}")
        if "spectrum2pow" in tags and values[1:] != [2 ** (n - 2) for n in range(2, len(values) + 1)]:
            problems.append(f"{name}: tagged spectrum2pow but {values}")
        if "semigroup" in tags and set(values) != {1}:
            problems.append(f"{name}: tagged semigroup but {values}")
        if name in ("A2", "A3", "A4") and values != ak_oracle(int(name[1:]), len(values)):
            problems.append(f"{name}: {values} differs from the left-depth oracle")

    for key in ("search", "search_quick"):
        for s in golden[key]:
            argv = s["argv"]
            size = int(argv[argv.index("--size") + 1])
            if "--idempotent" in argv:
                if s["total"] != size ** (size * size - size) or s["violations"] != 0 or s["exit"] != 0:
                    problems.append(f"{argv}: left=right(n=4) must force associativity")
                if size == 4 and s["satisfying"] != 604:
                    problems.append(f"{argv}: {s['satisfying']} survivors, want 604")
                continue
            check = argv[argv.index("--check") + 1]
            if s["total"] != size ** (size * size) or s["satisfying"] != s["total"]:
                problems.append(f"{argv}: an unfiltered scan must keep every table")
            members = s["total"] - s["violations"]
            want = {"is_semigroup": LABELLED_SEMIGROUPS[size], "is_left_zero": 1, "is_right_zero": 1,
                    "is_rect_band": 2}.get(check)
            if want is not None and members != want:
                problems.append(f"{argv}: {members} members, want {want}")
    return problems
