"""Index of nonassociativity and single-defect (SH) groupoid analysis.

The index counts the triples (a,b,c) with (ab)c != a(bc).  A groupoid
with exactly one such triple is an SH-groupoid; it is minimal when the
triple generates the whole carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Groupoid, generate_subuniverse

TRIPLE_LIST_CAP = 1000


@dataclass(frozen=True)
class ShReport:
    """Nonassociativity census of one groupoid.

    ``triples`` lists at most TRIPLE_LIST_CAP defects in index order;
    the count is always exact.  ``sh_type`` and ``minimal_sh`` are set
    only when the count is exactly one.
    """

    ns_count: int
    triples: tuple[tuple[int, int, int], ...]
    sh_type: str | None = None
    minimal_sh: bool | None = None


def defect_mask(g: Groupoid) -> np.ndarray:
    """Boolean (n, n, n) cube, True at each (a, b, c) with (ab)c != a(bc)."""
    t = g.table
    return t[t] != t[:, t]


def _classify(a: int, b: int, c: int) -> str:
    if a == b == c:
        return "aaa"
    if a == c != b:
        return "aba"
    if a == b != c:
        return "aab"
    if b == c != a:
        return "abb"
    return "abc"


def ns_index(g: Groupoid) -> ShReport:
    """Exhaustive count of nonassociative triples over the cube."""
    mask = defect_mask(g)
    count = int(mask.sum())
    listed = tuple(map(tuple, np.argwhere(mask)[:TRIPLE_LIST_CAP].tolist()))
    sh_type = None
    minimal = None
    if count == 1:
        a, b, c = listed[0]
        sh_type = _classify(a, b, c)
        minimal = generate_subuniverse(g, {a, b, c}) == frozenset(range(g.n))
    return ShReport(count, listed, sh_type, minimal)


def is_minimal_sh(g: Groupoid) -> bool:
    """Does the unique nonassociative triple generate the whole groupoid?"""
    report = ns_index(g)
    if report.ns_count != 1:
        raise ValueError(f"not an SH-groupoid (ns={report.ns_count})")
    return bool(report.minimal_sh)


def check_sh_factor_property(g: Groupoid) -> bool:
    """For the unique defect (a,b,c): whenever a product equals a (b, c),
    one of the factors already equals a (b, c).  Checked exhaustively."""
    report = ns_index(g)
    if report.ns_count != 1:
        raise ValueError(f"not an SH-groupoid (ns={report.ns_count})")
    t = g.table
    for target in set(report.triples[0]):
        rows, cols = np.nonzero(t == target)
        if not bool(np.all((rows == target) | (cols == target))):
            return False
    return True
