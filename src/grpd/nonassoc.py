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
SLAB_CELLS = 1 << 22  # cube cells per slab of rows of a; 1 or 2 bytes each per gathered side


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


def defect_slabs(g: Groupoid):
    """Yield (a0, mask) per slab of rows of a: mask[k, b, c] is ((a0+k)b)c != (a0+k)(bc).

    Both sides are gathered from ``g.narrow_table``, 1 or 2 bytes per cell, not 8."""
    t = g.narrow_table
    rows = max(1, SLAB_CELLS // (g.n * g.n))
    for a0 in range(0, g.n, rows):
        slab = t[a0:a0 + rows]
        yield a0, t[slab] != slab[:, t]


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
    count, listed = 0, []
    for a0, mask in defect_slabs(g):
        count += int(np.count_nonzero(mask))
        if len(listed) < TRIPLE_LIST_CAP:
            found = np.flatnonzero(mask)[:TRIPLE_LIST_CAP - len(listed)] + a0 * g.n * g.n
            listed += zip(*(axis.tolist() for axis in np.unravel_index(found, (g.n,) * 3)))
    sh_type = minimal = None
    if count == 1:
        a, b, c = listed[0]
        sh_type = _classify(a, b, c)
        minimal = generate_subuniverse(g, {a, b, c}) == frozenset(range(g.n))
    return ShReport(count, tuple(listed), sh_type, minimal)


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
