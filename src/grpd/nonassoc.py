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
# Cube cells per block of the table-wide kernels: the defect census, the
# identity check and the spectrum's top level, whose slabs hold at most
# this many cells of each candidate table, or one row of x1 when a row is
# larger.  A defect slab's two gathered sides (1 or 2 bytes a cell) and
# its mask take about 1.3 MB, so they stay in a 4 MB L2.  Floor: at least
# n^2 for every n with n^3 within terms.DEFAULT_BUDGET, so a 3-variable
# identity check keeps its two trailing variables in one block and loops
# only the first.
SLAB_CELLS = 1 << 18


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

    Both sides are ``take`` gathers from ``g.narrow_table``, 1 or 2 bytes per
    cell, not 8: (ab)c copies whole rows of the table, a(bc) reads each slab
    row through the table."""
    t = g.narrow_table
    rows = max(1, SLAB_CELLS // (g.n * g.n))
    for a0 in range(0, g.n, rows):
        slab = t[a0:a0 + rows]
        yield a0, t.take(slab, axis=0) != slab.take(t, axis=1)


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
