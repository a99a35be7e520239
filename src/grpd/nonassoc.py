"""Associativity, the index of nonassociativity and single-defect (SH) analysis.

The index counts the triples (a,b,c) with (ab)c != a(bc).  A groupoid
with exactly one such triple is an SH-groupoid; it is minimal when the
triple generates the whole carrier.  Light's test (Clifford & Preston,
*The Algebraic Theory of Semigroups* I, section 1.2, 1961) decides
associativity from the middles b in a generating set: the b with
(ab)c = a(bc) for all a, c are closed under the product.  The defects at
a depend only on row a, so the census counts each distinct row once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import Groupoid, generate_subuniverse, generating_set

TRIPLE_LIST_CAP = 1000
# Cube cells per block of the table-wide kernels: the defect census, the identity
# check and the spectrum's top level, whose slabs hold at most this many cells of
# each candidate table, or one row of x1 when a row is larger.  A defect slab's two
# gathered sides (1 or 2 bytes a cell) and its mask take about 1.3 MB, so they stay
# in a 4 MB L2; the census's two index arrays, cast to writeable intp once per call,
# hold n^2 x 8 bytes each.  Floor: at least n^2 for every n with n^3 within
# terms.DEFAULT_BUDGET, so a 3-variable identity check keeps its two trailing
# variables in one block and loops only the first.
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


def defect_slabs(g: Groupoid, rows=None, middles=None):
    """Yield (lo, mask) per slab of the rows of a: mask[k, j, c] is (ab)c != a(bc)
    for a = rows[lo + k] and b = middles[j], each every element when None.

    Both sides are ``take`` gathers from ``g.narrow_table``, 1 or 2 bytes per cell,
    not 8: (ab)c copies whole rows of the table, a(bc) reads each slab row through
    the middles' rows.  A slab holds at most ``SLAB_CELLS`` cells, or one row of a.
    ``take`` copies a non-intp or read-only index on every call, so the indexes ``right``
    and ``products`` are cast to fresh intp arrays once per call, n^2 x 8 bytes each at most."""
    t = g.narrow_table
    left = t if rows is None else t[rows]
    right = (t if middles is None else t[middles]).astype(np.intp)
    products = (left if middles is None else left[:, middles]).astype(np.intp)
    step = max(1, SLAB_CELLS // (len(right) * g.n))
    for lo in range(0, len(left), step):
        yield lo, t.take(products[lo:lo + step], axis=0) != left[lo:lo + step].take(right, axis=1)


def is_semigroup(g: Groupoid) -> bool:
    """Associativity: no nonassociative triple.  Above one slab (n^3 >
    ``SLAB_CELLS``) by Light's test over the middles in ``generating_set``;
    at or below it over every middle, in the one slab."""
    middles = generating_set(g) if g.n ** 3 > SLAB_CELLS else None
    return not any(mask.any() for _, mask in defect_slabs(g, middles=middles))


def ns_index(g: Groupoid) -> ShReport:
    """Exact count of nonassociative triples, listed in index order.  Above one slab
    a table passing Light's test (``is_semigroup``) has none.  Otherwise each distinct
    row is censused once; a repeated row counts again and lists its first's triples."""
    n = g.n
    if n ** 3 > SLAB_CELLS and is_semigroup(g):
        return ShReport(0, ())
    first = {}
    rep = [first.setdefault(key, a) for a, key in enumerate(g.table.view(f"V{8 * n}").ravel().tolist())]
    rows, repeats = list(first.values()), Counter(rep)
    count, found, seen = 0, defaultdict(list), 0
    for lo, mask in defect_slabs(g, rows=rows if len(rows) < n else None):
        slab_rows = rows[lo:lo + len(mask)]
        count += int(np.count_nonzero(mask)) + sum(
            (repeats[r] - 1) * int(np.count_nonzero(m)) for r, m in zip(slab_rows, mask) if repeats[r] > 1)
        if seen < TRIPLE_LIST_CAP:
            ks, bcs = np.divmod(np.flatnonzero(mask)[:TRIPLE_LIST_CAP - seen], n * n)
            for k, bc in zip(ks.tolist(), bcs.tolist()):
                found[slab_rows[k]].append(bc)
            seen += len(bcs)
    listed = list(islice(((a, *divmod(bc, n)) for a in range(n) for bc in found[rep[a]]), TRIPLE_LIST_CAP))
    sh_type = minimal = None
    if count == 1:
        sh_type = "".join("abc"[list(dict.fromkeys(listed[0])).index(x)] for x in listed[0])
        minimal = generate_subuniverse(g, set(listed[0])) == frozenset(range(n))
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
