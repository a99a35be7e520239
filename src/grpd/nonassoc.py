"""Associativity, the index of nonassociativity and single-defect (SH) analysis.

The index counts the triples (a,b,c) with (ab)c != a(bc).  A groupoid
with exactly one such triple is an SH-groupoid; it is minimal when the
triple generates the whole carrier.  The defects at a depend only on
row a, so the census counts each distinct row once.

Call a pair (a, b) associative when (ab)c = a(bc) for every c.  If
(a, b1), (b1, b2) and (ab1, b2) are associative, so is (a, b1b2): for
every c,

    (a(b1b2))c = ((ab1)b2)c     by (a, b1) at c = b2,
               = (ab1)(b2c)     by (ab1, b2),
               = a(b1(b2c))     by (a, b1) at b2c,
               = a((b1b2)c)     by (b1, b2).

Its base case is Light's test (Clifford & Preston, *The Algebraic Theory
of Semigroups* I, section 1.2, 1961): if every (a, s) with s in a
generating set is associative, every pair is, since the b with (a, b)
associative for all a are closed under the product.  ``is_semigroup``
asks only that, for one a per distinct row and one s per distinct row
and column (``_light_test``).  Above one slab (n^3 > ``SLAB_CELLS``)
the census of a large table with a small generating set counts the
pairs (a, s) directly, then closes the generating set under the product
and censuses only the pairs that the lemma leaves uncertified
(``ns_index`` says when); at or below one slab it censuses every pair,
in that slab.
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
    ``SLAB_CELLS``) by Light's test (``_light_test``); at or below it over
    every pair, in the one slab."""
    if g.n ** 3 > SLAB_CELLS:
        return _light_test(g, _distinct_rows(g)[1], generating_set(g))
    return not any(mask.any() for _, mask in defect_slabs(g))


def _light_test(g: Groupoid, rows, gens) -> bool:
    """Light's test: no pair (a, s) with a defect, a over the distinct ``rows`` and s
    over the generators ``gens``, one per distinct row and column.  Two generators s
    and s' with equal rows and equal columns decide the same triples, since as = as'
    and sc = s'c."""
    t = g.narrow_table
    middles = np.asarray(gens)
    if len(middles) > 1:
        middles = middles[_distinct(np.concatenate([t[middles], t.T[middles]], axis=1))[1]]
    rows = rows if len(rows) < g.n else None  # every row, with no copy
    return not any(mask.any() for _, mask in defect_slabs(g, rows=rows, middles=middles))


def ns_index(g: Groupoid) -> ShReport:
    """Exact count of nonassociative triples, listed in index order.

    The defects of a pair (a, b), the c with (ab)c != a(bc), depend only on row a, so
    each distinct row is censused once; a repeated row counts again and lists its
    first's triples.  At or below one slab (n^3 <= ``SLAB_CELLS``) every pair is
    censused, in that slab.  Above it, the lemma of the module docstring takes over
    (``_closure_census``) when the census by rows would span over four slabs, about what
    the closure's rounds cost in fixed calls, and a generating set (``generating_set``)
    has at most n/2 elements; its first step censuses the pairs (row, s), Light's test's
    own gathers.  Otherwise Light's test is only asked, over the distinct rows, stopping
    at its first defect: with more generators it gathers over half the census anyway.  A
    table that fails it, or whose pairs (row, s) have defects in over an eighth of them
    (a random table has them in nearly all), is censused by rows of a."""
    n = g.n
    rep, rows = _distinct_rows(g)
    repeats = Counter(rep)
    if n ** 3 > SLAB_CELLS:
        gens = generating_set(g)
        if 2 * len(gens) <= n and len(rows) * n * n > 4 * SLAB_CELLS:
            report = _closure_census(g, rep, rows, gens)
            if report is not None:
                return report
        elif _light_test(g, rows, gens):
            return ShReport(0, ())
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
    return _report(g, count, list(islice(((a, *divmod(bc, n)) for a in range(n) for bc in found[rep[a]]), TRIPLE_LIST_CAP)))


def _distinct_rows(g: Groupoid) -> tuple[list[int], list[int]]:
    """rep[a], the least element whose row equals a's, and the distinct rows' least elements.
    When column 0 takes n values, as in a group's table, every row is distinct."""
    t = g.narrow_table
    if np.bincount(t[:, 0], minlength=g.n).max() == 1:
        return list(range(g.n)), list(range(g.n))
    return _distinct(t)


def _distinct(a: np.ndarray) -> tuple[list[int], list[int]]:
    """rep[k], the first row of the 2-d ``a`` equal to row k, and the distinct rows' first indices."""
    first: dict = {}
    rep = [first.setdefault(key, k) for k, key in enumerate(a.view(f"V{a.itemsize * a.shape[1]}").ravel().tolist())]
    return rep, list(first.values())


def _closure_census(g: Groupoid, rep, rows, gens, share: int = 8) -> ShReport | None:
    """The census through the lemma, from ``_distinct_rows``'s rep and rows; None once
    over 1/share of the pairs (row, s), s in ``gens``, have a defect.  Past an eighth,
    most pairs stay uncertified, and censusing them costs more than the census by rows.

    The pairs (row, s) are censused first, as one box.  Then the known middles, the
    generators at first, are closed under the product in rounds as in
    ``core.subuniverse_mask``: the frontier times the known set, both ways.  Each new b
    takes one decomposition b1 b2 from the round's products.  A pair (a, b) is
    certified, and has no defect, when (a, b1), (b1, b2) and (ab1, b2) are associative;
    the others are censused (``_census_round``).  When every pair of the unknown
    middles costs fewer cells than the round's products, they are censused at once.
    The listing gathers the first pairs with a defect again."""
    n, t = g.n, g.narrow_table
    ids, rows = np.searchsorted(rows, rep), np.array(rows)  # a's row is rows[ids[a]]
    repeats = np.bincount(ids)
    assoc = np.zeros((len(rows), n), bool)  # for the known middles b: is (rows[r], b) associative?
    frontier = np.array(gens)
    count = _census_round(g, rows, repeats, assoc, frontier, np.zeros((len(rows), len(gens)), bool),
                          len(rows) * len(gens) // share)
    if count is None:
        return None
    if count == 0:  # Light's test
        return ShReport(0, ())
    known = np.zeros(n, bool)
    known[frontier] = True
    row_products = t[rows]
    while not known.all():
        inside, rest = known.nonzero()[0], np.flatnonzero(~known)
        if 2 * len(frontier) * len(inside) > len(rows) * len(rest) * n:
            frontier, certified = rest, np.zeros((len(rows), len(rest)), bool)
        else:
            split = np.full(n, -1)  # split[b] = b1 * n + b2 with b = b1 b2
            for left, right in ((frontier, inside), (inside, frontier)):
                split[t.take(left, axis=0).take(right, axis=1)] = left[:, None] * n + right
            frontier = np.flatnonzero((split >= 0) & ~known)
            b1, b2 = np.divmod(split[frontier], n)
            certified = assoc.take(b1, axis=1) & assoc[ids[b1], b2] & assoc[ids.take(row_products.take(b1, axis=1)), b2]
        count += _census_round(g, rows, repeats, assoc, frontier, certified)
        known[frontier] = True
    a, b = np.divmod(np.flatnonzero(~assoc[ids])[:TRIPLE_LIST_CAP], n)
    listed: list = []
    for lo, mask in _pair_slabs(g, a, b):
        k, c = np.nonzero(mask)
        listed += zip(a[lo + k].tolist(), b[lo + k].tolist(), c.tolist())
        if len(listed) >= TRIPLE_LIST_CAP:
            break
    return _report(g, count, listed[:TRIPLE_LIST_CAP])


def _census_round(g: Groupoid, rows, repeats, assoc, middles, certified, limit=None) -> int | None:
    """Record in ``assoc[:, middles]`` which pairs (rows[r], middles[j]) are associative
    and return their defects, row r counted repeats[r] times.  A pair with
    certified[r, j] has none.  The others are censused pair by pair (``_pair_slabs``),
    or, when they are over a third of the round, as the box of every row and middle
    (``defect_slabs``), whose cells cost about a third as much; a box stops, returning
    None, once more than ``limit`` of its pairs have a defect."""
    assoc[:, middles] = certified
    dtype, count, failing = np.min_scalar_type(g.n), 0, 0
    if 3 * np.count_nonzero(~certified) > certified.size:
        for lo, mask in defect_slabs(g, rows=rows, middles=middles):
            defects = mask.sum(axis=2, dtype=dtype)
            assoc[lo:lo + len(mask), middles] = defects == 0
            count += int((repeats[lo:lo + len(mask)] @ defects).sum())
            failing += np.count_nonzero(defects)
            if limit is not None and failing > limit:
                return None
        return count
    r, j = np.nonzero(~certified)
    for lo, mask in _pair_slabs(g, rows[r], middles[j]):
        defects = mask.sum(axis=1, dtype=dtype)
        r_slab = r[lo:lo + len(mask)]
        assoc[r_slab, middles[j[lo:lo + len(mask)]]] = defects == 0
        count += int(repeats[r_slab] @ defects)
    return count


def _pair_slabs(g: Groupoid, a, b):
    """Yield (lo, mask) per slab of the pairs (a[k], b[k]): mask[k, c] is (ab)c != a(bc).
    (ab)c copies rows of ``g.narrow_table``; a(bc) is gathered through a flat intp index
    of the slab's cells, 8 bytes a cell, so a slab holds at most SLAB_CELLS / 4 cells,
    or one pair, and its index stays within 2 x SLAB_CELLS bytes."""
    t = g.narrow_table
    step = max(1, SLAB_CELLS // (4 * g.n))
    for lo in range(0, len(a), step):
        a_slab, b_slab = a[lo:lo + step], b[lo:lo + step]
        yield lo, t.take(t[a_slab, b_slab], axis=0) != t.ravel().take(t.take(b_slab, axis=0) + a_slab[:, None] * g.n)


def _report(g: Groupoid, count: int, listed: list) -> ShReport:
    sh_type = minimal = None
    if count == 1:
        sh_type = "".join("abc"[list(dict.fromkeys(listed[0])).index(x)] for x in listed[0])
        minimal = generate_subuniverse(g, set(listed[0])) == frozenset(range(g.n))
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
