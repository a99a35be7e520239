"""Brute-force references for the tests: the spectrum with every bracketing
tabulated on its own, then grouped; subuniverses closed in Python sets; the
defects of associativity by a pointwise triple loop or from the whole cube, and
the census report built from them; and the .gpd reader that splits each row
into Python strings.  Also the inputs that several test modules share: catalog
entries, the 729 idempotent 3-element tables, uniform random tables, relabelled
semigroups, one-defect tables and random identities."""

import itertools

import numpy as np
from hypothesis import strategies as st

from grpd.bracketings import enumerate_bracketings
from grpd.catalog import catalog_get
from grpd.core import Groupoid
from grpd.errors import ParseError
from grpd.nonassoc import TRIPLE_LIST_CAP, ShReport
from grpd.spectrum import term_function
from grpd.terms import Identity, prod, var


def cat(name):
    return catalog_get(name).groupoid


def groupoid_of(n, cells, names=None):
    """The groupoid with the n x n ``cells``, its elements the first n of ``names``, or
    "0" to "n-1" when None."""
    return Groupoid(tuple(map(str, range(n))) if names is None else tuple(names[:n]), np.reshape(cells, (n, n)))


def tables(lo, hi, names=None):
    """Tables on lo to hi elements, every cell uniform over the carrier (``groupoid_of``'s names)."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
            lambda cells: groupoid_of(n, cells, names)))


def idempotent_3_tables(names="abc"):
    """The 729 idempotent tables on three elements in search order: the six cells off
    the diagonal row-major, the first most significant."""
    for cells in itertools.product(range(3), repeat=6):
        table = np.diag(np.arange(3))
        table[~np.eye(3, dtype=bool)] = cells
        yield groupoid_of(3, table, names)


def repro(n, v=None):
    """0 everywhere except t[1, 1] = 2 and t[2, 1] = v, by default n - 1: one defect,
    (1, 1, 1), whose sides are v and 0."""
    t = np.zeros((n, n), dtype=np.int64)
    t[1, 1], t[2, 1] = 2, n - 1 if v is None else v
    return groupoid_of(n, t)


# semigroups on {0..n-1}, each by its product
SEMIGROUPS = {
    "cyclic": lambda a, b, n: (a + b) % n,
    "left-zero": lambda a, b, n: a + 0 * b,
    "right-zero": lambda a, b, n: b + 0 * a,
    "null": lambda a, b, n: 0 * a * b,
    "max": lambda a, b, n: np.maximum(a, b),
    "mult": lambda a, b, n: (a * b) % n,
}


def relabelled(kind, n, changed, seed):
    """A semigroup of SEMIGROUPS relabelled at random, with ``changed`` cells given other values."""
    rng = np.random.default_rng(seed)
    a, b = np.indices((n, n))
    perm = rng.permutation(n)
    t = np.empty((n, n), dtype=np.int64)
    t[np.ix_(perm, perm)] = perm[SEMIGROUPS[kind](a, b, n)]
    for _ in range(changed):
        i, j = rng.integers(n, size=2)
        t[i, j] = (t[i, j] + rng.integers(1, n)) % n
    return groupoid_of(n, t)


def terms_over(names, max_leaves):
    return st.recursive(st.sampled_from(names).map(var), lambda sub: st.tuples(sub, sub).map(lambda pair: prod(*pair)),
                        max_leaves=max_leaves)


def identities(names, max_leaves):
    return st.tuples(terms_over(names, max_leaves), terms_over(names, max_leaves)).map(lambda sides: Identity(*sides))


def parse_groupoid(text):
    """The .gpd reader row by row: ``str.split`` on each row and a dict from
    name to index, stopping at the first row of a wrong length or with an
    unknown token."""
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ParseError("empty document")
    names = tuple(lines[0].split())
    n = len(names)
    if len(set(names)) != n:
        dupe = next(nm for nm in names if names.count(nm) > 1)
        raise ParseError(f"duplicate element name {dupe!r}")
    rows = lines[1:]
    if len(rows) != n:
        raise ParseError(f"expected {n} table rows, got {len(rows)}")
    index = {nm: i for i, nm in enumerate(names)}
    table = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows):
        tokens = row.split()
        if len(tokens) != n:
            raise ParseError(f"row length mismatch in row {i + 1}: expected {n} entries, got {len(tokens)}")
        try:
            table[i] = [index[tok] for tok in tokens]
        except KeyError as exc:
            raise ParseError(f"unknown element {exc.args[0]!r} in row {i + 1}") from None
    return Groupoid(names, table)


def group_bracketings(n, key):
    """The indices of the bracketings of size n grouped by ``key(bracketing)``:
    groups in order of first occurrence, each ascending."""
    groups = {}
    for idx, b in enumerate(enumerate_bracketings(n)):
        groups.setdefault(key(b), []).append(idx)
    return tuple(map(tuple, groups.values()))


def spectrum_classes(g, n):
    """The equal-function classes of size n on g, keyed by each bracketing's
    whole int64 term-function table."""
    return group_bracketings(n, lambda b: term_function(g, b).tobytes())


def subuniverse(g, seeds):
    """The subuniverse generated by ``seeds``, closed in Python sets: each
    round multiplies the elements new in the round before by the whole set
    so far, both ways."""
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        new = set()
        for a in frontier:
            for b in closed:
                new.add(g.prod(a, b))
                new.add(g.prod(b, a))
        new -= closed
        closed |= new
        frontier = list(new)
    return frozenset(closed)


def defect_triples(g):
    """Every (a, b, c) with (ab)c != a(bc), in index order, by a pointwise triple loop."""
    t = g.table.tolist()
    r = range(g.n)
    return [(a, b, c) for a in r for b in r for c in r if t[t[a][b]][c] != t[a][t[b][c]]]


def defect_cube(g):
    """``defect_triples`` from the mask of (ab)c != a(bc) over the whole (a, b, c) cube,
    gathered in int64 one layer of a at a time, so a 300-element cube fits in memory."""
    t = g.table
    return list(map(tuple, np.argwhere(np.stack([t[t[a]] != t[a][t] for a in range(g.n)])).tolist()))


def sh_type(triple):
    """The letters of a triple's pattern of equal entries, "aba" for (2, 0, 2)."""
    return "".join("abc"[list(dict.fromkeys(triple)).index(x)] for x in triple)


def ns_report(g, defects=None):
    """The census report of ``defects`` (by default ``defect_triples``): their count, the
    first TRIPLE_LIST_CAP of them, and for a single one its type and whether it generates
    the carrier (``subuniverse``)."""
    defects = defect_triples(g) if defects is None else defects
    if len(defects) != 1:
        return ShReport(len(defects), tuple(defects[:TRIPLE_LIST_CAP]))
    return ShReport(1, tuple(defects), sh_type(defects[0]), subuniverse(g, defects[0]) == frozenset(range(g.n)))
