"""Brute-force references for the tests: the spectrum with every bracketing
tabulated on its own, then grouped; subuniverses closed in Python sets; and
the defects of associativity by a pointwise triple loop."""

import numpy as np

from grpd.bracketings import enumerate_bracketings
from grpd.spectrum import term_function


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
    """The mask of (ab)c != a(bc) over the whole (a, b, c) cube, gathered in
    int64 one layer of a at a time, so a 300-element cube fits in memory."""
    t = g.table
    return np.stack([t[t[a]] != t[a][t] for a in range(g.n)])


def sh_type(triple):
    """The letters of a triple's pattern of equal entries, "aba" for (2, 0, 2)."""
    return "".join("abc"[list(dict.fromkeys(triple)).index(x)] for x in triple)
