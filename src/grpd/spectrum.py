"""Associative spectrum and term tabulation.

s(n) counts the distinct n-ary term functions arising from the C(n-1)
bracketings of x1*...*xn.  ``term_function`` tabulates any term over
the whole tuple space with numpy broadcasting, one axis per variable.
``spectrum`` composes the functions of smaller sizes instead (Csákány
& Waldhauser, "Associative spectra of binary operations", 2000), and
``spectrum_ak_oracle`` counts the k-wraparound groupoid's spectrum from
left-depth sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bracketings import catalan
from . import nonassoc
from .core import Groupoid
from .errors import GuardError
from .terms import DEFAULT_BUDGET, Term, axis_env, gather_term, guard_assignments, satisfies_identity, scheme_identity

SPECTRUM_MAX_N = 10
ORACLE_MAX_N = 14


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum values s(1)..s(maxN) with the equal-function classes.

    ``classes[k]`` partitions the bracketing indices of size k+1
    (enumeration order) into groups inducing the same term function.
    """

    values: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...]


def term_function(g: Groupoid, t: Term, variables=None) -> np.ndarray:
    """Tabulate the term function t induces on g as a read-only int64 array.

    One axis of length |A| per variable, in the order of ``variables``,
    or of first occurrence in t when it is None.  More than
    ``terms.DEFAULT_BUDGET`` assignments (|A|^k for k variables) raise
    GuardError before any work, as in ``satisfies_identity``.
    """
    names = t.variables if variables is None else tuple(variables)
    k = len(names)
    guard_assignments(g.n, k)
    arr = gather_term(t, axis_env(names, g.n), g, g.table)
    table = np.array(np.broadcast_to(arr, (g.n,) * k), dtype=np.int64, order="C")
    table.flags.writeable = False
    return table


def spectrum(g: Groupoid, max_n: int, budget: int = DEFAULT_BUDGET) -> SpectrumReport:
    """Compute s(1)..s(max_n) by composing the classes of smaller sizes.

    The classes of size m are the distinct products narrow[P ⊗ Q] of a
    class P of size k and a class Q of size m-k, compared by their exact
    bytes in the dtype of ``g.narrow_table`` (uint8 up to 256 elements,
    uint16 beyond).  Sizes stop at the largest m with catalan(m)·|A|^m
    within the budget; a budget below |A|, which admits not even s(1),
    raises GuardError.

    Above one slab (|A|^3 > ``nonassoc.SLAB_CELLS``) a top size of at least 3 first asks
    ``is_semigroup`` (Light's test).  In a semigroup every bracketing of x1..xm induces the
    same function (generalized associativity), so each size is one class of all its
    bracketings, s(m) = 1, and nothing is gathered.  Any other table has s(3) = 2, its two
    bracketings differing at a defect, so a top size of exactly 3 gathers nothing either;
    a larger one composes as below.

    Each level first groups its pairs (split, P, Q), in the order of their first
    bracketings, by Birkhoff's substitution rule (1935): bracketings B1 = B2 of size m-1
    stay equal with x_i replaced by (x_i x_i+1), both being their function at
    (x1, .., x_i x_i+1, .., x_m), so for each class of size m-1 and each i the pairs of its
    members' images (``_shapes``) share a group.  Groups may split a class (A4 at size 6: 42 groups,
    41 classes), which evaluation then merges; only the least pair of a group is gathered,
    and the others take its label.  Those pairs are refined slab by slab over rows of x1: a
    pair's new label is the first occurrence of (old label, slab bytes), numbered past the
    labels of earlier slabs.  A level below the top is one slab, the whole table, kept as
    the table its products are later composed from.  The top level takes slabs of about
    ``nonassoc.SLAB_CELLS`` cells, after one row of x1 when a pair's table holds more than
    SLAB_CELLS/256 cells, and keeps no table; slabs only split classes, so later slabs skip
    a pair alone in its class, and the level stops once no pair shares a class.  A slab is
    gathered along Q's axis first, copying whole rows of narrow[:, Q], unless P's slab holds
    at most |A| cells.  Each bracketing's class is read through its factors' classes, and a
    size's classes are listed in order of first occurrence.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_n > SPECTRUM_MAX_N:
        raise GuardError(f"spectrum capped at max_n={SPECTRUM_MAX_N}")
    n = g.n
    guard_assignments(n, 1, budget)
    top = 1
    while top < max_n and catalan(top + 1) * n ** (top + 1) <= budget:
        top += 1
    if top >= 3 and n ** 3 > nonassoc.SLAB_CELLS:
        if nonassoc.is_semigroup(g):
            return SpectrumReport((1,) * top, tuple((tuple(range(catalan(m))),) for m in range(1, top + 1)))
        if top == 3:
            return SpectrumReport((1, 1, 2), (((0,),), ((0,),), ((0,), (1,))))
    narrow = g.narrow_table
    found = [[np.arange(n, dtype=narrow.dtype)]]  # found[m-1]: each class's table, below the top
    ids = [[0]]  # ids[m-1]: each bracketing's class
    for m in range(2, top + 1):
        factors, images = _shapes(m)
        index: dict[tuple[int, int, int], int] = {}  # each pair (split, P, Q), in order of its first bracketing
        pair_of = [index.setdefault((k, ids[k - 1][a], ids[m - k - 1][b]), len(index)) for k, a, b in factors]
        pairs = list(index)
        rep = live = range(len(pairs))
        if len(found[m - 2]) < len(ids[m - 2]):  # equal bracketings of size m-1 stay equal after x_i -> x_i x_i+1
            rep, first = list(live), {}
            for j, label in enumerate(ids[m - 2]):
                for a, b in zip(images[first.setdefault(label, j)], images[j]):
                    a, b = _find(rep, pair_of[a]), _find(rep, pair_of[b])
                    rep[max(a, b)] = min(a, b)
            rep = [_find(rep, i) for i in live]
            live = [i for i in live if rep[i] == i]
        labels, fresh = [0] * len(pairs), 0
        rows = max(1, nonassoc.SLAB_CELLS // n ** (m - 1)) if m == top else n
        x0, x1 = 0, 1 if m == top and n ** m > nonassoc.SLAB_CELLS >> 8 else rows
        while live:
            level: dict[tuple[int, bytes], int] = {}
            for i in live:
                k, p, q = pairs[i]
                p, q = found[k - 1][p][x0 * n ** (k - 1):x1 * n ** (k - 1)], found[m - k - 1][q]
                # q's axis first copies the slab as whole rows of narrow[:, q]; p's first
                # gathers it cell by cell, which wins only while p holds at most n cells
                table = (narrow.take(p, axis=0).take(q, axis=1) if len(p) <= n
                         else narrow.take(q, axis=1).take(p, axis=0))
                labels[i] = level.setdefault((labels[i], table.tobytes()), fresh + len(level))
            if x1 >= n:
                break
            fresh += len(level)  # a pair alone in its class stays alone: later slabs skip it
            sizes = Counter(labels[i] for i in live)
            live = [i for i in live if sizes[labels[i]] > 1]
            x0, x1 = x1, x1 + rows
        if m < top:
            found.append([np.frombuffer(key, narrow.dtype) for _, key in level])
        ids.append([labels[rep[i]] for i in pair_of])
    classes = []
    for c in ids:
        members: dict[int, list[int]] = {}
        for i, label in enumerate(c):
            members.setdefault(label, []).append(i)
        classes.append(tuple(map(tuple, members.values())))
    return SpectrumReport(tuple(map(len, classes)), tuple(classes))


@lru_cache(maxsize=SPECTRUM_MAX_N)
def _shapes(m: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """(split, left, right) of each bracketing of size m >= 2, in enumeration order,
    and for each bracketing of size m-1 the index of its image with x_i replaced by
    (x_i x_i+1) and later variables renumbered, for i = 1..m-1."""
    factors = tuple((k, a, b) for k in range(1, m) for a in range(catalan(k)) for b in range(catalan(m - k)))
    if m == 2:
        return factors, ((0,),)
    index = {f: j for j, f in enumerate(factors)}
    return factors, tuple(
        tuple(index[k + 1, _shapes(k + 1)[1][a][i], b] if i < k else index[k, a, _shapes(m - k)[1][b][i - k]]
              for i in range(m - 1))
        for k, a, b in _shapes(m - 1)[0])


def _find(rep: list[int], i: int) -> int:
    while rep[i] != i:
        rep[i] = i = rep[rep[i]]
    return i


def spectrum_ak_oracle(k: int, max_n: int) -> list[int]:
    """Spectrum of the k-wraparound groupoid via left-depth sequences.

    Two bracketings induce the same term function on that groupoid iff
    their left-depth sequences agree modulo k, so s(n) is the number of
    distinct mod-k left-depth sequences.  Computed by the recursion
    seq(P*Q) = (seq(P)+1) ++ seq(Q), carried out directly on mod-k
    sequences (reduction commutes with both steps).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if max_n > ORACLE_MAX_N:
        raise GuardError(f"oracle capped at max_n={ORACLE_MAX_N}")
    sets: list[set[tuple[int, ...]]] = [set(), {(0,)}]
    for n in range(2, max_n + 1):
        cur: set[tuple[int, ...]] = set()
        for split in range(1, n):
            for p in sets[split]:
                bumped = tuple((d + 1) % k for d in p)
                for q in sets[n - split]:
                    cur.add(bumped + q)
        sets.append(cur)
    return [len(sets[n]) for n in range(1, max_n + 1)]


def nulla_satisfied(g: Groupoid, n: int) -> bool:
    """Does g satisfy left-assoc(x1..xn) = x1*(left-assoc(x2..xn))?

    Uses the generic identity checker, whose loop over leading variables
    keeps memory bounded; more than ``DEFAULT_BUDGET`` assignments
    (g.n ** n) raise GuardError.
    """
    return satisfies_identity(g, scheme_identity("nulla", n))[0]
