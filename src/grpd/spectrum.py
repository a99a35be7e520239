"""Associative spectrum: term functions induced by bracketings.

s(n) counts the distinct n-ary term functions arising from the C(n-1)
bracketings of x1*...*xn.  Bracketings are evaluated over the whole
tuple space with numpy broadcasting.  Equal-function classes are keyed
by the exact bytes of each evaluation table, serialised in the smallest
unsigned dtype that holds n-1, so two distinct functions never share a
key on any carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracketings import (
    Bracketing,
    catalan,
    enumerate_bracketings,
    leaf,
    left_assoc,
    pair,
)
from .core import Groupoid
from .errors import GuardError
from .terms import satisfies_identity, scheme_identity

DEFAULT_BUDGET = 10 ** 8
SPECTRUM_MAX_N = 10
ORACLE_MAX_N = 14


@dataclass(frozen=True)
class OpTable:
    """A tabulated k-ary operation: flat row-major array of length n^k."""

    arity: int
    base: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.int64).reshape(-1)
        if entries.size != self.base ** self.arity:
            raise ValueError("entry count must be base**arity")
        if entries.size and (entries.min() < 0 or entries.max() >= self.base):
            raise ValueError("entry out of range")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def as_array(self) -> np.ndarray:
        return self.entries.reshape((self.base,) * self.arity)

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments")
        flat = 0
        for a in args:
            flat = flat * self.base + a
        return int(self.entries[flat])

    def __eq__(self, other):
        return (
            isinstance(other, OpTable)
            and self.arity == other.arity
            and self.base == other.base
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.arity, self.base, self.entries.tobytes()))


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum values s(1)..s(maxN) with the equal-function classes.

    ``classes[k]`` partitions the bracketing indices of size k+1
    (enumeration order) into groups inducing the same term function.
    """

    values: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.values)


def _leaf_array(position: int, nleaves: int, n: int) -> np.ndarray:
    shape = [1] * nleaves
    shape[position - 1] = n
    return np.arange(n, dtype=np.int64).reshape(shape)


def _evaluate_tree(g: Groupoid, b: Bracketing, nleaves: int, cache: dict, store: bool = False):
    """Broadcast-evaluate a bracketing over the full tuple space.

    The result only spans the axes of the leaves that occur in the
    subtree; callers broadcast to the full shape.  ``cache`` memoizes
    proper subtrees across the bracketings of one size (keyed by
    structure, which determines the leaf span).  The root's table is
    not stored: a bracketing of one size is never a proper subtree of
    another of that size, so it would never be looked up.
    """
    if b.is_leaf:
        return _leaf_array(b.pos, nleaves, g.n)
    out = cache.get(b)
    if out is None:
        left = _evaluate_tree(g, b.left, nleaves, cache, True)
        right = _evaluate_tree(g, b.right, nleaves, cache, True)
        out = g.table[left, right]
        if store:
            cache[b] = out
    return out


def term_function(g: Groupoid, b: Bracketing, budget: int = DEFAULT_BUDGET) -> OpTable:
    """Tabulate the term function a bracketing induces on g."""
    k = b.size
    if g.n ** k > budget:
        raise GuardError(f"evaluation budget exceeded ({g.n}^{k} > {budget})")
    arr = _evaluate_tree(g, b, k, {})
    full = np.broadcast_to(arr, (g.n,) * k)
    return OpTable(k, g.n, full.reshape(-1).copy())


def spectrum(g: Groupoid, max_n: int, budget: int = DEFAULT_BUDGET) -> SpectrumReport:
    """Compute s(1)..s(max_n) by brute-force function deduplication.

    Each bracketing's full evaluation table is serialised in
    ``np.min_scalar_type(g.n - 1)`` (uint8 up to 256 elements, uint16
    beyond) and its exact bytes key a dict of classes, kept in order of
    first occurrence, so two bracketings share a class iff they induce
    the same function.  If the per-size cost exceeds the budget the
    report stops at the largest completed size.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > SPECTRUM_MAX_N:
        raise GuardError(f"spectrum capped at max_n={SPECTRUM_MAX_N}")
    dtype = np.min_scalar_type(g.n - 1)
    values = []
    classes = []
    for n in range(1, max_n + 1):
        if catalan(n) * g.n ** n > budget:
            break
        cache: dict = {}
        members: dict[bytes, list[int]] = {}  # table bytes -> bracketing indices
        for idx, b in enumerate(enumerate_bracketings(n)):
            arr = np.broadcast_to(_evaluate_tree(g, b, n, cache), (g.n,) * n)
            data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
            members.setdefault(data, []).append(idx)
        values.append(len(members))
        classes.append(tuple(tuple(m) for m in members.values()))
    return SpectrumReport(tuple(values), tuple(classes))


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


def nulla_satisfied(g: Groupoid, n: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Does g satisfy left-assoc(x1..xn) = x1*(left-assoc(x2..xn))?

    Both sides are bracketings of distinct variables, so the check
    compares the two induced term tables directly when that fits the
    budget, falling back to the generic identity checker otherwise.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if g.n ** n <= budget:
        def shift(b):
            # move tail positions 1..n-1 to 2..n
            if b.is_leaf:
                return leaf(b.pos + 1)
            return pair(shift(b.left), shift(b.right))

        lhs = left_assoc(n)
        rhs = pair(leaf(1), shift(left_assoc(n - 1)))
        return term_function(g, lhs, budget) == term_function(g, rhs, budget)
    ok, _ = satisfies_identity(g, scheme_identity("nulla", n))
    return ok
