"""Associative spectrum and term tabulation.

s(n) counts the distinct n-ary term functions arising from the C(n-1)
bracketings of x1*...*xn.  ``term_function`` tabulates any term over
the whole tuple space with numpy broadcasting, one axis per variable;
the spectrum evaluates the bracketings of one size the same way,
sharing their proper subterms.  Equal-function classes are keyed by
the exact bytes of each evaluation table, whose root is gathered in the
smallest unsigned dtype that holds n-1, so two distinct functions never
share a key on any carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracketings import _positions, catalan, enumerate_bracketings
from .core import Groupoid
from .errors import GuardError
from .terms import Term, axis_env, satisfies_identity, scheme_identity

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


def _evaluate_tree(g: Groupoid, t: Term, env: dict, cache: dict, root: np.ndarray | None = None):
    """Broadcast-evaluate a term over the axis arrays of ``env``.

    The result only spans the axes of the variables that occur in the
    subterm; callers broadcast to the full shape.  The root is gathered
    from ``root``.  Proper subterms are gathered from the int64
    ``g.table``, since they index the next gather, and memoized in
    ``cache`` (across the bracketings of one size in ``spectrum``).  The
    root's table is not stored: a bracketing of one size is never a
    proper subterm of another of that size, so it would never be looked up.
    """
    if t.is_var:
        return env[t.name]
    out = cache.get(t)
    if out is None:
        left = _evaluate_tree(g, t.left, env, cache)
        right = _evaluate_tree(g, t.right, env, cache)
        out = (g.table if root is None else root)[left, right]
        if root is None:
            cache[t] = out
    return out


def term_function(g: Groupoid, t: Term, budget: int = DEFAULT_BUDGET, variables=None) -> OpTable:
    """Tabulate the term function t induces on g.

    Axes follow ``variables``, or the order of first occurrence in t
    when it is None.
    """
    names = t.variables if variables is None else tuple(variables)
    k = len(names)
    if g.n ** k > budget:
        raise GuardError(f"evaluation budget exceeded ({g.n}^{k} > {budget})")
    arr = _evaluate_tree(g, t, axis_env(names, g.n), {}, g.table)
    full = np.broadcast_to(arr, (g.n,) * k)
    return OpTable(k, g.n, full.reshape(-1).copy())


def spectrum(g: Groupoid, max_n: int, budget: int = DEFAULT_BUDGET) -> SpectrumReport:
    """Compute s(1)..s(max_n) by brute-force function deduplication.

    Each bracketing's root is gathered from ``g.narrow_table`` (uint8
    up to 256 elements, uint16 beyond) and the exact bytes of its full
    evaluation table key a dict of classes, kept in order of first
    occurrence, so two bracketings share a class iff they induce the
    same function.  If the per-size cost exceeds the budget the report
    stops at the largest completed size.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > SPECTRUM_MAX_N:
        raise GuardError(f"spectrum capped at max_n={SPECTRUM_MAX_N}")
    narrow = g.narrow_table
    values = []
    classes = []
    for n in range(1, max_n + 1):
        if catalan(n) * g.n ** n > budget:
            break
        env = axis_env(_positions(n), g.n)
        cache: dict = {}
        members: dict[bytes, list[int]] = {}  # table bytes -> bracketing indices
        for idx, b in enumerate(enumerate_bracketings(n)):
            data = _evaluate_tree(g, b, env, cache, narrow).tobytes()  # spans all n axes
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


def nulla_satisfied(g: Groupoid, n: int) -> bool:
    """Does g satisfy left-assoc(x1..xn) = x1*(left-assoc(x2..xn))?

    Uses the generic identity checker, whose loop over leading variables
    keeps memory bounded however large g.n ** n is.
    """
    return satisfies_identity(g, scheme_identity("nulla", n))[0]
