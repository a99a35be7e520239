"""Binary part of the clone by closure, and clone (non-)minimality tools.

The binary part is the least set of arity-2 tables containing both
projections and closed under (u, v) -> f(u(x,y), v(x,y)), where f is
the basic operation.  It realizes the two-generated free algebra of
the generated variety, with the product g*h = f(g, h).

The minimality proxy is exact at the binary level: the binary part of
the clone generated by a binary h is precisely the closure of the
projections under composition with h, so the basic operation missing
from that closure certifies the clone is not minimal.  A pass does NOT
prove minimality (higher-arity generators are never examined).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Groupoid, SubsetWitness, enumerate_partitions, partition_preserved_by
from .errors import GuardError
from .spectrum import OpTable, term_function
from .terms import Term

CLONE_GUARD = 10 ** 5
WITNESS_SUBSET_MAX_N = 20
WITNESS_PARTITION_MAX_N = 12


@dataclass(frozen=True, eq=False)
class BinaryClonePart:
    """The arity-2 term operations of a groupoid's clone.

    ``ops[0]``/``ops[1]`` are the projections; ``basic_index`` locates
    the basic operation f.  ``product(i, j)`` composes f(ops[i], ops[j])
    on demand and looks the result up by its table bytes; no product
    table is stored.
    """

    ops: tuple[OpTable, ...]
    names: tuple[str, ...]
    basic_index: int
    _key_index: dict    # table bytes -> op index

    def __len__(self):
        return len(self.ops)

    def product(self, i: int, j: int) -> int:
        basic = self.ops[self.basic_index].as_array()
        composed = basic[self.ops[i].as_array(), self.ops[j].as_array()]
        return self._key_index[composed.tobytes()]


def _projections(n: int) -> tuple[np.ndarray, np.ndarray]:
    e1 = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], (n, n)).copy()
    e2 = np.broadcast_to(np.arange(n, dtype=np.int64)[None, :], (n, n)).copy()
    return e1, e2


def _close_under(combiner: np.ndarray, n: int, guard: int = CLONE_GUARD):
    """Close {e1, e2} under (u, v) -> combiner[u, v], breadth first.

    Returns (tables, names, key_index).  Ops take their turns in
    discovery order; at u's turn, u is composed on both sides with
    every op found so far.  ``snapshots[v]`` is the op count at v's
    turn, so for v < u the pair was already composed iff u <
    snapshots[v].  Every ordered pair is thus composed exactly once,
    and the discovery order (and so the names) is stable.
    """
    e1, e2 = _projections(n)
    tables = [e1, e2]
    names = ["x", "y"]
    key_index = {e1.tobytes(): 0, e2.tobytes(): 1}
    snapshots: list[int] = []
    u = 0
    while u < len(tables):
        snapshot = len(tables)
        snapshots.append(snapshot)
        for v in range(snapshot):
            if v < u < snapshots[v]:
                continue
            for i, j in ((u, v),) if v == u else ((u, v), (v, u)):
                composed = np.ascontiguousarray(combiner[tables[i], tables[j]])
                key = composed.tobytes()
                if key not in key_index:
                    idx = len(tables)
                    if idx >= guard:
                        raise GuardError(f"binary clone closure exceeded {guard} operations")
                    tables.append(composed)
                    names.append(f"({names[i]} {names[j]})")
                    key_index[key] = idx
        u += 1
    return tables, names, key_index


def binary_clone_part(g: Groupoid, guard: int = CLONE_GUARD) -> BinaryClonePart:
    """Compute the binary part of Clo(g) with term names for each op."""
    tables, names, key_index = _close_under(g.table, g.n, guard)
    ops = tuple(OpTable(2, g.n, t.reshape(-1)) for t in tables)
    basic = key_index[np.ascontiguousarray(g.table).tobytes()]
    return BinaryClonePart(ops, tuple(names), basic, key_index)


def f2_table(g: Groupoid) -> Groupoid:
    """The clone part as a groupoid: ops multiplied by u*v = f(u, v).

    Element names are the generating terms with spaces stripped so the
    result stays .gpd-writable.
    """
    part = binary_clone_part(g)
    m = len(part)
    table = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            table[i, j] = part.product(i, j)
    names = tuple(name.replace(" ", "") for name in part.names)
    return Groupoid(names, table)


def is_trivial_clone(g: Groupoid) -> bool:
    """A groupoid has a trivial clone iff it is a left or right zero
    semigroup (its operation is a projection)."""
    e1, e2 = _projections(g.n)
    return bool(np.array_equal(g.table, e1) or np.array_equal(g.table, e2))


def generates_basic(g: Groupoid, h: OpTable) -> bool:
    """Is the basic operation in the binary part of the clone h generates?"""
    if h.arity != 2 or h.base != g.n:
        raise ValueError("suspect must be a binary op on the same carrier")
    _, _, key_index = _close_under(h.as_array(), g.n)
    return np.ascontiguousarray(g.table).tobytes() in key_index


@dataclass(frozen=True)
class ProxyVerdict:
    """Outcome of the binary minimality proxy.

    ``passes`` means every nontrivial binary clone op generates the
    basic operation back -- consistent with (not a proof of) clone
    minimality.  Otherwise the first failing op is the witness that the
    clone is certainly not minimal.
    """

    passes: bool
    witness_index: int | None = None
    witness_name: str | None = None
    witness: OpTable | None = None


def binary_minimality_proxy(g: Groupoid) -> ProxyVerdict:
    """For every nontrivial h in the binary clone part, test whether the
    closure of the projections under h recovers the basic operation.

    The first h (clone discovery order) that fails is returned as a
    witness of non-minimality.
    """
    if is_trivial_clone(g):
        raise ValueError("basic operation is a projection; proxy needs a nontrivial clone")
    part = binary_clone_part(g)
    e1, e2 = _projections(g.n)
    for idx, op in enumerate(part.ops):
        arr = op.as_array()
        if np.array_equal(arr, e1) or np.array_equal(arr, e2):
            continue
        if not generates_basic(g, op):
            return ProxyVerdict(False, idx, part.names[idx], op)
    return ProxyVerdict(True)


def binary_term_table(g: Groupoid, term: Term) -> OpTable:
    """Tabulate a two-variable term (over vars x, y) as a binary op."""
    extra = set(term.variables) - {"x", "y"}
    if extra:
        raise ValueError(f"term must only use variables x and y, found {sorted(extra)}")
    return term_function(g, term, variables=("x", "y"))


def _subset_preserved_by(table: np.ndarray, members: np.ndarray) -> bool:
    sub = table[np.ix_(members, members)]
    return bool(np.isin(sub, members).all())


def find_relational_witness(g: Groupoid, suspect: OpTable) -> SubsetWitness | None:
    """First relation preserved by the suspect but not by the basic op.

    Subsets are scanned in ascending bitmask order, then partitions
    finest-first (restricted-growth order within one block count).  The
    one-block partition and all-singletons are compatible with every
    operation, so they are skipped.  Returns None when no relation
    separates the two operations.
    """
    n = g.n
    if n > WITNESS_SUBSET_MAX_N:
        raise GuardError(f"witness search capped at n={WITNESS_SUBSET_MAX_N}")
    if suspect.arity != 2 or suspect.base != n:
        raise ValueError("suspect must be a binary op on the same carrier")
    s_table = suspect.as_array()
    f_table = g.table
    for mask in range(1, 1 << n):
        members = np.flatnonzero([(mask >> i) & 1 for i in range(n)])
        if _subset_preserved_by(s_table, members) and not _subset_preserved_by(f_table, members):
            return SubsetWitness("subset", frozenset(members.tolist()))
    if n <= WITNESS_PARTITION_MAX_N:
        for nblocks in range(n - 1, 1, -1):
            for p in enumerate_partitions(n):
                if len(p.blocks) != nblocks:
                    continue
                if partition_preserved_by(s_table, p) and not partition_preserved_by(f_table, p):
                    return SubsetWitness("partition", p)
    return None
