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
from itertools import combinations, combinations_with_replacement

import numpy as np

from .core import Groupoid, SubsetWitness, generate_subuniverse, generated_congruence, partition_preserved_by
from .errors import GuardError
from .spectrum import OpTable, term_function
from .terms import Term

CLONE_GUARD = 2048
WITNESS_MAX_N = 20


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


def _close_under(combiner: np.ndarray, n: int):
    """Close {e1, e2} under (u, v) -> combiner[u, v], breadth first.

    Returns (tables, names, key_index).  Ops take their turns in
    discovery order; at u's turn, u is composed on both sides with
    every op found so far.  ``snapshots[v]`` is the op count at v's
    turn, so for v < u the pair was already composed iff u <
    snapshots[v].  Every ordered pair is thus composed exactly once,
    and the discovery order (and so the names) is stable.  More than
    ``CLONE_GUARD`` ops raise GuardError.
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
                    if idx >= CLONE_GUARD:
                        raise GuardError(f"binary clone closure exceeded {CLONE_GUARD} operations")
                    tables.append(composed)
                    names.append(f"({names[i]} {names[j]})")
                    key_index[key] = idx
        u += 1
    return tables, names, key_index


def binary_clone_part(g: Groupoid) -> BinaryClonePart:
    """Compute the binary part of Clo(g) with term names for each op."""
    tables, names, key_index = _close_under(g.table, g.n)
    ops = tuple(OpTable(2, g.n, t.reshape(-1)) for t in tables)
    basic = key_index[g.table.tobytes()]
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
    return g.table.tobytes() in key_index


@dataclass(frozen=True)
class ProxyVerdict:
    """Outcome of the binary minimality proxy.

    ``passes`` means every nontrivial binary clone op generates the
    basic operation back -- consistent with (not a proof of) clone
    minimality.  Otherwise ``witness_name`` is the term of the first
    failing op, a witness that the clone is certainly not minimal.
    """

    passes: bool
    witness_name: str | None = None


def binary_minimality_proxy(g: Groupoid) -> ProxyVerdict:
    """For every nontrivial h in the binary clone part, test whether the
    closure of the projections under h recovers the basic operation.

    The first h (clone discovery order) that fails is returned as a
    witness of non-minimality.  The projections are ``ops[0]`` and
    ``ops[1]``, and no other op equals them.
    """
    if is_trivial_clone(g):
        raise ValueError("basic operation is a projection; proxy needs a nontrivial clone")
    part = binary_clone_part(g)
    for idx in range(2, len(part)):
        if not generates_basic(g, part.ops[idx]):
            return ProxyVerdict(False, part.names[idx])
    return ProxyVerdict(True)


def binary_term_table(g: Groupoid, term: Term) -> OpTable:
    """Tabulate a two-variable term (over vars x, y) as a binary op."""
    extra = set(term.variables) - {"x", "y"}
    if extra:
        raise ValueError(f"term must only use variables x and y, found {sorted(extra)}")
    return term_function(g, term, variables=("x", "y"))


def find_relational_witness(g: Groupoid, suspect: OpTable) -> SubsetWitness | None:
    """First relation preserved by the suspect but not by the basic op.

    Subsets are ordered by bitmask, then partitions by block count (most
    first) and restricted-growth string.  The first witness is generated
    by one pair: a witness S holds a, b with a*b outside S, so <a, b>
    inside S is one too; a partition witness is the join of the suspect's
    Cg(a, b) below it, and the basic op's congruences are closed under
    joins, so one of those is a witness with as many blocks or more.
    None means no relation separates them; GuardError past WITNESS_MAX_N.
    """
    n = g.n
    if n > WITNESS_MAX_N:
        raise GuardError(f"witness search capped at n={WITNESS_MAX_N}")
    if suspect.arity != 2 or suspect.base != n:
        raise ValueError("suspect must be a binary op on the same carrier")
    s_groupoid = Groupoid(g.names, suspect.as_array())
    subsets = {generate_subuniverse(s_groupoid, {a, b}) for a, b in combinations_with_replacement(range(n), 2)}
    subsets = [s for s in subsets if not set(g.table[np.ix_(list(s), list(s))].flat) <= s]
    if subsets:
        return SubsetWitness("subset", min(subsets, key=lambda s: sum(1 << i for i in s)))
    partitions = [generated_congruence(s_groupoid.table, [pair]) for pair in combinations(range(n), 2)]
    partitions = [p for p in partitions if not partition_preserved_by(g.table, p)]
    if partitions:
        return SubsetWitness("partition", min(partitions, key=lambda p: (-len(p.blocks), p.block_ids())))
    return None
