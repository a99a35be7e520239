"""Binary part of the clone by closure, and clone (non-)minimality tools.

The binary part is the least set of binary operations on A containing
both projections and closed under (u, v) -> f(u(x,y), v(x,y)), where f
is the basic operation.  Each binary operation, a clone op or a suspect,
is a ``Groupoid`` on the basic groupoid's elements.  The binary part
realizes the two-generated free algebra of the generated variety, with
the product g*h = f(g, h).  The closure records the index of every
product it composes, so its table is the f2 table.
``binary_clone_part`` closes it once; the f2 table and the minimality
proxy read that ``BinaryClonePart`` and close nothing again.

The minimality proxy is exact at the binary level: the binary part of
the clone generated by a binary h is precisely the closure of the
projections under composition with h, so the basic operation missing
from that closure certifies the clone is not minimal; the closure
stops as soon as f turns up.  The proxy returns the term of such an h,
or None; None does NOT prove minimality (higher-arity generators are
never examined).  A relational witness is the relation itself: a
frozenset of indices for a subset, or a ``Partition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import nonassoc
from .core import Groupoid, Partition, generate_subuniverse, generated_congruence, is_congruence
from .errors import GuardError
from .spectrum import term_function
from .terms import Term

CLONE_GUARD = 2048
WITNESS_MAX_N = 20


@dataclass(frozen=True, eq=False)
class BinaryClonePart:
    """The arity-2 term operations of ``groupoid``'s clone.

    ``tables[i]`` is op i's table in the closure's dtype, and ``ops[i]`` the op
    as a groupoid on ``groupoid``'s elements, built on first use.  ``ops[0]`` and
    ``ops[1]`` are the projections and ``basic_index`` locates the basic operation
    f.  ``products[i, j]`` is the index of f(ops[i], ops[j]), filled in as composed.
    """

    groupoid: Groupoid
    tables: np.ndarray
    names: tuple[str, ...]
    basic_index: int
    products: np.ndarray

    @cached_property
    def ops(self) -> tuple[Groupoid, ...]:
        return tuple(Groupoid(self.groupoid.names, table) for table in self.tables)

    def __len__(self):
        return len(self.tables)


def _close_under(combiner: np.ndarray, stop: bytes | None = None):
    """Close {e1, e2} under (u, v) -> combiner[u, v], breadth first.

    Returns (ops, names, products): ops as rows of cells in the
    combiner's dtype, stored in blocks that double, and the index of
    each combiner[ops[i], ops[j]] (-1: not yet composed).  At u's turn
    the pairs left are the -1 entries of row u among the ops found so
    far, for v ascending, (u, v) before (v, u) ((u, u) twice).  One
    ``take`` per block of at most ``nonassoc.SLAB_CELLS`` cells composes
    them; new ops are appended in that order, so names are stable.
    Returns None once ``stop`` (the bytes of a table in the combiner's
    dtype) is an op.  More than ``CLONE_GUARD`` ops raise GuardError.
    """
    n = len(combiner)
    ops = np.empty((16, n * n), combiner.dtype)
    ops[:2] = np.divmod(np.arange(n * n), n)    # e1, e2
    products = np.full((16, 16), -1, np.min_scalar_type(-CLONE_GUARD))
    names = ["x", "y"]
    key_index = {ops[0].tobytes(): 0, ops[1].tobytes(): 1}
    if stop in key_index:
        return None
    block = max(1, nonassoc.SLAB_CELLS // (n * n))
    u, m = 0, 2
    while u < m:
        vs = np.flatnonzero(products[u, :m] < 0)
        pairs = np.where([[False, True], [True, False]], vs[:, None, None], u).reshape(-1, 2)    # (u, v), (v, u)
        for lo in range(0, len(pairs), block):
            i, j = pairs[lo:lo + block].T
            composed = combiner.take(ops[i].astype(np.intp) * n + ops[j])
            keys = composed.view(f"V{n * n * ops.itemsize}").ravel().tolist()    # each row's bytes
            for a, b, key in zip(i.tolist(), j.tolist(), keys):
                if key not in key_index:
                    if m >= CLONE_GUARD:
                        raise GuardError(f"binary clone closure exceeded {CLONE_GUARD} operations")
                    if m == len(ops):
                        ops = np.resize(ops, (min(2 * m, CLONE_GUARD), n * n))
                        products = np.pad(products, (0, len(ops) - m), constant_values=-1)
                    ops[m] = np.frombuffer(key, ops.dtype)
                    names.append(f"({names[a]} {names[b]})")
                    key_index[key] = m
                    m += 1
                    if key == stop:
                        return None
            products[i, j] = [key_index[key] for key in keys]
        u += 1
    return ops[:m], names, products[:m, :m]


def binary_clone_part(g: Groupoid) -> BinaryClonePart:
    """Compute the binary part of Clo(g) with term names for each op."""
    ops, names, products = _close_under(g.narrow_table)
    tables = ops.reshape(-1, g.n, g.n)
    tables.flags.writeable = products.flags.writeable = False
    return BinaryClonePart(g, tables, tuple(names), int(products[0, 1]), products)


def f2_table(part: BinaryClonePart) -> Groupoid:
    """``part`` as a groupoid: its ops multiplied by u*v = f(u, v).

    Element names are the generating terms with spaces stripped so the
    result stays .gpd-writable.
    """
    return Groupoid(tuple(name.replace(" ", "") for name in part.names), part.products)


def is_trivial_clone(g: Groupoid) -> bool:
    """A groupoid has a trivial clone iff it is a left or right zero
    semigroup (its operation is a projection)."""
    rows, cols = np.indices(g.table.shape)
    return bool((g.table == rows).all() or (g.table == cols).all())


def generates_basic(g: Groupoid, h: Groupoid) -> bool:
    """Is the basic operation in the binary part of the clone h generates?"""
    if h.n != g.n:
        raise ValueError("suspect must be a binary op on the same carrier")
    return _close_under(h.narrow_table, stop=g.narrow_table.tobytes()) is None


def binary_minimality_proxy(part: BinaryClonePart) -> str | None:
    """For every nontrivial h in the binary clone part, test whether the
    closure of the projections under h recovers the basic operation.

    Returns the term of the first h (clone discovery order) that fails, a
    witness that the clone is certainly not minimal, or None when every h
    generates f back: consistent with, but NOT a proof of, minimality.
    The projections are ``ops[0]`` and ``ops[1]``, and no other op equals
    them, so the part holds only them iff f is a projection (a 1-element
    carrier included).
    """
    if len(part) == 2:
        raise ValueError("basic operation is a projection; proxy needs a nontrivial clone")
    for op, name in zip(part.ops[2:], part.names[2:]):
        if not generates_basic(part.groupoid, op):
            return name
    return None


def binary_term_table(g: Groupoid, term: Term) -> Groupoid:
    """Tabulate a two-variable term (over vars x, y) as a binary op on g's elements."""
    extra = set(term.variables) - {"x", "y"}
    if extra:
        raise ValueError(f"term must only use variables x and y, found {sorted(extra)}")
    return Groupoid(g.names, term_function(g, term, ("x", "y")))


def find_relational_witness(g: Groupoid, suspect: Groupoid) -> frozenset[int] | Partition | None:
    """First relation preserved by the suspect but not by the basic op:
    a subset as a frozenset of indices, or a ``Partition``.

    Subsets are ordered by bitmask, then partitions by block count (most
    first) and restricted-growth string.  The first witness is generated
    by one pair: a witness S holds a, b with a*b outside S, so <a, b>
    inside S is one too; a partition witness is the join of the suspect's
    Cg(a, b) below it, and the basic op's congruences are closed under
    joins, so one of those is a witness with as many blocks or more.
    None means no subset or partition separates them; some other relation
    still does unless ``generates_basic(g, suspect)`` holds (Pol-Inv).
    GuardError past WITNESS_MAX_N.
    """
    n = g.n
    if n > WITNESS_MAX_N:
        raise GuardError(f"witness search capped at n={WITNESS_MAX_N}")
    if suspect.n != n:
        raise ValueError("suspect must be a binary op on the same carrier")
    subsets = {generate_subuniverse(suspect, {a, b}) for a, b in combinations_with_replacement(range(n), 2)}
    subsets = [s for s in subsets if not set(g.table[np.ix_(list(s), list(s))].flat) <= s]
    if subsets:
        return min(subsets, key=lambda s: sum(1 << i for i in s))
    partitions = [generated_congruence(suspect, [pair]) for pair in combinations(range(n), 2)]
    partitions = [p for p in partitions if not is_congruence(g, p)]
    if partitions:
        return min(partitions, key=lambda p: (-max(p.ids), p.ids))
    return None
