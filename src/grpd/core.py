"""Finite groupoids: tables, .gpd text I/O, and structural utilities.

A groupoid here is a finite set with one binary operation given by an
n x n table (row = left factor).  Elements are dense indices 0..n-1
internally; display names live in a side table so the hot loops stay
index-only.  ``Groupoid`` is the one type of a binary operation: a
clone op or a suspect is a groupoid on the basic groupoid's elements,
and the relation functions (subuniverses, congruences) take a groupoid.
A subuniverse is a frozenset of indices, and an equivalence relation is a
``Partition``: its block ids, in restricted-growth order.
The .gpd reader splits the rows' UTF-8 bytes at str.split's separators in one
numpy pass, and a trie over the names' bytes maps all tokens, a gather a byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import GuardError, ParseError

ISO_MAX_N = 9  # 9! = 362880 bijections


@dataclass(frozen=True)
class Groupoid:
    """A finite set with named elements and a multiplication table.

    ``table[i, j]`` is the index of (element i) * (element j).
    Instances are immutable: the table is copied on construction and
    the copy is marked read-only, so the caller's array stays its own.
    """

    names: tuple[str, ...]
    table: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        n = len(names)
        if n < 1:
            raise ValueError("groupoid needs at least one element")
        if len(set(names)) != n:
            raise ValueError("element names must be pairwise distinct")
        table = np.array(self.table, dtype=np.int64, order="C")
        if table.shape != (n, n):
            raise ValueError(f"table must be {n}x{n}, got {table.shape}")
        if table.size and (table.min() < 0 or table.max() >= n):
            raise ValueError("table entry out of range")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(names)})

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def narrow_table(self) -> np.ndarray:
        """``table`` in the smallest dtype that holds n-1 (uint8 up to 256 elements), read-only."""
        narrow = self.table.astype(np.min_scalar_type(self.n - 1))
        narrow.flags.writeable = False
        return narrow

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown element {name!r}") from None

    def prod(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def __eq__(self, other):
        return (
            isinstance(other, Groupoid)
            and self.names == other.names
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.names, self.table.tobytes()))

    def __repr__(self):
        return f"Groupoid({len(self.names)} elements: {' '.join(self.names)})"


@dataclass(frozen=True)
class Partition:
    """An equivalence relation on {0,..,n-1} given by its block ids.

    The constructor takes any labelling of the elements (x and y share a
    block iff their labels are equal) and renumbers it in restricted-growth
    order, blocks numbered by least member, so equal partitions compare
    equal.  ``blocks`` lists each block ascending, in the same order.
    """

    ids: tuple[int, ...]

    def __post_init__(self):
        first: dict = {}
        ids = tuple(first.setdefault(label, len(first)) for label in self.ids)
        if not ids:
            raise ValueError("a partition needs at least one element")
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        blocks = [[] for _ in range(max(self.ids) + 1)]
        for x, k in enumerate(self.ids):
            blocks[k].append(x)
        return tuple(map(tuple, blocks))

    def __repr__(self):
        inner = " | ".join(",".join(map(str, b)) for b in self.blocks)
        return f"Partition({inner})"


# ---------------------------------------------------------------------------
# .gpd text format


# where str.split() breaks (str.isspace): bytes 9-13 and 28-32, and these, which become a space first
_WIDE_SEPARATORS = "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
# byte classes: 0 the row break "\n", 1 another separator, 2 a byte no name holds, 3... the names' bytes
_BYTE_CLASSES = bytes(0 if b == 10 else 1 if 9 <= b <= 13 or 28 <= b <= 32 else 2 for b in range(256))


def parse_groupoid(text: str) -> Groupoid:
    """Parse the .gpd table format.

    ``#`` starts a comment; blank lines are skipped.  The first
    significant line lists the n element names, the next n lines give
    the table rows (entries are element names, row = left factor).
    The rows are scanned as one byte buffer (see the module docstring); an error
    names the first row with a wrong length or an unknown token, the length first.
    """
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
    keys = [nm.encode("utf-8", "surrogatepass") for nm in names]
    longest = max(map(len, keys))
    data = "\n".join([" ", *rows, " " * longest])  # an edge before the first token, room to read past the last
    for sep in _WIDE_SEPARATORS:  # a no-op on ASCII text, and ten times faster than str.translate
        data = data.replace(sep, " ")
    data = data.encode("utf-8", "surrogatepass")
    classes = bytearray(_BYTE_CLASSES)
    for cls, byte in enumerate(sorted(set(b"".join(keys))), 3):
        classes[byte] = cls
    width = max(classes) + 1
    child = {}  # (node, class) -> node, the root being 0; spells[i] is the node of names[i]
    spells = [reduce(lambda s, byte: child.setdefault((s, classes[byte]), len(child) + 1), key, 0) for key in keys]
    # states: the nodes, the dead one, an absorbing one per name; each s is kept as s * width
    dead = len(child) + 1
    step = np.full((dead + 1 + n, width), dead * width, np.int32)
    step[tuple(zip(*child))] = np.array(list(child.values()), np.int32) * width
    step[dead:] = absorb = np.arange(dead, dead + 1 + n, dtype=np.int32)[:, None] * width
    step[spells, :2] = absorb[1:]  # a separator after a name reaches its absorbing state
    c = np.frombuffer(data.translate(classes), np.uint8)
    starts, ends = (np.diff(c <= 1).nonzero()[0] + 1).reshape(-1, 2).T.copy()  # the separators' edges
    state = 0
    for p in range(longest + 1):
        state = step.take(state + c[p:].take(starts))
    index = state // width - (dead + 1)  # -1 for the dead state
    lasts = (c.take(ends) == 0).nonzero()[0]  # rows are stripped: a row's last token ends at its "\n"
    r = np.append(lasts != np.arange(n - 1, n * n, n), True).argmax()  # the first row of a wrong length, or n
    k = np.append(index < 0, True).argmax()  # the first unknown token, or len(index) in row n
    if r < n and r <= np.searchsorted(lasts, k):  # the rows before r hold n tokens each
        raise ParseError(f"row length mismatch in row {r + 1}: expected {n} entries, got {lasts[r] + 1 - r * n}")
    if k < len(index):
        token = data[starts[k]:ends[k]].decode("utf-8", "surrogatepass")
        raise ParseError(f"unknown element {token!r} in row {np.searchsorted(lasts, k) + 1}")
    return Groupoid(names, index.reshape(n, n))


def write_groupoid(g: Groupoid) -> str:
    """Render a groupoid in the .gpd format (bit-exact writer)."""
    rows = [" ".join(g.names[v] for v in row) for row in g.table.tolist()]
    return "\n".join([" ".join(g.names)] + rows) + "\n"


# ---------------------------------------------------------------------------
# structural utilities


def dual(g: Groupoid) -> Groupoid:
    """The dual groupoid: same elements, arguments swapped (table transposed)."""
    return Groupoid(g.names, g.table.T)


def is_idempotent(g: Groupoid) -> bool:
    """True iff x*x = x for every element."""
    return bool(np.array_equal(np.diagonal(g.table), np.arange(g.n)))


def generate_subuniverse(g: Groupoid, seeds) -> frozenset[int]:
    """Smallest superset of ``seeds`` closed under the product."""
    seeds = list(set(seeds))
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if any(not (0 <= s < g.n) for s in seeds):
        raise ValueError("seed index out of range")
    return frozenset(subuniverse_mask(g, np.zeros(g.n, bool), seeds).nonzero()[0].tolist())


def subuniverse_mask(g: Groupoid, closed: np.ndarray, seeds) -> np.ndarray:
    """The mask of the subuniverse generated by ``seeds`` (maybe none) and the one masked by
    ``closed``.  Each round multiplies the frontier, the elements new in the round before,
    by the set so far, both ways (no element enters a frontier twice), short of the carrier."""
    mask = closed.copy()
    mask[seeds] = True
    frontier = (mask ^ closed).nonzero()[0]
    while frontier.size:
        inside, before = mask.nonzero()[0], mask.copy()
        if len(inside) == g.n:  # a round on the whole carrier finds nothing new
            break
        mask[g.table[frontier[:, None], inside]] = True
        if len(frontier) < len(inside):  # else the frontier is the whole set, and one way is both
            mask[g.table[inside[:, None], frontier]] = True
        frontier = (mask ^ before).nonzero()[0]
    return mask


def generating_set(g: Groupoid) -> list[int]:
    """The elements outside the table's image, which every generating set
    holds, then each least element outside the subuniverse generated so far."""
    image = np.zeros(g.n, bool)
    image[g.table] = True
    gens = np.flatnonzero(~image).tolist()
    closed = subuniverse_mask(g, np.zeros(g.n, bool), gens)
    while not closed.all():
        gens.append(int(np.argmin(closed)))
        closed = subuniverse_mask(g, closed, gens[-1:])
    return gens


def generated_congruence(g: Groupoid, pairs) -> Partition:
    """Cg(pairs): the finest congruence of g that contains ``pairs``.

    Blocks are labelled by their least members and merge, each merge
    forced, until every element's row and column of labels match its
    block's first member's: the check of ``is_congruence``.
    """
    ids = np.arange(g.n)
    pending = set(pairs)
    while pending:
        for a, b in pending:
            low, high = sorted((ids[a], ids[b]))
            ids[ids == high] = low
        t = ids[g.table]
        pending = {pair for first in (t[ids], t[:, ids]) for pair in zip(t[t != first].tolist(), first[t != first].tolist())}
    return Partition(ids.tolist())


def is_congruence(g: Groupoid, p: Partition) -> bool:
    """True iff the partition is compatible with the groupoid product.

    Checks a ~ a' implies a*v ~ a'*v and v*a ~ v*a' for every v, comparing
    each element's row and column of block ids with those of its block's
    first member; by transitivity this is full two-sided compatibility.
    """
    if p.n != g.n:
        raise ValueError("partition size does not match groupoid")
    least: dict = {}
    firsts = [least.setdefault(k, x) for x, k in enumerate(p.ids)]
    t = np.array(p.ids)[g.table]
    return bool(np.array_equal(t, t[firsts]) and np.array_equal(t, t[:, firsts]))


def quotient(g: Groupoid, p: Partition) -> Groupoid:
    """The factor groupoid by a congruence.

    Block names join the member names with "+" in file order, so the
    output is deterministic.
    """
    if not is_congruence(g, p):
        raise ValueError("partition is not a congruence")
    ids, firsts = np.array(p.ids), [b[0] for b in p.blocks]
    names = tuple("+".join(g.names[x] for x in b) for b in p.blocks)
    return Groupoid(names, ids[g.table[np.ix_(firsts, firsts)]])


def find_isomorphism(g1: Groupoid, g2: Groupoid) -> tuple[int, ...] | None:
    """A product-preserving bijection g1 -> g2 as the tuple of images
    (``sigma[a * b] = sigma[a] * sigma[b]``), or None if there is none.

    An anti-isomorphism is ``find_isomorphism(g1, dual(g2))``.  Each of the n!/(n-k)!
    injective images of ``generating_set(g1)``, k elements, is extended along products
    and checked.  Guarded at 9 elements.
    """
    if g1.n > ISO_MAX_N or g2.n > ISO_MAX_N:
        raise GuardError(f"isomorphism search capped at n={ISO_MAX_N}")
    if g1.n != g2.n:
        return None
    n, t1, t2 = g1.n, g1.table.tolist(), g2.table.tolist()
    reached, steps = generating_set(g1), []  # the generators, then each a * b outside them: steps
    while len(reached) < n:
        for a, b in itertools.product(reached, repeat=2):
            if t1[a][b] not in reached:
                reached.append(t1[a][b])
                steps.append((t1[a][b], a, b))
    cells = list(itertools.product(range(n), repeat=2))
    for images in itertools.permutations(range(n), n - len(steps)):  # of the generators
        sigma = [0] * n
        for a, image in zip(reached, images):
            sigma[a] = image
        for c, a, b in steps:
            sigma[c] = t2[sigma[a]][sigma[b]]
        if len(set(sigma)) == n and all(sigma[t1[a][b]] == t2[sigma[a]][sigma[b]] for a, b in cells):
            return tuple(sigma)
    return None
