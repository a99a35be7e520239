"""Finite groupoids: tables, .gpd text I/O, and structural utilities.

A groupoid here is a finite set with one binary operation given by an
n x n table (row = left factor).  Elements are dense indices 0..n-1
internally; display names live in a side table so the hot loops stay
index-only.  ``Groupoid`` is the one type of a binary operation: a
clone op or a suspect is a groupoid on the basic groupoid's elements,
and the relation functions (subuniverses, congruences) take a groupoid.
A subuniverse is a frozenset of indices, and an equivalence relation is a
``Partition``: its block ids, in restricted-growth order.
The .gpd reader finds the header line in Python and reads the rest in one numpy
pass over its UTF-8 bytes: each byte is classed once, line breaks, comments and
blank lines are decided on the classes, and only the tokens' starts are kept.  A
trie over the names' bytes, built a level at a time, maps all tokens, a gather a byte.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property

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


# str.splitlines' line breaks are bytes 10-13 and 28-30 and these, which become "\n" first;
# str.split's other separators (str.isspace) are bytes 9, 31 and 32 and these, which become " " first
_WIDE_BREAKS = "\x85\u2028\u2029"
_WIDE_SEPARATORS = "\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"
# byte classes: 0 a line break, 1 "#", 2 another separator, 3 a byte no name holds, 4... the names' bytes
_BYTE_CLASSES = bytes(0 if 10 <= b <= 13 or 28 <= b <= 30 else 1 if b == 35 else 2 if b in (9, 31, 32) else 3
                      for b in range(256))
_LINE = re.compile("[^\n\x0b\x0c\r\x1c\x1d\x1e" + _WIDE_BREAKS + "]+")


def parse_groupoid(text: str) -> Groupoid:
    """Parse the .gpd table format.

    ``#`` starts a comment; blank lines are skipped.  The first
    significant line lists the n element names, the next n lines give
    the table rows (entries are element names, row = left factor).
    Only the header is found in Python.  The rest is read as one buffer of
    UTF-8 bytes, each byte classed once (a str.splitlines line break, ``#``,
    another str.split separator, a name's byte): a token begins after a gap
    byte, a token after a ``#`` of its line is dropped, and a line's length
    is the number of tokens between its breaks, so blank and comment-only
    lines hold none.  The names' trie is built a level of bytes at a time,
    and every token walks it a byte per gather.  An error names the first
    row with a wrong length or an unknown token, the length first.
    """
    for line in _LINE.finditer(text):
        names = tuple(line[0].split("#", 1)[0].split())
        if names:
            break
    else:
        raise ParseError("empty document")
    n = len(names)
    if len(set(names)) != n:
        dupe = next(nm for nm in names if names.count(nm) > 1)
        raise ParseError(f"duplicate element name {dupe!r}")
    keys = [nm.encode("utf-8", "surrogatepass") for nm in names]
    spelling = b"".join(keys)
    longest = max(map(len, keys))
    data = text + " " * longest + "\n"  # room to read past the last token, and a last line break
    for sep in _WIDE_SEPARATORS:  # a no-op on ASCII text, and ten times faster than str.translate
        data = data.replace(sep, " ")
    for brk in _WIDE_BREAKS:
        data = data.replace(brk, "\n")
    head = len(data[:line.end()].encode("utf-8", "surrogatepass"))  # the bytes up to the header's line break
    data = data.encode("utf-8", "surrogatepass")
    classes, alphabet = bytearray(_BYTE_CLASSES), sorted(set(spelling))
    for cls, byte in enumerate(alphabet, 4):
        classes[byte] = cls
    width = 4 + len(alphabet)
    c = np.frombuffer(data.translate(classes), np.uint8)[head:]
    gap = c <= 2
    gaps = (gap[:-1] > gap[1:]).nonzero()[0]  # the gap byte before each token
    del gap
    marks = (c <= 1).nonzero()[0]  # the line breaks and the "#"s
    if b"#" in data:  # a token after a "#" of its line is in a comment
        hashes = c.take(marks) == 1
        gaps = gaps[~hashes.take(marks.searchsorted(gaps, side="right") - 1)]
        marks = marks[~hashes]
    before = gaps.searchsorted(marks)  # the tokens before each line break
    rows = before[1:] - before[:-1]
    rows = rows[rows > 0]  # each row's length
    if len(rows) != n:
        raise ParseError(f"expected {n} table rows, got {len(rows)}")
    # states: the trie's nodes (the root 0, then a node per name byte at most), the dead
    # one, an absorbing one per name; each s is kept as s * width.  The trie grows a level
    # at a time: each name's edge out of its node is written the node numbered by its
    # byte's place in spelling, and the names that share an edge read back the one that stays
    dead = 1 + len(spelling)
    step = np.full((dead + 1 + n, width), dead * width, np.int32)
    lengths = np.fromiter(map(len, keys), np.intp, n)
    spelled = np.frombuffer(spelling.translate(classes), np.uint8)
    firsts = lengths.cumsum() - lengths  # where each name's bytes start in spelling
    node = np.zeros(n, np.intp)  # each name's node so far, times width
    for depth in range(longest):
        live = (lengths > depth).nonzero()[0]
        edge = node[live] + spelled.take(firsts[live] + depth)
        step.put(edge, (firsts[live] + depth + 1) * width)
        node[live] = step.take(edge)
    step[dead:] = absorb = np.arange(dead, dead + 1 + n, dtype=np.int32)[:, None] * width
    step.reshape(-1)[node[:, None] + np.arange(3)] = absorb[1:]  # a gap after a name reaches its absorbing state
    final = step // width - (dead + 1)  # step's target as a name's index, -1 for any state but an absorbing one
    # every token walks the trie a byte at a time; each index is in range, and
    # mode="wrap" skips take's bounds check
    at, state = np.empty(len(gaps), np.intp), 0  # at: a state plus the class of the byte it reads
    for p in range(1, longest + 1):
        state = step.take(np.add(state, c[p:].take(gaps), out=at), mode="wrap")
    index = final.take(np.add(state, c[longest + 1:].take(gaps), out=at), mode="wrap")
    if (rows != n).any() or index.min() < 0:
        r = np.append(rows != n, True).argmax()  # the first row of a wrong length, or n
        k = np.append(index < 0, True).argmax()  # the first unknown token, or len(index) in row n
        row = rows.cumsum().searchsorted(k, side="right")  # the row of token k
        if r < n and r <= row:
            raise ParseError(f"row length mismatch in row {r + 1}: expected {n} entries, got {rows[r]}")
        first = gaps[k] + 1
        token = data[head + first:head + first + (c[first:] <= 2).argmax()]
        raise ParseError(f"unknown element {token.decode('utf-8', 'surrogatepass')!r} in row {row + 1}")
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
