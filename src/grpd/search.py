"""Exhaustive scans over all small multiplication tables.

Tables are enumerated in row-major order (the first free cell is the
most significant digit), optionally restricted to idempotent tables.
The scan assigns the free cells one at a time to batches of partial
tables (undefined cells are -1) and drops a partial table, with the
subtree below it, once a fully defined identity instance fails in it
(``_prune``), evaluating the instances in blocks as large as the
(tables, instances) index allows (``_block_size``).  A check is the
same filter run on the full tables that survive (``search_tables``);
with no identity to satisfy every table survives, so the scan prunes by
the check's own identities instead and counts the violators as the
indices its members skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nonassoc
from .core import Groupoid
from .errors import GuardError
from .terms import Identity, eval_term, parse_identity, predicates, variety

MAX_SIZE_IDEMPOTENT = 4
MAX_SIZE_GENERAL = 3
CHUNK = 1 << 20  # rows in one batch of partial tables
MAX_INSTANCES = 1 << 16  # identity instances, summed over the --satisfy identities

CHECKS = predicates("check")


@dataclass(frozen=True)
class SearchSummary:
    size: int
    idempotent_only: bool
    total: int
    satisfying: int
    violations: int
    first_witness_index: int | None
    first_witness: Groupoid | None


def _free_cells(size: int, idempotent_only: bool) -> list[tuple[int, int]]:
    cells = [(i, j) for i in range(size) for j in range(size)]
    if idempotent_only:
        cells = [(i, j) for i, j in cells if i != j]
    return cells


def _root(size: int, cells: list[tuple[int, int]]) -> np.ndarray:
    """The partial table with no free cell assigned, padded to (1, size+1, size+1) with -1."""
    root = np.full((1, size + 1, size + 1), -1, dtype=np.int8)
    for d in range(size):
        if (d, d) not in cells:
            root[0, d, d] = d
    return root


def _partial_product(tables: np.ndarray, size: int):
    """Product over a batch of partial tables (-1 = undefined) and a block of k
    identity instances.  A variable is a (k,) array of elements; a product is
    a (tables, k) array.  A product of two variables gathers k columns of the
    flat (tables, (size+1)^2) batch; any other is one flat ``take`` at
    ``row * (size+1)^2 + left * (size+1) + right``.  A -1 operand's index
    wraps around to the padding row or column, so the product is -1 too;
    int8 holds ``left * (size+1) + right`` up to size 10."""
    width = size + 1
    tables = tables.reshape(len(tables), width * width)
    flat = tables.reshape(-1)
    starts = np.arange(len(tables), dtype=np.int64)[:, None] * (width * width)

    def product(left, right):
        if left.ndim == right.ndim == 1:
            return tables.take(left * width + right, axis=1)
        return flat.take(starts + (left * width + right))

    return product


def _products(t) -> list[tuple[str | None, str | None]]:
    """The products in a term as (left, right): an operand's variable name, or
    None for a subterm operand."""
    if t.is_var:
        return []
    return [(t.left.name, t.right.name)] + _products(t.left) + _products(t.right)


def _instances(identities, size: int, cells: list[tuple[int, int]]):
    """Each identity with its variable names, the (k, variables) array of its
    assignments, the depth at which each becomes ready (the depth from which
    every product of two variables reads an assigned cell; 0 for a cell that
    is never free), and its products' operands as (left, right) column indices
    of the assignments, None for a subterm.  The assignments come in
    ``itertools.product`` order, stably sorted by how many distinct values
    they take, most first: an assignment such as x = y = z drops few tables."""
    assigned_at = np.zeros((size, size), dtype=np.int64)
    for depth, (i, j) in enumerate(cells):
        assigned_at[i, j] = depth + 1
    out = []
    for ident in identities:
        names = ident.variables
        # base-size digits, the first variable most significant; np.indices caps at 64 axes
        values = (np.arange(size ** len(names))[:, None] // size ** np.arange(len(names))[::-1] % size).astype(np.int8)
        products = {tuple(None if v is None else names.index(v) for v in p)
                    for p in _products(ident.lhs) + _products(ident.rhs)}
        ready = np.zeros(len(values), dtype=np.int64)
        for a, b in products:
            if a is not None and b is not None:
                ready = np.maximum(ready, assigned_at[values[:, a], values[:, b]])
        order = np.argsort(-np.count_nonzero(np.diff(np.sort(values, axis=1)), axis=1), kind="stable")
        out.append((ident, names, values[order], ready[order], tuple(products)))
    return out


def _block_size(tables: np.ndarray) -> int:
    """Instances in a block over ``tables``: the most whose int64 index array
    of (tables, instances) stays within ``nonassoc.SLAB_CELLS`` bytes, and at
    least one."""
    return max(1, nonassoc.SLAB_CELLS // 8 // len(tables))


def _may_read(values: np.ndarray, products, cell: tuple[int, int]) -> np.ndarray | bool:
    """Whether each assignment has a product whose variable operands are on
    ``cell``'s row and column (a subterm operand may take any value)."""
    hit = False
    for a, b in products:
        reads = True
        if a is not None:
            reads = values[:, a] == cell[0]
        if b is not None:
            reads = reads & (values[:, b] == cell[1])
        hit = hit | reads
    return hit


def _prune(tables: np.ndarray, instances, size: int, depth: int,
           cell: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The tables in which no fully defined identity instance ready at ``depth``
    fails, with their positions in ``tables``.  Each identity's ready instances
    are evaluated a block at a time, each block as large as ``_block_size``
    allows over the tables still kept: a table stays iff every instance of the
    block is undefined on a side or equal on both.

    With ``cell``, each table differs only there from a parent that survived
    ``_prune`` at ``depth`` - 1 against the same instances, and only the
    instances that may read it are evaluated: a product of variables a and b
    reads only (a, b), of a and a subterm only row a, of a subterm and b only
    column b, of two subterms any cell.  An evaluation that reads no cell where
    the two tables differ repeats the parent's, undefined or equal; an instance
    ready only at ``depth`` reads ``cell`` in a product of two variables.
    Without ``cell`` (the root, a check) every ready instance is evaluated."""
    kept = None  # positions, once a table is dropped
    product = _partial_product(tables, size)
    for ident, names, values, ready, products in instances:
        live = ready <= depth
        if cell is not None:
            live &= _may_read(values, products, cell)
        values = values[live]
        lo = 0
        while lo < len(values) and len(tables):
            step = _block_size(tables)
            block = values[lo:lo + step]
            lo += step
            env = {name: block[:, c] for c, name in enumerate(names)}
            lhs = eval_term(ident.lhs, env, product)
            rhs = eval_term(ident.rhs, env, product)
            keep = ((lhs < 0) | (rhs < 0) | (lhs == rhs)).all(axis=-1)  # a scalar if both sides are variables
            if not keep.all():
                at = np.flatnonzero(np.broadcast_to(keep, len(tables)))
                tables, kept = tables[at], at if kept is None else kept[at]
                product = _partial_product(tables, size)
    return tables, np.arange(len(tables)) if kept is None else kept


def _expand(frontier, instances, depth, size, cells):
    """Prune ``frontier`` and yield in index order the full tables below it, giving
    ``cells[depth]`` each value in slices of at most ``CHUNK`` rows."""
    frontier = _prune(frontier, instances, size, depth, cells[depth - 1] if depth else None)[0]
    if depth == len(cells):
        yield frontier
        return
    i, j = cells[depth]
    step = max(1, CHUNK // size)
    for lo in range(0, len(frontier), step):
        rows = np.repeat(frontier[lo:lo + step], size, axis=0)
        rows[:, i, j] = np.tile(np.arange(size), len(rows) // size)
        yield from _expand(rows, instances, depth + 1, size, cells)


def _table_index(tables: np.ndarray, size: int, cells: list[tuple[int, int]]) -> np.ndarray:
    """Enumeration index of full tables: the free cells as base-``size`` digits."""
    index = np.zeros(len(tables), dtype=np.int64)
    for i, j in cells:
        index = index * size + tables[:, i, j]
    return index


def _index_tables(index: np.ndarray, size: int, cells: list[tuple[int, int]]) -> np.ndarray:
    """The full tables, padded as in ``_root``, with the given enumeration
    indices: ``_table_index``'s inverse."""
    tables = np.repeat(_root(size, cells), len(index), axis=0)
    for i, j in reversed(cells):
        index, tables[:, i, j] = np.divmod(index, size)
    return tables


def _groupoid(table: np.ndarray) -> Groupoid:
    return Groupoid(tuple(str(e) for e in range(len(table))), table)


def all_tables(size: int, idempotent_only: bool) -> np.ndarray:
    """Every table of the given size as a (count, size, size) array, in
    enumeration order (all idempotent tables when ``idempotent_only``)."""
    cells = _free_cells(size, idempotent_only)
    tables = _expand(_root(size, cells), (), 0, size, cells)
    return np.concatenate(list(tables))[:, :size, :size]


def search_tables(
    size: int,
    idempotent_only: bool,
    satisfy: list[Identity] | tuple[Identity, ...] = (),
    check: str = "is_semigroup",
) -> SearchSummary:
    """Count tables that satisfy the given identities but fail the check.

    Covers every table of the given size (all idempotent tables when
    ``idempotent_only``), builds only the partial tables no identity
    instance rules out, and runs the full tables that survive through
    the same filter with the identities of the named check (then its
    scheme, if any): the tables it drops are the violators.  With no
    identity to satisfy, every table satisfies, so the scan prunes by the
    check's identities alone and what survives (then the scheme) are the
    members; the violators are the rest, the first of them the first
    index the ordered members skip.  Reports the violators' count and
    the first one in enumeration order.  A batch of partial tables holds
    at most ``CHUNK`` rows; a larger one is expanded depth-first in
    slices, in enumeration order, so the results do not depend on
    ``CHUNK``.  More than ``MAX_INSTANCES`` identity instances
    (size^variables, summed over ``satisfy``) raise GuardError before any
    work.
    """
    limit = MAX_SIZE_IDEMPOTENT if idempotent_only else MAX_SIZE_GENERAL
    if size < 1:
        raise ValueError("search size must be >= 1")
    if size > limit:
        raise GuardError(
            f"search capped at size {limit} ({'idempotent' if idempotent_only else 'general'} tables)"
        )
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {sorted(CHECKS)}")
    identities = tuple(satisfy)
    instances = sum(size ** len(ident.variables) for ident in identities)
    if instances > MAX_INSTANCES:
        raise GuardError(f"search capped at {MAX_INSTANCES} identity instances ({instances} requested)")
    cells = _free_cells(size, idempotent_only)
    total = size ** len(cells)
    row = variety("check", check)
    checks = _instances([parse_identity(t) for t in row.identities], size, cells)

    def members(tables):
        if row.scheme is None:
            return np.arange(len(tables))
        return np.flatnonzero([row.scheme(_groupoid(t[:size, :size])) for t in tables])

    satisfying = 0
    violations = 0
    first_idx = None
    if identities:
        for tables in _expand(_root(size, cells), _instances(identities, size, cells), 0, size, cells):
            satisfying += len(tables)
            kept, at = _prune(tables, checks, size, len(cells))
            at = at[members(kept)]
            violations += len(tables) - len(at)
            if first_idx is None and len(at) < len(tables):
                bad = np.ones(len(tables), dtype=bool)
                bad[at] = False
                first_idx = int(_table_index(tables[bad.argmax()][None], size, cells)[0])
    else:
        satisfying = total
        seen = 0  # members so far; in index order, so the first skipped index is the first violator
        for tables in _expand(_root(size, cells), checks, 0, size, cells):
            tables = tables[members(tables)]
            if first_idx is None:
                skips = np.flatnonzero(_table_index(tables, size, cells) != np.arange(seen, seen + len(tables)))
                first_idx = seen + int(skips[0]) if len(skips) else None
            seen += len(tables)
        violations = total - seen
        if first_idx is None and violations:
            first_idx = seen
    witness = None
    if first_idx is not None:
        witness = _groupoid(_index_tables(np.array([first_idx]), size, cells)[0, :size, :size])
    return SearchSummary(size, idempotent_only, total, satisfying, violations, first_idx, witness)
