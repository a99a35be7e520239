"""Exhaustive scans over all small multiplication tables.

Tables are enumerated in row-major order (the first free cell is the
most significant digit), optionally restricted to idempotent tables.
The scan searches partial tables pruned per cell: a batch of tables
with undefined cells (-1) takes each value of the next free cell, and
every table in which a fully defined identity instance fails is
dropped at once, with the subtree below it.  An instance is evaluated
only from the depth at which the cells its products of two variables
read are assigned.  A check is the same filter run on the full tables
that survive, with the check's identities from
``terms.CHECK_IDENTITIES`` (plus ``in_D``'s absorption scheme on the
few tables that pass them): the violators are exactly the survivors it
drops.  Batches of at most ``CHUNK`` rows come out in enumeration
order, so results do not depend on ``CHUNK``: counts are summed and the
first witness is the one with the smallest table index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import terms
from .core import Groupoid
from .errors import GuardError
from .terms import CHECK_IDENTITIES, CHECK_SCHEMES, Identity, eval_term, parse_identity

MAX_SIZE_IDEMPOTENT = 4
MAX_SIZE_GENERAL = 3
CHUNK = 1 << 20  # rows in one batch of partial tables
MAX_INSTANCES = 1 << 16  # identity instances, summed over the --satisfy identities

CHECKS = {name: getattr(terms, name) for name in CHECK_IDENTITIES}


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
    """Product of two element ints or per-table arrays across a batch of partial
    tables (-1 = undefined).  The flat index of a -1 operand wraps around to the
    padding, so the product is -1 too; int8 holds the index up to size 10.  Two
    ints read one column, which is -1 throughout while their cell is unassigned."""
    width = size + 1
    tables = tables.reshape(len(tables), width * width)
    rows = np.arange(len(tables))

    def product(left, right):
        flat = left * width + right
        return tables[:, flat] if isinstance(flat, int) else tables[rows, flat]

    return product


def _leaf_products(t) -> list[tuple[str, str]]:
    """The products of two variables in a term, as pairs of variable names."""
    if t.is_var:
        return []
    if t.left.is_var and t.right.is_var:
        return [(t.left.name, t.right.name)]
    return _leaf_products(t.left) + _leaf_products(t.right)


def _instances(identities, size: int, cells: list[tuple[int, int]], depth: int):
    """Yield the (identity, assignment) instances to evaluate at ``depth``: those
    whose products of two variables read no free cell from ``cells[depth]`` on."""
    unassigned = set(cells[depth:])
    for ident in identities:
        names = ident.variables
        leaves = _leaf_products(ident.lhs) + _leaf_products(ident.rhs)
        for values in itertools.product(range(size), repeat=len(names)):
            env = dict(zip(names, values))
            if not any((env[a], env[b]) in unassigned for a, b in leaves):
                yield ident, env


def _prune(tables: np.ndarray, instances, size: int) -> np.ndarray:
    """Drop the tables in which a fully defined identity instance fails."""
    product = _partial_product(tables, size)
    for ident, env in instances:
        if not len(tables):
            break
        lhs = eval_term(ident.lhs, env, product)
        rhs = eval_term(ident.rhs, env, product)
        keep = np.broadcast_to((lhs < 0) | (rhs < 0) | (lhs == rhs), (len(tables),))
        if not keep.all():
            tables = tables[keep]
            product = _partial_product(tables, size)
    return tables


def _expand(frontier, identities, depth, size, cells):
    """Prune ``frontier`` and yield in index order the full tables below it, giving
    ``cells[depth]`` each value in slices of at most ``CHUNK`` rows."""
    frontier = _prune(frontier, _instances(identities, size, cells, depth), size)
    if depth == len(cells):
        yield frontier
        return
    i, j = cells[depth]
    step = max(1, CHUNK // size)
    for lo in range(0, len(frontier), step):
        rows = np.repeat(frontier[lo:lo + step], size, axis=0)
        rows[:, i, j] = np.tile(np.arange(size), len(rows) // size)
        yield from _expand(rows, identities, depth + 1, size, cells)


def _table_index(tables: np.ndarray, size: int, cells: list[tuple[int, int]]) -> np.ndarray:
    """Enumeration index of full tables: the free cells as base-``size`` digits."""
    index = np.zeros(len(tables), dtype=np.int64)
    for i, j in cells:
        index = index * size + tables[:, i, j]
    return index


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
    scheme, if any): the tables it drops are the violators.  Reports
    their count and the first one in enumeration order.  A batch of
    partial tables holds at most ``CHUNK`` rows; a larger one is expanded
    depth-first in slices.  More than ``MAX_INSTANCES`` identity
    instances (size^variables, summed over ``satisfy``) raise GuardError
    before any work.
    """
    limit = MAX_SIZE_IDEMPOTENT if idempotent_only else MAX_SIZE_GENERAL
    if size < 1 or size > limit:
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
    members = [parse_identity(t) for t in CHECK_IDENTITIES[check]]
    scheme = CHECK_SCHEMES.get(check)

    satisfying = 0
    violations = 0
    first_idx = None
    witness = None
    for tables in _expand(_root(size, cells), identities, 0, size, cells):
        satisfying += len(tables)
        indices = _table_index(tables, size, cells)
        kept = _prune(tables, _instances(members, size, cells, len(cells)), size)
        if scheme is not None:
            kept = kept[np.array([scheme(_groupoid(t[:size, :size])) for t in kept], dtype=bool)]
        bad = np.setdiff1d(indices, _table_index(kept, size, cells), assume_unique=True)
        violations += int(bad.size)
        if first_idx is None and bad.size:
            first_idx = int(bad[0])
            witness = _groupoid(tables[np.searchsorted(indices, first_idx), :size, :size])
    return SearchSummary(size, idempotent_only, total, satisfying, violations, first_idx, witness)
