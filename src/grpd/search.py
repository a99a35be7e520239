"""Exhaustive scans over all small multiplication tables.

Tables are enumerated in row-major order (the first table cell is the
most significant digit), optionally restricted to idempotent tables.
Identity filters are evaluated assignment-by-assignment over numpy
batches, shrinking the survivor set after each assignment, so the full
4^12 idempotent size-4 space stays scannable in seconds.  The
``is_semigroup`` check reuses that filter with the associativity
identity: the violators are exactly the survivors it drops.  Other
checks call their predicate on each survivor.  Results are
independent of chunking and worker count: counts are summed and the
first witness is the one with the smallest table index.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Groupoid
from .errors import GuardError
from .terms import (
    Identity,
    eval_term,
    in_A,
    in_B,
    in_D,
    in_D_cap_A,
    is_left_regular_band,
    is_left_zero,
    is_rect_band,
    is_right_regular_band,
    is_right_zero,
    is_semigroup,
    parse_identity,
)

MAX_SIZE_IDEMPOTENT = 4
MAX_SIZE_GENERAL = 3
DEFAULT_CHUNK = 1 << 20
_ASSOCIATIVITY = parse_identity("((x y) z) = (x (y z))")

CHECKS = {
    "is_semigroup": is_semigroup,
    "is_left_zero": is_left_zero,
    "is_right_zero": is_right_zero,
    "is_rect_band": is_rect_band,
    "is_left_regular_band": is_left_regular_band,
    "is_right_regular_band": is_right_regular_band,
    "in_B": in_B,
    "in_A": in_A,
    "in_D": in_D,
    "in_D_cap_A": in_D_cap_A,
}


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


def _materialize(indices: np.ndarray, size: int, cells: list[tuple[int, int]]) -> np.ndarray:
    """Decode table indices into a (len(indices), size*size) batch."""
    tables = np.zeros((indices.size, size * size), dtype=np.int64)
    ncells = len(cells)
    for c, (i, j) in enumerate(cells):
        digit = (indices // size ** (ncells - 1 - c)) % size
        tables[:, i * size + j] = digit
    for d in range(size):
        if (d, d) not in cells:
            tables[:, d * size + d] = d
    return tables


def all_tables(size: int, idempotent_only: bool) -> np.ndarray:
    """Every table of the given size as a (count, size, size) array, in
    enumeration order (all idempotent tables when ``idempotent_only``)."""
    cells = _free_cells(size, idempotent_only)
    indices = np.arange(size ** len(cells), dtype=np.int64)
    return _materialize(indices, size, cells).reshape(-1, size, size)


def _batch_product(tables: np.ndarray, size: int):
    """Product of two values across a table batch at one assignment.

    A value is one element index shared by every table (a plain int)
    or one element per table (an array over the batch); two plain ints
    select a single table column.
    """

    def product(left, right):
        flat = left * size + right
        if isinstance(flat, (int, np.integer)):
            return tables[:, int(flat)]
        return np.take_along_axis(tables, flat[:, None], axis=1)[:, 0]

    return product


def _apply_identity_filters(tables, indices, identities, size):
    """Keep only tables satisfying every identity at every assignment."""
    for ident in identities:
        variables = ident.variables
        for values in itertools.product(range(size), repeat=len(variables)):
            if not indices.size:
                return tables, indices
            env = dict(zip(variables, values))
            product = _batch_product(tables, size)
            lhs = eval_term(ident.lhs, env, product)
            rhs = eval_term(ident.rhs, env, product)
            eq = np.equal(lhs, rhs)
            if eq is True or (isinstance(eq, np.bool_) and eq):
                continue
            keep = np.broadcast_to(eq, indices.shape)
            if keep.all():
                continue
            tables = tables[keep]
            indices = indices[keep]
    return tables, indices


def _scan_range(start, stop, size, cells, identities, check_name, chunk):
    satisfying = 0
    violations = 0
    first_idx = None
    first_table = None
    check = CHECKS[check_name]
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        indices = np.arange(lo, hi, dtype=np.int64)
        tables = _materialize(indices, size, cells)
        tables, indices = _apply_identity_filters(tables, indices, identities, size)
        satisfying += int(indices.size)
        if not indices.size:
            continue
        if check_name == "is_semigroup":
            _, kept = _apply_identity_filters(tables, indices, (_ASSOCIATIVITY,), size)
            bad = np.setdiff1d(indices, kept, assume_unique=True)
            violations += int(bad.size)
            if first_idx is None and bad.size:
                first_idx = int(bad[0])
                first_table = tables[np.searchsorted(indices, first_idx)].copy()
        else:
            for k in range(indices.size):
                g = Groupoid(tuple(str(e) for e in range(size)), tables[k].reshape(size, size))
                if not check(g):
                    violations += 1
                    if first_idx is None:
                        first_idx = int(indices[k])
                        first_table = tables[k].copy()
    return satisfying, violations, first_idx, first_table


def search_tables(
    size: int,
    idempotent_only: bool,
    satisfy: list[Identity] | tuple[Identity, ...] = (),
    check: str = "is_semigroup",
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> SearchSummary:
    """Count tables that satisfy the given identities but fail the check.

    Enumerates every table of the given size (all idempotent tables
    when ``idempotent_only``), filters by the identities, and applies
    the named check to the survivors.  Reports the count of violators
    and the first one in enumeration order.
    """
    limit = MAX_SIZE_IDEMPOTENT if idempotent_only else MAX_SIZE_GENERAL
    if size < 1 or size > limit:
        raise GuardError(
            f"search capped at size {limit} ({'idempotent' if idempotent_only else 'general'} tables)"
        )
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {sorted(CHECKS)}")
    cells = _free_cells(size, idempotent_only)
    total = size ** len(cells)
    identities = tuple(satisfy)

    if threads > 1 and total > chunk:
        spans = []
        step = max(chunk, (total + threads - 1) // threads)
        step = ((step + chunk - 1) // chunk) * chunk  # align to chunk
        for lo in range(0, total, step):
            spans.append((lo, min(lo + step, total)))
        results = []
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_scan_range, lo, hi, size, cells, identities, check, chunk)
                for lo, hi in spans
            ]
            results = [f.result() for f in futures]
    else:
        results = [_scan_range(0, total, size, cells, identities, check, chunk)]

    satisfying = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    first_idx = None
    first_table = None
    for sat, vio, idx, table in results:
        if idx is not None and (first_idx is None or idx < first_idx):
            first_idx = idx
            first_table = table
    witness = None
    if first_table is not None:
        witness = Groupoid(tuple(str(e) for e in range(size)), first_table.reshape(size, size))
    return SearchSummary(size, idempotent_only, total, satisfying, violations, first_idx, witness)
