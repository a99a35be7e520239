import contextlib
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpd.core import Groupoid
from grpd.errors import GuardError
from grpd import nonassoc, search
from grpd.search import CHECKS, all_tables, search_tables
from grpd.terms import (
    Identity,
    eval_term,
    in_D,
    is_semigroup,
    parse_identity,
    prod,
    satisfies_D_scheme,
    satisfies_identity,
    scheme_identity,
    var,
    variety,
)

ASSOCIATIVITY = parse_identity("((x y) z) = (x (y z))")


# -- brute-force reference: decode every table index, then filter ------------


def decode_tables(size, idempotent_only):
    """Every table as a (count, size*size) batch, first free cell most significant."""
    cells = [(i, j) for i in range(size) for j in range(size) if not (idempotent_only and i == j)]
    indices = np.arange(size ** len(cells), dtype=np.int64)
    tables = np.zeros((indices.size, size * size), dtype=np.int64)
    for c, (i, j) in enumerate(cells):
        tables[:, i * size + j] = (indices // size ** (len(cells) - 1 - c)) % size
    for d in range(size):
        if (d, d) not in cells:
            tables[:, d * size + d] = d
    return tables, indices


def filter_identities(tables, indices, identities, size):
    """Keep the full tables satisfying every identity at every assignment."""
    for ident in identities:
        for values in itertools.product(range(size), repeat=len(ident.variables)):
            env = dict(zip(ident.variables, values))
            rows = np.arange(len(tables))

            def product(a, b):
                return tables[rows, a * size + b]

            keep = np.broadcast_to(eval_term(ident.lhs, env, product) == eval_term(ident.rhs, env, product),
                                   indices.shape)
            tables, indices = tables[keep], indices[keep]
    return tables, indices


def brute_scan(size, idempotent_only, identities, check="is_semigroup"):
    """(satisfying, violations, first witness index, first witness) by decode-then-filter."""
    tables, indices = filter_identities(*decode_tables(size, idempotent_only), identities, size)
    if check == "is_semigroup":
        bad = np.setdiff1d(indices, filter_identities(tables, indices, [ASSOCIATIVITY], size)[1])
    else:
        names = tuple(str(e) for e in range(size))
        bad = np.array([i for t, i in zip(tables, indices)
                        if not CHECKS[check](Groupoid(names, t.reshape(size, size)))], dtype=np.int64)
    if not bad.size:
        return len(indices), 0, None, None
    first = tables[np.searchsorted(indices, bad[0])].reshape(size, size)
    return len(indices), int(bad.size), int(bad[0]), Groupoid(tuple(str(e) for e in range(size)), first)


def scan(summary):
    return (summary.satisfying, summary.violations, summary.first_witness_index, summary.first_witness)


@contextlib.contextmanager
def chunk_rows(rows):
    """Scan with batches of at most ``rows`` partial tables.  A context, not the
    ``monkeypatch`` fixture, because a function-scoped fixture is shared by every
    example of a ``@given`` test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "CHUNK", rows)
        yield


ALL = 1 << 30  # more instances than any identity has: one block holds all of them


@contextlib.contextmanager
def instance_blocks(count):
    """Prune with blocks of exactly ``count`` identity instances (all of them for
    ``ALL``); ``None`` keeps the doubling schedule.  The schedule's first block
    holds one instance whatever the memory bound, so the schedule is patched."""
    with pytest.MonkeyPatch.context() as mp:
        if count is not None:
            mp.setattr(search, "_block_size", lambda last, tables: count)
        yield


def terms_over(names):
    return st.recursive(
        st.sampled_from(names).map(var),
        lambda sub: st.tuples(sub, sub).map(lambda pair: prod(*pair)),
        max_leaves=5,
    )


identities = st.tuples(terms_over("xyz"), terms_over("xyz")).map(lambda sides: Identity(*sides))


@pytest.mark.parametrize("idempotent_only", [False, True])
@settings(max_examples=12, deadline=None)
@given(ident=identities, check=st.sampled_from(["is_semigroup", "is_left_zero"]),
       chunk=st.sampled_from([1, 7, 1 << 20]), block=st.sampled_from([None, 1, ALL]))
@example(ident=parse_identity("(x (y x)) = ((x y) z)"), check="is_semigroup", chunk=7, block=1)
@example(ident=parse_identity("(x (y x)) = ((x y) z)"), check="is_left_zero", chunk=7, block=ALL)
def test_pruned_search_matches_brute_force(idempotent_only, ident, check, chunk, block):
    with chunk_rows(chunk), instance_blocks(block):
        summary = search_tables(3, idempotent_only, [ident], check)
    assert summary.total == 3 ** (6 if idempotent_only else 9)
    assert scan(summary) == brute_scan(3, idempotent_only, [ident], check)


@pytest.mark.parametrize("idempotent_only", [False, True])
@pytest.mark.parametrize("text", ["(x y) = z", "x = y", "(x y) = (y x)", "((x x) y) = x"])
def test_pruned_search_edge_cases(idempotent_only, text):
    ident = parse_identity(text)
    for size in (1, 2, 3):
        for chunk in (1 << 20, 1):
            with chunk_rows(chunk):
                summary = search_tables(size, idempotent_only, [ident])
            assert scan(summary) == brute_scan(size, idempotent_only, [ident])


def test_identity_no_table_satisfies():
    for ident in (parse_identity("(x y) = z"), parse_identity("x = y")):
        with chunk_rows(5):
            assert scan(search_tables(3, False, [ident])) == (0, 0, None, None)
        assert scan(search_tables(1, True, [ident])) == (1, 0, None, None)


def test_all_tables_in_index_order():
    for size, idempotent_only in ((1, True), (1, False), (2, False), (3, True)):
        tables, _ = decode_tables(size, idempotent_only)
        assert np.array_equal(all_tables(size, idempotent_only), tables.reshape(-1, size, size))


def test_size4_pinned_scans():
    summary = search_tables(4, True, [scheme_identity("left_eq_right", 4)])
    assert (summary.total, *scan(summary)) == (4 ** 12, 604, 0, None, None)
    assert scan(search_tables(4, True, [scheme_identity("left_eq_right", 6)])) == (604, 0, None, None)
    assert scan(search_tables(4, True, list(scheme_identity("prefixed_pair", 4)))) == (604, 0, None, None)
    witness = [[0, 0, 0, 0], [0, 1, 2, 2], [0, 1, 2, 1], [0, 1, 2, 3]]
    with chunk_rows(1000):
        summary = search_tables(4, True, [scheme_identity("nulla", 4)])
    assert scan(summary)[:3] == (700, 96, 41286)
    assert summary.first_witness.table.tolist() == witness
    summary = search_tables(4, True, [scheme_identity("nulla", 6)])
    assert scan(summary)[:3] == (700, 96, 41286)
    assert summary.first_witness.table.tolist() == witness


def test_block_drops_failing_tables_and_keeps_undefined_ones(monkeypatch):
    # (x x) x = x over size-2 partial tables (-1 = unassigned), both instances
    # x = 0 and x = 1 in one block
    ident = parse_identity("((x x) x) = x")
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rows = {
        "x=0 undefined, x=1 holds": [[1, -1], [-1, 1]],
        "x=0 holds, x=1 fails": [[0, 0], [-1, 0]],
        "x=0 undefined, x=1 fails": [[-1, 0], [-1, 0]],
        "x=0 holds, x=1 undefined": [[0, -1], [-1, -1]],
        "both undefined": [[-1, -1], [-1, -1]],
    }
    tables = np.full((len(rows), 3, 3), -1, dtype=np.int8)
    tables[:, :2, :2] = list(rows.values())
    evaluations = []

    def counting_eval(t, env, product):
        evaluations.append(len(next(iter(env.values()))))
        return eval_term(t, env, product)

    monkeypatch.setattr(search, "eval_term", counting_eval)
    instances = search._instances([ident], 2, cells)
    for count in (ALL, 1, None):
        evaluations.clear()
        with instance_blocks(count):
            kept, at = search._prune(tables, instances, 2, len(cells))
        assert [t[:2, :2].tolist() for t in kept] == [rows["x=0 undefined, x=1 holds"],
                                                   rows["x=0 holds, x=1 undefined"],
                                                   rows["both undefined"]]
        assert at.tolist() == [0, 3, 4]
        if count is ALL:
            assert evaluations == [2, 2]  # one block: each side evaluated once, over both instances


def test_block_schedule_doubles_within_the_slab_bound():
    tables = np.zeros((1000, 1, 1), dtype=np.int8)
    steps = [search._block_size(0, tables)]
    while steps[-1] < nonassoc.SLAB_CELLS // 8 // 1000:
        steps.append(search._block_size(steps[-1], tables))
    assert steps[:3] == [1, 2, 4] and steps[-1] == nonassoc.SLAB_CELLS // 8 // 1000
    assert search._block_size(steps[-1], tables) == steps[-1]
    assert search._block_size(1 << 10, np.zeros((nonassoc.SLAB_CELLS, 1, 1), dtype=np.int8)) == 1


FRONTIER_CAP = 4096  # parents expanded per depth: any subset of the survivors keeps the premise


def prune_both_ways(ident, size, idempotent_only):
    """Walk the depths of the pruned search, pruning each batch of children once
    with ``cell`` (only the instances that may read it) and once without (every
    ready instance); yield both results per depth."""
    cells = search._free_cells(size, idempotent_only)
    instances = search._instances([ident], size, cells)
    frontier = search._root(size, cells)
    for depth in range(len(cells) + 1):
        cell = cells[depth - 1] if depth else None
        skipped = search._prune(frontier, instances, size, depth, cell)
        yield skipped, search._prune(frontier, instances, size, depth)
        if depth < len(cells):
            i, j = cells[depth]
            frontier = np.repeat(skipped[0][:FRONTIER_CAP], size, axis=0)
            frontier[:, i, j] = np.tile(np.arange(size), len(frontier) // size)


identities4 = st.tuples(terms_over("xyzw"), terms_over("xyzw")).map(lambda sides: Identity(*sides))


@settings(max_examples=60, deadline=None)
@given(ident=identities4, size=st.integers(2, 4), idempotent_only=st.booleans())
@example(ident=parse_identity("((x y) (z w)) = (x (y (z w)))"), size=3, idempotent_only=False)  # subterm * subterm
@example(ident=parse_identity("((x y) z) = (x (y z))"), size=4, idempotent_only=True)  # row and column rules
@example(ident=parse_identity("(x y) = (y x)"), size=3, idempotent_only=False)  # two-variable products only
@example(ident=parse_identity("((x x) y) = y"), size=2, idempotent_only=False)
def test_skipping_instances_that_cannot_read_the_new_cell_keeps_the_frontier(ident, size, idempotent_only):
    for (tables, at), (want, want_at) in prune_both_ways(ident, size, idempotent_only):
        assert np.array_equal(tables, want) and np.array_equal(at, want_at)


@contextlib.contextmanager
def shuffled_instances(seed):
    """Scan with each identity's instances (its ``--satisfy`` and its check's) in a
    seeded random order instead of most distinct values first."""
    rng = np.random.default_rng(seed)
    build = search._instances

    def shuffled(*args):
        out = []
        for ident, names, values, ready, products in build(*args):
            order = rng.permutation(len(values))
            out.append((ident, names, values[order], ready[order], products))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_instances", shuffled)
        yield


@pytest.mark.parametrize("size, idempotent_only, satisfy, check", [
    (3, False, [], "is_semigroup"),
    (3, False, [], "in_D"),
    (3, False, [parse_identity("(x (y x)) = ((x y) z)")], "is_left_zero"),
    (3, True, [parse_identity("((x y) z) = (x (z y))")], "in_A"),
    (4, True, [scheme_identity("left_eq_right", 4)], "is_semigroup"),
    (4, True, [scheme_identity("nulla", 4)], "is_semigroup"),
])
def test_instance_order_leaves_the_summary_unchanged(size, idempotent_only, satisfy, check):
    want = search_tables(size, idempotent_only, satisfy, check)
    for seed in (1, 2):
        with shuffled_instances(seed):
            assert search_tables(size, idempotent_only, satisfy, check) == want


def test_instances_come_most_distinct_values_first():
    (_, _, values, _, _), = search._instances([ASSOCIATIVITY], 3, search._free_cells(3, False))
    distinct = [len(set(v)) for v in values.tolist()]
    assert distinct == sorted(distinct, reverse=True)
    assert values[:6].tolist() == sorted(map(list, itertools.permutations(range(3))))  # stable within ties


@functools.lru_cache(maxsize=None)
def size3_groupoids(idempotent_only):
    tables, _ = decode_tables(3, idempotent_only)
    return [Groupoid(("0", "1", "2"), t.reshape(3, 3)) for t in tables]


@pytest.mark.parametrize("idempotent_only", [False, True])
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_matches_its_predicate_on_all_size3_tables(check, idempotent_only):
    groupoids = size3_groupoids(idempotent_only)
    bad = [k for k, g in enumerate(groupoids) if not CHECKS[check](g)]
    expected = (len(groupoids), len(bad), bad[0] if bad else None, groupoids[bad[0]] if bad else None)
    assert scan(search_tables(3, idempotent_only, [], check)) == expected
    with chunk_rows(500):
        assert scan(search_tables(3, idempotent_only, [], check)) == expected


# (violations, first witness index) of the unfiltered size-3 sweep over all 19,683 tables
SIZE3_SWEEPS = {
    "in_A": (19220, 3),
    "in_B": (19647, 0),
    "in_D": (19676, 0),
    "in_D_cap_A": (19676, 0),
    "is_left_regular_band": (19661, 0),
    "is_left_zero": (19682, 0),
    "is_rect_band": (19681, 0),
    "is_right_regular_band": (19661, 0),
    "is_right_zero": (19682, 0),
    "is_semigroup": (19570, 3),
}


@pytest.mark.parametrize("check", sorted(SIZE3_SWEEPS))
def test_size3_sweeps_pinned(check):
    summary = search_tables(3, False, [], check)
    assert (summary.total, summary.satisfying) == (19683, 19683)
    assert (summary.violations, summary.first_witness_index) == SIZE3_SWEEPS[check]


def test_in_D_absorption_scheme_rejects_tables_passing_its_identities():
    # the constant table satisfies D's identities, but 1 * (1 * 1) = 0 != 1
    zero = Groupoid(("0", "1"), [[0, 0], [0, 0]])
    d_texts = variety("check", "in_D").identities
    assert all(satisfies_identity(zero, parse_identity(t))[0] for t in d_texts)
    assert not satisfies_D_scheme(zero)
    assert not in_D(zero)
    d_identities = [parse_identity(t) for t in d_texts]
    summary = search_tables(2, False, d_identities, "in_D")
    assert scan(summary) == (5, 4, 0, zero)
    for chunk in (1 << 20, 7):
        with chunk_rows(chunk):
            summary = search_tables(3, False, d_identities, "in_D")
            assert (summary.satisfying, summary.violations) == (78, 71)
            summary = search_tables(3, True, d_identities, "in_D")
            assert (summary.satisfying, summary.violations) == (45, 38)


def all_idempotent_3():
    cells = [(i, j) for i in range(3) for j in range(3) if i != j]
    for values in itertools.product(range(3), repeat=6):
        table = np.zeros((3, 3), dtype=int)
        for d in range(3):
            table[d, d] = d
        for (i, j), v in zip(cells, values):
            table[i, j] = v
        yield Groupoid(("0", "1", "2"), table)


def oracle_counts(identities):
    satisfying = violations = 0
    first = None
    for idx, g in enumerate(all_idempotent_3()):
        if all(satisfies_identity(g, i)[0] for i in identities):
            satisfying += 1
            if not is_semigroup(g):
                violations += 1
                if first is None:
                    first = idx
    return satisfying, violations, first


def test_left_eq_right_4_matches_oracle():
    idents = [scheme_identity("left_eq_right", 4)]
    summary = search_tables(3, True, idents)
    sat, vio, first = oracle_counts(idents)
    assert (summary.satisfying, summary.violations) == (sat, vio) == (35, 0)
    assert summary.first_witness is None


def test_prefixed_pair_3_no_violations():
    idents = list(scheme_identity("prefixed_pair", 3))
    summary = search_tables(3, True, idents)
    assert summary.violations == 0
    assert summary.satisfying == oracle_counts(idents)[0]


def test_nulla_4_matches_oracle():
    idents = [scheme_identity("nulla", 4)]
    summary = search_tables(3, True, idents)
    sat, vio, first = oracle_counts(idents)
    assert (summary.satisfying, summary.violations) == (sat, vio)
    assert vio > 0
    assert summary.first_witness_index == first
    assert not is_semigroup(summary.first_witness)


def test_no_filter_counts_bands():
    summary = search_tables(3, True, [])
    bands = sum(1 for g in all_idempotent_3() if is_semigroup(g))
    assert summary.total == 729
    assert summary.satisfying == 729
    assert summary.violations == 729 - bands
    assert bands == 35


def test_general_size2():
    summary = search_tables(2, False, [])
    assert summary.total == 16
    nonassoc = summary.violations
    count = 0
    for values in itertools.product(range(2), repeat=4):
        g = Groupoid(("0", "1"), np.array(values).reshape(2, 2))
        if not is_semigroup(g):
            count += 1
    assert nonassoc == count


def test_chunking_invariance():
    idents = [scheme_identity("left_eq_right", 3)]
    with chunk_rows(17):
        a = search_tables(3, True, idents)
    with chunk_rows(100000):
        b = search_tables(3, True, idents)
    assert (a.satisfying, a.violations, a.first_witness_index) == (
        b.satisfying,
        b.violations,
        b.first_witness_index,
    )


def test_size_guards():
    with pytest.raises(GuardError):
        search_tables(5, True, [])
    with pytest.raises(GuardError):
        search_tables(4, False, [])


def test_identity_instance_guard(monkeypatch):
    with pytest.raises(GuardError, match="identity instances"):
        search_tables(2, False, [scheme_identity("left_eq_right", 17)])
    # the cap is on size^variables summed over the identities, inclusive
    monkeypatch.setattr(search, "MAX_INSTANCES", 27)
    assert search_tables(3, True, [scheme_identity("left_eq_right", 3)]).total == 729
    with pytest.raises(GuardError, match=r"27 identity instances \(54 requested\)"):
        search_tables(3, True, [scheme_identity("left_eq_right", 3)] * 2)


def test_identities_of_more_than_64_variables_on_one_element():
    # one instance each, though numpy arrays have at most 64 axes
    for idempotent_only, ident in ((False, scheme_identity("left_eq_right", 70)), (True, scheme_identity("nulla", 200))):
        assert len(ident.variables) > 64
        summary = search_tables(1, idempotent_only, [ident])
        assert (summary.total, summary.satisfying, summary.violations) == (1, 1, 0)


def test_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        search_tables(3, True, [], check="bogus")


def test_alternate_check_predicate():
    # idempotent tables violating membership in the collapsing-product variety
    summary = search_tables(2, True, [], check="in_B")
    members = 0
    for values in itertools.product(range(2), repeat=2):
        table = np.array([[0, values[0]], [values[1], 1]])
        from grpd.terms import in_B

        members += in_B(Groupoid(("0", "1"), table))
    assert summary.total == 4
    assert summary.violations == 4 - members
