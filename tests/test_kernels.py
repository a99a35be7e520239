"""Property tests: each shared kernel against a brute force it must agree with.

Tables are random, of size 1 to 5, idempotent or not, except at the
narrow-dtype switch, where they have 255 to 300 elements, for the
congruence generators, where they have 1 to 6, in the relational
witness search, where they have 2 to 6, and for the spectrum up to
n=6, where they have 1 to 3 elements or are semigroups of up to 4
elements with one or two cells rewritten, in slabs of the default size
or of 1 to 2048 cells.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpd import claims, clone, nonassoc, search, terms
from grpd.catalog import catalog_get, catalog_list
from grpd.clone import binary_clone_part, binary_term_table, find_relational_witness, generates_basic
from grpd.core import (
    Groupoid, Partition, dual, find_isomorphism, generate_subuniverse, generated_congruence, is_congruence,
)
from grpd.errors import GuardError
from grpd.nonassoc import TRIPLE_LIST_CAP, ns_index
from grpd.search import CHECKS, search_tables
from grpd.spectrum import spectrum
from grpd.terms import Identity, eval_term, evaluate, is_semigroup, parse_identity, prod, satisfies_identity, var

from brute import spectrum_classes
from partitions import all_partitions


def groupoid_of(size, cells):
    return Groupoid(tuple(str(i) for i in range(size)), np.array(cells).reshape(size, size))


def tables_up_to(size):
    return st.integers(1, size).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
            lambda cells: groupoid_of(n, cells)
        )
    )


tables = tables_up_to(5)


def terms_over(names):
    return st.recursive(
        st.sampled_from(names).map(var),
        lambda sub: st.tuples(sub, sub).map(lambda pair: prod(*pair)),
        max_leaves=6,
    )


identities = st.tuples(terms_over("xyz"), terms_over("xyz")).map(lambda sides: Identity(*sides))


@settings(max_examples=60, deadline=None)
@given(tables)
def test_spectrum_matches_grouping_term_functions(g):
    rep = spectrum(g, 4)
    assert rep.classes == tuple(spectrum_classes(g, n) for n in range(1, 5))
    assert rep.values == tuple(map(len, rep.classes))


def semigroups(size):
    """Every associative table on {0..size-1}, by a triple loop over all tables."""
    r = range(size)
    rows = (tuple(cells[i * size:(i + 1) * size] for i in r) for cells in itertools.product(r, repeat=size * size))
    return [t for t in rows if all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)]


def _semigroup_pool():
    # the 1- to 3-element semigroups and the direct products of two 2-element ones
    two = semigroups(2)
    products = [[[2 * s[a // 2][b // 2] + u[a % 2][b % 2] for b in range(4)] for a in range(4)] for s in two for u in two]
    return [t for size in (1, 2, 3) for t in semigroups(size)] + products


def rewritten(table, edits):
    cells = np.array(table)
    for (a, b), value in edits:
        cells[a % len(cells), b % len(cells)] = value % len(cells)
    return groupoid_of(len(cells), cells)


# a semigroup with one or two cells rewritten: about half of them have
# s(6) < C(5) = 42, so composed pairs of one level share classes there
near_semigroups = st.builds(
    rewritten,
    st.deferred(lambda: st.sampled_from(_semigroup_pool())),
    st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3)), min_size=1, max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(tables_up_to(3), near_semigroups))
def test_spectrum_composition_matches_brute_force(g):
    rep = spectrum(g, 6)
    assert rep.classes == tuple(spectrum_classes(g, n) for n in range(1, 7))
    assert rep.values == tuple(map(len, rep.classes))


@settings(max_examples=60, deadline=None)
@given(st.one_of(tables_up_to(3), near_semigroups), st.integers(2, 6), st.sampled_from([1, 500, 2048]))
@example(groupoid_of(2, [0, 0, 1, 0]), 3, 1)  # associative in the first slab, both defects in the second
@example(groupoid_of(2, [0, 1, 0, 0]), 4, 1)  # two n=4 classes that only the first of two slabs splits
def test_spectrum_top_level_in_small_slabs_matches_brute_force(g, max_n, slab_cells):
    # 1: one row of x1 per top-level slab; at n=6, 500 cells hold two rows of
    # three (the last slab is short) or one of four, and 2048 the whole table
    # of three or two rows of four
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", slab_cells)
        rep = spectrum(g, max_n)
    assert rep.classes == tuple(spectrum_classes(g, n) for n in range(1, max_n + 1))
    assert rep.values == tuple(map(len, rep.classes))


@settings(max_examples=100, deadline=None)
@given(tables)
def test_associativity_kernel_matches_triple_loop(g):
    t = g.table
    defects = [
        (a, b, c)
        for a, b, c in itertools.product(range(g.n), repeat=3)
        if t[t[a, b], c] != t[a, t[b, c]]
    ]
    rep = ns_index(g)
    assert rep.ns_count == len(defects)
    assert list(rep.triples) == defects
    assert is_semigroup(g) == (not defects)


def full_cube_census(g):
    """(count, triples, sh_type, minimal_sh, semigroup) from the whole (n, n, n) cube.

    Gathered in int64, one (n, n) layer per a, so a 300-element cube fits in memory.
    """
    t = g.table
    mask = np.stack([t[t[a]] != t[a][t] for a in range(g.n)])
    triples = tuple(map(tuple, np.argwhere(mask)[:TRIPLE_LIST_CAP].tolist()))
    count = int(mask.sum())
    sh_type = minimal = None
    if count == 1:
        triple = triples[0]
        sh_type = "".join("abc"[list(dict.fromkeys(triple)).index(x)] for x in triple)
        minimal = generate_subuniverse(g, set(triple)) == frozenset(range(g.n))
    return count, triples, sh_type, minimal, count == 0


def sliced_census(g, rows):
    """ns_index and is_semigroup with slabs of ``rows`` rows of a."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", rows * g.n * g.n)
        rep = ns_index(g)
        return rep.ns_count, rep.triples, rep.sh_type, rep.minimal_sh, is_semigroup(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
                                 .map(lambda cells: groupoid_of(n, cells))),
       st.integers(1, 3))
def test_sliced_census_matches_full_cube(g, rows):
    assert sliced_census(g, rows) == full_cube_census(g)


@pytest.mark.parametrize("name", catalog_list())
def test_sliced_census_on_catalog(name):
    g = catalog_get(name).groupoid
    assert sliced_census(g, 1) == full_cube_census(g)


def test_sliced_census_lists_capped_triples_across_slabs():
    # a left-zero semigroup with 5% of its cells rewritten at random
    rng = np.random.default_rng(7)
    t = np.repeat(np.arange(32), 32).reshape(32, 32)
    hit = rng.random(t.shape) < 0.05
    t[hit] = rng.integers(0, 32, hit.sum())
    g = groupoid_of(32, t)
    full = full_cube_census(g)
    assert full[0] > TRIPLE_LIST_CAP
    assert full[1][-1][0] >= 10  # the listed triples span more than five 2-row slabs
    assert sliced_census(g, 2) == full
    assert sliced_census(g, 1) == full


@st.composite
def tables_at_dtype_switch(draw):
    """A relabelled cyclic group of 255 to 300 elements with a few cells
    rewritten, or the one-defect table that is 0 except t[1,1] = 2 and
    t[2,1] = v.  Rewritten values lean to the top of the carrier, past 255."""
    n = draw(st.sampled_from([255, 256, 257, 300]))
    values = st.one_of(st.integers(n - 3, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        t = np.zeros((n, n), dtype=np.int64)
        t[1, 1] = 2
        t[2, 1] = draw(values)
        return groupoid_of(n, t)
    perm = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(n)
    t = np.empty((n, n), dtype=np.int64)
    t[np.ix_(perm, perm)] = perm[np.add.outer(np.arange(n), np.arange(n)) % n]
    for _ in range(draw(st.integers(0, 3))):
        t[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(values)
    return groupoid_of(n, t)


@settings(max_examples=12, deadline=None)
@given(tables_at_dtype_switch())
def test_narrow_kernels_match_int64_cube_at_dtype_switch(g):
    want = full_cube_census(g)
    rep = ns_index(g)
    assert (rep.ns_count, rep.triples, rep.sh_type, rep.minimal_sh, is_semigroup(g)) == want
    # the two bracketings of size 3 induce the same function iff g is associative
    spec = spectrum(g, 3)
    assert spec.values == (1, 1, 1 if want[4] else 2)
    assert spec.classes[2] == (((0, 1),) if want[4] else ((0,), (1,)))


@settings(max_examples=100, deadline=None)
@given(tables, terms_over("xyz"))
def test_broadcast_evaluation_matches_pointwise(g, term):
    n = g.n
    env = {name: np.arange(n).reshape((1,) * i + (n,) + (1,) * (2 - i)) for i, name in enumerate("xyz")}
    table = g.table
    got = np.broadcast_to(eval_term(term, env, lambda a, b: table[a, b]), (n, n, n))
    for x, y, z in itertools.product(range(n), repeat=3):
        assert got[x, y, z] == evaluate(term, g, {"x": x, "y": y, "z": z})


def pointwise_identity_check(g, ident):
    for values in itertools.product(range(g.n), repeat=len(ident.variables)):
        env = dict(zip(ident.variables, values))
        if evaluate(ident.lhs, g, env) != evaluate(ident.rhs, g, env):
            return False, env
    return True, None


@settings(max_examples=100, deadline=None)
@given(tables, identities)
def test_identity_check_matches_pointwise(g, ident):
    assert satisfies_identity(g, ident) == pointwise_identity_check(g, ident)


@pytest.mark.parametrize("slab_power", [0, 1, 2])
@settings(max_examples=100, deadline=None)
@given(tables, identities)
def test_identity_check_in_small_blocks_matches_pointwise(slab_power, g, ident):
    # blocks of 1, n or n^2 cells, so the leading variables are looped; at 1
    # every variable is, and each product is a scalar
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", g.n ** slab_power)
        assert satisfies_identity(g, ident) == pointwise_identity_check(g, ident)


def test_slab_cells_hold_two_variables_of_every_3_variable_check_in_budget():
    # n = 464 is the largest carrier with n^3 assignments in budget; a block
    # below n^2 cells would loop the last two variables, n^2 times in Python
    n = int(terms.DEFAULT_BUDGET ** (1 / 3)) + 1
    while n ** 3 > terms.DEFAULT_BUDGET:
        n -= 1
    assert n * n <= nonassoc.SLAB_CELLS


def int64_identity_check(g, ident):
    """(holds, first failing assignment), every subterm gathered in int64,
    one value of the first variable at a time."""
    names = ident.variables
    rest = names[1:]
    shape = (g.n,) * len(rest)
    env = {name: np.arange(g.n).reshape((1,) * i + (g.n,) + (1,) * (len(rest) - 1 - i))
           for i, name in enumerate(rest)}
    for first in range(g.n):
        env[names[0]] = first
        lhs = eval_term(ident.lhs, env, lambda a, b: g.table[a, b])
        rhs = eval_term(ident.rhs, env, lambda a, b: g.table[a, b])
        neq = np.broadcast_to(lhs != rhs, shape)
        if neq.any():
            values = np.unravel_index(int(np.argmax(neq)), shape)
            return False, dict(zip(names, (first, *map(int, values))))
    return True, None


def one_defect_table(n, v):
    """0 everywhere except t[1,1] = 2 and t[2,1] = v: its one defect (1,1,1) has sides v and 0."""
    t = np.zeros((n, n), dtype=np.int64)
    t[1, 1], t[2, 1] = 2, v
    return groupoid_of(n, t)


ASSOCIATIVITY = parse_identity("((x y) z) = (x (y z))")


@settings(max_examples=10, deadline=None)
@given(tables_at_dtype_switch(), st.one_of(st.just(ASSOCIATIVITY), identities))
@example(one_defect_table(257, 256), ASSOCIATIVITY)  # sides 256 and 0 agree in uint8
def test_identity_check_matches_int64_reference_at_dtype_switch(g, ident):
    assert satisfies_identity(g, ident) == int64_identity_check(g, ident)


def test_deep_identity_check_holds_a_few_block_arrays():
    # x y^128 = x holds on a left-zero band, so all 128 subterms of the one
    # n^2-cell block are evaluated; at most a few of them may be alive at once
    n, depth = 64, 128
    g = groupoid_of(n, np.repeat(np.arange(n), n).reshape(n, n))
    lhs = var("x")
    for _ in range(depth):
        lhs = prod(lhs, var("y"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", n * n)
        tracemalloc.start()
        try:
            holds = satisfies_identity(g, Identity(lhs, var("x")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert holds == (True, None)
    assert peak < 8 * n * n * np.dtype(np.int64).itemsize


@settings(max_examples=60, deadline=None)
@given(tables, terms_over("xy"))
def test_binary_term_table_matches_pointwise(g, term):
    op = binary_term_table(g, term).table
    for x, y in itertools.product(range(g.n), repeat=2):
        assert op[x, y] == evaluate(term, g, {"x": x, "y": y})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(lambda cells: groupoid_of(n, cells)),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Partition))))
def test_partition_compatibility_matches_pairwise(case):
    g, p = case
    ids = p.ids
    pairs = [(a, b) for a, b in itertools.product(range(g.n), repeat=2) if ids[a] == ids[b]]
    want = all(ids[g.prod(a, b)] == ids[g.prod(a2, b2)] for a, a2 in pairs for b, b2 in pairs)
    assert is_congruence(g, p) == want


def finer(p, q):
    """Is every block of p inside a block of q?"""
    return all(len({q.ids[x] for x in b}) == 1 for b in p.blocks)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(lambda cells: groupoid_of(n, cells)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))))
def test_generated_congruence_is_the_finest_preserved_partition_holding_the_pairs(case):
    g, pairs = case
    theta = generated_congruence(g, pairs)
    assert all(theta.ids[a] == theta.ids[b] for a, b in pairs)
    assert is_congruence(g, theta)
    for p in all_partitions(g.n):
        if is_congruence(g, p) and all(p.ids[a] == p.ids[b] for a, b in pairs):
            assert finer(theta, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(lambda cells: groupoid_of(n, cells)),
    st.integers(0, n - 1), st.integers(0, n - 1))))
def test_separating_congruences_match_the_filtered_partitions(case):
    g, x, y = case
    want = [p for p in all_partitions(g.n)
            if 1 < len(p.blocks) < g.n and p.ids[x] != p.ids[y] and is_congruence(g, p)]
    assert claims._separating_congruences(g, x, y) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(lambda cells: groupoid_of(n, cells)),
    st.integers(0, n - 1), st.integers(0, n - 1))))
@example((catalog_get("G1").groupoid, 4, 2))
@example((catalog_get("G6").groupoid, 5, 6))
def test_separating_congruences_generate_each_principal_congruence_once(case):
    g, x, y = case
    calls = []

    def counted(h, pairs):
        calls.append(tuple(pairs))
        return generated_congruence(h, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "generated_congruence", counted)
        claims._separating_congruences(g, x, y)
    assert len(calls) == len(set(calls)) <= g.n * (g.n - 1) // 2


def replaced_relational_witness(g, suspect):
    """The search find_relational_witness replaced: subsets in bitmask order,
    then all partitions in restricted-growth order, filtered once for each
    block count from n-1 down to 2, each tested pairwise."""
    n = g.n
    s, f = suspect.table, g.table

    def closed(t, members):
        return all(t[a, b] in members for a in members for b in members)

    def compatible(t, ids):
        return all(ids[t[a, b]] == ids[t[a2, b]] and ids[t[b, a]] == ids[t[b, a2]]
                   for a, a2, b in itertools.product(range(n), repeat=3) if ids[a] == ids[a2])

    for mask in range(1, 1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        if closed(s, members) and not closed(f, members):
            return frozenset(members)
    strings = [r for r in itertools.product(range(n), repeat=n)
               if all(r[i] <= max(r[:i], default=-1) + 1 for i in range(n))]
    for nblocks in range(n - 1, 1, -1):
        for ids in strings:
            if max(ids) + 1 == nblocks and compatible(s, ids) and not compatible(f, ids):
                return Partition(ids)
    return None


@st.composite
def witness_tables(draw):
    """A table of 2 to 6 elements: arbitrary, idempotent, or conservative
    (each product one of its factors, so every subset is closed under it
    and any witness is a partition)."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["any", "idempotent", "conservative"]))
    cells = []
    for a, b in itertools.product(range(n), repeat=2):
        if kind == "conservative" or (kind == "idempotent" and a == b):
            cells.append(draw(st.sampled_from([a, b])))
        else:
            cells.append(draw(st.integers(0, n - 1)))
    return groupoid_of(n, cells)


@settings(max_examples=150, deadline=None)
@given(witness_tables(), terms_over("xy"))
def test_relational_witness_matches_the_replaced_search(g, term):
    suspect = binary_term_table(g, term)
    assert find_relational_witness(g, suspect) == replaced_relational_witness(g, suspect)


def enumerate_tables(size, idempotent_only):
    """Every table in search order: row-major cells, first cell most significant."""
    cells = [(i, j) for i in range(size) for j in range(size) if not (idempotent_only and i == j)]
    for values in itertools.product(range(size), repeat=len(cells)):
        table = np.diag(np.arange(size))
        for (i, j), v in zip(cells, values):
            table[i, j] = v
        yield groupoid_of(size, table)


def brute_search(size, idempotent_only, ident, check):
    satisfying = violations = 0
    first = None
    for idx, g in enumerate(enumerate_tables(size, idempotent_only)):
        if satisfies_identity(g, ident)[0]:
            satisfying += 1
            if not CHECKS[check](g):
                violations += 1
                if first is None:
                    first = (idx, g)
    return satisfying, violations, first


@pytest.mark.parametrize("size, idempotent_only", [(2, False), (3, True)])
@settings(max_examples=15, deadline=None)
@given(ident=identities, check=st.sampled_from(sorted(CHECKS)), chunk=st.sampled_from([7, 100, 1 << 20]),
       block=st.sampled_from([None, 1, 1 << 30]))
@example(ident=parse_identity("((x y) (z x)) = (y x)"), check="in_D", chunk=7, block=1)
@example(ident=parse_identity("((x y) (z x)) = (y x)"), check="in_A", chunk=100, block=1 << 30)
def test_search_matches_per_table_checks(size, idempotent_only, ident, check, chunk, block):
    """``block`` forces blocks of exactly that many identity instances (1 << 30:
    all at once); None keeps the doubling schedule."""
    for name in sorted({"is_semigroup", check}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "CHUNK", chunk)
            if block is not None:
                mp.setattr(search, "_block_size", lambda last, tables: block)
            summary = search_tables(size, idempotent_only, [ident], name)
        satisfying, violations, first = brute_search(size, idempotent_only, ident, name)
        assert (summary.satisfying, summary.violations) == (satisfying, violations)
        if first is None:
            assert summary.first_witness_index is None and summary.first_witness is None
        else:
            assert summary.first_witness_index == first[0]
            assert summary.first_witness == first[1]


def reference_closure(g, guard, tables=None):
    """Breadth-first closure that remembers every composed pair in a set.

    The ops found are appended to ``tables``, also when the guard fires."""
    n = g.n
    tables = [] if tables is None else tables
    tables += [np.repeat(np.arange(n), n).reshape(n, n), np.tile(np.arange(n), n).reshape(n, n)]
    names = ["x", "y"]
    keys = {tables[0].tobytes(): 0, tables[1].tobytes(): 1}
    done = set()
    u = 0
    while u < len(tables):
        for v in range(len(tables)):
            for i, j in ((u, v), (v, u)):
                if (i, j) in done:
                    continue
                done.add((i, j))
                composed = np.ascontiguousarray(g.table[tables[i], tables[j]])
                if composed.tobytes() not in keys:
                    if len(tables) >= guard:
                        raise GuardError("guard")
                    keys[composed.tobytes()] = len(tables)
                    tables.append(composed)
                    names.append(f"({names[i]} {names[j]})")
        u += 1
    return names, done


small_tables = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
        lambda cells: groupoid_of(n, cells)
    )
)


@settings(max_examples=60, deadline=None)
@given(small_tables)
def test_clone_closure_matches_pairwise_reference(g):
    guard = 150
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clone, "CLONE_GUARD", guard)
        try:
            names, done = reference_closure(g, guard)
        except GuardError:
            with pytest.raises(GuardError):
                binary_clone_part(g)
            return
        part = binary_clone_part(g)
    m = len(part)
    assert part.names == tuple(names)
    assert len(done) == m * m
    basic = g.table
    for i, j in itertools.product(range(m), repeat=2):
        composed = basic[part.ops[i].table, part.ops[j].table]
        assert part.ops[part.products[i, j]].table.tolist() == composed.tolist()
    assert (part.products >= 0).all()


@settings(max_examples=60, deadline=None)
@given(small_tables, st.data())
def test_generates_basic_matches_reference_closure(g, data):
    """h is drawn from Clo2(g), as the proxy draws it, or is any binary op,
    so that both answers occur."""
    guard = 150
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clone, "CLONE_GUARD", guard)
        if data.draw(st.booleans()):
            try:
                ops = binary_clone_part(g).ops
            except GuardError:
                return
            h = data.draw(st.sampled_from(ops))
        else:
            h = groupoid_of(g.n, data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n ** 2, max_size=g.n ** 2)))
        found = []
        try:
            reference_closure(h, guard, found)
            guarded = False
        except GuardError:
            guarded = True
        expected = any(np.array_equal(t, g.table) for t in found)
        if guarded and not expected:
            # the closure stops at f, so past the guard it answers only if f came first
            with pytest.raises(GuardError):
                generates_basic(g, h)
        else:
            assert generates_basic(g, h) == expected


def relabel(g, perm, flipped):
    """g with each element a renamed perm[a]; with ``flipped`` its dual is renamed."""
    out = [[0] * g.n for _ in range(g.n)]
    for a, b in itertools.product(range(g.n), repeat=2):
        x, y = (perm[b], perm[a]) if flipped else (perm[a], perm[b])
        out[x][y] = perm[int(g.table[a, b])]
    return groupoid_of(g.n, out)


def maps_onto(g, h, mapping, flipped):
    """Is ``mapping`` a bijection with mapping[ab] = h(mapping[a], mapping[b])
    (h(mapping[b], mapping[a]) when ``flipped``) for all a, b?"""
    if sorted(mapping) != list(range(g.n)) or g.n != h.n:
        return False
    return all(
        mapping[int(g.table[a, b])] == int(h.table[(mapping[b], mapping[a]) if flipped else (mapping[a], mapping[b])])
        for a, b in itertools.product(range(g.n), repeat=2)
    )


def brute_isomorphic(g, h, flipped):
    return any(maps_onto(g, h, perm, flipped) for perm in itertools.permutations(range(g.n)))


def assert_isomorphism_verdicts(g, h):
    """An isomorphism onto h and one onto dual(h) (an anti-isomorphism onto
    h) are each found iff brute force finds one, and each found tuple maps."""
    for flipped in (False, True):
        iso = find_isomorphism(g, dual(h) if flipped else h)
        assert (iso is not None) == brute_isomorphic(g, h, flipped)
        if iso is not None:
            assert maps_onto(g, h, iso, flipped)


@settings(max_examples=100, deadline=None)
@given(tables, st.data())
def test_find_isomorphism_recovers_a_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    flipped = data.draw(st.booleans())
    h = relabel(g, perm, flipped)
    assert find_isomorphism(g, dual(h) if flipped else h) is not None
    assert_isomorphism_verdicts(g, h)


@settings(max_examples=100, deadline=None)
@given(tables.filter(lambda g: g.n >= 2), st.data())
def test_find_isomorphism_after_one_cell_change_matches_brute_force(g, data):
    h = relabel(g, data.draw(st.permutations(range(g.n))), data.draw(st.booleans()))
    cells = h.table.copy()
    a, b = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    cells[a, b] = (cells[a, b] + data.draw(st.integers(1, g.n - 1))) % g.n
    assert_isomorphism_verdicts(g, groupoid_of(g.n, cells))
