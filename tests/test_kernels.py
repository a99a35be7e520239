"""Property tests: each shared kernel against a brute force it must agree with.

Tables are random, of size 1 to 5, idempotent or not, except at the
narrow-dtype switch, where they have 255 to 300 elements.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.bracketings import enumerate_bracketings
from grpd import nonassoc, search
from grpd.catalog import catalog_get, catalog_list
from grpd.clone import binary_clone_part, binary_term_table
from grpd.core import Groupoid, find_isomorphism, generate_subuniverse
from grpd.errors import GuardError
from grpd.nonassoc import TRIPLE_LIST_CAP, ns_index
from grpd.search import CHECKS, search_tables
from grpd.spectrum import spectrum, term_function
from grpd.terms import Identity, eval_term, evaluate, is_semigroup, prod, satisfies_identity, var


def groupoid_of(size, cells):
    return Groupoid(tuple(str(i) for i in range(size)), np.array(cells).reshape(size, size))


tables = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
        lambda cells: groupoid_of(n, cells)
    )
)


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
    assert rep.max_n == 4
    for n in range(1, 5):
        groups: dict[bytes, list[int]] = {}
        for idx, b in enumerate(enumerate_bracketings(n)):
            groups.setdefault(term_function(g, b).entries.tobytes(), []).append(idx)
        assert rep.values[n - 1] == len(groups)
        assert rep.classes[n - 1] == tuple(tuple(m) for m in groups.values())


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


@settings(max_examples=100, deadline=None)
@given(tables, identities)
def test_identity_check_matches_pointwise(g, ident):
    first = None
    for values in itertools.product(range(g.n), repeat=len(ident.variables)):
        env = dict(zip(ident.variables, values))
        if evaluate(ident.lhs, g, env) != evaluate(ident.rhs, g, env):
            first = env
            break
    assert satisfies_identity(g, ident) == (first is None, first)


@settings(max_examples=60, deadline=None)
@given(tables, terms_over("xy"))
def test_binary_term_table_matches_pointwise(g, term):
    op = binary_term_table(g, term)
    for x, y in itertools.product(range(g.n), repeat=2):
        assert op(x, y) == evaluate(term, g, {"x": x, "y": y})


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
@given(ident=identities, check=st.sampled_from(sorted(CHECKS)), chunk=st.sampled_from([7, 100, 1 << 20]))
def test_search_matches_per_table_checks(size, idempotent_only, ident, check, chunk):
    for name in sorted({"is_semigroup", check}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "CHUNK", chunk)
            summary = search_tables(size, idempotent_only, [ident], name)
        satisfying, violations, first = brute_search(size, idempotent_only, ident, name)
        assert (summary.satisfying, summary.violations) == (satisfying, violations)
        if first is None:
            assert summary.first_witness_index is None and summary.first_witness is None
        else:
            assert summary.first_witness_index == first[0]
            assert summary.first_witness == first[1]


def reference_closure(g, guard):
    """Breadth-first closure that remembers every composed pair in a set."""
    n = g.n
    tables = [np.repeat(np.arange(n), n).reshape(n, n), np.tile(np.arange(n), n).reshape(n, n)]
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
    try:
        names, done = reference_closure(g, guard)
    except GuardError:
        with pytest.raises(GuardError):
            binary_clone_part(g, guard)
        return
    part = binary_clone_part(g, guard)
    m = len(part)
    assert part.names == tuple(names)
    assert len(done) == m * m
    basic = g.table
    for i, j in itertools.product(range(m), repeat=2):
        composed = basic[part.ops[i].as_array(), part.ops[j].as_array()]
        assert part.ops[part.product(i, j)].as_array().tolist() == composed.tolist()


def relabel(g, perm, dual):
    """g with each element a renamed perm[a]; with ``dual`` its dual is renamed."""
    out = [[0] * g.n for _ in range(g.n)]
    for a, b in itertools.product(range(g.n), repeat=2):
        x, y = (perm[b], perm[a]) if dual else (perm[a], perm[b])
        out[x][y] = perm[int(g.table[a, b])]
    return groupoid_of(g.n, out)


def maps_onto(g, h, mapping, dual):
    """Is ``mapping`` a bijection with mapping[ab] = h(mapping[a], mapping[b])
    (h(mapping[b], mapping[a]) when ``dual``) for all a, b?"""
    if sorted(mapping) != list(range(g.n)) or g.n != h.n:
        return False
    return all(
        mapping[int(g.table[a, b])] == int(h.table[(mapping[b], mapping[a]) if dual else (mapping[a], mapping[b])])
        for a, b in itertools.product(range(g.n), repeat=2)
    )


def brute_isomorphic(g, h, allow_dual):
    return any(
        maps_onto(g, h, perm, dual)
        for perm in itertools.permutations(range(g.n))
        for dual in ((False, True) if allow_dual else (False,))
    )


def assert_isomorphism_verdicts(g, h):
    for allow_dual in (False, True):
        iso = find_isomorphism(g, h, allow_dual=allow_dual)
        assert (iso is not None) == brute_isomorphic(g, h, allow_dual)
        if iso is not None:
            assert allow_dual or not iso.dual
            assert maps_onto(g, h, iso.mapping, iso.dual)


@settings(max_examples=100, deadline=None)
@given(tables, st.data())
def test_find_isomorphism_recovers_a_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    dual = data.draw(st.booleans())
    h = relabel(g, perm, dual)
    assert find_isomorphism(g, h, allow_dual=True) is not None
    if not dual:
        assert find_isomorphism(g, h) is not None
    assert_isomorphism_verdicts(g, h)


@settings(max_examples=100, deadline=None)
@given(tables.filter(lambda g: g.n >= 2), st.data())
def test_find_isomorphism_after_one_cell_change_matches_brute_force(g, data):
    h = relabel(g, data.draw(st.permutations(range(g.n))), data.draw(st.booleans()))
    cells = h.table.copy()
    a, b = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    cells[a, b] = (cells[a, b] + data.draw(st.integers(1, g.n - 1))) % g.n
    assert_isomorphism_verdicts(g, groupoid_of(g.n, cells))
