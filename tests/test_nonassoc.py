import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpd import nonassoc
from grpd.catalog import catalog_get, catalog_list
from grpd.core import Groupoid, dual, generating_set, parse_groupoid
from grpd.nonassoc import TRIPLE_LIST_CAP, check_sh_factor_property, ns_index
from grpd.terms import is_semigroup, parse_identity, satisfies_identity

import brute


def cat(name):
    return catalog_get(name).groupoid


LEFT_ZERO = Groupoid(("p", "q"), [[0, 0], [1, 1]])


def ns_oracle(g):
    # direct triple loop, independent of the vectorized path
    count = 0
    for a, b, c in itertools.product(range(g.n), repeat=3):
        if g.prod(g.prod(a, b), c) != g.prod(a, g.prod(b, c)):
            count += 1
    return count


def test_ns_g1():
    rep = ns_index(cat("G1"))
    assert rep.ns_count == 1
    assert rep.triples == ((0, 1, 2),)
    assert rep.sh_type == "abc"


def test_ns_left_zero():
    rep = ns_index(LEFT_ZERO)
    assert rep.ns_count == 0 and rep.sh_type is None and rep.minimal_sh is None


def test_ns_aba3_table():
    g = parse_groupoid("a b d\na a d\nd b d\nd d d\n")
    rep = ns_index(g)
    assert rep.ns_count == 1
    assert rep.triples == ((0, 1, 0),)
    assert rep.sh_type == "aba"


def test_ns_matches_oracle():
    for name in ("G1", "G6", "A3", "chain-3", "aab-eps", "rectband-F2"):
        g = cat(name)
        assert ns_index(g).ns_count == ns_oracle(g)


def test_ns_triples_in_index_order():
    g = cat("chain-3")
    rep = ns_index(g)
    assert list(rep.triples) == sorted(rep.triples)
    assert rep.ns_count == len(rep.triples)


def test_sh_type_classification():
    assert ns_index(cat("aba-4")).sh_type == "aba"
    assert ns_index(cat("aab-eps")).sh_type == "aab"
    assert ns_index(dual(cat("aab-eps"))).sh_type == "abb"


def test_minimal_sh_g3_g6():
    assert ns_index(cat("G3")).minimal_sh is True
    assert ns_index(cat("G6")).minimal_sh is True


def test_minimal_sh_fails_with_absorbing_extension():
    # adjoin an absorbing element z to G1: ns stays 1, but {a,b,c}
    # cannot generate z
    g = cat("G1")
    n = g.n
    table = np.full((n + 1, n + 1), n, dtype=np.int64)
    table[:n, :n] = g.table
    ext = Groupoid(g.names + ("z",), table)
    rep = ns_index(ext)
    assert rep.ns_count == 1
    assert rep.minimal_sh is False


def test_minimal_sh_requires_sh():
    assert ns_index(LEFT_ZERO).minimal_sh is None
    with pytest.raises(ValueError, match="not an SH-groupoid"):
        check_sh_factor_property(cat("chain-3"))


def test_factor_property_g1_g6():
    assert check_sh_factor_property(cat("G1"))
    assert check_sh_factor_property(cat("G6"))


def test_factor_property_all_sh_catalog_entries():
    for name in catalog_list():
        g = cat(name)
        if ns_index(g).ns_count == 1:
            assert check_sh_factor_property(g)


def test_ns_zero_iff_semigroup():
    for name in catalog_list():
        g = cat(name)
        assert (ns_index(g).ns_count == 0) == is_semigroup(g)
        assert ns_index(g).ns_count == ns_oracle(g)
    cells = [(i, j) for i in range(3) for j in range(3) if i != j]
    for values in itertools.product(range(3), repeat=6):
        table = np.zeros((3, 3), dtype=int)
        for d in range(3):
            table[d, d] = d
        for (i, j), v in zip(cells, values):
            table[i, j] = v
        g = Groupoid(("a", "b", "c"), table)
        assert (ns_index(g).ns_count == 0) == is_semigroup(g)
        assert ns_index(g).ns_count == ns_oracle(g)


def test_ns_dual_invariant():
    for name in catalog_list():
        g = cat(name)
        assert ns_index(g).ns_count == ns_index(dual(g)).ns_count


def test_triple_listing_cap():
    from grpd.nonassoc import TRIPLE_LIST_CAP

    rng = np.random.default_rng(3)
    table = rng.integers(0, 11, size=(11, 11))
    g = Groupoid(tuple(f"e{i}" for i in range(11)), table)
    rep = ns_index(g)
    assert rep.ns_count == ns_oracle(g)
    if rep.ns_count > TRIPLE_LIST_CAP:
        assert len(rep.triples) == TRIPLE_LIST_CAP


# --- Light's test and the census over distinct rows ---------------------------

# associativity, renamed with its sides swapped: x, y, z are its third,
# first and second variables in order of first occurrence
ASSOCIATIVITY = parse_identity("((x y) z) = (x (y z))")
RENAMED = parse_identity("(y (z x)) = ((y z) x)")


def answers(g):
    """is_semigroup, the census and the associativity checks, as the CLI reads them."""
    rep = ns_index(g)
    return (is_semigroup(g), rep.ns_count, rep.triples, rep.sh_type, rep.minimal_sh,
            satisfies_identity(g, ASSOCIATIVITY), satisfies_identity(g, RENAMED))


def light_path_answers(g, slab_cells=0):
    """``answers`` with ``n^3 > SLAB_CELLS``, so Light's test decides associativity."""
    assert g.n ** 3 > slab_cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", slab_cells)
        return answers(g)


def brute_answers(g, defects):
    """``answers`` from the (a, b, c) with (ab)c != a(bc), in index order."""
    sh_type = minimal = None
    if len(defects) == 1:
        sh_type = brute.sh_type(defects[0])
        minimal = brute.subuniverse(g, defects[0]) == frozenset(range(g.n))
    if not defects:
        return True, 0, (), None, None, (True, None), (True, None)
    a, b, c = defects[0]
    return (False, len(defects), tuple(defects[:TRIPLE_LIST_CAP]), sh_type, minimal,
            (False, {"x": a, "y": b, "z": c}), (False, {"y": a, "z": b, "x": c}))


def groupoid_of(n, cells):
    return Groupoid(tuple(str(i) for i in range(n)), np.asarray(cells).reshape(n, n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
                                 .map(lambda cells: groupoid_of(n, cells))))
def test_light_path_matches_triple_loop(g):
    assert light_path_answers(g) == brute_answers(g, brute.defect_triples(g))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
                                 .map(lambda cells: groupoid_of(n, cells))))
def test_one_slab_path_matches_triple_loop(g):
    # n^3 <= SLAB_CELLS: the census's one slab decides, and its first defect is the witness
    assert g.n ** 3 <= nonassoc.SLAB_CELLS
    assert answers(g) == brute_answers(g, brute.defect_triples(g))


def test_light_path_matches_triple_loop_on_every_3_element_table(monkeypatch):
    # all 3^9 tables, with 27 > SLAB_CELLS; the brute-force defects of all of
    # them in one cube
    monkeypatch.setattr(nonassoc, "SLAB_CELLS", 9)
    t = np.array(list(itertools.product(range(3), repeat=9))).reshape(-1, 3, 3)
    k = np.arange(len(t))[:, None, None, None]
    a, b, c = np.indices((3, 3, 3))
    defective = t[k, t[k, a, b], c] != t[k, a, t[k, b, c]]
    for cells, mask in zip(t, defective):
        g = groupoid_of(3, cells)
        assert answers(g) == brute_answers(g, list(map(tuple, np.argwhere(mask).tolist())))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
                                 .map(lambda cells: groupoid_of(n, cells))))
def test_generating_set_generates_and_holds_every_element_outside_the_image(g):
    gens = generating_set(g)
    assert len(set(gens)) == len(gens)
    assert set(range(g.n)) - set(g.table.flat) <= set(gens)
    assert brute.subuniverse(g, gens) == frozenset(range(g.n))


# semigroups on {0..n-1}, each by its product
SEMIGROUPS = {
    "cyclic": lambda a, b, n: (a + b) % n,
    "left-zero": lambda a, b, n: a + 0 * b,
    "right-zero": lambda a, b, n: b + 0 * a,
    "null": lambda a, b, n: 0 * a * b,
    "max": lambda a, b, n: np.maximum(a, b),
    "mult": lambda a, b, n: (a * b) % n,
}


def relabelled(kind, n, changed, seed):
    """A semigroup of SEMIGROUPS relabelled at random, with ``changed`` cells given other values."""
    rng = np.random.default_rng(seed)
    a, b = np.indices((n, n))
    perm = rng.permutation(n)
    t = np.empty((n, n), dtype=np.int64)
    t[np.ix_(perm, perm)] = perm[SEMIGROUPS[kind](a, b, n)]
    for _ in range(changed):
        i, j = rng.integers(n, size=2)
        t[i, j] = (t[i, j] + rng.integers(1, n)) % n
    return groupoid_of(n, t)


def census_answers(g):
    return brute_answers(g, list(map(tuple, np.argwhere(brute.defect_cube(g)).tolist())))


@pytest.mark.parametrize("n", [65, 70, 97, 128])
@pytest.mark.parametrize("kind", sorted(SEMIGROUPS))
def test_answers_above_one_slab_match_the_full_census(kind, n):
    # 65^3 > SLAB_CELLS: Light's test decides associativity at every n here
    assert n ** 3 > nonassoc.SLAB_CELLS
    semigroup = relabelled(kind, n, 0, n)
    assert answers(semigroup) == brute_answers(semigroup, [])
    for changed in (1, 2):
        g = relabelled(kind, n, changed, n)
        assert answers(g) == census_answers(g)


def test_answers_at_300_elements_match_the_full_census():
    # past 256 elements the narrow table is uint16
    z300 = relabelled("cyclic", 300, 0, 300)
    assert z300.narrow_table.dtype == np.uint16
    assert answers(z300) == brute_answers(z300, [])
    g = relabelled("cyclic", 300, 1, 300)
    assert g.narrow_table.dtype == np.uint16
    got = answers(g)
    assert got == census_answers(g)
    assert got[1] > 0


# --- the census above one slab: Light's test, then the closure lemma ---------


@st.composite
def census_tables(draw):
    """2 to 12 elements: uniform cells, a relabelled Z_n with up to three cells
    changed, rows drawn from fewer distinct rows, or cells from few values."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["uniform", "perturbed", "repeated", "few"]))
    if kind == "perturbed":
        return relabelled("cyclic", n, draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "repeated":
        m = draw(st.integers(1, n - 1))
        base = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m * n, max_size=m * n))).reshape(m, n)
        return groupoid_of(n, base[draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))])
    top = n - 1 if kind == "uniform" else min(2, n - 1)
    return groupoid_of(n, draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n)))


def closure_report(g, slab_cells):
    """ns_index, and the closure census made to finish however many pairs (row, s) have a
    defect (share=1), both with slabs of ``slab_cells`` cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", slab_cells)
        rep, rows = nonassoc._distinct_rows(g)
        return ns_index(g), nonassoc._closure_census(g, rep, rows, generating_set(g), share=1)


@pytest.mark.parametrize("slab_cells", [1, 64])
@settings(max_examples=200, deadline=None)
@given(census_tables())
def test_census_above_one_slab_matches_triple_loop(slab_cells, g):
    # 1: a pair per slab of direct checks; 64: several, and the one-slab census up to n = 4
    want = brute.ns_report(g)
    assert closure_report(g, slab_cells) == (want, want)


@pytest.mark.parametrize("slab_cells", [1, 64])
def test_census_past_the_cap_with_repeated_rows_matches_triple_loop(slab_cells):
    rng = np.random.default_rng(11)
    base = rng.integers(0, 12, (5, 12))
    g = groupoid_of(12, base[rng.integers(0, 5, 12)])
    want = brute.ns_report(g)
    assert want.ns_count > TRIPLE_LIST_CAP and len(nonassoc._distinct_rows(g)[1]) == 5
    assert closure_report(g, slab_cells) == (want, want)


def inflated(g, copies):
    """g with each of its first ``copies`` elements doubled: the copy has the same row
    and column, so its row repeats the original's, and it is a generator."""
    keep = np.r_[np.arange(g.n), np.arange(copies)]
    return groupoid_of(len(keep), g.table[np.ix_(keep, keep)])


def spied_ns_index(monkeypatch, g):
    """ns_index(g) and what each call of the closure census returned in it."""
    closure, results = nonassoc._closure_census, []

    def spy(*args):
        results.append(closure(*args))
        return results[-1]

    monkeypatch.setattr(nonassoc, "_closure_census", spy)
    return ns_index(g), results


def cube_report(g):
    return brute.ns_report(g, list(map(tuple, np.argwhere(brute.defect_cube(g)).tolist())))


@pytest.mark.parametrize("n, changed, copies", [(128, 1, 0), (100, 3, 40), (160, 3, 0), (200, 6, 50)])
def test_closure_census_matches_the_full_census(monkeypatch, n, changed, copies):
    # perturbed cyclic groups over four slabs, some with repeated rows: few pairs (row, s)
    # have a defect, so the closure censuses them, and past the cap lists its first triples again
    g = inflated(relabelled("cyclic", n, changed, n), copies)
    want = cube_report(g)
    assert spied_ns_index(monkeypatch, g) == (want, [want])
    assert (want.ns_count > TRIPLE_LIST_CAP) == (changed > 1)


def test_census_by_rows_when_the_closure_would_certify_little(monkeypatch):
    # a random table has defects in nearly every pair (row, s), so the closure gives up
    # after them; a semilattice's generating set is the whole carrier, and a perturbed
    # Z_70's census by rows is under four slabs, so no closure is tried on them
    random = groupoid_of(128, np.random.default_rng(128).integers(0, 128, (128, 128)))
    assert spied_ns_index(monkeypatch, random) == (cube_report(random), [None])
    for g in (relabelled("max", 70, 2, 70), relabelled("cyclic", 70, 1, 70)):
        assert spied_ns_index(monkeypatch, g) == (cube_report(g), [])


# --- Light's test over distinct rows and distinct middles -----------------------


def repro(n):
    """0 everywhere except t[1, 1] = 2 and t[2, 1] = n - 1: one defect, (1, 1, 1)."""
    t = np.zeros((n, n), dtype=np.int64)
    t[1, 1], t[2, 1] = 2, n - 1
    return groupoid_of(n, t)


@st.composite
def copied_tables(draw):
    """A table on 1 to 6 elements with 1 to 8 copies of its elements added: a copy has
    its original's row and column and is outside the image, so rows, columns and
    generators repeat, and copies of one element are generators with equal rows and
    columns."""
    m = draw(st.integers(1, 6))
    base = np.array(draw(st.lists(st.integers(0, m - 1), min_size=m * m, max_size=m * m))).reshape(m, m)
    copies = draw(st.lists(st.integers(0, m - 1), min_size=max(1, 5 - m), max_size=8))
    keep = np.r_[np.arange(m), copies]
    return groupoid_of(len(keep), base[np.ix_(keep, keep)])


def classed(r, c, m):
    """t[a, b] = m[r[a], c[b]]: elements of one class r have equal rows, of one class c equal columns."""
    return groupoid_of(len(r), np.asarray(m)[np.ix_(r, c)])


@st.composite
def classed_tables(draw):
    """``classed`` tables on 5 to 10 elements, with 3 x 3 values m below 3: the elements
    from 3 up are generators, many with equal rows or equal columns but not both."""
    n = draw(st.integers(5, 10))
    r, c = (draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(2))
    return classed(r, c, np.array(draw(st.lists(st.integers(0, 2), min_size=9, max_size=9))).reshape(3, 3))


@pytest.mark.parametrize("slab_cells", [1, 64])
@settings(max_examples=100, deadline=None)
@given(st.one_of(copied_tables(), classed_tables(), census_tables().filter(lambda g: g.n >= 5)))
# generators with equal rows, or equal columns, that Light's test must both keep
@example(classed([2, 0, 2, 2, 1, 2, 0, 1], [0, 0, 0, 1, 1, 2, 1, 1], [[0, 0, 1], [0, 0, 1], [0, 0, 0]]))
@example(classed([1, 1, 0, 1, 1, 2, 0, 0, 2, 1], [1, 1, 2, 2, 2, 2, 2, 2, 1, 1], [[2, 1, 1], [0, 1, 1], [0, 1, 2]]))
def test_light_test_over_distinct_rows_and_middles_matches_triple_loop(slab_cells, g):
    assert light_path_answers(g, slab_cells) == brute_answers(g, brute.defect_triples(g))


@pytest.mark.parametrize("slab_cells", [1, 64])
def test_light_test_on_the_repro_tables(slab_cells):
    small = repro(40)
    assert light_path_answers(small, slab_cells) == brute_answers(small, brute.defect_triples(small))
    large = repro(257)  # a triple loop over 257^3 takes too long; the cube is the same defects
    assert light_path_answers(large, slab_cells) == census_answers(large)


def test_light_test_gathers_one_row_and_middle_of_each_kind(monkeypatch):
    # repro-257 has 3 distinct rows, and of its 254 generators, 253 have all-zero rows
    # and columns: Light's test gathers 3 rows by 2 middles
    g, gathered = repro(257), []
    slabs = nonassoc.defect_slabs

    def spy(g, rows=None, middles=None):
        gathered.append((rows, None if middles is None else middles.tolist()))
        return slabs(g, rows, middles)

    monkeypatch.setattr(nonassoc, "defect_slabs", spy)
    assert len(generating_set(g)) == 254
    assert not is_semigroup(g)
    assert gathered == [([0, 1, 2], [1, 3])]
    gathered.clear()
    assert ns_index(g).ns_count == 1
    assert gathered[0] == ([0, 1, 2], [1, 3])


@settings(max_examples=100, deadline=None)
@given(st.one_of(census_tables(), copied_tables(), classed_tables()))
def test_distinct_rows_are_each_rows_first_copy(g):
    # a group's table takes column 0's shortcut; repeated rows must not
    rows = [tuple(row) for row in g.table.tolist()]
    rep = [rows.index(row) for row in rows]
    assert nonassoc._distinct_rows(g) == (rep, sorted(set(rep)))
