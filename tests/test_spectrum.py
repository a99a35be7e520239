import hashlib
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import nonassoc, terms
from grpd.bracketings import catalan, enumerate_bracketings, left_depth_sequence
from grpd.catalog import build_ak, catalog_get, catalog_list
from grpd.claims import SPECTRUM_CLAIM_BUDGET
from grpd.core import Groupoid
from grpd.errors import GuardError
from grpd.nonassoc import ns_index
from grpd.spectrum import (
    SPECTRUM_MAX_N,
    _shapes,
    nulla_satisfied,
    spectrum,
    spectrum_ak_oracle,
    term_function,
)
from grpd.terms import Term, evaluate, is_semigroup, parse_term, prod, var

from brute import group_bracketings, spectrum_classes


def cat(name):
    return catalog_get(name).groupoid


SEMILATTICE_2 = Groupoid(("0", "1"), [[0, 0], [0, 1]])

B1 = parse_term("(x1 (x2 (x3 x4)))")
B4 = parse_term("(((x1 x2) x3) x4)")
B5 = parse_term("((x1 (x2 x3)) x4)")


def brute_table(g, b):
    # independent oracle: evaluate through the term evaluator, tuple by tuple
    n = len(b.variables)
    out = []
    for tup in itertools.product(range(g.n), repeat=n):
        env = {f"x{i + 1}": v for i, v in enumerate(tup)}
        out.append(evaluate(b, g, env))
    return np.array(out)


def test_term_function_min_table():
    table = term_function(SEMILATTICE_2, parse_term("(x1 x2)"))
    assert table[0, 1] == 0 and table[1, 1] == 1 and table[0, 0] == 0


def test_term_function_semigroup_collapse():
    g = cat("rectband-F2")
    assert np.array_equal(term_function(g, B4), term_function(g, B5))


def test_term_function_g3_b4_vs_b1():
    g = cat("G3")
    t4, t1 = term_function(g, B4), term_function(g, B1)
    assert not np.array_equal(t4, t1)
    # the witness tuple (a,b,c,c): ((ab)c)c = c while a(b(cc)) = a
    a, b, c = 0, 1, 2
    assert t4[a, b, c, c] == c
    assert t1[a, b, c, c] == a


def test_term_function_matches_pointwise_oracle():
    for name in ("G3", "A2", "propD-F2"):
        g = cat(name)
        for n in (2, 3, 4):
            for b in enumerate_bracketings(n):
                assert np.array_equal(term_function(g, b).reshape(-1), brute_table(g, b))


def test_term_function_axes_follow_variables():
    g = cat("G3")
    t = parse_term("(y (x y))")
    first_occurrence = term_function(g, t)
    assert np.array_equal(term_function(g, t, variables=("y", "x")), first_occurrence)
    xy = term_function(g, t, variables=("x", "y"))
    assert np.array_equal(xy, first_occurrence.T)
    for x, y in itertools.product(range(g.n), repeat=2):
        assert xy[x, y] == evaluate(t, g, {"x": x, "y": y})
    # a variable listed but absent from the term is a constant axis
    xyz = term_function(g, t, variables=("x", "y", "z"))
    assert np.array_equal(xyz, np.broadcast_to(xy[:, :, None], xyz.shape))


def test_term_function_has_one_axis_per_variable_and_is_read_only():
    g = cat("G3")
    for t, variables in ((B4, None), (parse_term("x"), ("x", "y", "z")), (parse_term("(y x)"), ("y", "x"))):
        table = term_function(g, t, variables)
        k = len(t.variables if variables is None else variables)
        assert table.shape == (g.n,) * k
        assert table.dtype == np.int64 and table.flags.c_contiguous
        with pytest.raises(ValueError):
            table[(0,) * k] = 1
        with pytest.raises(ValueError):
            table.fill(0)


def test_term_function_budget(monkeypatch):
    monkeypatch.setattr(terms, "DEFAULT_BUDGET", 100)
    with pytest.raises(GuardError):
        term_function(cat("G6"), B4)


def test_spectrum_semilattice_all_ones():
    assert spectrum(SEMILATTICE_2, 6).values == (1, 1, 1, 1, 1, 1)


def test_spectrum_g3_catalan():
    assert spectrum(cat("G3"), 6).values == (1, 1, 2, 5, 14, 42)


def test_spectrum_a2_powers_of_two():
    assert spectrum(cat("A2"), 6).values == (1, 1, 2, 4, 8, 16)


def test_spectrum_classes_partition_bracketings():
    rep = spectrum(cat("G1"), 5)
    for n, classes in enumerate(rep.classes, start=1):
        indices = sorted(i for c in classes for i in c)
        assert indices == list(range(catalan(n)))
        assert len(classes) == rep.values[n - 1]


def test_spectrum_first_two_values():
    for name in catalog_list():
        g = cat(name)
        if g.n > 6:
            continue
        values = spectrum(g, 3).values
        assert values[0] == 1 and values[1] == 1
        assert (values[2] == 1) == is_semigroup(g)


def test_spectrum_bounded_by_catalan():
    for name in ("G3", "G1", "A3", "chain-2"):
        rep = spectrum(cat(name), 5)
        for n, v in enumerate(rep.values, start=1):
            assert v <= catalan(n)


def test_spectrum_budget_partial_report():
    rep = spectrum(cat("G6"), 6, budget=10 ** 4)
    assert 1 <= len(rep.values) < 6


def test_spectrum_guard():
    with pytest.raises(GuardError):
        spectrum(SEMILATTICE_2, 11)


def repro_257():
    # one defect, (1 1) 1 = 2 1 = 256 but 1 (1 1) = 1 2 = 0; 256 wraps to 0 in uint8
    t = np.zeros((257, 257), dtype=np.int64)
    t[1, 1] = 2
    t[2, 1] = 256
    return Groupoid(tuple(str(i) for i in range(257)), t)


def test_spectrum_over_many_top_level_slabs_matches_exact_dedup(monkeypatch):
    # one row of x1 per top-level slab: pairs alone in their class retire
    # after an early slab, some levels stop before their last slab with no
    # pair left to split, and both gather orders run (p first while it holds
    # at most n cells, q first beyond)
    monkeypatch.setattr(nonassoc, "SLAB_CELLS", 1)
    for name in catalog_list():
        g = cat(name)
        rep = spectrum(g, 6)
        assert rep.classes == tuple(spectrum_classes(g, n) for n in range(1, 7)), name
        assert rep.values == tuple(map(len, rep.classes))


def test_spectrum_dedup_matches_exact_dedup():
    # exact oracle: each bracketing's whole int64 table, every catalog entry up to n=6
    inputs = [(cat(name), 6) for name in catalog_list()]
    inputs.append((repro_257(), 3))
    for g, max_n in inputs:
        rep = spectrum(g, max_n)
        assert rep.classes == tuple(spectrum_classes(g, n) for n in range(1, max_n + 1))
        assert rep.values == tuple(map(len, rep.classes))


def substituted(t: Term, i: int) -> Term:
    # x_i -> (x_i x_i+1), and x_j -> x_j+1 for j > i
    if not t.is_var:
        return prod(substituted(t.left, i), substituted(t.right, i))
    j = int(t.name[1:])
    return prod(var(f"x{i}"), var(f"x{i + 1}")) if j == i else var(f"x{j + 1}" if j > i else t.name)


def renumbered(t: Term, shift: int) -> Term:
    if not t.is_var:
        return prod(renumbered(t.left, shift), renumbered(t.right, shift))
    return var(f"x{int(t.name[1:]) - shift}")


def test_shapes_match_the_enumerated_terms():
    sizes = [None] + [enumerate_bracketings(m) for m in range(1, SPECTRUM_MAX_N + 1)]
    for m in range(2, SPECTRUM_MAX_N + 1):
        factors, images = _shapes(m)
        assert len(factors) == len(sizes[m]) and len(images) == len(sizes[m - 1])
        for b, (k, left, right) in zip(sizes[m], factors):
            assert b.left == sizes[k][left] and renumbered(b.right, k) == sizes[m - k][right]
        index = {b: j for j, b in enumerate(sizes[m])}
        for b, image in zip(sizes[m - 1], images):
            assert image == tuple(index[substituted(b, i)] for i in range(1, m))


def derived_classes(g, m):
    # the classes of size m forced by equal factors and by substitution into the
    # true classes of size m-1 (brute force), before any evaluation at size m
    true = [{j: c for c, members in enumerate(spectrum_classes(g, k)) for j in members} for k in range(1, m)]
    factors, images = _shapes(m)
    pair = {}
    root = [pair.setdefault((k, true[k - 1][a], true[m - k - 1][b]), j) for j, (k, a, b) in enumerate(factors)]

    def find(j):
        while root[j] != j:
            j = root[j]
        return j

    first = {}
    for j, c in true[m - 2].items():
        for a, b in zip(images[first.setdefault(c, j)], images[j]):
            a, b = find(a), find(b)
            root[max(a, b)] = min(a, b)
    groups = {}
    for j in range(len(factors)):
        groups.setdefault(find(j), []).append(j)
    return tuple(map(tuple, groups.values()))


def test_substitution_is_sound_and_evaluation_merges_the_rest():
    for name in ("A2", "A3", "A4", "chain-2", "aab-eps", "G3"):
        g = cat(name)
        for m in range(2, 7):
            true = spectrum_classes(g, m)
            members = {j: c for c, cls in enumerate(true) for j in cls}
            derived = derived_classes(g, m)
            assert all(len({members[j] for j in c}) == 1 for c in derived), (name, m)
            assert spectrum(g, m).classes[-1] == true
    # A4's first merge is at size 6, below which every class is a singleton:
    # only evaluation finds it
    assert (len(derived_classes(cat("A4"), 6)), len(spectrum_classes(cat("A4"), 6))) == (42, 41)


tables = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))


@pytest.mark.parametrize("slab", [1, 64, nonassoc.SLAB_CELLS])
@settings(max_examples=100, deadline=None)
@given(tables, st.integers(1, 6))
def test_spectrum_matches_brute_force_on_random_tables(slab, table, max_n):
    # 1: every top-level slab one row of x1; 64: a one-row probe, then slabs of
    # several rows; the default: one slab, or a probe and one slab at n=4, m=6.
    # Values below k fold the table onto few elements, so classes merge early
    # and substitution has equal bracketings to work from
    n, k, cells = table
    g = Groupoid(tuple(map(str, range(n))), np.minimum(np.reshape(cells, (n, n)), k - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nonassoc, "SLAB_CELLS", slab)
        rep = spectrum(g, max_n)
    assert rep.classes == tuple(spectrum_classes(g, m) for m in range(1, max_n + 1))
    assert rep.values == tuple(map(len, rep.classes))


def test_catalog_classes_match_the_pinned_digests():
    pinned = json.loads((Path(__file__).parent / "spectrum-classes.json").read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(catalog_list())
    for name, digest in pinned.items():
        rep = spectrum(cat(name), 7, budget=SPECTRUM_CLAIM_BUDGET)
        assert hashlib.sha256(repr(rep.classes).encode()).hexdigest() == digest, name


def test_spectrum_above_256_elements_keeps_distinct_functions():
    g = repro_257()
    assert spectrum(g, 3).values == (1, 1, 2)
    assert ns_index(g).ns_count == 1
    assert not is_semigroup(g)


def cyclic(n):
    return Groupoid(tuple(map(str, range(n))), np.add.outer(np.arange(n), np.arange(n)) % n)


@pytest.mark.parametrize("g, values", [(repro_257(), (1, 1, 2)), (cyclic(256), (1, 1, 1))])
def test_spectrum_top_level_keeps_no_whole_table(g, values):
    # a whole n=3 table is 17 MB (uint8, 256 elements) or 34 MB (uint16, 257)
    tracemalloc.start()
    try:
        rep = spectrum(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.values == values
    assert peak < 8 << 20


def test_oracle_values():
    assert spectrum_ak_oracle(2, 5)[4] == 8
    for k in (2, 3, 5, 7):
        assert spectrum_ak_oracle(k, 2)[1] == 1
    assert spectrum_ak_oracle(2, 6) == [1, 1, 2, 4, 8, 16]


def test_oracle_matches_brute_force():
    for k in (2, 3, 4):
        g = build_ak(k)
        assert tuple(spectrum_ak_oracle(k, 5)) == spectrum(g, 5).values


def left_depth_spectrum_classes(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Group bracketing indices of size n by mod-k left-depth sequence."""
    return group_bracketings(n, lambda b: tuple(d % k for d in left_depth_sequence(b)))


def test_oracle_class_structure_matches_brute_force():
    # the left-depth grouping must equal the evaluation-table grouping
    for k in (2, 3):
        g = build_ak(k)
        rep = spectrum(g, 5)
        for n in range(2, 6):
            assert left_depth_spectrum_classes(n, k) == rep.classes[n - 1]


def test_nulla_satisfied_examples():
    assert nulla_satisfied(cat("A2"), 4)
    assert not nulla_satisfied(cat("A2"), 5)
    assert nulla_satisfied(cat("A3"), 5)


def test_nulla_agrees_with_generic_checker():
    from grpd.terms import satisfies_identity, scheme_identity

    for k in (2, 3, 4):
        g = build_ak(k)
        for n in (3, 4, 5, 6):
            ident = scheme_identity("nulla", n)
            want = np.array_equal(term_function(g, ident.lhs), term_function(g, ident.rhs))
            assert satisfies_identity(g, ident)[0] == want
            assert nulla_satisfied(g, n) == want


# --- semigroups above one slab: Light's test, no composition -----------------


@st.composite
def semigroups(draw):
    """A relabelled Z_n, rectangular band I x J or chain semilattice (max), 2 to 8 elements."""
    kind = draw(st.sampled_from(["cyclic", "rectangular band", "semilattice"]))
    if kind == "rectangular band":
        i, j = draw(st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]))
        a, b = np.indices((i * j, i * j))
        table = (a // j) * j + b % j  # (p, q)(r, s) = (p, s)
    else:
        a, b = np.indices((draw(st.integers(2, 8)),) * 2)
        table = (a + b) % len(a) if kind == "cyclic" else np.maximum(a, b)
    n = len(table)
    perm = np.array(draw(st.permutations(range(n))))
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return Groupoid(tuple(map(str, range(n))), relabelled)


def spectrum_above_one_slab(g, max_n, budget=terms.DEFAULT_BUDGET):
    """``spectrum`` with SLAB_CELLS = 1, so every table of two or more elements is above
    one slab, and whether it composed any size (looked up a size's bracketings)."""
    composed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonassoc, "SLAB_CELLS", 1)
        # the module, not grpd.spectrum, which the package binds to the function
        mp.setattr(sys.modules["grpd.spectrum"], "_shapes", lambda m: composed.append(m) or _shapes(m))
        return spectrum(g, max_n, budget), bool(composed)


@settings(max_examples=60, deadline=None)
@given(semigroups(), st.integers(3, 7))
def test_semigroup_spectrum_above_one_slab_matches_the_composition(g, max_n):
    rep, composed = spectrum_above_one_slab(g, max_n)
    assert rep == spectrum(g, max_n)
    assert rep.values == (1,) * len(rep.values) and composed == (len(rep.values) < 3)


def test_catalog_spectra_above_one_slab_match_the_composition_and_the_pinned_digests():
    # semigroups take Light's test and gather nothing; the others still compose
    pinned = json.loads((Path(__file__).parent / "spectrum-classes.json").read_text(encoding="utf-8"))
    for name in catalog_list():
        g = cat(name)
        rep, composed = spectrum_above_one_slab(g, 7, SPECTRUM_CLAIM_BUDGET)
        assert rep == spectrum(g, 7, budget=SPECTRUM_CLAIM_BUDGET), name
        assert hashlib.sha256(repr(rep.classes).encode()).hexdigest() == pinned[name], name
        assert composed != is_semigroup(g), name


small_tables = st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
    lambda cells: Groupoid(tuple(map(str, range(n))), np.reshape(cells, (n, n)))))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_tables, semigroups().filter(lambda g: g.n <= 6)), st.sampled_from([3, 4]))
def test_light_decides_s3_above_one_slab(g, max_n):
    # a failed Light's test gives s(3) = 2, the two bracketings apart, with nothing
    # composed; a top size of 4 composes unless the table is a semigroup
    rep, composed = spectrum_above_one_slab(g, max_n)
    assert rep.classes == tuple(spectrum_classes(g, m) for m in range(1, max_n + 1))
    assert rep.values == tuple(map(len, rep.classes))
    assert composed == (max_n > 3 and not is_semigroup(g))
