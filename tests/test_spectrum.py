import itertools

import numpy as np
import pytest

from grpd.bracketings import catalan, enumerate_bracketings, left_assoc, left_depth_sequence, parse_bracketing
from grpd.catalog import build_ak, catalog_get, catalog_list
from grpd.core import Groupoid
from grpd.errors import GuardError
from grpd.nonassoc import ns_index
from grpd.spectrum import (
    OpTable,
    nulla_satisfied,
    spectrum,
    spectrum_ak_oracle,
    term_function,
)
from grpd.terms import evaluate, is_semigroup, parse_term


def cat(name):
    return catalog_get(name).groupoid


SEMILATTICE_2 = Groupoid(("0", "1"), [[0, 0], [0, 1]])

B1 = parse_bracketing("(x1 (x2 (x3 x4)))")
B4 = parse_bracketing("(((x1 x2) x3) x4)")
B5 = parse_bracketing("((x1 (x2 x3)) x4)")


def brute_table(g, b):
    # independent oracle: evaluate through the term evaluator, tuple by tuple
    n = len(b.variables)
    out = []
    for tup in itertools.product(range(g.n), repeat=n):
        env = {f"x{i + 1}": v for i, v in enumerate(tup)}
        out.append(evaluate(b, g, env))
    return np.array(out)


def test_term_function_min_table():
    table = term_function(SEMILATTICE_2, left_assoc(2))
    assert table(0, 1) == 0 and table(1, 1) == 1 and table(0, 0) == 0


def test_term_function_semigroup_collapse():
    g = cat("rectband-F2")
    assert term_function(g, B4) == term_function(g, B5)


def test_term_function_g3_b4_vs_b1():
    g = cat("G3")
    t4, t1 = term_function(g, B4), term_function(g, B1)
    assert t4 != t1
    # the witness tuple (a,b,c,c): ((ab)c)c = c while a(b(cc)) = a
    a, b, c = 0, 1, 2
    assert t4(a, b, c, c) == c
    assert t1(a, b, c, c) == a


def test_term_function_matches_pointwise_oracle():
    for name in ("G3", "A2", "propD-F2"):
        g = cat(name)
        for n in (2, 3, 4):
            for b in enumerate_bracketings(n):
                assert np.array_equal(term_function(g, b).entries, brute_table(g, b))


def test_term_function_axes_follow_variables():
    g = cat("G3")
    t = parse_term("(y (x y))")
    first_occurrence = term_function(g, t).as_array()
    assert np.array_equal(term_function(g, t, variables=("y", "x")).as_array(), first_occurrence)
    xy = term_function(g, t, variables=("x", "y")).as_array()
    assert np.array_equal(xy, first_occurrence.T)
    for x, y in itertools.product(range(g.n), repeat=2):
        assert xy[x, y] == evaluate(t, g, {"x": x, "y": y})
    # a variable listed but absent from the term is a constant axis
    xyz = term_function(g, t, variables=("x", "y", "z")).as_array()
    assert np.array_equal(xyz, np.broadcast_to(xy[:, :, None], xyz.shape))


def test_term_function_budget():
    with pytest.raises(GuardError):
        term_function(cat("G6"), left_assoc(4), budget=100)


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
    assert 1 <= rep.max_n < 6


def test_spectrum_guard():
    with pytest.raises(GuardError):
        spectrum(SEMILATTICE_2, 11)


def repro_257():
    # one defect, (1 1) 1 = 2 1 = 256 but 1 (1 1) = 1 2 = 0; 256 wraps to 0 in uint8
    t = np.zeros((257, 257), dtype=np.int64)
    t[1, 1] = 2
    t[2, 1] = 256
    return Groupoid(tuple(str(i) for i in range(257)), t)


def test_spectrum_dedup_matches_exact_dedup():
    # exact oracle: dict keyed by the full int64 table bytes
    inputs = [(cat(name), range(2, 7)) for name in ("G3", "A2", "propD-F2", "aba-4")]
    inputs.append((repro_257(), range(2, 4)))
    for g, sizes in inputs:
        for n in sizes:
            exact: dict[bytes, int] = {}
            for b in enumerate_bracketings(n):
                exact.setdefault(term_function(g, b).entries.tobytes(), len(exact))
            assert spectrum(g, n).values[n - 1] == len(exact)


def test_spectrum_above_256_elements_keeps_distinct_functions():
    g = repro_257()
    assert spectrum(g, 3).values == (1, 1, 2)
    assert ns_index(g).ns_count == 1
    assert not is_semigroup(g)


def test_oracle_values():
    assert spectrum_ak_oracle(2, 5)[4] == 8
    for k in (2, 3, 5, 7):
        assert spectrum_ak_oracle(k, 2)[1] == 1
    assert spectrum_ak_oracle(2, 6) == [1, 1, 2, 4, 8, 16]


def test_oracle_matches_brute_force():
    for k in (2, 3, 4):
        g = build_ak(k)
        assert tuple(spectrum_ak_oracle(k, 5)) == spectrum(g, 5).values


def left_depth_spectrum_classes(n: int, k: int) -> dict[tuple[int, ...], list[int]]:
    """Group bracketing indices of size n by mod-k left-depth sequence."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, b in enumerate(enumerate_bracketings(n)):
        key = tuple(d % k for d in left_depth_sequence(b))
        groups.setdefault(key, []).append(idx)
    return groups


def test_oracle_class_structure_matches_brute_force():
    # the left-depth grouping must equal the evaluation-table grouping
    for k in (2, 3):
        g = build_ak(k)
        rep = spectrum(g, 5)
        for n in range(2, 6):
            by_depth = {tuple(sorted(v)) for v in left_depth_spectrum_classes(n, k).values()}
            by_table = {tuple(sorted(c)) for c in rep.classes[n - 1]}
            assert by_depth == by_table


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
            want = term_function(g, ident.lhs) == term_function(g, ident.rhs)
            assert satisfies_identity(g, ident)[0] == want
            assert nulla_satisfied(g, n) == want


def test_optable_validation():
    with pytest.raises(ValueError):
        OpTable(2, 2, np.zeros(3))
    with pytest.raises(ValueError):
        OpTable(1, 2, np.array([0, 5]))
