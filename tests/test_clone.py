import tracemalloc

import numpy as np
import pytest

from grpd import clone
from grpd.clone import (
    binary_clone_part,
    binary_minimality_proxy,
    binary_term_table,
    f2_table,
    find_relational_witness,
    generates_basic,
    is_trivial_clone,
)
from grpd.core import Groupoid, Partition, find_isomorphism, parse_groupoid
from grpd.errors import GuardError
from grpd.terms import is_left_zero, is_right_zero, parse_term

from brute import cat, idempotent_3_tables


LEFT_ZERO = Groupoid(("p", "q"), [[0, 0], [1, 1]])
RIGHT_ZERO = Groupoid(("p", "q"), [[0, 1], [0, 1]])
SINGLETON = Groupoid(("e",), [[0]])

# the two-generated free table of the collapsing-product variety:
# x(xy)=x(yx)=(xy)x=(xy)y=(xy)(yx)=xy over generators x, y
F2_B = parse_groupoid(
    """
    x y xy yx
    x xy xy xy
    yx y yx yx
    xy xy xy xy
    yx yx yx yx
    """
)


def test_clone_part_propd():
    part = binary_clone_part(cat("propD-F2"))
    assert len(part) == 4
    assert part.names == ("x", "y", "(x y)", "(y x)")


def test_clone_part_g1():
    part = binary_clone_part(cat("G1"))
    assert len(part) == 4
    # e1, e2, the product, and its dual
    assert part.names[part.basic_index] == "(x y)"
    duals = {op.table.tobytes() for op in part.ops}
    swapped = np.ascontiguousarray(cat("G1").table.T).reshape(-1).tobytes()
    assert swapped in duals


def test_clone_part_left_zero():
    part = binary_clone_part(LEFT_ZERO)
    assert len(part) == 2
    assert part.basic_index == 0  # xy = x is the first projection


def test_clone_part_closed_under_product():
    for name in ("G1", "propD-F2", "f2cp-2", "aba-4", "aab-eps"):
        part = binary_clone_part(cat(name))
        for i in range(len(part)):
            for j in range(len(part)):
                assert 0 <= part.products[i, j] < len(part)


def test_clone_part_basic_is_e1_e2_product():
    for name in ("G1", "G6", "propD-F2"):
        g = cat(name)
        part = binary_clone_part(g)
        assert part.products[0, 1] == part.basic_index
        assert np.array_equal(part.ops[part.basic_index].table, g.table)


def test_f2_fixed_point_propd():
    g = cat("propD-F2")
    assert find_isomorphism(f2_table(binary_clone_part(g)), g) is not None


def test_f2_fixed_point_f2cp2():
    g = cat("f2cp-2")
    f2 = f2_table(binary_clone_part(g))
    assert f2.n == 4  # 2p operations
    assert find_isomorphism(f2, g) is not None


def test_f2_g1_matches_free_b_table():
    assert find_isomorphism(f2_table(binary_clone_part(cat("G1"))), F2_B) is not None


def test_f2_twice_is_stable():
    for name in ("propD-F2", "f2cp-2"):
        g = cat(name)
        once = f2_table(binary_clone_part(g))
        assert find_isomorphism(f2_table(binary_clone_part(once)), once) is not None


def test_trivial_clone():
    assert is_trivial_clone(RIGHT_ZERO)
    assert is_trivial_clone(LEFT_ZERO)
    assert is_trivial_clone(SINGLETON)
    assert not is_trivial_clone(cat("G3"))


def closure_is_projections_only(g):
    # a capped closure decides whether the part is exactly {e1, e2}:
    # anything bigger trips the guard or reports more ops
    from grpd.errors import GuardError

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clone, "CLONE_GUARD", 8)
            part = binary_clone_part(g)
    except GuardError:
        return False
    return len(part) == 2 and part.basic_index in (0, 1)


def test_trivial_clone_matches_closure_size():
    # oracle equivalence over all idempotent size-3 tables
    for g in idempotent_3_tables():
        assert closure_is_projections_only(g) == is_trivial_clone(g)
        assert is_trivial_clone(g) == (is_left_zero(g) or is_right_zero(g))


def test_trivial_clone_matches_closure_size4_sample():
    rng = np.random.default_rng(5)
    for _ in range(200):
        table = rng.integers(0, 4, size=(4, 4))
        np.fill_diagonal(table, range(4))
        g = Groupoid(("a", "b", "c", "d"), table)
        assert closure_is_projections_only(g) == is_trivial_clone(g)


def test_proxy_passes_on_g_entries():
    for i in range(1, 11):
        assert binary_minimality_proxy(binary_clone_part(cat(f"G{i}"))) is None


def test_proxy_fails_on_aba4():
    witness = binary_minimality_proxy(binary_clone_part(cat("aba-4")))
    assert witness is not None
    g = cat("aba-4")
    x_yx = binary_term_table(g, parse_term("(x (y x))"))
    assert not generates_basic(g, x_yx)


def test_proxy_fails_on_aab_eps():
    g = cat("aab-eps")
    assert binary_minimality_proxy(binary_clone_part(g)) is not None
    x_xy = binary_term_table(g, parse_term("(x (x y))"))
    assert not generates_basic(g, x_xy)


@pytest.mark.parametrize("table, witness", [
    # idempotent tables whose binary clone holds all 729 idempotent ops
    ([[0, 0, 1], [2, 1, 0], [0, 0, 2]], "(y (x y))"),
    ([[0, 0, 1], [2, 1, 0], [0, 1, 2]], "((x y) y)"),
    # passes, though its ternary part holds semiprojections: not minimal
    ([[0, 0, 0], [1, 1, 2], [2, 1, 2]], None),
])
def test_proxy_pinned_on_three_element_tables(table, witness):
    assert binary_minimality_proxy(binary_clone_part(Groupoid(("a", "b", "c"), table))) == witness


def test_clone_closure_memory_is_bounded_past_the_guard():
    # the guard fires at 2,048 ops of 4,096 cells each; held twice as
    # int64, as arrays and as bytes keys, they peaked near 129 MiB
    n = 64
    g = Groupoid(tuple(str(i) for i in range(n)), np.random.default_rng(0).integers(0, n, (n, n)))
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match=r"^binary clone closure exceeded 2048 operations$"):
            binary_clone_part(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_proxy_requires_nontrivial_basic_op():
    with pytest.raises(ValueError, match="projection"):
        binary_minimality_proxy(binary_clone_part(LEFT_ZERO))


def test_generates_basic_via_dual():
    # the dual always regenerates the product: f = f^d(e2, e1)
    for name in ("G1", "G3", "aba-4"):
        g = cat(name)
        dual_op = binary_term_table(g, parse_term("(y x)"))
        assert generates_basic(g, dual_op)


def test_witness_aba4_partition():
    g = cat("aba-4")
    suspect = binary_term_table(g, parse_term("(x (y x))"))
    w = find_relational_witness(g, suspect)
    assert isinstance(w, Partition)
    b, d = g.index("b"), g.index("d")
    assert (b, d) in w.blocks


def test_witness_aab_subset():
    g = cat("aab-eps")
    suspect = binary_term_table(g, parse_term("(x (x y))"))
    w = find_relational_witness(g, suspect)
    assert isinstance(w, frozenset)
    assert w == frozenset({g.index("a"), g.index("b"), g.index("e")})


def test_witness_none_for_basic_op_itself():
    g = cat("G1")
    f_op = binary_term_table(g, parse_term("(x y)"))
    assert find_relational_witness(g, f_op) is None


def elements(n, table):
    return Groupoid(tuple(f"e{i}" for i in range(n)), table)


def min_chain(n):
    return elements(n, np.minimum.outer(np.arange(n), np.arange(n)))


def test_witness_partition_pass_answers_up_to_the_witness_cap():
    # every subset is closed under min, so only a partition can separate
    # the projection x from it: {e0,e2} | {e1} | ... on 12 to 20 elements
    for n in (12, 13, 20):
        chain = min_chain(n)
        w = find_relational_witness(chain, binary_term_table(chain, parse_term("x")))
        assert isinstance(w, Partition)
        assert w.blocks == ((0, 2), (1,)) + tuple((i,) for i in range(3, n))
    chain = min_chain(21)
    with pytest.raises(GuardError, match=r"^witness search capped at n=20$"):
        find_relational_witness(chain, binary_term_table(chain, parse_term("x")))


def test_witness_search_generates_one_relation_per_pair(monkeypatch):
    calls = {"generate_subuniverse": 0, "generated_congruence": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(clone, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(clone, name, counted)
    n = 20
    chain = min_chain(n)
    assert isinstance(find_relational_witness(chain, binary_term_table(chain, parse_term("x"))), Partition)
    assert calls["generate_subuniverse"] <= n * (n + 1) // 2
    assert calls["generated_congruence"] <= n * (n - 1) // 2


def test_witness_subset_past_the_partition_cap():
    z13 = elements(13, np.add.outer(np.arange(13), np.arange(13)) % 13)
    w = find_relational_witness(z13, binary_term_table(z13, parse_term("x")))
    assert isinstance(w, frozenset) and w == frozenset({1})


def test_binary_term_table_validates_vars():
    with pytest.raises(ValueError, match="x and y"):
        binary_term_table(cat("G1"), parse_term("(x z)"))


def test_binary_term_table_is_a_groupoid_on_the_same_elements():
    g = cat("aba-4")
    op = binary_term_table(g, parse_term("(x (y x))"))
    assert op.names == g.names
    assert binary_term_table(g, parse_term("(x y)")) == g


def test_suspect_on_another_carrier_is_refused():
    g = cat("aba-4")
    for suspect in (binary_term_table(cat("G1"), parse_term("(x y)")), LEFT_ZERO, min_chain(g.n + 1)):
        assert suspect.n != g.n
        with pytest.raises(ValueError, match="^suspect must be a binary op on the same carrier$"):
            generates_basic(g, suspect)
        with pytest.raises(ValueError, match="^suspect must be a binary op on the same carrier$"):
            find_relational_witness(g, suspect)
