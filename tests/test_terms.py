import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import claims, cli, terms
from grpd.catalog import catalog_get, catalog_list
from grpd.core import Groupoid, dual
from grpd.errors import GuardError, ParseError
from grpd.spectrum import term_function
from grpd.terms import (
    MAX_TERM_DEPTH,
    Identity,
    evaluate,
    in_A,
    in_B,
    in_Cp,
    in_D,
    in_D_cap_A,
    is_left_regular_band,
    is_left_zero,
    is_rect_band,
    is_right_regular_band,
    is_right_zero,
    is_semigroup,
    parse_identity,
    parse_term,
    predicate,
    predicates,
    prod,
    satisfies_D_scheme,
    satisfies_identity,
    scheme_identity,
    term_to_string,
    var,
)

import brute
from brute import cat, idempotent_3_tables

LEFT_ZERO = Groupoid(("p", "q"), [[0, 0], [1, 1]])
RIGHT_ZERO = Groupoid(("p", "q"), [[0, 1], [0, 1]])
SEMILATTICE_2 = Groupoid(("0", "1"), [[0, 0], [0, 1]])
SINGLETON = Groupoid(("e",), [[0]])


# --- parsing -----------------------------------------------------------------

def test_parse_identity_example():
    ident = parse_identity("(x (x y)) = (x y)")
    assert term_to_string(ident.lhs) == "(x (x y))"
    assert ident.variables == ("x", "y")


def test_parse_reflexive():
    ident = parse_identity("x = x")
    assert ident.lhs.is_var and ident.rhs.is_var


def test_parse_unbalanced():
    with pytest.raises(ParseError, match="unbalanced"):
        parse_term("((x y) z")
    with pytest.raises(ParseError):
        parse_identity("(x y) = ")
    with pytest.raises(ParseError, match="bad variable"):
        parse_term("(x Y)")
    with pytest.raises(ParseError):
        parse_term("(x y) z")


# --- evaluation --------------------------------------------------------------

def test_evaluate_g1_left():
    # on G1: ab = a, then ac = c
    g = cat("G1")
    t = parse_term("((x y) z)")
    assert g.names[evaluate(t, g, {"x": 0, "y": 1, "z": 2})] == "c"


def test_evaluate_g1_right():
    # on G1: bc = e, then ae = f
    g = cat("G1")
    t = parse_term("(x (y z))")
    assert g.names[evaluate(t, g, {"x": 0, "y": 1, "z": 2})] == "f"


def test_evaluate_variable():
    assert evaluate(parse_term("x"), cat("G1"), {"x": 0}) == 0


def test_evaluate_unbound():
    with pytest.raises(ValueError, match="unbound"):
        evaluate(parse_term("(x y)"), cat("G1"), {"x": 0})


# --- identity checking -------------------------------------------------------

def test_g1_satisfies_absorbing_b_identity():
    ok, _ = satisfies_identity(cat("G1"), parse_identity("(x (x y)) = (x y)"))
    assert ok


def test_g1_fails_b1_b2_with_paper_witness():
    g = cat("G1")
    ok, witness = satisfies_identity(g, parse_identity("(x (y (z u))) = (x ((y z) u))"))
    assert not ok
    assert {k: g.names[v] for k, v in witness.items()} == {"x": "a", "y": "a", "z": "b", "u": "c"}


def test_reflexive_identity_always_holds():
    for name in ("G1", "G6", "aab-eps"):
        ok, _ = satisfies_identity(cat(name), parse_identity("x = x"))
        assert ok


def test_witness_is_lexicographically_first():
    # brute-force oracle over assignment tuples in lexicographic order
    g = cat("G3")
    ident = parse_identity("((x y) z) = (x (y z))")
    variables = ident.variables
    first = None
    for values in itertools.product(range(g.n), repeat=len(variables)):
        env = dict(zip(variables, values))
        if evaluate(ident.lhs, g, env) != evaluate(ident.rhs, g, env):
            first = env
            break
    ok, witness = satisfies_identity(g, ident)
    assert not ok and witness == first


def test_identity_var_guard():
    xs = [var(f"x{i}") for i in range(9)]
    t = xs[0]
    for x in xs[1:]:
        t = prod(t, x)
    with pytest.raises(GuardError):
        satisfies_identity(SINGLETON, Identity(t, xs[0]))


def test_identity_check_budget_admits_exactly_n_to_the_v(monkeypatch):
    g = cat("G3")
    ident = parse_identity("((x y) z) = (x (y z))")
    monkeypatch.setattr(terms, "DEFAULT_BUDGET", g.n ** 3)
    assert satisfies_identity(g, ident)[0] is False
    monkeypatch.setattr(terms, "DEFAULT_BUDGET", g.n ** 3 - 1)
    with pytest.raises(GuardError, match=rf"^evaluation budget exceeded \({g.n}\^3 > {g.n ** 3 - 1}\)$"):
        satisfies_identity(g, ident)


def test_term_function_and_identity_check_share_the_budget_boundary(monkeypatch):
    g = cat("G3")
    ident = parse_identity("((x y) z) = (x (y z))")
    monkeypatch.setattr(terms, "DEFAULT_BUDGET", g.n ** 3)
    assert term_function(g, ident.lhs).size == g.n ** 3
    assert satisfies_identity(g, ident)[0] is False
    monkeypatch.setattr(terms, "DEFAULT_BUDGET", g.n ** 3 - 1)
    messages = []
    for run in (lambda: term_function(g, ident.lhs), lambda: satisfies_identity(g, ident)):
        with pytest.raises(GuardError) as info:
            run()
        messages.append(str(info.value))
    assert messages == [f"evaluation budget exceeded ({g.n}^3 > {g.n ** 3 - 1})"] * 2


# --- named variety predicates --------------------------------------------------

def test_left_zero_table():
    assert is_left_zero(LEFT_ZERO)
    assert not is_left_zero(RIGHT_ZERO)
    assert is_right_zero(RIGHT_ZERO)


def test_rect_band_free_table():
    assert is_rect_band(cat("rectband-F2"))
    assert not is_rect_band(SEMILATTICE_2)


def test_regular_bands():
    assert is_left_regular_band(LEFT_ZERO)
    assert is_right_regular_band(RIGHT_ZERO)
    assert is_left_regular_band(SEMILATTICE_2)
    assert not is_left_regular_band(cat("G3"))


def test_g3_not_semigroup():
    assert not is_semigroup(cat("G3"))
    assert is_semigroup(cat("rectband-F2"))


def test_in_b_examples():
    assert in_B(cat("G1"))
    assert not in_B(RIGHT_ZERO)
    assert in_B(LEFT_ZERO)


def test_in_cp_examples():
    assert in_Cp(cat("f2cp-2"), 2)
    for p in (2, 3, 5):
        assert in_Cp(LEFT_ZERO, p)
    assert not in_Cp(cat("G3"), 2)
    with pytest.raises(ValueError, match="prime"):
        in_Cp(LEFT_ZERO, 4)


def test_in_a_examples():
    assert in_A(cat("propD-F2"))
    assert not in_A(cat("G1"))
    for name in ("rectband-F2", "shB-F2", "chain-2"):
        assert in_A(cat(name))  # consequence of associativity


def test_d_scheme_examples():
    assert satisfies_D_scheme(cat("propD-F2"))
    assert satisfies_D_scheme(SINGLETON)
    assert not satisfies_D_scheme(cat("G3"))


def test_d_scheme_matches_truncated_identities():
    # oracle: the explicit identities x*(la(x,y1..yk)) = x for k <= 4,
    # exhaustively over all idempotent size-3 tables
    def truncated(g):
        for k in range(0, 5):
            names = ["x"] + [f"y{i}" for i in range(1, k + 1)]
            t = var("x")
            for nm in names[1:]:
                t = prod(t, var(nm))
            ident = Identity(prod(var("x"), t), var("x"))
            if not satisfies_identity(g, ident)[0]:
                return False
        return True

    for g in idempotent_3_tables():
        assert satisfies_D_scheme(g) == truncated(g)


def test_d_scheme_matches_truncated_identities_size4_sample():
    def truncated(g):
        for k in range(0, 5):
            t = var("x")
            for i in range(1, k + 1):
                t = prod(t, var(f"y{i}"))
            ident = Identity(prod(var("x"), t), var("x"))
            if not satisfies_identity(g, ident)[0]:
                return False
        return True

    rng = np.random.default_rng(11)
    names = ("a", "b", "c", "d")
    for _ in range(300):
        table = rng.integers(0, 4, size=(4, 4))
        np.fill_diagonal(table, range(4))
        g = Groupoid(names, table)
        assert satisfies_D_scheme(g) == truncated(g)


def test_in_d_examples():
    assert in_D(cat("propD-F2"))
    assert not in_D(SEMILATTICE_2)
    assert in_D(LEFT_ZERO)


def test_in_d_cap_a_examples():
    assert in_D_cap_A(cat("propD-F2"))
    assert not in_D_cap_A(cat("f2cp-2"))
    assert in_D_cap_A(LEFT_ZERO)


def test_variety_predicates_imply_idempotence():
    from grpd.core import is_idempotent
    from grpd.catalog import catalog_list

    for name in catalog_list():
        g = cat(name)
        if in_B(g) or in_D(g) or in_D_cap_A(g) or is_rect_band(g):
            assert is_idempotent(g)


def test_catalog_semigroups_satisfy_a():
    from grpd.catalog import catalog_list

    for name in catalog_list():
        g = cat(name)
        if is_semigroup(g):
            assert in_A(g)


def test_in_d_cap_a_implies_both():
    from grpd.catalog import catalog_list

    for name in catalog_list():
        g = cat(name)
        if in_D_cap_A(g):
            assert in_D(g) and in_A(g)
    for g in idempotent_3_tables():
        if in_D_cap_A(g):
            assert in_D(g) and in_A(g)


# --- scheme identities ---------------------------------------------------------

def test_scheme_left_eq_right():
    ident = scheme_identity("left_eq_right", 3)
    assert term_to_string(ident.lhs) == "((x1 x2) x3)"
    assert term_to_string(ident.rhs) == "(x1 (x2 x3))"


def test_scheme_nulla():
    ident = scheme_identity("nulla", 4)
    assert term_to_string(ident.lhs) == "(((x1 x2) x3) x4)"
    assert term_to_string(ident.rhs) == "(x1 ((x2 x3) x4))"


def test_scheme_prefixed_pair():
    pair_ = scheme_identity("prefixed_pair", 3)
    assert len(pair_) == 2
    assert term_to_string(pair_[0].lhs) == "(x0 ((x1 x2) x3))"
    assert term_to_string(pair_[0].rhs) == "(x0 (x1 (x2 x3)))"
    assert term_to_string(pair_[1].lhs) == "(((x1 x2) x3) x0)"
    assert term_to_string(pair_[1].rhs) == "((x1 (x2 x3)) x0)"


def test_scheme_guard():
    with pytest.raises(ValueError):
        scheme_identity("nulla", 2)
    with pytest.raises(ValueError):
        scheme_identity("bogus", 4)
    pair_ = scheme_identity("prefixed_pair", MAX_TERM_DEPTH)
    assert len(pair_[0].variables) == MAX_TERM_DEPTH + 1
    with pytest.raises(GuardError, match="capped at n = 256"):
        scheme_identity("nulla", MAX_TERM_DEPTH + 1)


# --- term depth cap -----------------------------------------------------------

def test_terms_at_the_depth_cap_evaluate_and_deeper_ones_are_refused():
    deep = "(" * MAX_TERM_DEPTH + "x" + " x)" * MAX_TERM_DEPTH
    assert satisfies_identity(SEMILATTICE_2, parse_identity(f"{deep} = x")) == (True, None)
    with pytest.raises(GuardError, match="depth 256"):
        parse_term(f"({deep} x)")
    assert in_Cp(LEFT_ZERO, 251)  # the largest prime under the cap
    with pytest.raises(GuardError, match="p = 256"):
        in_Cp(LEFT_ZERO, 257)


# --- the variety table against the predicates it replaced -----------------------

ASSOC = "((x y) z) = (x (y z))"
IDEM = "(x x) = x"
D_TEXTS = ("(x (y x)) = (x y)", "((x y) x) = (x y)", "((x y) y) = (x y)", "((x y) (y x)) = (x y)")


def holds_all(g, texts):
    return all(satisfies_identity(g, parse_identity(t))[0] for t in texts)


def old_in_b(g):
    return holds_all(g, (IDEM, "(x (x y)) = (x y)") + D_TEXTS)


def old_in_cp(g, p):
    power = parse_identity("(" * p + "x" + " y)" * p + " = x")
    return holds_all(g, (IDEM, "(x (y z)) = (x y)", "((x y) z) = ((x z) y)")) and satisfies_identity(g, power)[0]


# each ``grpd variety`` name as the identity lists the table replaced
OLD_VARIETIES = {
    "semigroup": lambda g: holds_all(g, (ASSOC,)),
    "left-zero": lambda g: holds_all(g, ("(x y) = x",)),
    "right-zero": lambda g: holds_all(g, ("(x y) = y",)),
    "rect-band": lambda g: holds_all(g, (ASSOC, IDEM, "((x y) x) = x")),
    "left-regular-band": lambda g: holds_all(g, (ASSOC, IDEM, "((x y) x) = (x y)")),
    "right-regular-band": lambda g: holds_all(g, (ASSOC, IDEM, "((x y) x) = (y x)")),
    "B": old_in_b,
    "Bd": lambda g: old_in_b(dual(g)),
    "A": lambda g: holds_all(g, ("(x (y (z u))) = (x ((y z) u))",)),
    "D": lambda g: holds_all(g, D_TEXTS) and satisfies_D_scheme(g),
    "DcapA": lambda g: holds_all(g, (IDEM, "(x (y z)) = (x y)", "((x y) y) = (x y)")),
}
OLD_TAGS = {"semigroup": "semigroup", "rectBand": "rect-band", "inB": "B", "inBd": "Bd",
            "inA": "A", "inD": "D", "inDcapA": "DcapA"}


def assert_table_matches_old_predicates(g):
    for name, old in OLD_VARIETIES.items():
        assert cli._VARIETIES[name](g) == old(g), name
    for tag, name in OLD_TAGS.items():
        assert claims._TAG_CHECKS[tag](g) == OLD_VARIETIES[name](g), tag
    assert in_B(dual(g)) == OLD_VARIETIES["Bd"](g)
    for p in (2, 3):
        want = old_in_cp(g, p)
        assert predicate(cli._VARIETIES, f"Cp:{p}", "name")(g) == want
        assert predicate(claims._TAG_CHECKS, f"inCp:{p}", "tag")(g) == want


def test_variety_table_keys():
    assert list(predicates("name")) == list(cli._VARIETIES) == list(OLD_VARIETIES)
    assert set(predicates("tag")) == set(OLD_TAGS)


def with_diagonal(g, idempotent):
    """g, or g with each x x made x when ``idempotent``."""
    table = g.table.copy()
    if idempotent:
        np.fill_diagonal(table, np.arange(g.n))
    return Groupoid(g.names, table)


random_tables = st.builds(with_diagonal, brute.tables(1, 4), st.booleans())


@settings(max_examples=150, deadline=None)
@given(random_tables)
def test_variety_table_matches_the_predicates_it_replaced(g):
    assert_table_matches_old_predicates(g)


@pytest.mark.parametrize("name", catalog_list())
def test_variety_table_matches_the_predicates_it_replaced_on_the_catalog(name):
    g = catalog_get(name).groupoid
    assert_table_matches_old_predicates(g)
    assert_table_matches_old_predicates(dual(g))
