import pytest

from grpd.catalog import (
    build_ak,
    build_chain_groupoid,
    build_f2_cp,
    catalog_get,
    catalog_list,
)
from grpd.core import dual, is_idempotent, parse_groupoid, write_groupoid
from grpd.errors import GuardError
from grpd.terms import in_A, in_B, in_Cp, is_semigroup

from brute import cat


def test_g1_row_a():
    g = cat("G1")
    assert g.names == ("a", "b", "c", "e", "f")
    assert [g.names[g.prod(0, j)] for j in range(5)] == ["a", "a", "c", "f", "f"]


def test_g6_shape():
    g = cat("G6")
    assert g.names == ("a", "b", "c", "d", "f", "g", "h", "i")


def test_propd_row_x():
    g = cat("propD-F2")
    assert [g.names[g.prod(0, j)] for j in range(4)] == ["x", "xy", "x", "xy"]


def test_unknown_name():
    with pytest.raises(KeyError, match="unknown catalog entry"):
        catalog_get("G99")


def test_duals_are_duals():
    for i in range(1, 11):
        assert cat(f"G{i}d") == dual(cat(f"G{i}"))


def test_roundtrip_bit_exact():
    for name in catalog_list():
        g = cat(name)
        assert parse_groupoid(write_groupoid(g)) == g


def test_build_ak_k2_products():
    g = build_ak(2)
    idx = {nm: i for i, nm in enumerate(g.names)}
    assert g.prod(idx["0"], idx["e"]) == idx["1"]
    assert g.prod(idx["1"], idx["e"]) == idx["0"]
    assert g.prod(idx["e"], idx["e"]) == idx["e"]
    for x in ("0", "1", "e"):
        for y in ("0", "1"):
            assert g.prod(idx[x], idx[y]) == idx[y]


def test_build_ak_idempotent():
    for k in range(2, 9):
        assert is_idempotent(build_ak(k))


def test_build_ak_k3_defect():
    g = build_ak(3)
    idx = {nm: i for i, nm in enumerate(g.names)}
    left = g.prod(g.prod(idx["0"], idx["e"]), idx["e"])
    right = g.prod(idx["0"], g.prod(idx["e"], idx["e"]))
    assert g.names[left] == "2" and g.names[right] == "1"


def test_build_ak_guards():
    with pytest.raises(ValueError):
        build_ak(1)
    with pytest.raises(GuardError):
        build_ak(65)


def test_build_f2cp_products():
    g = build_f2_cp(2)
    idx = {nm: i for i, nm in enumerate(g.names)}
    assert g.names[g.prod(idx["f0"], idx["f1d"])] == "f1"
    assert g.names[g.prod(idx["f1d"], idx["f1d"])] == "f1d"


def test_build_f2cp_memberships():
    assert in_Cp(build_f2_cp(3), 3)
    assert in_Cp(build_f2_cp(2), 2)


def test_build_f2cp_requires_prime():
    with pytest.raises(ValueError, match="prime"):
        build_f2_cp(4)
    with pytest.raises(GuardError):
        build_f2_cp(37)


def test_chain_products():
    g = build_chain_groupoid(3)
    idx = {nm: i for i, nm in enumerate(g.names)}
    step = g.prod(idx["1"], idx["2"])
    assert g.names[step] == "1<2"
    assert g.names[g.prod(step, idx["3"])] == "1<2<3"
    assert g.names[g.prod(idx["1"], g.prod(idx["2"], idx["3"]))] == "1<3"


def test_chain_memberships():
    c3 = build_chain_groupoid(3)
    assert in_B(c3) and in_A(c3) and not is_semigroup(c3)
    assert is_semigroup(build_chain_groupoid(2))


def test_chain_sizes_and_guard():
    assert build_chain_groupoid(1).n == 1
    assert build_chain_groupoid(3).n == 7
    with pytest.raises(GuardError):
        build_chain_groupoid(6)


def test_catalog_has_expected_entries():
    names = set(catalog_list())
    expected = (
        {f"G{i}" for i in range(1, 11)}
        | {f"G{i}d" for i in range(1, 11)}
        | {"aba-4", "aba-4d", "aba-3", "aba-3d", "aab-eps"}
        | {"propD-F2", "rectband-F2", "shB-F2"}
        | {"A2", "A3", "A4", "f2cp-2", "f2cp-3", "chain-2", "chain-3"}
    )
    assert expected <= names


def test_entries_carry_tags_and_provenance():
    for name in catalog_list():
        entry = catalog_get(name)
        assert entry.tags
        assert entry.provenance
    assert {"inB", "shAbc", "minimalSh"} <= catalog_get("G1").tags
    assert {"shAba", "cloneNotMinimal"} <= catalog_get("aba-4").tags
