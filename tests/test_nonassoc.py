import itertools

import numpy as np
import pytest

from grpd.catalog import catalog_get, catalog_list
from grpd.core import Groupoid, dual, parse_groupoid
from grpd.nonassoc import check_sh_factor_property, ns_index
from grpd.terms import is_semigroup


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
    cells = [(i, j) for i in range(3) for j in range(3) if i != j]
    for values in itertools.product(range(3), repeat=6):
        table = np.zeros((3, 3), dtype=int)
        for d in range(3):
            table[d, d] = d
        for (i, j), v in zip(cells, values):
            table[i, j] = v
        g = Groupoid(("a", "b", "c"), table)
        assert (ns_index(g).ns_count == 0) == is_semigroup(g)


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
