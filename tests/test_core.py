import itertools
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import core
from grpd.catalog import catalog_get, catalog_list
from grpd.core import (
    Groupoid,
    Partition,
    dual,
    find_isomorphism,
    generate_subuniverse,
    generating_set,
    is_congruence,
    is_idempotent,
    parse_groupoid,
    quotient,
    subuniverse_mask,
    write_groupoid,
)
from grpd.errors import GuardError, ParseError
from grpd.nonassoc import ns_index
from grpd.spectrum import spectrum

import brute
from partitions import all_partitions


def cat(name):
    return catalog_get(name).groupoid


@st.composite
def groupoids(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    names = tuple(chr(ord("a") + i) for i in range(n))
    return Groupoid(names, np.array(entries).reshape(n, n))


LEFT_ZERO_2 = Groupoid(("p", "q"), [[0, 0], [1, 1]])
RIGHT_ZERO_2 = Groupoid(("p", "q"), [[0, 1], [0, 1]])


# --- parsing -----------------------------------------------------------------

def test_parse_g3_table():
    g = parse_groupoid("a b c\na a c\nb b b\nc c c\n")
    assert g == cat("G3")


def test_parse_singleton():
    g = parse_groupoid("e\ne\n")
    assert g.n == 1 and g.prod(0, 0) == 0


def test_parse_row_length_mismatch():
    with pytest.raises(ParseError, match="row length mismatch"):
        parse_groupoid("a b c\na a\nb b b\nc c c\n")


def test_parse_comments_and_blanks():
    text = "# heading\n\na b  # names\na a\nb b\n"
    g = parse_groupoid(text)
    assert g.names == ("a", "b")
    assert is_idempotent(g)


def test_parse_errors():
    def message(text):
        with pytest.raises(ParseError) as info:
            parse_groupoid(text)
        return str(info.value)

    assert message("a a\na a\na a\n") == "duplicate element name 'a'"
    assert message("# nothing here\n") == "empty document"
    # the first bad token of the first bad row
    assert message("a b\na a\nq z\n") == "unknown element 'q' in row 2"
    assert message("a b\na r\nq b\n") == "unknown element 'r' in row 1"
    # a row of the wrong length is reported before its unknown tokens
    assert message("a b\na q c\nb b\n") == "row length mismatch in row 1: expected 2 entries, got 3"
    assert message("a b\na q\nb\n") == "unknown element 'q' in row 1"
    assert message("a b\na a\n") == "expected 2 table rows, got 1"
    assert message("a b c\na a a\nb b b\nc c c\na a a\n") == "expected 3 table rows, got 4"


# Names mix one-byte, multi-byte and NUL characters and are often prefixes of
# one another; entries in a row are parted by the separators that do not end a
# line, rows end with those that do (str.splitlines).
NAME_CHARS = "ab\x00é日\U0001f600"
ROW_SEPARATORS = (" ", "\t", "\x1f", "\xa0", "\u2003", "\u3000")
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")
FAULTS = (None, None, None, "duplicate name", "missing row", "extra row", "short row", "long row",
          "unknown token", "overlong token")


def parse_outcome(parse, text):
    """The groupoid ``parse`` reads from ``text``, or its ParseError's message."""
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@st.composite
def gpd_documents(draw):
    """A .gpd document with comments, blank lines and mixed separators, and at
    most one injected fault."""
    name = st.text(NAME_CHARS, min_size=1, max_size=3)
    names = draw(st.lists(name, min_size=1, max_size=5, unique=True))
    n = len(names)
    rows = [[names[draw(st.integers(0, n - 1))] for _ in range(n)] for _ in range(n)]
    fault = draw(st.sampled_from(FAULTS))
    i = draw(st.integers(0, n - 1))
    if fault == "duplicate name":
        names.insert(draw(st.integers(0, n)), names[i])
    elif fault == "missing row":
        del rows[i]
    elif fault == "extra row":
        rows.insert(draw(st.integers(0, n)), list(rows[i]))
    elif fault == "short row":
        del rows[i][draw(st.integers(0, n - 1))]
    elif fault == "long row":
        rows[i].insert(draw(st.integers(0, n)), names[0])
    elif fault == "unknown token":
        rows[i][draw(st.integers(0, n - 1))] = draw(name.filter(lambda tok: tok not in names))
    elif fault == "overlong token":
        rows[i][draw(st.integers(0, n - 1))] = max(names, key=len) + draw(name)

    def line(tokens):
        gaps = ["", *(draw(st.text(st.sampled_from(ROW_SEPARATORS), min_size=1, max_size=2)) for _ in tokens[1:])]
        lead = draw(st.sampled_from(("", " ", "\u3000")))
        comment = draw(st.sampled_from(("", "", "# note", "#a b", "  # é")))
        blank = draw(st.sampled_from(("", "", "", "# heading", "\t")))
        text = lead + "".join(gap + tok for gap, tok in zip(gaps, tokens)) + comment
        return "".join(x + draw(st.sampled_from(LINE_ENDS)) for x in (blank, text) if x)

    return "".join(line(tokens) for tokens in [names, *rows])


@settings(max_examples=400, deadline=None)
@given(st.one_of(gpd_documents(), st.text(NAME_CHARS + "".join(ROW_SEPARATORS + LINE_ENDS) + "#", max_size=40)))
def test_parser_matches_the_row_by_row_reference(text):
    assert parse_outcome(parse_groupoid, text) == parse_outcome(brute.parse_groupoid, text)


def test_separators_are_str_split_whitespace():
    scanned = {b for b in range(256) if core._BYTE_CLASSES[b] <= 1} | set(map(ord, core._WIDE_SEPARATORS))
    assert scanned == {c for c in range(0x110000) if chr(c).isspace()}
    for c in sorted(scanned):
        for text in (f"a b\na{chr(c)}b\nb a\n", f"a{chr(c)}b\nb{chr(c)}{chr(c)}a\na b{chr(c)}\n"):
            assert parse_outcome(parse_groupoid, text) == parse_outcome(brute.parse_groupoid, text)


def test_parser_memory_is_bounded_by_the_text():
    # 200 random names of 60 letters share no prefix past their first letters,
    # so their trie has about 11,800 states: a transition table of 256 int64
    # columns would take 24 MB, ten times the text
    rng = np.random.default_rng(3)
    n = 200
    names = tuple("".join(rng.choice(list(string.ascii_lowercase), 60)) for _ in range(n))
    g = Groupoid(names, rng.integers(0, n, (n, n)))
    text = write_groupoid(g)
    tracemalloc.start()
    try:
        assert parse_groupoid(text) == g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def test_gpd_roundtrip_300_elements():
    n = 300
    rng = np.random.default_rng(5)
    g = Groupoid(tuple(f"e{i}" for i in range(n)), rng.integers(0, n, (n, n)))
    assert parse_groupoid(write_groupoid(g)) == g


def test_writer_format_exact():
    assert write_groupoid(cat("G3")) == "a b c\na a c\nb b b\nc c c\n"


@settings(max_examples=60, deadline=None)
@given(groupoids())
def test_gpd_roundtrip(g):
    assert parse_groupoid(write_groupoid(g)) == g


def test_groupoid_copies_the_callers_table():
    t = np.zeros((2, 2), dtype=np.int64)
    g = Groupoid(("a", "b"), t)
    h = Groupoid(("a", "b"), t[:, :])
    before = hash(g)
    t[0, 0] = 1  # the caller's array stays writable
    for made in (g, h):
        assert made.table.tolist() == [[0, 0], [0, 0]]
        assert hash(made) == before
        assert not made.table.flags.writeable


def test_groupoid_validation():
    with pytest.raises(ValueError, match="table must be 2x2"):
        Groupoid(("a", "b"), np.zeros(4))
    with pytest.raises(ValueError, match="table must be 2x2"):
        Groupoid(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        Groupoid(("a", "b"), [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="out of range"):
        Groupoid(("a", "b"), [[0, 1], [-1, 0]])


# --- dual --------------------------------------------------------------------

def test_dual_involution_catalog():
    for name in catalog_list():
        g = cat(name)
        assert dual(dual(g)) == g


def test_dual_left_zero_is_right_zero():
    assert np.array_equal(dual(LEFT_ZERO_2).table, RIGHT_ZERO_2.table)


def test_dual_g3_entry():
    # transposing G3 by hand: the dual product a*b is G3's b*a = b
    d = dual(cat("G3"))
    assert d.names[d.prod(d.index("a"), d.index("b"))] == "b"


# --- idempotence -------------------------------------------------------------

def test_is_idempotent():
    assert is_idempotent(cat("G1"))
    assert is_idempotent(parse_groupoid("e\ne\n"))
    assert not is_idempotent(Groupoid(("0", "1"), [[1, 0], [0, 1]]))


# --- subuniverse closure -----------------------------------------------------

def test_subuniverse_g3_generators():
    g = cat("G3")
    assert generate_subuniverse(g, {0, 1, 2}) == frozenset({0, 1, 2})


def test_subuniverse_full_seed_set():
    g = cat("G6")
    assert generate_subuniverse(g, range(g.n)) == frozenset(range(g.n))


def test_subuniverse_singleton_idempotent():
    g = cat("G1")
    c = g.index("c")
    assert generate_subuniverse(g, {c}) == frozenset({c})


@settings(max_examples=60, deadline=None)
@given(groupoids(), st.data())
def test_subuniverse_monotone_idempotent(g, data):
    seeds = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    closed = generate_subuniverse(g, seeds)
    assert seeds <= closed
    assert generate_subuniverse(g, closed) == closed
    bigger = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    if seeds <= bigger:
        assert closed <= generate_subuniverse(g, bigger)


@settings(max_examples=150, deadline=None)
@given(groupoids(max_n=8), st.data())
def test_subuniverse_matches_python_closure(g, data):
    elements = st.integers(0, g.n - 1)
    seeds = data.draw(st.sets(elements, min_size=1, max_size=g.n))
    assert generate_subuniverse(g, seeds) == brute.subuniverse(g, seeds)
    # grown from a subuniverse by more seeds, maybe none, maybe repeated or inside it
    inside = brute.subuniverse(g, data.draw(st.sets(elements, max_size=g.n)))
    more = data.draw(st.lists(elements, max_size=4))
    closed = np.isin(np.arange(g.n), list(inside))
    before = closed.copy()
    grown = subuniverse_mask(g, closed, more)
    assert frozenset(np.flatnonzero(grown).tolist()) == brute.subuniverse(g, inside | set(more))
    assert np.array_equal(closed, before)


# --- partitions --------------------------------------------------------------

def bell_oracle(n):
    # Bell recurrence: B(n+1) = sum binom(n,k) B(k)
    import math

    bell = [1]
    for m in range(1, n + 1):
        bell.append(sum(math.comb(m - 1, k) * bell[k] for k in range(m)))
    return bell[n]


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (5, 52)])
def test_partition_counts(n, count):
    assert bell_oracle(n) == count
    parts = all_partitions(n)
    assert len(parts) == count
    assert len(set(parts)) == count


def stirling2(n, k):
    # partitions of n elements into k blocks: S(n, k) = k S(n-1, k) + S(n-1, k-1)
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_partitions_run_finest_first_in_restricted_growth_order(n):
    parts = all_partitions(n)
    counts = [len(p.blocks) for p in parts]
    assert counts == sorted(counts, reverse=True)
    assert [counts.count(k) for k in range(n, 0, -1)] == [stirling2(n, k) for k in range(n, 0, -1)]
    # every restricted-growth string: starts at 0, each entry at most one above the max before it
    strings = [r for r in itertools.product(range(n), repeat=n)
               if all(r[i] <= max(r[:i], default=-1) + 1 for i in range(n))]
    assert [p.ids for p in parts] == sorted(strings, key=lambda r: (-max(r), r))


def test_partition_validation():
    with pytest.raises(ValueError, match="at least one element"):
        Partition(())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))))
def test_partition_normalizes_any_labelling(case):
    labels, images = case  # images[label] relabels injectively
    p, q = Partition(labels), Partition([images[label] for label in labels])
    assert p == q and hash(p) == hash(q)
    n = len(labels)
    assert all((p.ids[x] == p.ids[y]) == (labels[x] == labels[y]) for x in range(n) for y in range(n))
    assert all(k in range(max(p.ids[:x], default=-1) + 2) for x, k in enumerate(p.ids))
    assert all(list(b) == sorted(b) for b in p.blocks)
    assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)
    assert len(p.blocks) == max(p.ids) + 1 and sum(map(len, p.blocks)) == p.n == n
    assert all(x in p.blocks[k] for x, k in enumerate(p.ids))


# --- congruences and quotients -----------------------------------------------

def test_g1_congruence_ef():
    g = cat("G1")
    p = Partition((0, 1, 2, 3, 3))
    assert is_congruence(g, p)


def test_all_singletons_always_congruence():
    for name in ("G1", "G6", "aab-eps"):
        g = cat(name)
        p = Partition(range(g.n))
        assert is_congruence(g, p)


def test_g6_merging_f_g_is_congruence():
    g = cat("G6")
    f, gg = g.index("f"), g.index("g")
    labels = [f if i == gg else i for i in range(g.n)]
    assert is_congruence(g, Partition(labels))


def test_quotient_g1_is_g2():
    g = cat("G1")
    q = quotient(g, Partition((0, 1, 2, 3, 3)))
    assert q.names == ("a", "b", "c", "e+f")
    assert find_isomorphism(q, cat("G2")) is not None


def test_quotient_by_singletons_is_identity():
    g = cat("G4")
    q = quotient(g, Partition(range(g.n)))
    assert np.array_equal(q.table, g.table)


def test_quotient_g4_merge_ef_is_g5():
    g = cat("G4")
    p = Partition([g.index("e") if name == "f" else i for i, name in enumerate(g.names)])
    assert find_isomorphism(quotient(g, p), cat("G5")) is not None


def test_quotient_requires_congruence():
    g = cat("G3")
    with pytest.raises(ValueError, match="congruence"):
        quotient(g, Partition((0, 0, 1)))


def test_quotient_well_defined_all_representatives():
    # the induced product must not depend on the chosen representatives
    for name in ("G1", "G4"):
        g = cat(name)
        for p in all_partitions(g.n):
            if not is_congruence(g, p):
                continue
            for ab in p.blocks:
                for bb in p.blocks:
                    results = {p.ids[g.prod(x, y)] for x in ab for y in bb}
                    assert len(results) == 1


# --- isomorphism -------------------------------------------------------------

def test_isomorphism_relabelled():
    g = cat("G2")
    perm = (2, 0, 3, 1)
    inv = {v: k for k, v in enumerate(perm)}
    table = np.array([[perm[g.prod(inv[i], inv[j])] for j in range(4)] for i in range(4)])
    h = Groupoid(("w", "x", "y", "z"), table)
    assert find_isomorphism(g, h) is not None


def test_isomorphism_dual_flag():
    g = cat("G3")
    assert find_isomorphism(g, dual(g)) is None


def test_isomorphism_size_mismatch():
    assert find_isomorphism(cat("G9"), cat("G10")) is None


def test_isomorphism_guard():
    big = Groupoid(tuple(str(i) for i in range(10)), np.zeros((10, 10), dtype=int))
    with pytest.raises(GuardError):
        find_isomorphism(big, big)


def test_isomorphism_of_left_zero_bands_at_the_guard():
    # x*y = x: every element is in the image and each singleton is closed, so
    # all 9 elements are generators and all 9! images are tried; the right
    # zero band is only anti-isomorphic to it
    n = core.ISO_MAX_N
    left_zero = Groupoid(tuple(string.ascii_lowercase[:n]), np.repeat(np.arange(n)[:, None], n, axis=1))
    assert generating_set(left_zero) == list(range(n))
    assert find_isomorphism(left_zero, dual(left_zero)) is None
    assert find_isomorphism(left_zero, left_zero) == tuple(range(n))


def test_isomorphism_of_cyclic_groups_at_the_guard():
    # Z_9 from the generating set {0, 1}: 72 images of the generators, not 9!
    n = core.ISO_MAX_N
    z = Groupoid(tuple(map(str, range(n))), np.add.outer(np.arange(n), np.arange(n)) % n)
    assert generating_set(z) == [0, 1]
    perm = np.random.default_rng(n).permutation(n)
    relabelled = Groupoid(z.names, perm[z.table[np.ix_(np.argsort(perm), np.argsort(perm))]])
    sigma = find_isomorphism(z, relabelled)
    assert sigma is not None
    assert all(sigma[z.prod(a, b)] == relabelled.prod(sigma[a], sigma[b]) for a in range(n) for b in range(n))
    off = relabelled.table.copy()
    off[0, 0] = (off[0, 0] + 1) % n
    assert find_isomorphism(z, Groupoid(z.names, off)) is None


def test_isomorphic_groupoids_share_invariants():
    g = cat("G2")
    perm = (1, 3, 0, 2)
    inv = {v: k for k, v in enumerate(perm)}
    table = np.array([[perm[g.prod(inv[i], inv[j])] for j in range(4)] for i in range(4)])
    h = Groupoid(("p", "q", "r", "s"), table)
    assert find_isomorphism(g, h) is not None
    assert ns_index(g).ns_count == ns_index(h).ns_count
    assert spectrum(g, 5).values == spectrum(h, 5).values
