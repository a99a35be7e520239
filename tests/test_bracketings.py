import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.bracketings import (
    catalan,
    enumerate_bracketings,
    left_assoc,
    left_depth_sequence,
    parse_bracketing,
    right_assoc,
)
from grpd.errors import GuardError, ParseError
from grpd.terms import parse_term, prod, scheme_identity, term_to_string, var


def catalan_oracle(n):
    # independent recurrence: T(1)=1, T(n) = sum T(k) T(n-k)
    t = [0, 1]
    for m in range(2, n + 1):
        t.append(sum(t[k] * t[m - k] for k in range(1, m)))
    return t[n]


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (4, 5), (6, 42), (8, 429)])
def test_catalan_values(n, count):
    assert catalan(n) == count
    assert catalan_oracle(n) == count


def test_catalan_guard():
    with pytest.raises(GuardError):
        catalan(21)


def test_enumeration_counts():
    for n in range(1, 9):
        trees = enumerate_bracketings(n)
        assert len(trees) == catalan(n)
        # each bracketing is a term over x1..xn
        assert {b.variables for b in trees} == {tuple(f"x{i}" for i in range(1, n + 1))}


def test_enumeration_size4_trees():
    got = [term_to_string(b) for b in enumerate_bracketings(4)]
    assert set(got) == {
        "(x1 (x2 (x3 x4)))",
        "(x1 ((x2 x3) x4))",
        "((x1 x2) (x3 x4))",
        "(((x1 x2) x3) x4)",
        "((x1 (x2 x3)) x4)",
    }
    # fixed order: left-factor size ascending, recursive within
    assert got[0] == "(x1 (x2 (x3 x4)))"
    assert got[2] == "((x1 x2) (x3 x4))"


def test_enumeration_size2():
    assert [term_to_string(b) for b in enumerate_bracketings(2)] == ["(x1 x2)"]


def test_enumeration_distinct():
    trees = enumerate_bracketings(7)
    assert len(set(trees)) == len(trees) == catalan(7)


def test_left_right_assoc():
    assert term_to_string(left_assoc(3)) == "((x1 x2) x3)"
    assert term_to_string(right_assoc(3)) == "(x1 (x2 x3))"
    assert right_assoc(4) == parse_bracketing("(x1 (x2 (x3 x4)))")
    assert left_assoc(1) == right_assoc(1) == var("x1")
    assert left_assoc(1).is_var


def test_left_depth_left_assoc():
    assert left_depth_sequence(left_assoc(4)) == [3, 2, 1, 0]
    assert left_depth_sequence(left_assoc(6)) == [5, 4, 3, 2, 1, 0]


def test_left_depth_prefixed_left_assoc():
    b = prod(var("x1"), parse_term("((x2 x3) x4)"))
    assert left_depth_sequence(b) == [1, 2, 1, 0]
    assert b == scheme_identity("nulla", 4).rhs


def test_left_depth_b3():
    b = parse_bracketing("((x1 x2) (x3 x4))")
    assert left_depth_sequence(b) == [2, 1, 1, 0]


def test_left_depth_shape():
    for n in range(2, 8):
        for b in enumerate_bracketings(n):
            seq = left_depth_sequence(b)
            assert seq[-1] == 0
            assert seq[0] >= 1


def test_left_depth_sequences_distinct():
    for n in range(2, 9):
        seqs = {tuple(left_depth_sequence(b)) for b in enumerate_bracketings(n)}
        assert len(seqs) == catalan(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.data())
def test_string_roundtrip(n, data):
    trees = enumerate_bracketings(n)
    b = trees[data.draw(st.integers(0, len(trees) - 1))]
    assert parse_bracketing(term_to_string(b)) == b


def test_parse_examples():
    assert parse_bracketing("((x1 x2) x3)") == left_assoc(3)
    assert parse_bracketing("(x1 (x2 x3))") == parse_term("(x1 (x2 x3))")
    assert term_to_string(right_assoc(3)) == "(x1 (x2 x3))"


def test_parse_errors():
    with pytest.raises(ParseError, match="positions out of order"):
        parse_bracketing("((x2 x1) x3)")
    with pytest.raises(ParseError, match="unbalanced"):
        parse_bracketing("((x1 x2) x3")
    with pytest.raises(ParseError):
        parse_bracketing("(x1 x2) x3)")
    with pytest.raises(ParseError, match="positions out of order"):
        parse_bracketing("((x1 x1) x2)")
    with pytest.raises(ParseError):
        parse_bracketing("")
    with pytest.raises(ParseError, match="positions out of order"):
        parse_bracketing("((x1 x2) x4)")
    with pytest.raises(ParseError, match="positions out of order"):
        parse_bracketing("(x0 x1)")
    with pytest.raises(ParseError, match="bad variable name"):
        parse_bracketing("(x1 X2)")


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_bracketings(15)
