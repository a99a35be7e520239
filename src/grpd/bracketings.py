"""Bracketings: the terms over x1..xn in which each variable occurs once, in order.

A bracketing is one way to parenthesize the product x1*...*xn; there
are C(n-1) of them (Catalan).  Each is a ``terms.Term``, printed by
``term_to_string`` and tabulated by ``spectrum.term_function`` like any
other term.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import GuardError, ParseError
from .terms import Term, _left_assoc_term, _right_assoc_term, parse_term, prod, var

CATALAN_MAX_N = 20
ENUM_MAX_N = 14


def catalan(n: int) -> int:
    """Number of bracketings of size n: C(n-1) = binom(2n-2, n-1)/n."""
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > CATALAN_MAX_N:
        raise GuardError(f"catalan guard exceeded (n <= {CATALAN_MAX_N})")
    return math.comb(2 * n - 2, n - 1) // n


def _positions(n: int) -> list[str]:
    if n < 1:
        raise ValueError("size must be >= 1")
    return [f"x{i}" for i in range(1, n + 1)]


def enumerate_bracketings(n: int) -> list[Term]:
    """All bracketings of size n in a fixed deterministic order.

    Order: split by left-factor size ascending, then recursively the
    same order within each factor.  Length equals catalan(n).
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > ENUM_MAX_N:
        raise GuardError(f"bracketing enumeration capped at n={ENUM_MAX_N}")

    @lru_cache(maxsize=None)
    def span(start: int, length: int) -> tuple[Term, ...]:
        if length == 1:
            return (var(f"x{start}"),)
        out = []
        for k in range(1, length):
            for lt in span(start, k):
                for rt in span(start + k, length - k):
                    out.append(prod(lt, rt))
        return tuple(out)

    return list(span(1, n))


def left_assoc(n: int) -> Term:
    """The fully left-nested bracketing (..((x1 x2) x3)..) xn."""
    return _left_assoc_term(_positions(n))


def right_assoc(n: int) -> Term:
    """The fully right-nested bracketing x1 (x2 (.. (x{n-1} xn)..))."""
    return _right_assoc_term(_positions(n))


def left_depth_sequence(b: Term) -> list[int]:
    """For each leaf in position order, the number of left-child edges
    on its root-to-leaf path."""
    out = []

    def walk(t: Term, depth: int):
        if t.is_var:
            out.append(depth)
        else:
            walk(t.left, depth + 1)
            walk(t.right, depth)

    walk(b, 0)
    return out


def parse_bracketing(text: str) -> Term:
    """Parse a term and check that its leaves are x1..xn, each once, in order."""
    tree = parse_term(text)
    leaves = text.replace("(", " ").replace(")", " ").split()
    if leaves != _positions(len(leaves)):
        raise ParseError("positions out of order")
    return tree
