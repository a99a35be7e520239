"""Groupoid terms, identities, and the variety table.

Terms may repeat variables; a bracketing (``grpd.bracketings``) is the
term over x1..xn in which each occurs once, in order.  Identity checks
are exhaustive over all assignments; on failure the lexicographically
first failing assignment is reported.  ``VARIETIES`` names each variety
once, for ``search --check``, ``grpd variety`` and the catalog tags, with
its identities as text; the membership predicates read it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import nonassoc
from .core import Groupoid
from .errors import GuardError, ParseError
from .nonassoc import is_semigroup

DEFAULT_BUDGET = 10 ** 8  # assignments of one term function or identity check
MAX_IDENTITY_VARS = 8
MAX_TERM_DEPTH = 256  # nested products in a term from outside: parsed text, a scheme's n, Cp's p

_VAR_RE = re.compile(r"[a-z][a-z0-9]*\Z")


@dataclass(frozen=True)
class Term:
    """Leaf (variable name) or product of two subterms."""

    name: str | None = None
    left: Term | None = None
    right: Term | None = None

    def __post_init__(self):
        if (self.name is None) == (self.left is None or self.right is None):
            raise ValueError("a term is either a variable or a product")

    @property
    def is_var(self) -> bool:
        return self.name is not None

    @property
    def variables(self) -> tuple[str, ...]:
        """Distinct variable names in order of first occurrence."""
        out = []

        def walk(t):
            if t.is_var:
                if t.name not in out:
                    out.append(t.name)
            else:
                walk(t.left)
                walk(t.right)

        walk(self)
        return tuple(out)

    def __repr__(self):
        return f"Term({term_to_string(self)})"


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    @property
    def variables(self) -> tuple[str, ...]:
        out = list(self.lhs.variables)
        for v in self.rhs.variables:
            if v not in out:
                out.append(v)
        return tuple(out)

    def __repr__(self):
        return f"Identity({term_to_string(self.lhs)} = {term_to_string(self.rhs)})"


def var(name: str) -> Term:
    return Term(name=name)


def prod(left: Term, right: Term) -> Term:
    return Term(left=left, right=right)


def _left_assoc_term(names) -> Term:
    """The left-nested product (..((n1 n2) n3)..) nk of the named variables."""
    t = var(names[0])
    for name in names[1:]:
        t = prod(t, var(name))
    return t


def _right_assoc_term(names) -> Term:
    """The right-nested product n1 (n2 (.. (n{k-1} nk)..)) of the named variables."""
    t = var(names[-1])
    for name in reversed(names[:-1]):
        t = prod(var(name), t)
    return t


def term_to_string(t: Term) -> str:
    """Render with parentheses around every product; ``parse_term`` inverts it."""
    if t.is_var:
        return t.name
    return f"({term_to_string(t.left)} {term_to_string(t.right)})"


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").replace("=", " = ").split()


def _parse_term_tokens(tokens: list[str], idx: int, depth: int = 0) -> tuple[Term, int]:
    if idx >= len(tokens):
        raise ParseError("unexpected end of input", idx)
    tok = tokens[idx]
    if tok == "(":
        if depth == MAX_TERM_DEPTH:
            raise GuardError(f"terms capped at depth {MAX_TERM_DEPTH} (nested products)")
        lt, idx = _parse_term_tokens(tokens, idx + 1, depth + 1)
        rt, idx = _parse_term_tokens(tokens, idx, depth + 1)
        if idx >= len(tokens) or tokens[idx] != ")":
            raise ParseError("unbalanced parenthesis", idx)
        return prod(lt, rt), idx + 1
    if tok in (")", "="):
        raise ParseError(f"unexpected {tok!r}", idx)
    if not _VAR_RE.match(tok):
        raise ParseError(f"bad variable name {tok!r}", idx)
    return var(tok), idx + 1


def parse_term(text: str) -> Term:
    """Parse ``var | '(' term term ')'`` with vars matching [a-z][a-z0-9]*."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty term")
    t, idx = _parse_term_tokens(tokens, 0)
    if idx != len(tokens):
        raise ParseError("trailing input after term", idx)
    return t


def parse_identity(text: str) -> Identity:
    """Parse ``term '=' term``."""
    tokens = _tokenize(text)
    if "=" not in tokens:
        raise ParseError("identity needs '='")
    lhs, idx = _parse_term_tokens(tokens, 0)
    if idx >= len(tokens) or tokens[idx] != "=":
        raise ParseError("expected '='", idx)
    rhs, idx = _parse_term_tokens(tokens, idx + 1)
    if idx != len(tokens):
        raise ParseError("trailing input after identity", idx)
    return Identity(lhs, rhs)


# ---------------------------------------------------------------------------
# evaluation


def eval_term(t: Term, env: dict, product):
    """Evaluate a term, combining subterm values with ``product(left, right)``.

    The values may be element indices, broadcastable index arrays or
    whole table columns; ``product`` decides how two of them multiply.
    """
    if t.is_var:
        try:
            return env[t.name]
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    return product(eval_term(t.left, env, product), eval_term(t.right, env, product))


def gather_term(t: Term, env: dict, g: Groupoid, top: np.ndarray):
    """``t`` over the index arrays of ``env``, spanning only the axes of its
    variables: the top product is gathered from ``top``, proper subterms from
    the int64 ``g.table``, since they index the next gather.  Each product is
    a ``take`` at the flat index ``a * n + b``; when every factor is a Python
    int, it is a numpy scalar."""
    n = g.n
    flat = g.table.reshape(-1)

    def product(a, b):
        return flat.take(a * n + b)

    if t.is_var:
        return eval_term(t, env, product)
    return top.reshape(-1).take(eval_term(t.left, env, product) * n + eval_term(t.right, env, product))


def axis_env(names, n: int) -> dict[str, np.ndarray]:
    """Each named variable as ``arange(n)`` along its own axis, in ``names``
    order, so a term evaluated over them spans the whole tuple space."""
    k = len(names)
    return {name: np.arange(n, dtype=np.int64).reshape((1,) * i + (n,) + (1,) * (k - 1 - i))
            for i, name in enumerate(names)}


def guard_assignments(n: int, k: int, budget: int | None = None) -> None:
    """Refuse n^k assignments past ``budget``, by default ``DEFAULT_BUDGET``
    as it is at call time, before any work is done."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if n ** k > budget:
        raise GuardError(f"evaluation budget exceeded ({n}^{k} > {budget})")


def evaluate(t: Term, g: Groupoid, assignment: dict[str, int]) -> int:
    """Evaluate a term by recursive table lookup."""
    return eval_term(t, assignment, g.prod)


def satisfies_identity(g: Groupoid, ident: Identity) -> tuple[bool, dict[str, int] | None]:
    """Exhaustively check an identity over all assignments.

    Returns (True, None), or (False, witness) with the lexicographically
    first failing assignment (variables ordered by first occurrence,
    lhs before rhs).  More than ``DEFAULT_BUDGET`` assignments (n^v)
    raise GuardError before any work (``guard_assignments``).  Associativity,
    renamed or either side first, holds iff ``is_semigroup`` (by Light's test
    above one slab) says so; at or below one slab a failure's witness is the
    census's first defect in index order, and above it the scan finds it.
    Each block of assignments spans the trailing variables that fit in
    ``nonassoc.SLAB_CELLS`` cells (the last two of any 3-variable check
    within the budget), and the leading variables are looped, and no
    subterm is cached, so a block holds a few arrays at a time however
    deep the terms are.  Every product is a flat ``take`` gather
    (``gather_term``); the top products of both sides are gathered from
    ``g.narrow_table``.
    """
    variables = ident.variables
    v = len(variables)
    if v > MAX_IDENTITY_VARS:
        raise GuardError(f"identity check capped at {MAX_IDENTITY_VARS} variables")
    n = g.n
    guard_assignments(n, v)
    if v == 3 and _is_associativity(ident, variables):
        if is_semigroup(g):
            return True, None
        if n ** 3 <= nonassoc.SLAB_CELLS:  # the census's one slab: its first defect is the witness
            defects = next(nonassoc.defect_slabs(g))[1]
            return False, dict(zip(variables, map(int, np.unravel_index(defects.argmax(), defects.shape))))

    suffix = 0
    while suffix < v and n ** (suffix + 1) <= nonassoc.SLAB_CELLS:
        suffix += 1
    prefix_vars = variables[: v - suffix]
    suffix_vars = variables[v - suffix:]
    shape = (n,) * len(suffix_vars)
    suffix_env = axis_env(suffix_vars, n)
    narrow = g.narrow_table

    for prefix in itertools.product(range(n), repeat=len(prefix_vars)):
        env = dict(zip(prefix_vars, prefix))
        env.update(suffix_env)
        lhs = gather_term(ident.lhs, env, g, narrow)
        rhs = gather_term(ident.rhs, env, g, narrow)
        neq = np.broadcast_to(np.not_equal(lhs, rhs), shape)
        if neq.any():
            flat = int(np.argmax(neq.reshape(-1)))
            witness = dict(zip(prefix_vars, prefix))
            for name in reversed(suffix_vars):
                witness[name] = flat % n
                flat //= n
            return False, {name: witness[name] for name in variables}
    return True, None


def _is_associativity(ident: Identity, variables) -> bool:
    """Is ``ident``, in three ``variables`` in order of first occurrence,
    associativity in them, either side first?"""
    a, b, c = variables
    return {term_to_string(ident.lhs), term_to_string(ident.rhs)} == {f"(({a} {b}) {c})", f"({a} ({b} {c}))"}


# ---------------------------------------------------------------------------
# the variety table


_ident = lru_cache(maxsize=None)(parse_identity)


def _mirror(t: Term) -> Term:
    """``t`` with every product's factors swapped: its value in ``g`` is ``t``'s in ``dual(g)``."""
    return t if t.is_var else prod(_mirror(t.right), _mirror(t.left))


def _dual_text(text: str) -> str:
    ident = parse_identity(text)
    return f"{term_to_string(_mirror(ident.lhs))} = {term_to_string(_mirror(ident.rhs))}"


def satisfies_D_scheme(g: Groupoid) -> bool:
    """Decide the identity scheme x * (left-assoc x*y1*...*yk) = x for all k >= 0.

    The values of the left-associated products starting at x are exactly
    the reachability closure R(x) of x under right multiplication, so
    the scheme holds iff x*w = x for every w in R(x) and every x.
    """
    for x in range(g.n):
        reach = {x}
        frontier = [x]
        while frontier:
            w = frontier.pop()
            for a in range(g.n):
                nxt = g.prod(w, a)
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        if any(g.prod(x, w) != x for w in reach):
            return False
    return True


class Variety(NamedTuple):
    """One variety: its ``search --check`` name (also the name of its
    predicate in this module), its ``grpd variety`` name and its catalog
    tag, each None where it has none, and its defining identities.
    ``scheme`` is a further condition that no identity list states."""

    check: str | None
    name: str
    tag: str | None
    identities: tuple[str, ...]
    scheme: Callable[[Groupoid], bool] | None = None

    @property
    def holds(self) -> Callable[[Groupoid], bool]:
        """The function named ``check`` (the benchmark's tracer rebinds it
        by name) if there is one, else a predicate built from the row."""
        return globals()[self.check] if self.check else _predicate(self.name, "name")


ASSOCIATIVITY = "((x y) z) = (x (y z))"
_IDEMPOTENCE = "(x x) = x"
_XY_Y = "((x y) y) = (x y)"
_X_YZ = "(x (y z)) = (x y)"
_POWER = "x y^p = x"  # x times p factors y, left-nested; Cp's p sets it
_D = ("(x (y x)) = (x y)", "((x y) x) = (x y)", _XY_Y, "((x y) (y x)) = (x y)")
_B = (_IDEMPOTENCE, "(x (x y)) = (x y)") + _D

# In the order of ``grpd variety --help``.
VARIETIES = (
    Variety("is_semigroup", "semigroup", "semigroup", (ASSOCIATIVITY,)),
    Variety("is_left_zero", "left-zero", None, ("(x y) = x",)),
    Variety("is_right_zero", "right-zero", None, ("(x y) = y",)),
    Variety("is_rect_band", "rect-band", "rectBand", (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = x")),
    Variety("is_left_regular_band", "left-regular-band", None,
            (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = (x y)")),
    Variety("is_right_regular_band", "right-regular-band", None,
            (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = (y x)")),
    Variety("in_B", "B", "inB", _B),
    Variety(None, "Bd", "inBd", tuple(map(_dual_text, _B))),
    Variety("in_A", "A", "inA", ("(x (y (z u))) = (x ((y z) u))",)),
    Variety("in_D", "D", "inD", _D, satisfies_D_scheme),
    Variety("in_D_cap_A", "DcapA", "inDcapA", (_IDEMPOTENCE, _X_YZ, _XY_Y)),
    Variety(None, "Cp", "inCp", (_IDEMPOTENCE, _X_YZ, "((x y) z) = ((x z) y)", _POWER)),
)
CP = VARIETIES[-1]


def variety(column: str, key: str) -> Variety:
    """The row whose ``column`` (``check``, ``name`` or ``tag``) is ``key``."""
    return next(v for v in VARIETIES if getattr(v, column) == key)


def predicates(column: str) -> dict[str, Callable[[Groupoid], bool]]:
    """Membership predicates keyed by ``column``, for the rows with a key
    there; Cp takes p, so ``predicate`` looks it up."""
    return {getattr(v, column): v.holds for v in VARIETIES if getattr(v, column) and v is not CP}


def predicate(view: dict, key: str, column: str) -> Callable[[Groupoid], bool]:
    """``view[key]``, or for Cp's ``<name>:<p>`` or ``<tag>:<p>`` the
    membership predicate with p bound."""
    prefix = f"{getattr(CP, column)}:"
    if not key.startswith(prefix):
        return view[key]
    try:
        p = int(key[len(prefix):])
    except ValueError:
        raise ValueError(f"bad variety {key!r}; use {prefix}<prime>, e.g. {prefix}3") from None
    return lambda g: in_Cp(g, p)


def _holds_all(g: Groupoid, texts, p: int | None = None) -> bool:
    """Every identity holds; Cp's power identity takes ``p``."""
    power = Identity(_left_assoc_term(["x"] + ["y"] * p), var("x")) if p is not None else None
    return all(satisfies_identity(g, power if t == _POWER else _ident(t))[0] for t in texts)


def _predicate(key: str, column: str = "check") -> Callable[[Groupoid], bool]:
    """Membership in the variety of the row whose ``column`` is ``key``."""
    v = variety(column, key)

    def holds(g: Groupoid) -> bool:
        return _holds_all(g, v.identities) and (v.scheme is None or v.scheme(g))

    holds.__name__ = holds.__qualname__ = key
    holds.__doc__ = f"Membership in {v.name}: {'; '.join(v.identities)}{' and its scheme' if v.scheme else ''}."
    return holds


is_left_zero = _predicate("is_left_zero")
is_right_zero = _predicate("is_right_zero")
is_rect_band = _predicate("is_rect_band")
is_left_regular_band = _predicate("is_left_regular_band")
is_right_regular_band = _predicate("is_right_regular_band")
in_B = _predicate("in_B")
in_A = _predicate("in_A")
in_D = _predicate("in_D")
in_D_cap_A = _predicate("in_D_cap_A")


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def in_Cp(g: Groupoid, p: int) -> bool:
    """Membership in the p-cyclic groupoid variety Cp, for p prime."""
    if p > MAX_TERM_DEPTH:
        raise GuardError(f"Cp capped at p = {MAX_TERM_DEPTH} (term depth)")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _holds_all(g, CP.identities, p)


# ---------------------------------------------------------------------------
# identity schemes over x1..xn


def scheme_identity(name: str, n: int):
    """Construct a named identity scheme instance over x1..xn.

    ``left_eq_right``: left-assoc = right-assoc.
    ``prefixed_pair``: the pair x0*(left)=x0*(right) and (left)*x0=(right)*x0.
    ``nulla``: left-assoc(x1..xn) = x1*(left-assoc(x2..xn)).
    Returns an Identity, or a pair of them for prefixed_pair.
    """
    if n < 3:
        raise ValueError("scheme identities need n >= 3")
    if n > MAX_TERM_DEPTH:
        raise GuardError(f"scheme identities capped at n = {MAX_TERM_DEPTH} (term depth)")
    xs = [f"x{i}" for i in range(1, n + 1)]
    left = _left_assoc_term(xs)
    right = _right_assoc_term(xs)
    if name == "left_eq_right":
        return Identity(left, right)
    if name == "prefixed_pair":
        x0 = var("x0")
        return (
            Identity(prod(x0, left), prod(x0, right)),
            Identity(prod(left, x0), prod(right, x0)),
        )
    if name == "nulla":
        return Identity(left, prod(var(xs[0]), _left_assoc_term(xs[1:])))
    raise ValueError(f"unknown scheme {name!r}")
