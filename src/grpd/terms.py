"""Groupoid terms, identities, and variety membership predicates.

Terms allow repeated variables (unlike bracketings).  Identity checks
are exhaustive over all assignments; on failure the lexicographically
first failing assignment is reported.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Groupoid
from .errors import GuardError, ParseError
from .nonassoc import defect_slabs

MAX_IDENTITY_VARS = 8
_VECTOR_CHUNK = 1 << 22  # max assignment-space entries vectorized at once

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


def term_to_string(t: Term) -> str:
    if t.is_var:
        return t.name
    return f"({term_to_string(t.left)} {term_to_string(t.right)})"


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").replace("=", " = ").split()


def _parse_term_tokens(tokens: list[str], idx: int) -> tuple[Term, int]:
    if idx >= len(tokens):
        raise ParseError("unexpected end of input", idx)
    tok = tokens[idx]
    if tok == "(":
        lt, idx = _parse_term_tokens(tokens, idx + 1)
        rt, idx = _parse_term_tokens(tokens, idx)
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


def evaluate(t: Term, g: Groupoid, assignment: dict[str, int]) -> int:
    """Evaluate a term by recursive table lookup."""
    return eval_term(t, assignment, g.prod)


def satisfies_identity(g: Groupoid, ident: Identity) -> tuple[bool, dict[str, int] | None]:
    """Exhaustively check an identity over all assignments.

    Returns (True, None), or (False, witness) with the lexicographically
    first failing assignment (variables ordered by first occurrence,
    lhs before rhs).  Vectorized over a suffix of the variables; the
    leading variables are looped so memory stays bounded.
    """
    variables = ident.variables
    v = len(variables)
    if v > MAX_IDENTITY_VARS:
        raise GuardError(f"identity check capped at {MAX_IDENTITY_VARS} variables")
    n = g.n

    # how many trailing variables fit in one vectorized block
    suffix = 0
    while suffix < v and n ** (suffix + 1) <= _VECTOR_CHUNK:
        suffix += 1
    prefix_vars = variables[: v - suffix]
    suffix_vars = variables[v - suffix:]
    shape = (n,) * len(suffix_vars)
    suffix_env = {
        name: np.arange(n).reshape((1,) * i + (n,) + (1,) * (len(suffix_vars) - 1 - i))
        for i, name in enumerate(suffix_vars)
    }

    table = g.table

    def product(a, b):
        return table[a, b]

    for prefix in itertools.product(range(n), repeat=len(prefix_vars)):
        env = dict(zip(prefix_vars, prefix))
        env.update(suffix_env)
        lhs = eval_term(ident.lhs, env, product)
        rhs = eval_term(ident.rhs, env, product)
        neq = np.broadcast_to(np.not_equal(lhs, rhs), shape)
        if neq.any():
            flat = int(np.argmax(neq.reshape(-1)))
            witness = dict(zip(prefix_vars, prefix))
            for name in reversed(suffix_vars):
                witness[name] = flat % n
                flat //= n
            return False, {name: witness[name] for name in variables}
    return True, None


# ---------------------------------------------------------------------------
# named identities and variety predicates


@lru_cache(maxsize=None)
def _ident(text: str) -> Identity:
    return parse_identity(text)


ASSOCIATIVITY = "((x y) z) = (x (y z))"
_IDEMPOTENCE = "(x x) = x"
_XY_Y = "((x y) y) = (x y)"
_X_YZ = "(x (y z)) = (x y)"
_D = ("(x (y x)) = (x y)", "((x y) x) = (x y)", _XY_Y, "((x y) (y x)) = (x y)")

# Each named check as the identities that define it (``in_D`` adds
# ``CHECK_SCHEMES``); the predicates below and ``search`` both read it.
CHECK_IDENTITIES = {
    "is_semigroup": (ASSOCIATIVITY,),
    "is_left_zero": ("(x y) = x",),
    "is_right_zero": ("(x y) = y",),
    "is_rect_band": (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = x"),
    "is_left_regular_band": (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = (x y)"),
    "is_right_regular_band": (ASSOCIATIVITY, _IDEMPOTENCE, "((x y) x) = (y x)"),
    "in_B": (_IDEMPOTENCE, "(x (x y)) = (x y)") + _D,
    "in_A": ("(x (y (z u))) = (x ((y z) u))",),
    "in_D": _D,
    "in_D_cap_A": (_IDEMPOTENCE, _X_YZ, _XY_Y),
}


def _holds_all(g: Groupoid, texts) -> bool:
    """Every identity holds; associativity is decided by ``is_semigroup``."""
    return all(is_semigroup(g) if t == ASSOCIATIVITY else satisfies_identity(g, _ident(t))[0]
               for t in texts)


def is_semigroup(g: Groupoid) -> bool:
    """Associativity: no nonassociative triple in the whole table."""
    return not any(mask.any() for _, mask in defect_slabs(g))


def is_left_zero(g: Groupoid) -> bool:
    return _holds_all(g, CHECK_IDENTITIES["is_left_zero"])


def is_right_zero(g: Groupoid) -> bool:
    return _holds_all(g, CHECK_IDENTITIES["is_right_zero"])


def is_rect_band(g: Groupoid) -> bool:
    """Idempotent semigroup with xyx = x."""
    return _holds_all(g, CHECK_IDENTITIES["is_rect_band"])


def is_left_regular_band(g: Groupoid) -> bool:
    """Idempotent semigroup with xyx = xy."""
    return _holds_all(g, CHECK_IDENTITIES["is_left_regular_band"])


def is_right_regular_band(g: Groupoid) -> bool:
    """Idempotent semigroup with xyx = yx."""
    return _holds_all(g, CHECK_IDENTITIES["is_right_regular_band"])


def in_B(g: Groupoid) -> bool:
    """Membership in the variety defined by xx=x and
    x(xy)=x(yx)=(xy)x=(xy)y=(xy)(yx)=xy."""
    return _holds_all(g, CHECK_IDENTITIES["in_B"])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


def _left_power(base: Term, factor: Term, k: int) -> Term:
    """Left-associated product base*factor*...*factor with k factors."""
    t = base
    for _ in range(k):
        t = prod(t, factor)
    return t


def in_Cp(g: Groupoid, p: int) -> bool:
    """Membership in the p-cyclic groupoid variety:
    xx=x, x(yz)=xy, (xy)z=(xz)y, x y^p=x (p prime)."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    power = Identity(_left_power(var("x"), var("y"), p), var("x"))
    return (
        _holds_all(g, (_IDEMPOTENCE, _X_YZ, "((x y) z) = ((x z) y)"))
        and satisfies_identity(g, power)[0]
    )


def in_A(g: Groupoid) -> bool:
    """Membership in the variety defined by x(y(zu)) = x((yz)u)."""
    return _holds_all(g, CHECK_IDENTITIES["in_A"])


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


def in_D(g: Groupoid) -> bool:
    """Membership in the variety defined by
    x(yx)=(xy)x=(xy)y=(xy)(yx)=xy plus the absorption scheme
    x * (left-assoc x*y1*...*yk) = x."""
    return _holds_all(g, CHECK_IDENTITIES["in_D"]) and satisfies_D_scheme(g)


def in_D_cap_A(g: Groupoid) -> bool:
    """The finitely based intersection: xx=x, x(yz)=xy, (xy)y=xy."""
    return _holds_all(g, CHECK_IDENTITIES["in_D_cap_A"])


# The one check that identities alone do not define.
CHECK_SCHEMES = {"in_D": satisfies_D_scheme}


# ---------------------------------------------------------------------------
# identity schemes over x1..xn


def _left_assoc_term(names) -> Term:
    t = var(names[0])
    for name in names[1:]:
        t = prod(t, var(name))
    return t


def _right_assoc_term(names) -> Term:
    t = var(names[-1])
    for name in reversed(names[:-1]):
        t = prod(var(name), t)
    return t


def scheme_identity(name: str, n: int):
    """Construct a named identity scheme instance over x1..xn.

    ``left_eq_right``: left-assoc = right-assoc.
    ``prefixed_pair``: the pair x0*(left)=x0*(right) and (left)*x0=(right)*x0.
    ``nulla``: left-assoc(x1..xn) = x1*(left-assoc(x2..xn)).
    Returns an Identity, or a pair of them for prefixed_pair.
    """
    if n < 3:
        raise ValueError("scheme identities need n >= 3")
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


def is_absorption(ident: Identity) -> bool:
    """True iff at least one side is a bare variable (t = x form)."""
    return ident.lhs.is_var or ident.rhs.is_var
