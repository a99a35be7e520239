"""Acceptance suite: one test per criterion, one printed line each.

Every expected value here is exact (the reference facts are all
discrete); no tolerances are involved.  Slow pieces (the 4^12 table
scan) run inside their criterion rather than being deferred.
"""

from grpd.bracketings import catalan, enumerate_bracketings
from grpd.catalog import build_ak
from grpd.claims import run_claims
from grpd.clone import (
    binary_clone_part,
    binary_minimality_proxy,
    binary_term_table,
    f2_table,
    find_relational_witness,
    generates_basic,
)
from grpd.core import (
    Groupoid,
    Partition,
    dual,
    find_isomorphism,
    is_congruence,
    quotient,
)
from grpd.nonassoc import check_sh_factor_property, ns_index
from grpd.search import search_tables
from grpd.spectrum import nulla_satisfied, spectrum, spectrum_ak_oracle
from grpd.terms import (
    evaluate,
    in_B,
    is_semigroup,
    parse_identity,
    parse_term,
    satisfies_identity,
    scheme_identity,
)

from brute import cat, idempotent_3_tables
from partitions import all_partitions

SPECTRUM_BUDGET = 2 * 10 ** 8


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_catalan_counts():
    expected = [1, 1, 2, 5, 14, 42, 132, 429]
    got = [len(enumerate_bracketings(n)) for n in range(1, 9)]
    ok = got == expected and got[3] == 5
    report(1, ok, f"bracketing counts n=1..8 = {got}")


def test_criterion_02_spectrum_two_power_law():
    names = ("propD-F2", "f2cp-2", "f2cp-3", "chain-3", "A2")
    want = (1,) + tuple(2 ** (n - 2) for n in range(2, 8))
    results = {}
    ok = True
    for name in names:
        g = cat(name)
        if is_semigroup(g):
            ok = False
            break
        values = spectrum(g, 7, budget=SPECTRUM_BUDGET).values
        results[name] = values
        ok = ok and values == want
    report(2, ok, f"spectra equal 2^(n-2) for n=2..7 on {', '.join(names)}")


def test_criterion_03_g3_maximal_spectrum():
    values = spectrum(cat("G3"), 6).values
    want = tuple(catalan(n) for n in range(1, 7))
    report(3, values == want, f"G3 spectrum {values} equals catalan {want}")


def test_criterion_04_ak_oracle_and_nulla():
    ok = True
    for k in (2, 3, 4):
        g = build_ak(k)
        if spectrum(g, 6).values != tuple(spectrum_ak_oracle(k, 6)):
            ok = False
        for n in range(3, 9):
            if nulla_satisfied(g, n) != ((n - 2) % k == 0):
                ok = False
    report(4, ok, "brute spectrum matches the left-depth oracle (k=2,3,4, n<=6); "
                  "nulla holds iff k | n-2 (n=3..8)")


def test_criterion_05_sh_suite():
    ok = True
    for i in range(1, 11):
        for suffix in ("", "d"):
            g = cat(f"G{i}{suffix}")
            rep = ns_index(g)
            ok = ok and rep.ns_count == 1
            ok = ok and rep.sh_type == "abc"
            ok = ok and rep.minimal_sh is True
            ok = ok and check_sh_factor_property(g)
            ok = ok and in_B(g if suffix == "" else dual(g))
            ok = ok and binary_minimality_proxy(binary_clone_part(g)) is None
    report(5, ok, "G1..G10 and duals: ns=1, type (a,b,c), minimal SH, factor "
                  "property, variety membership, proxy passes")


def _separating_congruences(g, x, y):
    out = []
    for p in all_partitions(g.n):
        if len(p.blocks) in (1, p.n):
            continue
        if p.ids[x] != p.ids[y] and is_congruence(g, p):
            out.append(p)
    return out


def test_criterion_06_quotient_structure():
    g1 = cat("G1")
    cs1 = _separating_congruences(g1, g1.index("f"), g1.index("c"))
    ok = len(cs1) == 1 and cs1[0].blocks == ((0,), (1,), (2,), (3, 4))
    ok = ok and find_isomorphism(quotient(g1, cs1[0]), cat("G2")) is not None

    g4 = cat("G4")
    p45 = Partition([g4.index("e") if name == "f" else i for i, name in enumerate(g4.names)])
    ok = ok and is_congruence(g4, p45)
    ok = ok and find_isomorphism(quotient(g4, p45), cat("G5")) is not None

    g6 = cat("G6")
    cs6 = _separating_congruences(g6, g6.index("f"), g6.index("g"))
    ok = ok and len(cs6) == 4
    matched = set()
    for p in cs6:
        q = quotient(g6, p)
        hits = [t for t in ("G7", "G8", "G9", "G10") if find_isomorphism(q, cat(t)) is not None]
        ok = ok and len(hits) == 1
        matched.update(hits)
    ok = ok and matched == {"G7", "G8", "G9", "G10"}
    report(6, ok, "G1 -> G2 (unique), G4/(e=f) -> G5, G6's four congruences -> G7..G10")


def test_criterion_07_nonminimality_witnesses():
    ok = True
    for name in ("aba-4", "aba-3"):
        g = cat(name)
        ok = ok and binary_minimality_proxy(binary_clone_part(g)) is not None
        suspect = binary_term_table(g, parse_term("(x (y x))"))
        ok = ok and not generates_basic(g, suspect)
        w = find_relational_witness(g, suspect)
        ok = ok and isinstance(w, Partition)
        ok = ok and (g.index("b"), g.index("d")) in w.blocks
    g = cat("aab-eps")
    ok = ok and binary_minimality_proxy(binary_clone_part(g)) is not None
    suspect = binary_term_table(g, parse_term("(x (x y))"))
    w = find_relational_witness(g, suspect)
    ok = ok and isinstance(w, frozenset)
    ok = ok and w == frozenset({g.index("a"), g.index("b"), g.index("e")})
    report(7, ok, "aba tables: proxy fails, x(yx) preserves a partition with block "
                  "{b,d}; aab table: x(xy) preserves the subset {a,b,e}")


def test_criterion_08_disjointness():
    ident = parse_identity("(x (y (z u))) = (x ((y z) u))")
    ok = True
    for i in range(1, 11):
        g = cat(f"G{i}")
        env = dict(zip("xyzu", (g.index(n) for n in ("a", "a", "b", "c"))))
        ok = ok and evaluate(ident.lhs, g, env) != evaluate(ident.rhs, g, env)
        gd = cat(f"G{i}d")
        envd = dict(zip("xyzu", (gd.index(n) for n in ("a", "c", "b", "a"))))
        ok = ok and evaluate(ident.lhs, gd, envd) != evaluate(ident.rhs, gd, envd)
        ok = ok and not satisfies_identity(g, ident)[0]
        ok = ok and not satisfies_identity(gd, ident)[0]
    report(8, ok, "every Gi fails x(y(zu)) = x((yz)u) at (a,a,b,c); every dual at (a,c,b,a)")


def test_criterion_09_exhaustive_theorem_scans():
    ok = True
    count = 0
    for g in idempotent_3_tables():
        count += 1
        if (spectrum(g, 3).values[2] == 1) != is_semigroup(g):
            ok = False
    ok = ok and count == 729

    for n in (3, 4):
        summary = search_tables(3, True, [scheme_identity("left_eq_right", n)])
        ok = ok and summary.violations == 0
    summary = search_tables(3, True, list(scheme_identity("prefixed_pair", 3)))
    ok = ok and summary.violations == 0

    slow = search_tables(4, True, [scheme_identity("left_eq_right", 4)])
    ok = ok and slow.total == 4 ** 12 and slow.violations == 0
    report(9, ok, "729 idempotent size-3 tables: s(3)=1 iff semigroup; left=right "
                  "(n=3,4) and the prefixed pair force associativity; slow size-4 "
                  f"scan: {slow.satisfying} satisfying, 0 violations of 4^12")


def test_criterion_10_clone_fixed_points():
    ok = True
    for name in ("propD-F2", "f2cp-2"):
        g = cat(name)
        ok = ok and find_isomorphism(f2_table(binary_clone_part(g)), g) is not None
    report(10, ok, "f2_table(propD-F2) = propD-F2 and f2_table(f2cp-2) = f2cp-2 up to isomorphism")


def test_criterion_11_mutation_sensitivity():
    g3 = cat("G3")
    ok = True
    for i in range(3):
        for j in range(3):
            table = g3.table.copy()
            table[i, j] = (table[i, j] + 1) % 3
            mutant = Groupoid(g3.names, table)
            results = run_claims(
                fast=True,
                overrides={"G3": mutant, "G3d": dual(mutant)},
                stop_on_fail=True,
            )
            ok = ok and any(r.status == "fail" for r in results)
    report(11, ok, "each of the 9 single-entry G3 mutations makes at least one claim fail")
