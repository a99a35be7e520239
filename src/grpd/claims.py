"""The claim ledger behind ``grpd verify-paper``.

Each claim re-derives one reference fact about the catalog from
scratch (spectra, quotient structure, witness relations, exhaustive
scans) and reports pass/fail with a concrete detail string.  Claims
never assume the catalog tables are correct: a corrupted table makes
claims fail rather than silently propagating.

``overrides`` substitutes groupoids by catalog name, which is how the
mutation-sensitivity test injects corrupted tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bracketings import catalan, enumerate_bracketings
from .catalog import build_ak, catalog_get, catalog_list
from .clone import (
    binary_minimality_proxy,
    binary_term_table,
    f2_table,
    find_relational_witness,
    generates_basic,
    is_trivial_clone,
)
from .core import (
    Groupoid,
    Partition,
    dual,
    enumerate_partitions,
    find_isomorphism,
    is_congruence,
    is_idempotent,
    parse_groupoid,
    quotient,
    write_groupoid,
)
from .nonassoc import check_sh_factor_property, ns_index
from .search import all_tables, search_tables
from .spectrum import nulla_satisfied, spectrum, spectrum_ak_oracle
from .terms import (
    CHECK_IDENTITIES,
    evaluate,
    in_A,
    in_B,
    in_Cp,
    in_D,
    in_D_cap_A,
    is_left_zero,
    is_rect_band,
    is_right_zero,
    is_semigroup,
    parse_identity,
    parse_term,
    satisfies_D_scheme,
    satisfies_identity,
    scheme_identity,
    term_to_string,
)

SPECTRUM_CLAIM_BUDGET = 2 * 10 ** 8  # criterion-sized; the CLI default stays 1e8

B1_EQ_B2 = CHECK_IDENTITIES["in_A"][0]


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    status: str  # pass | fail | skipped
    detail: str = ""


@dataclass(frozen=True)
class _Claim:
    claim_id: str
    description: str
    fn: Callable
    slow: bool = False


class _Catalog:
    """Catalog accessor with optional per-name groupoid overrides."""

    def __init__(self, overrides=None):
        self.overrides = dict(overrides or {})

    def __call__(self, name: str) -> Groupoid:
        if name in self.overrides:
            return self.overrides[name]
        return catalog_get(name).groupoid


# ---------------------------------------------------------------------------
# claim bodies: return (ok, detail)


def _claim_catalog_roundtrip(get):
    for name in catalog_list():
        g = get(name)
        back = parse_groupoid(write_groupoid(g))
        if back != g:
            return False, f"{name} does not round-trip through the .gpd writer"
    return True, f"{len(catalog_list())} entries round-trip bit-exactly"


_TAG_CHECKS = {
    "idempotent": is_idempotent,
    "semigroup": is_semigroup,
    "notSemigroup": lambda g: not is_semigroup(g),
    "inB": in_B,
    "inBd": lambda g: in_B(dual(g)),
    "inA": in_A,
    "inD": in_D,
    "inDcapA": in_D_cap_A,
    "rectBand": is_rect_band,
    "minimalSh": lambda g: ns_index(g).minimal_sh is True,
    "shAbc": lambda g: ns_index(g).sh_type == "abc",
    "shAba": lambda g: ns_index(g).sh_type == "aba",
    "shAab": lambda g: ns_index(g).sh_type == "aab",
    "cloneNotMinimal": lambda g: not binary_minimality_proxy(g).passes,
    "spectrum2pow": lambda g: spectrum(g, 5).values == (1, 1, 2, 4, 8),
}


def _check_tag(g: Groupoid, tag: str) -> bool:
    if tag.startswith("inCp:"):
        return in_Cp(g, int(tag.split(":", 1)[1]))
    return _TAG_CHECKS[tag](g)


def _claim_catalog_tags(get):
    bad = []
    for name in catalog_list():
        entry = catalog_get(name)
        g = get(name)
        for tag in sorted(entry.tags):
            if not _check_tag(g, tag):
                bad.append(f"{name}:{tag}")
    if bad:
        return False, "tag mismatches: " + ", ".join(bad)
    return True, "all catalog tags recomputed and confirmed"


def _claim_catalan_counts(get):
    expected = (1, 1, 2, 5, 14, 42, 132, 429)
    got = tuple(len(enumerate_bracketings(n)) for n in range(1, 9))
    formulas = tuple(catalan(n) for n in range(1, 9))
    if got != expected or formulas != expected:
        return False, f"expected {expected}, enumerated {got}, formula {formulas}"
    return True, f"bracketing counts for n=1..8: {got}"


def _claim_size4_bracketings(get):
    want = {
        "(x1 (x2 (x3 x4)))",
        "(x1 ((x2 x3) x4))",
        "((x1 x2) (x3 x4))",
        "(((x1 x2) x3) x4)",
        "((x1 (x2 x3)) x4)",
    }
    got = {term_to_string(b) for b in enumerate_bracketings(4)}
    if got != want:
        return False, f"size-4 bracketings differ: {sorted(got)}"
    return True, "the five size-4 bracketings enumerate exactly"


def _spectrum_2pow(get, name):
    def fn(get):
        g = get(name)
        if is_semigroup(g):
            return False, f"{name} unexpectedly associative"
        rep = spectrum(g, 7, budget=SPECTRUM_CLAIM_BUDGET)
        want = (1,) + tuple(2 ** (n - 2) for n in range(2, 8))
        if rep.values != want:
            return False, f"{name} spectrum {rep.values} != {want}"
        return True, f"{name} spectrum {rep.values}"

    return fn


def _claim_g3_spectrum(get):
    g = get("G3")
    rep = spectrum(g, 6)
    want = tuple(catalan(n) for n in range(1, 7))
    if rep.values != want:
        return False, f"G3 spectrum {rep.values} != catalan {want}"
    return True, f"G3 spectrum equals catalan numbers: {rep.values}"


def _ak_oracle(k):
    def fn(get):
        g = get(f"A{k}")
        brute = spectrum(g, 6).values
        oracle = tuple(spectrum_ak_oracle(k, 6))
        if brute != oracle:
            return False, f"A{k} brute {brute} != oracle {oracle}"
        return True, f"A{k} spectrum {brute} matches the left-depth oracle"

    return fn


def _ak_nulla(k):
    def fn(get):
        g = get(f"A{k}")
        for n in range(3, 9):
            want = (n - 2) % k == 0
            got = nulla_satisfied(g, n)
            if got != want:
                return False, f"A{k} nulla(n={n}) = {got}, want {want}"
        return True, f"A{k} satisfies nulla(n) exactly when {k} divides n-2 (n=3..8)"

    return fn


def _sh_suite(name):
    def fn(get):
        g = get(name)
        rep = ns_index(g)
        if rep.ns_count != 1:
            return False, f"{name} has ns={rep.ns_count}, want 1"
        if rep.sh_type != "abc":
            return False, f"{name} has type {rep.sh_type}, want abc"
        if not rep.minimal_sh:
            return False, f"{name} defect triple does not generate the carrier"
        if not check_sh_factor_property(g):
            return False, f"{name} violates the factor property at its defect"
        member = in_B(g) if not name.endswith("d") else in_B(dual(g))
        if not member:
            return False, f"{name} fails its variety membership"
        if not binary_minimality_proxy(g).passes:
            return False, f"{name} binary minimality proxy failed"
        return True, f"{name}: ns=1, type abc, minimal, factor property, membership, proxy"

    return fn


def _separating_congruences(g: Groupoid, x: int, y: int) -> list[Partition]:
    out = []
    for p in enumerate_partitions(g.n):
        if len(p.blocks) == 1 or p.is_all_singletons():
            continue
        ids = p.block_ids()
        if ids[x] == ids[y]:
            continue
        if is_congruence(g, p):
            out.append(p)
    return out


def _claim_quotient_g1(get):
    g1, g2 = get("G1"), get("G2")
    cs = _separating_congruences(g1, g1.index("f"), g1.index("c"))
    if len(cs) != 1:
        return False, f"G1 has {len(cs)} nontrivial congruences separating f and c, want 1"
    p = cs[0]
    want_blocks = ((0,), (1,), (2,), (3, 4))
    if p.blocks != want_blocks:
        return False, f"G1 congruence blocks {p.blocks} != {want_blocks}"
    if find_isomorphism(quotient(g1, p), g2) is None:
        return False, "G1 quotient is not isomorphic to G2"
    return True, "G1 has one separating congruence {a}{b}{c}{e,f}; quotient is G2"


def _claim_quotient_g4(get):
    g4, g5 = get("G4"), get("G5")
    p = Partition(((0,), (1,), (2,), (g4.index("e"), g4.index("f")), (5,)))
    if not is_congruence(g4, p):
        return False, "merging e,f is not a congruence of G4"
    if find_isomorphism(quotient(g4, p), g5) is None:
        return False, "G4/(e=f) is not isomorphic to G5"
    return True, "G4 with e,f merged factors onto G5"


def _claim_quotient_g6(get):
    g6 = get("G6")
    cs = _separating_congruences(g6, g6.index("f"), g6.index("g"))
    if len(cs) != 4:
        return False, f"G6 has {len(cs)} separating congruences, want 4"
    targets = {name: get(name) for name in ("G7", "G8", "G9", "G10")}
    matched = {}
    for p in cs:
        q = quotient(g6, p)
        hits = [name for name, t in targets.items() if find_isomorphism(q, t) is not None]
        if len(hits) != 1:
            return False, f"quotient by {p} matches {hits}"
        matched[hits[0]] = p
    if set(matched) != set(targets):
        return False, f"quotients cover {sorted(matched)} instead of G7..G10"
    return True, "the four separating congruences of G6 factor onto G7, G8, G9, G10"


def _lemma_nonminimal(name, suspect_text, want_kind, want_payload):
    def fn(get):
        g = get(name)
        verdict = binary_minimality_proxy(g)
        if verdict.passes:
            return False, f"{name} proxy unexpectedly passes"
        suspect = binary_term_table(g, parse_term(suspect_text))
        if generates_basic(g, suspect):
            return False, f"{name}: {suspect_text} regenerates the basic operation"
        witness = find_relational_witness(g, suspect)
        if witness is None:
            return False, f"{name}: no relational witness for {suspect_text}"
        if witness.kind != want_kind:
            return False, f"{name}: witness kind {witness.kind}, want {want_kind}"
        if want_kind == "partition":
            want_block = tuple(sorted(g.index(e) for e in want_payload))
            if want_block not in witness.payload.blocks:
                return False, f"{name}: witness {witness.payload} lacks block {want_payload}"
            detail = f"{name}: {suspect_text} preserved partition with block {{{','.join(want_payload)}}}"
        else:
            want_set = frozenset(g.index(e) for e in want_payload)
            if witness.payload != want_set:
                return False, f"{name}: witness subset {witness.payload} != {want_payload}"
            detail = f"{name}: {suspect_text} preserved subset {{{','.join(want_payload)}}}"
        return True, detail + "; basic op does not"

    return fn


def _claim_disjointness(dual_side):
    def fn(get):
        ident = parse_identity(B1_EQ_B2)
        assign_names = ("a", "c", "b", "a") if dual_side else ("a", "a", "b", "c")
        for i in range(1, 11):
            name = f"G{i}d" if dual_side else f"G{i}"
            g = get(name)
            ok, _ = satisfies_identity(g, ident)
            if ok:
                return False, f"{name} unexpectedly satisfies x(y(zu)) = x((yz)u)"
            env = dict(zip("xyzu", (g.index(nm) for nm in assign_names)))
            lhs = evaluate(ident.lhs, g, env)
            rhs = evaluate(ident.rhs, g, env)
            if lhs == rhs:
                return False, f"{name} does not fail at assignment {assign_names}"
        side = "duals" if dual_side else "base members"
        return True, f"all ten {side} fail x(y(zu)) = x((yz)u) at {','.join(assign_names)}"

    return fn


def _clone_fixpoint(name):
    def fn(get):
        g = get(name)
        f2 = f2_table(g)
        if find_isomorphism(f2, g) is None:
            return False, f"f2_table({name}) has {f2.n} ops, not isomorphic to {name}"
        return True, f"f2_table({name}) is isomorphic to {name} ({f2.n} ops)"

    return fn


def _claim_scan_s3_iff_semigroup(get):
    tables = all_tables(3, True)
    for table in tables:
        g = Groupoid(("a", "b", "c"), table)
        s3 = spectrum(g, 3).values[2]
        if (s3 == 1) != is_semigroup(g):
            return False, f"s(3)={s3} but semigroup={is_semigroup(g)} for\n{write_groupoid(g)}"
    return True, f"s(3)=1 iff associative across all {len(tables)} idempotent size-3 tables"


def _scan_claim(size, scheme, n, expect_zero, slow_note=""):
    def fn(get):
        idents = scheme_identity(scheme, n)
        if not isinstance(idents, tuple):
            idents = (idents,)
        summary = search_tables(size, True, list(idents), "is_semigroup")
        if expect_zero:
            if summary.violations != 0:
                return False, (
                    f"{summary.violations} nonassociative tables satisfy {scheme}(n={n}); first:\n"
                    + write_groupoid(summary.first_witness)
                )
            return True, (
                f"all {summary.satisfying} idempotent size-{size} tables satisfying "
                f"{scheme}(n={n}) are semigroups (of {summary.total}){slow_note}"
            )
        if summary.violations == 0:
            return False, f"expected nonassociative tables satisfying {scheme}(n={n}), found none"
        return True, (
            f"{scheme}(n={n}) admits {summary.violations} nonassociative idempotent "
            f"size-{size} tables (idempotence plus the identity do not force associativity)"
        )

    return fn


def _claim_chain_properties(get):
    c3, c2 = get("chain-3"), get("chain-2")
    i1, i2, i3 = c3.index("1"), c3.index("2"), c3.index("3")
    left = c3.prod(c3.prod(i1, i2), i3)
    right = c3.prod(i1, c3.prod(i2, i3))
    if c3.names[left] != "1<2<3" or c3.names[right] != "1<3":
        return False, f"chain defect is {c3.names[left]} vs {c3.names[right]}"
    if not (in_B(c3) and in_A(c3)) or is_semigroup(c3):
        return False, "chain-3 membership/associativity unexpected"
    if not is_semigroup(c2):
        return False, "chain-2 should be associative"
    return True, "chain-3: (1*2)*3 = 1<2<3 != 1<3 = 1*(2*3); in both varieties; chain-2 associative"


def _claim_ak_idempotent(get):
    for k in range(2, 9):
        g = build_ak(k)
        if not is_idempotent(g):
            return False, f"A{k} is not idempotent"
    return True, "A_k is idempotent for k=2..8"


def _claim_ak_defect(get):
    g = build_ak(3)
    zero, e = g.index("0"), g.index("e")
    left = g.prod(g.prod(zero, e), e)
    right = g.prod(zero, g.prod(e, e))
    if g.names[left] != "2" or g.names[right] != "1":
        return False, f"(0e)e = {g.names[left]}, 0(ee) = {g.names[right]}"
    return True, "(0e)e = 2 != 1 = 0(ee) in A3"


def _claim_absorption_scheme(get):
    pd, g3 = get("propD-F2"), get("G3")
    if not satisfies_D_scheme(pd) or not in_D(pd):
        return False, "propD-F2 should satisfy the absorption scheme and its variety"
    if satisfies_D_scheme(g3):
        return False, "G3 unexpectedly satisfies the absorption scheme"
    return True, "absorption scheme holds on propD-F2, fails on G3"


def _claim_rectband(get):
    g = get("rectband-F2")
    if not is_rect_band(g):
        return False, "rectband-F2 is not a rectangular band"
    return True, "rectband-F2 is an idempotent semigroup with xyx = x"


def _claim_trivial_clone(get):
    from .clone import binary_clone_part

    for name in catalog_list():
        g = get(name)
        trivial = is_trivial_clone(g)
        if trivial != (is_left_zero(g) or is_right_zero(g)):
            return False, f"{name}: trivial-clone test disagrees with the zero-semigroup law"
        if trivial and len(binary_clone_part(g)) != 2:
            return False, f"{name}: trivial clone but closure has extra ops"
    return True, "trivial clone coincides with left/right zero across the catalog"


def _claim_ns_dual_invariance(get):
    for name in catalog_list():
        g = get(name)
        if ns_index(g).ns_count != ns_index(dual(g)).ns_count:
            return False, f"{name}: ns differs from its dual"
    return True, "ns(g) = ns(dual(g)) across the catalog"


def _claim_s3_semigroup_catalog(get):
    for name in catalog_list():
        g = get(name)
        if g.n > 8:
            continue
        s3 = spectrum(g, 3).values[2]
        if (s3 == 1) != is_semigroup(g):
            return False, f"{name}: s(3)={s3} vs semigroup={is_semigroup(g)}"
    return True, "s(3)=1 iff associative across the catalog"


def _build_claims() -> list[_Claim]:
    claims = [
        _Claim("catalog-roundtrip", "catalog tables round-trip through the .gpd writer", _claim_catalog_roundtrip),
        _Claim("catalog-tags", "catalog tags recompute to the stored values", _claim_catalog_tags),
        _Claim("catalan-counts", "bracketing counts for n=1..8 are the Catalan numbers", _claim_catalan_counts),
        _Claim("size4-bracketings", "the five size-4 bracketings enumerate exactly", _claim_size4_bracketings),
        _Claim("ak-idempotent", "the wraparound groupoids are idempotent", _claim_ak_idempotent),
        _Claim("ak-defect", "A3 has the defect (0e)e = 2 != 1 = 0(ee)", _claim_ak_defect),
        _Claim("chain-properties", "chain-3 defect and memberships; chain-2 associative", _claim_chain_properties),
        _Claim("absorption-scheme", "absorption scheme holds on propD-F2, fails on G3", _claim_absorption_scheme),
        _Claim("rectband-free", "rectband-F2 is the free rectangular band table", _claim_rectband),
        _Claim("trivial-clone-law", "trivial clone iff left/right zero semigroup", _claim_trivial_clone),
        _Claim("ns-dual-invariance", "the nonassociativity index is dual-invariant", _claim_ns_dual_invariance),
        _Claim("s3-iff-semigroup-catalog", "s(3)=1 iff associative on catalog entries", _claim_s3_semigroup_catalog),
        _Claim("G3-spectrum-catalan", "G3 attains the maximal spectrum C(n-1) for n<=6", _claim_g3_spectrum),
    ]
    for name in ("propD-F2", "f2cp-2", "f2cp-3", "chain-3", "A2"):
        claims.append(
            _Claim(f"spectrum-2pow-{name}", f"{name} has spectrum 2^(n-2) for n=2..7", _spectrum_2pow(None, name))
        )
    for k in (2, 3, 4):
        claims.append(_Claim(f"ak-oracle-k{k}", f"A{k} brute-force spectrum matches the left-depth oracle", _ak_oracle(k)))
        claims.append(_Claim(f"ak-nulla-k{k}", f"A{k} satisfies nulla(n) iff {k} divides n-2", _ak_nulla(k)))
    for i in range(1, 11):
        claims.append(_Claim(f"sh-suite-G{i}", f"G{i} passes the full SH suite", _sh_suite(f"G{i}")))
        claims.append(_Claim(f"sh-suite-G{i}d", f"G{i}d passes the full SH suite", _sh_suite(f"G{i}d")))
    claims += [
        _Claim("quotient-G1-G2", "G1 has one separating congruence; quotient is G2", _claim_quotient_g1),
        _Claim("quotient-G4-G5", "G4 with e,f merged factors onto G5", _claim_quotient_g4),
        _Claim("quotient-G6-four", "G6's four separating congruences factor onto G7..G10", _claim_quotient_g6),
        _Claim(
            "lemma-aba4-nonminimal",
            "aba-4: clone not minimal; x(yx) preserves the {b,d} partition",
            _lemma_nonminimal("aba-4", "(x (y x))", "partition", ("b", "d")),
        ),
        _Claim(
            "lemma-aba3-nonminimal",
            "aba-3: clone not minimal; x(yx) preserves the {b,d} partition",
            _lemma_nonminimal("aba-3", "(x (y x))", "partition", ("b", "d")),
        ),
        _Claim(
            "lemma-aab-nonminimal",
            "aab-eps: clone not minimal; x(xy) preserves the subset {a,b,e}",
            _lemma_nonminimal("aab-eps", "(x (x y))", "subset", ("a", "b", "e")),
        ),
        _Claim("disjointness-base", "every Gi fails x(y(zu)) = x((yz)u) at (a,a,b,c)", _claim_disjointness(False)),
        _Claim("disjointness-dual", "every Gi dual fails x(y(zu)) = x((yz)u) at (a,c,b,a)", _claim_disjointness(True)),
        _Claim("clone-fixpoint-propD", "the clone part of propD-F2 reproduces its own table", _clone_fixpoint("propD-F2")),
        _Claim("clone-fixpoint-f2cp2", "the clone part of f2cp-2 reproduces its own table", _clone_fixpoint("f2cp-2")),
        _Claim("scan-s3-iff-semigroup", "s(3)=1 iff associative over all 729 idempotent size-3 tables", _claim_scan_s3_iff_semigroup),
        _Claim("scan-size3-leftright-n3", "left=right (n=3) forces associativity, size-3 idempotent", _scan_claim(3, "left_eq_right", 3, True)),
        _Claim("scan-size3-leftright-n4", "left=right (n=4) forces associativity, size-3 idempotent", _scan_claim(3, "left_eq_right", 4, True)),
        _Claim("scan-size3-prefixed-n3", "the prefixed pair (n=3) forces associativity, size-3 idempotent", _scan_claim(3, "prefixed_pair", 3, True)),
        _Claim("scan-size3-nulla-n4", "nulla (n=4) does not force associativity on idempotent tables", _scan_claim(3, "nulla", 4, False)),
        _Claim(
            "scan-size4-leftright-n4",
            "left=right (n=4) forces associativity over all 4^12 idempotent size-4 tables",
            _scan_claim(4, "left_eq_right", 4, True),
            slow=True,
        ),
    ]
    return claims


CLAIMS = _build_claims()


def run_claims(fast: bool = True, overrides=None, stop_on_fail: bool = False) -> list[ClaimResult]:
    """Run the claim ledger; slow claims are reported as skipped in fast mode."""
    get = _Catalog(overrides)
    results = []
    for claim in CLAIMS:
        if fast and claim.slow:
            results.append(ClaimResult(claim.claim_id, claim.description, "skipped", "slow claim; rerun without fast mode"))
            continue
        try:
            ok, detail = claim.fn(get)
        except Exception as exc:  # a corrupted table may break preconditions
            ok, detail = False, f"error: {exc}"
        results.append(ClaimResult(claim.claim_id, claim.description, "pass" if ok else "fail", detail))
        if stop_on_fail and not ok:
            break
    return results
