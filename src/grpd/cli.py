"""Command-line front end.

Exit codes are stable across commands: 0 success / all-pass, 1 a
checked property failed (a witness accompanies it), 2 usage, parse, or
guard errors.  With --json each command prints a single JSON document
on stdout (schemaVersion 1); diagnostics go to stderr.  Running out of
memory is exit 2 as well.

The argument parser is built once, when this module is imported, and
``main`` parses every call's argv with it, so ``main`` may be called
any number of times in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import catalog_get, catalog_list
from .claims import run_claims
from .clone import (
    CLONE_GUARD,
    binary_clone_part,
    binary_minimality_proxy,
    binary_term_table,
    f2_table,
    find_relational_witness,
    generates_basic,
)
from .core import parse_groupoid, write_groupoid
from .errors import GuardError, ParseError
from .nonassoc import ns_index
from .search import CHECKS, search_tables
from .spectrum import DEFAULT_BUDGET, spectrum
from .terms import CP, parse_identity, parse_term, predicate, predicates, satisfies_identity, scheme_identity

SCHEMA_VERSION = 1


def _load(path: str):
    return parse_groupoid(Path(path).read_text(encoding="utf-8-sig"))  # a leading byte-order mark is no part of a name


def _emit(args, payload: dict, text_lines):
    if args.json:
        payload = {"schemaVersion": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_spectrum(args) -> int:
    g = _load(args.file)
    rep = spectrum(g, args.max_n, budget=args.budget)
    lines = [f"spectrum: {' '.join(map(str, rep.values))}"]
    if len(rep.values) < args.max_n:
        lines.append(f"(budget stopped the computation after n={len(rep.values)})")
    payload = {"values": list(rep.values)}
    if args.classes:
        payload["classes"] = [[list(c) for c in level] for level in rep.classes]
        for n, level in enumerate(rep.classes, start=1):
            lines.append(f"n={n}: " + " | ".join(",".join(map(str, c)) for c in level))
    _emit(args, payload, lines)
    return 0


def cmd_ns(args) -> int:
    g = _load(args.file)
    rep = ns_index(g)
    lines = [f"ns = {rep.ns_count}"]
    payload = {
        "nsCount": rep.ns_count,
        "shType": rep.sh_type,
        "minimalSh": rep.minimal_sh,
    }
    if args.triples:
        named = [[g.names[i] for i in t] for t in rep.triples]
        payload["triples"] = named
        lines += ["(" + ",".join(t) + ")" for t in named]
    _emit(args, payload, lines)
    return 0


def cmd_sh_type(args) -> int:
    g = _load(args.file)
    rep = ns_index(g)
    if rep.ns_count != 1:
        _emit(args, {"nsCount": rep.ns_count, "shType": None},
              [f"not an SH-groupoid (ns = {rep.ns_count})"])
        return 1
    triple = ",".join(g.names[i] for i in rep.triples[0])
    _emit(
        args,
        {"nsCount": 1, "shType": rep.sh_type, "triple": triple, "minimalSh": rep.minimal_sh},
        [f"type ({rep.sh_type[0]},{rep.sh_type[1]},{rep.sh_type[2]}) at ({triple});"
         f" minimal SH: {rep.minimal_sh}"],
    )
    return 0


def cmd_clone(args) -> int:
    g = _load(args.file)
    try:
        part = binary_clone_part(g)
        payload: dict = {"size": len(part), "ops": list(part.names), "basicIndex": part.basic_index}
        lines = [f"binary clone part: {len(part)} ops", "  " + "  ".join(part.names)]
    except GuardError:
        # the witness search needs no closure; --f2 and --proxy do
        if not args.witness or args.f2 or args.proxy:
            raise
        payload = {"size": None, "ops": None, "basicIndex": None}
        lines = [f"binary clone part: over the {CLONE_GUARD}-operation guard"]
    exit_code = 0
    if args.f2:
        payload["f2"] = write_groupoid(f2_table(part))
        lines += ["f2 table:", payload["f2"].rstrip()]
    if args.proxy:
        term = binary_minimality_proxy(part)
        payload["proxy"] = {"passes": term is None, "witness": term}
        if term is None:
            lines.append("minimality proxy: passes (consistent with a minimal clone)")
        else:
            lines.append(f"minimality proxy: FAILS with witness {term} (clone is not minimal)")
            exit_code = 1
    if args.witness:
        suspect = binary_term_table(g, parse_term(args.witness))
        witness = find_relational_witness(g, suspect)
        if witness is None:
            generated = generates_basic(g, suspect)
            payload.update(witness=None, generatesBasic=generated)
            lines.append(f"no relation separates {args.witness} from the basic operation" if generated
                         else f"no subset or partition separates {args.witness} from the basic operation,"
                              f" but the product is not in the clone {args.witness} generates")
            exit_code = max(exit_code, 1)
        else:
            if isinstance(witness, frozenset):
                desc = "{" + ",".join(g.names[i] for i in sorted(witness)) + "}"
                payload["witness"] = {"kind": "subset", "elements": sorted(g.names[i] for i in witness)}
            else:
                blocks = [[g.names[i] for i in b] for b in witness.blocks]
                desc = " | ".join("{" + ",".join(b) + "}" for b in blocks)
                payload["witness"] = {"kind": "partition", "blocks": blocks}
            lines.append(f"{payload['witness']['kind']} preserved by {args.witness} but not by the product: {desc}")
    _emit(args, payload, lines)
    return exit_code


_VARIETIES = predicates("name")
_CP_FORM = f"{CP.name}:<prime>"


def cmd_variety(args) -> int:
    g = _load(args.file)
    name = args.variety
    try:
        holds = predicate(_VARIETIES, name, "name")
    except KeyError:
        options = sorted(_VARIETIES) + [_CP_FORM]
        raise ValueError(f"unknown variety {name!r}; choose from {', '.join(options)}") from None
    member = holds(g)
    _emit(args, {"variety": name, "member": member},
          [f"{'member of' if member else 'NOT a member of'} {name}"])
    return 0 if member else 1


def cmd_check(args) -> int:
    g = _load(args.file)
    ident = parse_identity(args.identity)
    ok, witness = satisfies_identity(g, ident)
    if ok:
        _emit(args, {"holds": True, "witness": None}, ["holds"])
        return 0
    named = {v: g.names[i] for v, i in witness.items()}
    _emit(args, {"holds": False, "witness": named},
          ["fails at " + " ".join(f"{v}={e}" for v, e in named.items())])
    return 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(args, {"entries": catalog_list()}, catalog_list())
        return 0
    if args.action == "show":
        if not args.name:
            raise ValueError("catalog show needs NAME")
        entry = catalog_get(args.name)
        text = write_groupoid(entry.groupoid)
        _emit(args, {"name": entry.name, "gpd": text, "tags": sorted(entry.tags),
                     "provenance": entry.provenance},
              [text.rstrip()])
        return 0
    if args.action == "export":
        if not args.name:
            raise ValueError("catalog export needs DIR")
        outdir = Path(args.name)
        outdir.mkdir(parents=True, exist_ok=True)
        for name in catalog_list():
            (outdir / f"{name}.gpd").write_text(write_groupoid(catalog_get(name).groupoid), encoding="utf-8")
        _emit(args, {"exported": catalog_list(), "dir": str(outdir)},
              [f"wrote {len(catalog_list())} .gpd files to {outdir}"])
        return 0
    raise ValueError(f"unknown catalog action {args.action!r}")


def _parse_scheme(spec: str):
    try:
        name, n = spec.split(":", 1)
        idents = scheme_identity(name, int(n))
    except ValueError as exc:
        raise ValueError(f"bad scheme {spec!r}; use e.g. left_eq_right:4, prefixed_pair:3, nulla:4") from exc
    return idents if isinstance(idents, tuple) else (idents,)


def cmd_search(args) -> int:
    identities = []
    for spec in args.satisfy or ():
        identities.extend(_parse_scheme(spec))
    summary = search_tables(args.size, args.idempotent, identities, args.check)
    payload = {
        "size": summary.size,
        "idempotentOnly": summary.idempotent_only,
        "total": summary.total,
        "satisfying": summary.satisfying,
        "violations": summary.violations,
        "firstWitnessIndex": summary.first_witness_index,
        "firstWitness": write_groupoid(summary.first_witness) if summary.first_witness else None,
    }
    lines = [
        f"scanned {summary.total} tables (size {summary.size}"
        f"{', idempotent' if summary.idempotent_only else ''})",
        f"satisfying the identities: {summary.satisfying}",
        f"violating {args.check}: {summary.violations}",
    ]
    if summary.first_witness is not None:
        lines.append(f"first witness (table #{summary.first_witness_index}):")
        lines.append(write_groupoid(summary.first_witness).rstrip())
    _emit(args, payload, lines)
    return 1 if summary.violations else 0


def cmd_verify_paper(args) -> int:
    results = run_claims(fast=not args.slow)
    lines = []
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
        lines.append(f"[{tag}] {r.claim_id}: {r.detail or r.description}")
    counts = {s: sum(1 for r in results if r.status == s) for s in ("pass", "fail", "skipped")}
    lines.append(f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped")
    payload = {
        "claims": [
            {"claimId": r.claim_id, "description": r.description, "status": r.status, "detail": r.detail}
            for r in results
        ],
        "summary": counts,
    }
    _emit(args, payload, lines)
    return 1 if counts["fail"] else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpd",
        description="Analyze finite groupoids: spectra, nonassociativity, clone structure.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a single JSON document on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="associative spectrum of a .gpd table")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="per-size evaluation budget (catalan(n)*|A|^n entries)")
    p.add_argument("--classes", action="store_true", help="also report equal-function classes")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ns", parents=[common], help="index of nonassociativity")
    p.add_argument("file")
    p.add_argument("--triples", action="store_true", help="list the defect triples (capped)")
    p.set_defaults(func=cmd_ns)

    p = sub.add_parser("sh-type", parents=[common], help="type of the unique nonassociative triple")
    p.add_argument("file")
    p.set_defaults(func=cmd_sh_type)

    p = sub.add_parser("clone", parents=[common], help="binary part of the clone")
    p.add_argument("file")
    p.add_argument("--f2", action="store_true", help="print the clone part as a multiplication table")
    p.add_argument("--proxy", action="store_true", help="run the binary minimality proxy")
    p.add_argument("--witness", metavar="TERM",
                   help="find a relation separating TERM (over x,y) from the product")
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("variety", parents=[common], help="variety membership check")
    p.add_argument("file")
    p.add_argument("variety", help=", ".join([*_VARIETIES, _CP_FORM]))
    p.set_defaults(func=cmd_variety)

    p = sub.add_parser("check", parents=[common], help="check one identity exhaustively")
    p.add_argument("file")
    p.add_argument("identity", help="e.g. \"((x y) z) = (x (y z))\"")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("catalog", parents=[common], help="built-in reference tables")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?", help="entry name for show, directory for export")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", parents=[common], help="exhaustive scan over small tables")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--idempotent", action="store_true")
    p.add_argument("--satisfy", action="append", metavar="SCHEME:N",
                   help="filter identity, e.g. left_eq_right:4 (repeatable)")
    p.add_argument("--check", default="is_semigroup", choices=sorted(CHECKS))
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run the reference claim ledger over the catalog")
    p.add_argument("--slow", action="store_true", help="include the size-4 exhaustive scan")
    p.set_defaults(func=cmd_verify_paper)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GuardError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
