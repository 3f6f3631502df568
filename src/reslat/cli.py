"""Command-line interface: every computation as a subcommand.

Outputs print element tokens, never indices; ``--json`` switches to a
stable JSON layout ({lattice, command, result, witnesses}) in which sets
are token arrays ordered like the lattice file.  Exit codes: 0 success,
1 validation failure, 2 property/certificate violation, 3 parse or usage
error.

Each subcommand loads only the layers it uses: the module imports only
``reslat.core``, and each handler imports the rest of the library it calls.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (LatticeError, ParseError, ResiduatedLattice, SizeLimit,
                   ValidationFailure, direct_product, iter_bits, load_lattice)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit(lattice, command, result, witnesses=()):
    """Print the JSON document every ``--json`` output shares."""
    import json     # here, so that a call without --json does not load it

    doc = {"lattice": lattice, "command": command, "result": result,
           "witnesses": list(witnesses)}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _load(path) -> ResiduatedLattice:
    try:
        return load_lattice(path)
    except FileNotFoundError:
        raise _CliError(EXIT_USAGE, f"no such file: {path}")
    except (ParseError, SizeLimit) as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    except ValidationFailure as exc:
        raise _CliError(EXIT_INVALID, str(exc.report))


def _readings(names, text) -> list[tuple]:
    """The ways, up to two, to read whitespace-separated words as element
    tokens.  A word is a comma-separated run of tokens, and a token may hold
    commas itself, so each word is split into runs of its comma pieces that
    name tokens; an empty piece is a spare comma."""
    out = [()]
    for word in text.split():
        pieces = word.split(",")
        ways = {len(pieces): [()]}           # ways[i]: readings of pieces[i:]
        for i in range(len(pieces) - 1, -1, -1):
            found = [(tok,) + rest for j in range(i + 1, len(pieces) + 1)
                     if (tok := ",".join(pieces[i:j])) in names
                     for rest in ways[j]]
            found += ways[i + 1] if not pieces[i] else []
            ways[i] = list(dict.fromkeys(found))[:2]
        out = [r + w for r in out for w in ways[0]][:2]
    return out


def _filter_arg(lat, text) -> int:
    """Parse ``--filter``: the set form ``{a,b}`` that reslat prints, or
    whitespace-separated words, each one element token or a comma-separated
    list of them.  Text that reads as two different sets is refused."""
    from . import filters as _filters
    text, names = text.strip(), set(lat.names)
    found = _readings(names, text)
    if text[:1] == "{" and text[-1:] == "}":
        found += _readings(names, text[1:-1])
    masks = {lat.mask_of(r): list(r) for r in found}
    if len(masks) != 1:
        why = "reads as two sets, {} and {}".format(*masks.values()) \
            if masks else "names an unknown element"
        raise _CliError(EXIT_USAGE, f"{lat.name}: {text!r} {why}")
    (mask,) = masks
    if not _filters.is_filter(lat, mask):
        raise _CliError(EXIT_USAGE,
                        f"{lat.set_str(mask)} is not a filter of {lat.name}")
    return mask


def _tok_sets(lat, masks):
    return [lat.tokens_of(m) for m in masks]


def _print_sets(lat, masks, header=None):
    if header:
        print(header)
    for m in masks:
        print(" ", lat.set_str(m))


def to_rlat_text(lat: ResiduatedLattice) -> str:
    """Serialize a lattice back into the line-oriented file format."""
    lines = [f"lattice {lat.name}",
             "elements " + " ".join(lat.names),
             f"bottom {lat.names[lat.bottom]}",
             f"top {lat.names[lat.top]}"]
    for x, y in lat.cover_pairs():
        lines.append(f"cover {lat.names[x]} {lat.names[y]}")
    for x in range(lat.n):
        for y in range(x, lat.n):
            if lat.bottom in (x, y) or lat.top in (x, y):
                continue
            lines.append(f"mul {lat.names[x]} {lat.names[y]} "
                         f"{lat.names[lat.prod[x][y]]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args):
    try:
        lat = _load(args.path)
    except _CliError as exc:
        if exc.code == EXIT_INVALID and args.json:
            _emit(str(args.path), "validate", {"valid": False}, [str(exc)])
        else:
            print(exc, file=sys.stderr)
        return exc.code
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lat.hasse_dot())
    if args.json:
        return _emit(lat.name, "validate",
                     {"valid": True, "n": lat.n, "elements": list(lat.names)})
    print(f"{lat.name}: valid residuated lattice with {lat.n} elements")
    return EXIT_OK


def _cmd_filters(args):
    from . import filters as _filters
    lat = _load(args.path)
    fl = _filters.enumerate_filters(lat)
    if args.json:
        return _emit(lat.name, "filters",
                     {"count": len(fl), "filters": _tok_sets(lat, fl.filters)})
    _print_sets(lat, fl.filters, f"{lat.name}: {len(fl)} filters")
    return EXIT_OK


def _cmd_spectrum(args):
    from . import spectra as _spectra
    lat = _load(args.path)
    kind = {"prime": "prime", "maximal": "maximal",
            "minimal": "minimal_prime"}[args.kind]
    pts = _spectra.spectrum(lat, kind)
    if args.json:
        return _emit(lat.name, "spectrum",
                     {"kind": args.kind, "points": _tok_sets(lat, pts)})
    _print_sets(lat, pts, f"{lat.name}: {len(pts)} {args.kind} filters")
    return EXIT_OK


def _cmd_alpha(args):
    from . import filters as _filters
    lat = _load(args.path)
    al = _filters.enumerate_alpha(lat)
    if args.json:
        return _emit(lat.name, "alpha",
                     {"count": len(al), "filters": _tok_sets(lat, al)})
    _print_sets(lat, al, f"{lat.name}: {len(al)} alpha-filters")
    return EXIT_OK


def _cmd_pure(args):
    from . import purity as _purity
    lat = _load(args.path)
    pf = _purity.pure_filters(lat)
    if args.json:
        return _emit(lat.name, "pure",
                     {"count": len(pf), "filters": _tok_sets(lat, pf)})
    _print_sets(lat, pf, f"{lat.name}: {len(pf)} pure filters")
    return EXIT_OK


def _cmd_sigma(args):
    from . import purity as _purity
    lat = _load(args.path)
    f = _filter_arg(lat, args.filter)
    s = _purity.sigma_filter(lat, f)
    if args.json:
        return _emit(lat.name, "sigma",
                     {"filter": lat.tokens_of(f), "sigma": lat.tokens_of(s)})
    print(f"sigma({lat.set_str(f)}) = {lat.set_str(s)}")
    return EXIT_OK


def _cmd_rho(args):
    from . import purity as _purity
    lat = _load(args.path)
    f = _filter_arg(lat, args.filter)
    r = _purity.rho(lat, f)
    if args.json:
        return _emit(lat.name, "rho",
                     {"filter": lat.tokens_of(f), "rho": lat.tokens_of(r)})
    print(f"rho({lat.set_str(f)}) = {lat.set_str(r)}")
    return EXIT_OK


def _cmd_spp(args):
    from . import purity as _purity
    from .topology import separation_report, specialization_dot
    lat = _load(args.path)
    spp = _purity.pure_spectrum(lat)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(specialization_dot(spp.space, f"Spp({lat.name})",
                                        [lat.set_str(p) for p in spp.points]))
    sep = separation_report(spp.space)
    result = {
        "points": _tok_sets(lat, spp.points),
        "purely_maximal": list(spp.purely_maximal),
        "purely_minimal": list(spp.purely_minimal),
        "opens": [[lat.tokens_of(spp.points[i]) for i in iter_bits(o)]
                  for o in spp.space.sorted_opens()],
        "separation": sep,
    }
    if args.json:
        return _emit(lat.name, "spp", result)
    print(f"Spp({lat.name}): {len(spp)} purely-prime filters")
    for p, mx, mn in zip(spp.points, spp.purely_maximal, spp.purely_minimal):
        tags = [t for t, on in (("purely-maximal", mx), ("purely-minimal", mn)) if on]
        print(f"  {lat.set_str(p)}" + (f"  ({', '.join(tags)})" if tags else ""))
    print(f"opens ({len(spp.space.opens)}):")
    for o in spp.space.sorted_opens():
        print("   {" + ", ".join(lat.set_str(spp.points[i])
                                 for i in iter_bits(o)) + "}")
    print("separation:", ", ".join(k for k in ("t0", "t1", "hausdorff",
                                               "sober", "connected") if sep[k]))
    return EXIT_OK


def _cmd_dtop(args):
    from . import purity as _purity
    from . import spectra as _spectra
    lat = _load(args.path)
    space = _purity.d_topology(lat)
    spec = _spectra.prime_filters(lat)
    opens = [[lat.tokens_of(spec[i]) for i in iter_bits(o)]
             for o in space.sorted_opens()]
    if args.json:
        return _emit(lat.name, "dtop", {"opens": opens})
    print(f"D-topology on Spec({lat.name}): {len(space.opens)} opens")
    for o in space.sorted_opens():
        print("   {" + ", ".join(lat.set_str(spec[i]) for i in iter_bits(o)) + "}")
    return EXIT_OK


def _cmd_classify(args):
    from . import classify as _classify
    lat = _load(args.path)
    rep = _classify.classify(lat)
    flags = {name: {"value": flag.value, "witness": flag.witness}
             for name, flag in rep.flags().items()}
    result = {
        "flags": flags,
        "boolean_center": lat.tokens_of(rep.boolean_center),
        "direct_summands": _tok_sets(lat, rep.direct_summands),
    }
    witnesses = [{"flag": name, **flag.witness}
                 for name, flag in rep.flags().items() if not flag.value]
    if args.json:
        return _emit(lat.name, "classify", result, witnesses)
    print(f"{lat.name}:")
    for name, flag in rep.flags().items():
        print(f"  {name}: {flag.value}  [{flag.witness}]")
    print(f"  boolean center: {lat.set_str(rep.boolean_center)}")
    print("  direct summands:",
          ", ".join(lat.set_str(f) for f in rep.direct_summands))
    return EXIT_OK


def _structure_cmd(args, which):
    from . import classify as _classify
    lat = _load(args.path)
    fn = _classify.gelfand_structure if which == "gelfand" else _classify.mp_structure
    try:
        rep = fn(lat)
    except _classify.NotApplicable as exc:
        if args.json:
            _emit(lat.name, which, {"qualifies": False}, [str(exc)])
        else:
            print(exc, file=sys.stderr)
        return EXIT_VIOLATION
    except _classify.CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.json:
        return _emit(lat.name, which,
                     {"qualifies": True,
                      "clauses": [{"id": cid, "note": note}
                                  for cid, note in rep["clauses"]]})
    print(f"{lat.name}: {which} certificate")
    for cid, note in rep["clauses"]:
        print(f"  [ok] {cid}" + (f"  ({note})" if note else ""))
    return EXIT_OK


def _cmd_quotient(args):
    from . import filters as _filters
    lat = _load(args.path)
    f = _filter_arg(lat, args.filter)
    qr = _filters.quotient(lat, f)
    q = qr.quotient
    result = {
        "filter": lat.tokens_of(f),
        "degenerate": qr.degenerate,
        "classes": _tok_sets(lat, qr.classes),
        "quotient_elements": list(q.names),
    }
    if args.json:
        return _emit(lat.name, "quotient", result)
    print(f"{lat.name}/{lat.set_str(f)}: {q.n} classes"
          + (" (degenerate)" if qr.degenerate else ""))
    for c in qr.classes:
        print(f"  {lat.set_str(c)}")
    return EXIT_OK


def _cmd_gen(args):
    if args.product:
        if args.family is not None or args.size is not None:
            raise _CliError(EXIT_USAGE, "gen takes --family and --size, or "
                                        "--product, not both")
        if len(args.product) < 2:
            raise _CliError(EXIT_USAGE, "gen --product needs at least two "
                                        "lattice files")
        factors = [_load(p) for p in args.product]
        try:
            lat = functools.reduce(direct_product, factors)
        except SizeLimit as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    else:
        if args.family is None or args.size is None:
            raise _CliError(EXIT_USAGE, "gen needs --family and --size, "
                                        "or --product A B [C ...]")
        from . import harness as _harness
        try:
            maker = {"godel": _harness.godel_chain,
                     "lukasiewicz": _harness.lukasiewicz_chain}[args.family]
            lat = maker(args.size)
        except SizeLimit as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    sys.stdout.write(to_rlat_text(lat))
    return EXIT_OK


def _cmd_check(args):
    from . import harness as _harness
    lats = [_load(p) for p in args.paths]
    try:
        rep = _harness.run_theorem_suite(lats, args.suite)
    except _harness.DuplicateInstance as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if args.json:
        _emit([lat.name for lat in lats], "check", rep.as_dict(),
              [{"lattice": i, "property": p, **(v.witness or {})}
               for i, p, v in rep.failures()])
    else:
        for line in rep.text_lines():
            print(line)
    return EXIT_OK if rep.all_pass else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call.  Parsing leaves it unchanged: argparse writes each result
    into a fresh namespace and resolves ``sys.stdout``/``sys.stderr`` when it
    prints, and each handler looks up its library functions when it runs."""
    ap = argparse.ArgumentParser(
        prog="reslat",
        description="workbench for finite residuated lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="stable JSON output")
        return p

    p = add("validate", _cmd_validate, help="check all axioms of a lattice file")
    p.add_argument("path")
    p.add_argument("--dot", metavar="PATH", help="write the Hasse diagram (DOT)")

    p = add("filters", _cmd_filters, help="enumerate all filters")
    p.add_argument("path")

    p = add("spectrum", _cmd_spectrum, help="prime/maximal/minimal-prime spectrum")
    p.add_argument("path")
    p.add_argument("--kind", choices=("prime", "maximal", "minimal"),
                   required=True)

    p = add("alpha", _cmd_alpha, help="enumerate alpha-filters")
    p.add_argument("path")

    p = add("pure", _cmd_pure, help="enumerate pure filters")
    p.add_argument("path")

    filter_help = ("element tokens, separated by spaces or commas, "
                   "optionally in braces as printed: {a,b}")
    p = add("sigma", _cmd_sigma, help="sink of a filter")
    p.add_argument("path")
    p.add_argument("--filter", required=True, metavar="TOKENS",
                   help=filter_help)

    p = add("rho", _cmd_rho, help="pure part of a filter")
    p.add_argument("path")
    p.add_argument("--filter", required=True, metavar="TOKENS",
                   help=filter_help)

    p = add("spp", _cmd_spp, help="pure spectrum with its topology")
    p.add_argument("path")
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization order (DOT)")

    p = add("dtop", _cmd_dtop, help="D-topology on the prime spectrum")
    p.add_argument("path")

    p = add("classify", _cmd_classify,
            help="Gelfand/mp/hyperarchimedean/indecomposable flags")
    p.add_argument("path")

    p = add("gelfand", lambda a: _structure_cmd(a, "gelfand"),
            help="certify the Gelfand structure theorems")
    p.add_argument("path")

    p = add("mp", lambda a: _structure_cmd(a, "mp"),
            help="certify the mp structure theorems")
    p.add_argument("path")

    p = add("quotient", _cmd_quotient, help="quotient by a filter")
    p.add_argument("path")
    p.add_argument("--filter", required=True, metavar="TOKENS",
                   help=filter_help)

    p = add("gen", _cmd_gen, help="emit a generated instance as a lattice file")
    p.add_argument("--family", choices=("godel", "lukasiewicz"))
    p.add_argument("--size", type=int)
    p.add_argument("--product", nargs="+", metavar="FILE",
                   help="two or more lattice files to multiply, left to right")

    p = add("check", _cmd_check, help="run the theorem suite")
    p.add_argument("paths", nargs="+")
    p.add_argument("--suite", default="all",
                   choices=("core", "purity", "spp", "gelfand", "mp", "all"))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ValidationFailure as exc:
        print(exc.report, file=sys.stderr)
        return EXIT_INVALID
    except LatticeError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
