"""Command-line interface: every computation as a subcommand.

Outputs print element tokens, never indices; ``--json`` switches to a
stable JSON layout ({lattice, command, result, witnesses}) in which sets
are token arrays ordered like the lattice file.  ``main`` maps each error
a handler raises to its exit code: 0 success, 1 validation failure,
2 property/certificate violation, 3 parse or usage error or an unreadable
file.

Each subcommand loads only the layers it uses: the module imports only
``reslat.core``, and each handler imports the rest of the library it calls
when it runs.  Handlers call library functions through their modules, where
the benchmark tracer wraps them.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

from .core import (LatticeError, ParseError, SizeLimit, ValidationFailure,
                   direct_product, iter_bits, load_lattice, to_rlat_text)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3

# The library call of each command that shares its handler with others:
# (layer, function, the noun a listing's header counts).
_CALLS = {
    "filters": ("filters", "enumerate_filters", "filters"),
    "spectrum": ("spectra", "spectrum", "{kind} filters"),
    "alpha": ("filters", "enumerate_alpha", "alpha-filters"),
    "pure": ("purity", "pure_filters", "pure filters"),
    "sigma": ("purity", "sigma_filter", None),
    "rho": ("purity", "rho", None),
    "gelfand": ("classify", "gelfand_structure", None),
    "mp": ("classify", "mp_structure", None),
}
_SPECTRUM_KINDS = {"prime": "prime", "maximal": "maximal",
                   "minimal": "minimal_prime"}


class _UsageError(Exception):
    """A command line that parses but cannot run; ``main`` exits 3."""


class _FamilyNames:
    """``gen --family``'s choices, the rows of ``reslat.families.FAMILIES``
    in their order, read only when argparse shows or checks them."""

    def __iter__(self):
        return iter(importlib.import_module(".families", __package__).FAMILIES)


def _call(args):
    """The library function behind ``args.command``, looked up in its layer
    when the handler runs."""
    layer, name, _ = _CALLS[args.command]
    return getattr(importlib.import_module(f".{layer}", __package__), name)


def _emit(lattice, command, result, witnesses=()):
    """Print the JSON document every ``--json`` output shares."""
    import json     # here, so that a call without --json does not load it

    doc = {"lattice": lattice, "command": command, "result": result,
           "witnesses": list(witnesses)}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


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
        raise _UsageError(f"{lat.name}: {text!r} {why}")
    (mask,) = masks
    if not _filters.is_filter(lat, mask):
        raise _UsageError(f"{lat.set_str(mask)} is not a filter of {lat.name}")
    return mask


def _tok_sets(lat, masks):
    return [lat.tokens_of(m) for m in masks]


def _open_sets(space, points, show):
    """Each open of a space over filters, as its points shown by ``show``
    (``lat.tokens_of`` for ``--json``, ``lat.set_str`` for text)."""
    return [[show(points[i]) for i in iter_bits(o)]
            for o in space.sorted_opens()]


def _print_opens(lat, space, points):
    for o in _open_sets(space, points, lat.set_str):
        print("   {" + ", ".join(o) + "}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args):
    try:
        lat = load_lattice(args.path)
    except ValidationFailure as exc:
        if not args.json:
            raise
        _emit(str(args.path), "validate", {"valid": False}, [str(exc.report)])
        return EXIT_INVALID
    if args.dot:
        _write(args.dot, lat.hasse_dot())
    if args.json:
        return _emit(lat.name, "validate",
                     {"valid": True, "n": lat.n, "elements": list(lat.names)})
    print(f"{lat.name}: valid residuated lattice with {lat.n} elements")
    return EXIT_OK


def _cmd_list(args):
    """filters, spectrum, alpha and pure: list one family of filters."""
    lat = load_lattice(args.path)
    if args.command == "spectrum":
        masks = _call(args)(lat, _SPECTRUM_KINDS[args.kind])
        result = {"kind": args.kind, "points": _tok_sets(lat, masks)}
    else:
        masks = _call(args)(lat)
        if args.command == "filters":
            masks = masks.filters           # the members of the FiltersLattice
        result = {"count": len(masks), "filters": _tok_sets(lat, masks)}
    if args.json:
        return _emit(lat.name, args.command, result)
    noun = _CALLS[args.command][2].format_map(vars(args))
    print(f"{lat.name}: {len(masks)} {noun}")
    for m in masks:
        print(" ", lat.set_str(m))
    return EXIT_OK


def _cmd_map(args):
    """sigma and rho: map one --filter to one filter."""
    lat = load_lattice(args.path)
    f = _filter_arg(lat, args.filter)
    g = _call(args)(lat, f)
    if args.json:
        return _emit(lat.name, args.command, {"filter": lat.tokens_of(f),
                                              args.command: lat.tokens_of(g)})
    print(f"{args.command}({lat.set_str(f)}) = {lat.set_str(g)}")
    return EXIT_OK


def _cmd_spp(args):
    from . import purity as _purity
    from . import topology as _topology
    lat = load_lattice(args.path)
    spp = _purity.pure_spectrum(lat)
    if args.dot:
        _write(args.dot, _topology.specialization_dot(
            spp.space, f"Spp({lat.name})", [lat.set_str(p) for p in spp.points]))
    sep = _topology.separation_report(spp.space)
    if args.json:
        return _emit(lat.name, "spp", {
            "points": _tok_sets(lat, spp.points),
            "purely_maximal": list(spp.purely_maximal),
            "purely_minimal": list(spp.purely_minimal),
            "opens": _open_sets(spp.space, spp.points, lat.tokens_of),
            "separation": sep,
        })
    print(f"Spp({lat.name}): {len(spp)} purely-prime filters")
    for p, mx, mn in zip(spp.points, spp.purely_maximal, spp.purely_minimal):
        tags = [t for t, on in (("purely-maximal", mx), ("purely-minimal", mn)) if on]
        print(f"  {lat.set_str(p)}" + (f"  ({', '.join(tags)})" if tags else ""))
    print(f"opens ({len(spp.space.opens)}):")
    _print_opens(lat, spp.space, spp.points)
    print("separation:", ", ".join(k for k in ("t0", "t1", "hausdorff",
                                               "sober", "connected") if sep[k]))
    return EXIT_OK


def _cmd_dtop(args):
    from . import purity as _purity
    from . import spectra as _spectra
    lat = load_lattice(args.path)
    space = _purity.d_topology(lat)
    spec = _spectra.prime_filters(lat)
    if args.json:
        return _emit(lat.name, "dtop",
                     {"opens": _open_sets(space, spec, lat.tokens_of)})
    print(f"D-topology on Spec({lat.name}): {len(space.opens)} opens")
    _print_opens(lat, space, spec)
    return EXIT_OK


def _cmd_classify(args):
    from . import classify as _classify
    lat = load_lattice(args.path)
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


def _cmd_structure(args):
    """gelfand and mp: certify the structure theorems of one class."""
    from . import classify as _classify
    lat = load_lattice(args.path)
    which = args.command
    try:
        rep = _call(args)(lat)
    except (_classify.NotApplicable, _classify.CertificateFailure) as exc:
        qualifies = isinstance(exc, _classify.CertificateFailure)
        text = f"certificate failure: {exc}" if qualifies else str(exc)
        if args.json:
            _emit(lat.name, which, {"qualifies": qualifies}, [text])
        else:
            print(text, file=sys.stderr)
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
    lat = load_lattice(args.path)
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
            raise _UsageError("gen takes --family and --size, or --product, "
                              "not both")
        if len(args.product) < 2:
            raise _UsageError("gen --product needs at least two lattice files")
        factors = [load_lattice(p) for p in args.product]
        lat = functools.reduce(direct_product, factors)
    elif args.family is None or args.size is None:
        raise _UsageError("gen needs --family and --size, "
                          "or --product A B [C ...]")
    else:
        from .families import FAMILIES
        lat = FAMILIES[args.family](args.size)
    sys.stdout.write(to_rlat_text(lat))
    return EXIT_OK


def _cmd_check(args):
    from . import harness as _harness
    lats = [load_lattice(p) for p in args.paths]
    try:
        rep = _harness.run_theorem_suite(lats, args.suite)
    except _harness.DuplicateInstance as exc:
        raise _UsageError(str(exc))
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

    def add(name, handler, *, path=True, filter_arg=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="stable JSON output")
        if path:
            p.add_argument("path")
        if filter_arg:
            p.add_argument("--filter", required=True, metavar="TOKENS",
                           help="element tokens, separated by spaces or "
                                "commas, optionally in braces as printed: "
                                "{a,b}")
        return p

    p = add("validate", _cmd_validate, help="check all axioms of a lattice file")
    p.add_argument("--dot", metavar="PATH", help="write the Hasse diagram (DOT)")
    add("filters", _cmd_list, help="enumerate all filters")
    p = add("spectrum", _cmd_list, help="prime/maximal/minimal-prime spectrum")
    p.add_argument("--kind", choices=tuple(_SPECTRUM_KINDS), required=True)
    add("alpha", _cmd_list, help="enumerate alpha-filters")
    add("pure", _cmd_list, help="enumerate pure filters")
    add("sigma", _cmd_map, filter_arg=True, help="sink of a filter")
    add("rho", _cmd_map, filter_arg=True, help="pure part of a filter")
    p = add("spp", _cmd_spp, help="pure spectrum with its topology")
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization order (DOT)")
    add("dtop", _cmd_dtop, help="D-topology on the prime spectrum")
    add("classify", _cmd_classify,
        help="Gelfand/mp/hyperarchimedean/indecomposable flags")
    add("gelfand", _cmd_structure, help="certify the Gelfand structure theorems")
    add("mp", _cmd_structure, help="certify the mp structure theorems")
    add("quotient", _cmd_quotient, filter_arg=True, help="quotient by a filter")

    p = add("gen", _cmd_gen, path=False,
            help="emit a generated instance as a lattice file")
    # set after add_argument, which would otherwise read the choices at once
    p.add_argument("--family").choices = _FamilyNames()
    p.add_argument("--size", type=int)
    p.add_argument("--product", nargs="+", metavar="FILE",
                   help="two or more lattice files to multiply, left to right")

    p = add("check", _cmd_check, path=False, help="run the theorem suite")
    p.add_argument("paths", nargs="+")
    p.add_argument("--suite", default="all",
                   choices=("core", "purity", "spp", "gelfand", "mp", "all"))

    return ap


def main(argv=None) -> int:
    """Run one command line and return its exit code; every error a handler
    raises is mapped to its code here."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except ValidationFailure as exc:
        message, code = exc.report, EXIT_INVALID
    except (ParseError, SizeLimit, _UsageError) as exc:
        message, code = exc, EXIT_USAGE
    except LatticeError as exc:
        message, code = exc, EXIT_VIOLATION
    except FileNotFoundError as exc:
        message, code = f"no such file: {exc.filename}", EXIT_USAGE
    except OSError as exc:      # a directory, no permission, a full disk, ...
        where = "" if exc.filename is None else f"{exc.filename}: "
        message, code = f"{where}{exc.strerror}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
