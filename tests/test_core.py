"""Parsing, validation, residuum derivation, and direct products."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reslat import cli, core
from reslat.core import (MAX_ELEMENTS, ParseError, RawTables,
                         ResiduatedLattice, SizeLimit, ValidationFailure,
                         ValidationReport, direct_product, flags, iter_bits,
                         mask_key, parse_lattice_text, read_through, validate)
from reslat.classify import boolean_center
from reslat.families import (acceptance_family, fixture, godel_chain,
                             lukasiewicz_chain, product_instance)

ROOT = Path(__file__).resolve().parent.parent

TWO_CHAIN = """
lattice Two
elements 0 1
bottom 0
top 1
cover 0 1
end
"""


def _raw_of(lat, name="copy"):
    return RawTables(name, list(lat.names), list(lat.up),
                     [list(r) for r in lat.prod], lat.bottom, lat.top)


def _a6_mutant(a6, flip=(), prod=(), bottom=None, top=None):
    """A6 with the ``flip`` order entries negated and ``prod`` entries set."""
    raw = _raw_of(a6, "A6")
    ix = a6.index
    for x, y in flip:
        raw.leq[ix(x)] ^= 1 << ix(y)
    for x, y, v in prod:
        raw.prod[ix(x)][ix(y)] = ix(v)
    if bottom is not None:
        raw.bottom = ix(bottom)
    if top is not None:
        raw.top = ix(top)
    return raw


def _a6_raw(a6, **fields):
    """A6's tables with whole RawTables fields replaced."""
    raw = _raw_of(a6, "A6")
    return RawTables(**{**vars(raw), **fields})


def _a6_prod_entry(a6, x, y, v):
    """A6's product table with one raw entry set, range unchecked."""
    prod = [list(r) for r in a6.prod]
    prod[a6.index(x)][a6.index(y)] = v
    return _a6_raw(a6, prod=prod)


def _three_chain(tokens):
    """The Goedel chain on three tokens, unvalidated, named X."""
    return RawTables("X", tokens, [0b111, 0b110, 0b100],
                     [[0, 0, 0], [0, 1, 1], [0, 1, 2]], 0, 2)


def test_fixtures_validate(fixtures4):
    for lat in fixtures4:
        assert lat.n in (6, 8)
        assert lat.names[lat.bottom] == "0" and lat.names[lat.top] == "1"


def test_two_chain_is_boolean_algebra():
    lat = validate(parse_lattice_text(TWO_CHAIN))
    assert not isinstance(lat, ValidationReport)
    # product defaults make it the meet, i.e. the 2-element Boolean algebra
    assert lat.prod[0][0] == 0 and lat.prod[0][1] == 0 and lat.prod[1][1] == 1
    assert lat.neg(0) == 1 and lat.neg(1) == 0


def test_residuum_examples(a6):
    b, a, d = a6.index("b"), a6.index("a"), a6.index("d")
    assert a6.res[b][a] == d
    for lat in (a6,):
        for y in range(lat.n):
            assert lat.res[lat.bottom][y] == lat.top
        for x in range(lat.n):
            assert lat.res[x][lat.top] == lat.top


def test_derived_element_ops(a6):
    c, b = a6.index("c"), a6.index("b")
    assert a6.neg(c) == b
    assert a6.neg(a6.top) == a6.bottom
    assert a6.power(c, 1) == c
    assert a6.power(b, 2) == a6.index("a")
    assert a6.power(b, 0) == a6.top
    with pytest.raises(ValueError):
        a6.power(b, -1)


def test_mutated_product_is_not_adjoint(a6):
    raw = _raw_of(a6, "A6-mutated")
    ai, ci = a6.index("a"), a6.index("c")
    raw.prod[ai][ci] = raw.prod[ci][ai] = ai       # was 0
    report = validate(raw)
    assert isinstance(report, ValidationReport)
    kinds = {v.kind for v in report.violations}
    assert "NotAdjoint" in kinds
    assert all(v.witness for v in report.violations)


def test_every_violation_kind_is_reachable(a6):
    raw = _raw_of(a6, "NotCommutative")
    raw.prod[1][2] = 3
    rep = validate(raw)
    assert any(v.kind == "NotMonoid" for v in rep.violations)

    # remove the top of the order: pairs lose their upper bounds
    leq = [1 << i for i in range(a6.n)]
    rep = validate(RawTables("NoJoins", list(a6.names), leq,
                             [list(r) for r in a6.prod], a6.bottom, a6.top))
    assert any(v.kind in ("Order", "NotALattice", "Bounds")
               for v in rep.violations)


# One case per violation template of ``validate``: the full report text and
# every witness.  Each check reports its first witness in row-major index
# order, so these pin which witness appears, not only the kind.
VIOLATION_CASES = {
    "element-count": (
        lambda a6: RawTables("One", ["0"], [0b1], [[0]], 0, 0),
        "One: 1 violation(s)\n  [Bounds] element count 1 outside 2..64",
        [()]),
    "leq-shape": (
        lambda a6: _a6_raw(a6, leq=[a6.all_mask] * 5),
        "A6: 1 violation(s)\n  [Bounds] leq is not 6x6",
        [()]),
    # an order row is a bitmask int: a row of n bools or a float is refused
    "leq-row-of-bools": (
        lambda a6: _a6_raw(a6, leq=[[a6.leq(i, j) for j in range(6)]
                                    for i in range(6)]),
        "A6: 1 violation(s)\n  [Bounds] leq is not 6x6",
        [()]),
    "leq-row-float": (
        lambda a6: RawTables("X", ["0", "1"], [1.5, 0b10], [[0, 0], [0, 1]],
                             0, 1),
        "X: 1 violation(s)\n  [Bounds] leq is not 2x2",
        [()]),
    "leq-row-past-n": (
        lambda a6: _a6_raw(a6, leq=[*a6.up[:5], a6.up[5] | 1 << 6]),
        "A6: 1 violation(s)\n  [Bounds] leq is not 6x6",
        [()]),
    "leq-row-negative": (
        lambda a6: _a6_raw(a6, leq=[*a6.up[:5], -1]),
        "A6: 1 violation(s)\n  [Bounds] leq is not 6x6",
        [()]),
    "prod-shape": (
        lambda a6: _a6_raw(a6, prod=[[0] * 5] * 6),
        "A6: 1 violation(s)\n  [Bounds] prod is not 6x6",
        [()]),
    "prod-row-int": (
        lambda a6: RawTables("X", ["0", "1"], [0b11, 0b10], [5, [0, 1]],
                             0, 1),
        "X: 1 violation(s)\n  [Bounds] prod is not 2x2",
        [()]),
    "prod-entry-high": (
        lambda a6: _a6_prod_entry(a6, "a", "b", 6),
        "A6: 1 violation(s)\n  [Bounds] product a*b = 6 outside 0..5",
        [("a", "b")]),
    "prod-entry-negative": (
        lambda a6: _a6_prod_entry(a6, "c", "d", -1),
        "A6: 1 violation(s)\n  [Bounds] product c*d = -1 outside 0..5",
        [("c", "d")]),
    "bottom-index": (
        lambda a6: _a6_raw(a6, bottom=-1),
        "A6: 1 violation(s)\n  [Bounds] bottom index -1 outside 0..5",
        [()]),
    "top-index": (
        lambda a6: _a6_raw(a6, top=7),
        "A6: 1 violation(s)\n  [Bounds] top index 7 outside 0..5",
        [()]),
    "not-reflexive": (
        lambda a6: _a6_mutant(a6, flip=[("a", "a")]),
        "A6: 1 violation(s)\n  [Order] a not reflexive",
        [("a",)]),
    "antisymmetry": (
        lambda a6: _a6_mutant(a6, flip=[("b", "a")]),
        "A6: 1 violation(s)\n  [Order] antisymmetry fails at (a,b)",
        [("a", "b")]),
    "transitivity": (
        lambda a6: _a6_mutant(a6, flip=[("c", "1")]),
        "A6: 1 violation(s)\n  [Order] transitivity fails reaching 1 from c",
        [("c", "1")]),
    "no-join": (
        lambda a6: RawTables("V", ["0", "a", "b"],
                             [0b111, 0b010, 0b100],
                             [[0, 0, 0], [0, 1, 0], [0, 0, 2]], 0, 2),
        "V: 1 violation(s)\n  [NotALattice] a v b has no least upper bound",
        [("a", "b")]),
    "no-meet": (
        lambda a6: RawTables("W", ["a", "b", "1"],
                             [0b101, 0b110, 0b100],
                             [[0, 0, 0], [0, 1, 1], [0, 1, 2]], 0, 2),
        "W: 1 violation(s)\n  [NotALattice] a ^ b has no greatest lower bound",
        [("a", "b")]),
    "bottom-not-least": (
        lambda a6: _a6_mutant(a6, bottom="a"),
        "A6: 1 violation(s)\n  [Bounds] declared bottom a is not below 0",
        [("a", "0")]),
    "top-not-greatest": (
        lambda a6: _a6_mutant(a6, top="d"),
        "A6: 1 violation(s)\n  [Bounds] declared top d is not above 1",
        [("d", "1")]),
    "not-commutative": (
        lambda a6: _a6_mutant(a6, prod=[("d", "b", "b")]),
        "A6: 1 violation(s)\n  [NotMonoid] product not commutative at (b,d)",
        [("b", "d")]),
    "unit": (
        lambda a6: _a6_mutant(a6, prod=[("b", "1", "0"), ("1", "b", "0")]),
        "A6: 3 violation(s)\n  [NotMonoid] b * 1 = 0 instead of b\n"
        "  [NotMonoid] associativity fails at (a,b,1)\n"
        "  [ResiduumGap] {z | 1*z <= c} has no maximum",
        [("b",), ("a", "b", "1"), ("1", "c")]),
    "associativity": (
        lambda a6: _a6_mutant(a6, prod=[("d", "d", "0")]),
        "A6: 2 violation(s)\n  [NotMonoid] associativity fails at (a,d,d)\n"
        "  [NotAdjoint] adjunction fails at x=d, y=0, z=a",
        [("a", "d", "d"), ("d", "0", "a")]),
    "no-z-at-all": (
        lambda a6: _a6_mutant(a6, prod=[("0", "d", "a"), ("d", "0", "a")]),
        "A6: 3 violation(s)\n  [NotMonoid] associativity fails at (0,0,d)\n"
        "  [ResiduumGap] no z at all with d*z <= 0\n"
        "  [NotAdjoint] 0*d is not below 0^d",
        [("0", "0", "d"), ("d", "0"), ("0", "d")]),
    "no-maximum": (
        lambda a6: _a6_mutant(a6, prod=[("b", "d", "b"), ("d", "b", "b")]),
        "A6: 1 violation(s)\n  [ResiduumGap] {z | b*z <= a} has no maximum",
        [("b", "a")]),
    "adjunction": (
        lambda a6: _a6_mutant(a6, flip=[("c", "b")]),
        "A6: 1 violation(s)\n  [NotAdjoint] adjunction fails at x=c, y=0, z=c",
        [("c", "0", "c")]),
    "product-below-meet": (
        lambda a6: _a6_mutant(a6, flip=[("c", "d")]),
        "A6: 2 violation(s)\n  [ResiduumGap] {z | b*z <= a} has no maximum\n"
        "  [NotAdjoint] c*d is not below c^d",
        [("b", "a"), ("c", "d")]),
    "res-mismatch": (
        lambda a6: parse_lattice_text(TWO_CHAIN.replace("end", "res 1 0 1\nend")),
        "Two: 1 violation(s)\n  [ResMismatch] file claims 1->0 = 1, derived 0",
        [("1", "0", "1")]),
    # tokens and names that an .rlat file cannot carry: its lines split into
    # words at whitespace, and '#' starts a comment
    "token-repeated": (
        lambda a6: _three_chain(["a", "a", "1"]),
        "X: 1 violation(s)\n  [Bounds] element token 'a' is repeated",
        [("a",)]),
    "token-empty": (
        lambda a6: _three_chain(["0", "", "1"]),
        "X: 1 violation(s)\n  [Bounds] element token '' is not a nonempty "
        "string without whitespace or '#'",
        [("",)]),
    "token-whitespace": (
        lambda a6: RawTables("X", ["a b", "1"], [0b11, 0b10], [[0, 0], [0, 1]],
                             0, 1),
        "X: 1 violation(s)\n  [Bounds] element token 'a b' is not a nonempty "
        "string without whitespace or '#'",
        [("a b",)]),
    "token-hash": (
        lambda a6: _three_chain(["0", "a#b", "1"]),
        "X: 1 violation(s)\n  [Bounds] element token 'a#b' is not a nonempty "
        "string without whitespace or '#'",
        [("a#b",)]),
    "token-not-a-string": (
        lambda a6: _three_chain(["0", 1, "1"]),
        "X: 1 violation(s)\n  [Bounds] element token 1 is not a nonempty "
        "string without whitespace or '#'",
        [(1,)]),
    "name-whitespace": (
        lambda a6: _a6_raw(a6, name="A 6"),
        "A 6: 1 violation(s)\n  [Bounds] lattice name 'A 6' is not a nonempty "
        "string without whitespace or '#'",
        [()]),
    # entries and bounds are read through __index__: no truncation, and a
    # value that is not an integer is a violation, not an exception
    "prod-entry-float": (
        lambda a6: _a6_prod_entry(a6, "a", "b", 1.5),
        "A6: 1 violation(s)\n  [Bounds] product a*b = 1.5 is not an integer",
        [("a", "b")]),
    "prod-entry-str": (
        lambda a6: _a6_prod_entry(a6, "b", "c", "x"),
        "A6: 1 violation(s)\n  [Bounds] product b*c = 'x' is not an integer",
        [("b", "c")]),
    "top-str": (
        lambda a6: _a6_raw(a6, top="1"),
        "A6: 1 violation(s)\n  [Bounds] top index '1' is not an integer",
        [()]),
    "bottom-float": (
        lambda a6: _a6_raw(a6, bottom=0.0),
        "A6: 1 violation(s)\n  [Bounds] bottom index 0.0 is not an integer",
        [()]),
}


@pytest.mark.parametrize("case", VIOLATION_CASES)
def test_validation_report_text(a6, case):
    build, text, witnesses = VIOLATION_CASES[case]
    report = validate(build(a6))
    assert str(report) == text
    assert [v.witness for v in report.violations] == witnesses


def _a6_rows(a6, row):
    """A6's product rows with row b replaced by ``row(A6's row b)``."""
    rows = [list(r) for r in a6.prod]
    rows[2] = row(rows[2])
    return rows


_NOT_A_SEQUENCE = [
    pytest.param(field, lambda a6, v=value: v, f"{field} is not 6x6",
                 id=f"{vid}-{field}")
    for vid, value in (("None", None), ("int", 6), ("float", 6.0), ("bool", True))
    for field in ("leq", "prod")
] + [
    pytest.param("element_names", lambda a6, v=value: v,
                 "element count 0 outside 2..64", id=f"{vid}-element_names")
    for vid, value in (("None", None), ("int", 6))
] + [
    pytest.param("prod", lambda a6: iter(a6.prod), "prod is not 6x6",
                 id="iterator-prod"),
    pytest.param("prod", lambda a6: _a6_rows(a6, lambda r: dict(enumerate(r))),
                 "prod is not 6x6", id="mapping-row-prod"),
    pytest.param("prod", lambda a6: _a6_rows(a6, lambda r: set(range(6))),
                 "prod is not 6x6", id="set-row-prod"),
    pytest.param("res_claims", lambda a6: [(0, 1)],
                 "residuum claim (0, 1) is not three element indices",
                 id="pair-res_claims"),
    pytest.param("res_claims", lambda a6: [(0, 1, 2, 3)],
                 "residuum claim (0, 1, 2, 3) is not three element indices",
                 id="quadruple-res_claims"),
    pytest.param("res_claims", lambda a6: [5],
                 "residuum claim 5 is not three element indices",
                 id="int-res_claims"),
    pytest.param("res_claims", lambda a6: [(0, 1, 6)],
                 "residuum claim (0, 1, 6) is not three element indices",
                 id="out-of-range-res_claims"),
]


@pytest.mark.parametrize("field, value, text", _NOT_A_SEQUENCE)
def test_table_that_is_not_a_sequence_is_a_bounds_violation(a6, field, value, text):
    # a malformed RawTables field that no parser builds is reported, never
    # raised, and a mapping or set row is not read as its keys
    report = validate(_a6_raw(a6, **{field: value(a6)}))
    assert str(report) == f"A6: 1 violation(s)\n  [Bounds] {text}"
    assert [v.witness for v in report.violations] == [()]


def _elementwise_report(raw):
    """``validate``'s report on in-range tables, from element-wise loops:
    least bounds by scanning candidates, associativity over every triple,
    and each residuum as the join of S(x, y) = {z | x*z <= y} folded one
    element at a time.  Returns (report, residuum table)."""
    rep, nm, n = ValidationReport(raw.name), raw.element_names, len(raw.leq)
    prod, r = raw.prod, range(n)
    leq = [[bool(row >> j & 1) for j in r] for row in raw.leq]

    def first(gen):
        return next(gen, None)

    bad = first(i for i in r if not leq[i][i])
    if bad is not None:
        rep.add("Order", f"{nm[bad]} not reflexive", (nm[bad],))
    bad = first((i, j) for i in r for j in r
                if i != j and leq[i][j] and leq[j][i])
    if bad:
        rep.add("Order", f"antisymmetry fails at ({nm[bad[0]]},{nm[bad[1]]})",
                (nm[bad[0]], nm[bad[1]]))
    bad = first((i, j) for i in r for j in r if not leq[i][j]
                and any(leq[i][k] and leq[k][j] for k in r))
    if bad:
        i, j = bad
        rep.add("Order", f"transitivity fails reaching {nm[j]} from {nm[i]}",
                (nm[i], nm[j]))
    if not rep.ok:
        return rep, None

    def least(cands, le):
        return first(c for c in cands if all(le(c, d) for d in cands))

    join = [[None] * n for _ in r]
    meet = [[None] * n for _ in r]
    for x in r:
        for y in range(x, n):
            j = least([z for z in r if leq[x][z] and leq[y][z]],
                      lambda a, b: leq[a][b])
            m = least([z for z in r if leq[z][x] and leq[z][y]],
                      lambda a, b: leq[b][a])
            if j is None:
                rep.add("NotALattice", f"{nm[x]} v {nm[y]} has no least "
                        "upper bound", (nm[x], nm[y]))
            if m is None:
                rep.add("NotALattice", f"{nm[x]} ^ {nm[y]} has no greatest "
                        "lower bound", (nm[x], nm[y]))
            join[x][y] = join[y][x] = j
            meet[x][y] = meet[y][x] = m
    if not rep.ok:
        return rep, None
    bot, top = raw.bottom, raw.top
    bad = first(x for x in r if not leq[bot][x])
    if bad is not None:
        rep.add("Bounds", f"declared bottom {nm[bot]} is not below {nm[bad]}",
                (nm[bot], nm[bad]))
    bad = first(x for x in r if not leq[x][top])
    if bad is not None:
        rep.add("Bounds", f"declared top {nm[top]} is not above {nm[bad]}",
                (nm[top], nm[bad]))
    if not rep.ok:
        return rep, None

    bad = first((x, y) for x in r for y in r if prod[x][y] != prod[y][x])
    if bad:
        rep.add("NotMonoid", f"product not commutative at "
                f"({nm[bad[0]]},{nm[bad[1]]})", (nm[bad[0]], nm[bad[1]]))
    bad = first(x for x in r if prod[x][top] != x)
    if bad is not None:
        rep.add("NotMonoid", f"{nm[bad]} * 1 = {nm[prod[bad][top]]} instead "
                f"of {nm[bad]}", (nm[bad],))
    bad = first((x, y, z) for x in r for y in r for z in r
                if prod[prod[x][y]][z] != prod[x][prod[y][z]])
    if bad:
        rep.add("NotMonoid", "associativity fails at ({},{},{})".format(
            *(nm[i] for i in bad)), tuple(nm[i] for i in bad))

    res, below, gap = [[None] * n for _ in r], {}, False
    for x in r:
        for y in r:
            zs = below[x, y] = [z for z in r if leq[prod[x][z]][y]]
            if not zs:
                rep.add("ResiduumGap", f"no z at all with {nm[x]}*z <= {nm[y]}",
                        (nm[x], nm[y]))
                gap = True
                continue
            j = zs[0]
            for z in zs:
                j = join[j][z]
            if not leq[prod[x][j]][y]:
                rep.add("ResiduumGap", f"{{z | {nm[x]}*z <= {nm[y]}}} has no "
                        "maximum", (nm[x], nm[y]))
                gap = True
                continue
            res[x][y] = j
    if not gap:
        bad = first((x, y, z) for x in r for y in r for z in r
                    if (z in below[x, y]) != leq[z][res[x][y]])
        if bad:
            rep.add("NotAdjoint", "adjunction fails at x={}, y={}, z={}".format(
                *(nm[i] for i in bad)), tuple(nm[i] for i in bad))
    bad = first((x, y) for x in r for y in r if not leq[prod[x][y]][meet[x][y]])
    if bad:
        x, y = bad
        rep.add("NotAdjoint", f"{nm[x]}*{nm[y]} is not below {nm[x]}^{nm[y]}",
                (nm[x], nm[y]))
    return rep, res


def _seeded_mutants(lat, count, rng):
    """``count`` copies of ``lat``'s raw tables, each with one entry of
    ``prod`` set to another element or one entry of ``leq`` negated."""
    for k in range(count):
        raw = _raw_of(lat, f"{lat.name}-m{k}")
        x, y = rng.randrange(lat.n), rng.randrange(lat.n)
        if k % 2:
            raw.leq[x] ^= 1 << y
        else:
            raw.prod[x][y] = rng.choice([v for v in range(lat.n)
                                         if v != raw.prod[x][y]])
        yield raw


# A phrase of each violation template that single-entry mutations of
# in-range tables can reach.
TEMPLATE_PHRASES = ("not reflexive", "antisymmetry", "transitivity",
                    "least upper bound", "greatest lower bound", "commutative",
                    "instead of", "associativity", "no z at all",
                    "has no maximum", "adjunction fails", "is not below")


def test_validate_matches_elementwise_reference(fixtures4):
    rng = random.Random(20)
    two = godel_chain(2)
    cases = [(lat, 40) for lat in fixtures4]
    cases += [(godel_chain(k), 12) for k in (5, 12)]
    cases += [(lukasiewicz_chain(k), 12) for k in (7, 20)]
    cases += [(direct_product(godel_chain(3), lukasiewicz_chain(3)), 20),
              (direct_product(direct_product(two, two), two), 20)]
    cases += [(godel_chain(64), 3), (lukasiewicz_chain(64), 3)]
    seen = set()
    for lat, count in cases:
        for raw in [_raw_of(lat, lat.name), *_seeded_mutants(lat, count, rng)]:
            want, res = _elementwise_report(raw)
            got = validate(raw)
            if want.ok:
                assert isinstance(got, ResiduatedLattice), raw.name
                assert [list(row) for row in got.res] == res, raw.name
            else:
                assert str(got) == str(want), raw.name
                assert [v.witness for v in got.violations] == \
                    [v.witness for v in want.violations], raw.name
            seen.update(p for v in want.violations
                        for p in TEMPLATE_PHRASES if p in v.message)
    assert seen == set(TEMPLATE_PHRASES)


def test_res_rows_cross_checked():
    good = TWO_CHAIN.replace("end", "res 1 0 0\nend")
    lat = validate(parse_lattice_text(good))
    assert not isinstance(lat, ValidationReport)
    bad = TWO_CHAIN.replace("end", "res 1 0 1\nend")
    rep = validate(parse_lattice_text(bad))
    assert isinstance(rep, ValidationReport)
    assert any(v.kind == "ResMismatch" for v in rep.violations)


@pytest.mark.parametrize("text,snippet", [
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\nmul 0 1 0\nmul 0 1 0\nend", "duplicate"),
    ("lattice X\nelements 0 a 1\nbottom 0\ntop 1\ncover 0 a\ncover a 1\nend", "missing mul"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 2\nend", "unknown element"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\nend\nextra", "after 'end'"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\nend trailing words", "expected: end"),
    ("lattice X\nelements 0 1\ntop 1\ncover 0 1\nend", "bottom"),
    ("lattice X\nelements 0 0\nbottom 0\ntop 0\nend", "distinct"),
    ("lattice X\nlattice Y\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\nend",
     "line 2: duplicate 'lattice' line"),
    # a second carrier would re-read the earlier cover's indices
    ("lattice X\nelements 0 1\ncover 0 1\nelements 0 a 1\nbottom 0\ntop 1\n"
     "cover a 1\nmul a a a\nend", "line 4: duplicate 'elements' line"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\nbottom 0\ncover 0 1\nend",
     "line 5: duplicate 'bottom' line"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\ntop 0\nend",
     "line 6: duplicate 'top' line"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\ncover 0 1\n",
     "<string>: missing 'end'"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 1\nmeet 0 1 0\nend",
     "line 5: unknown directive 'meet'"),
    ("lattice X Y\nelements 0 1\nend", "line 1: expected: lattice <name>"),
    ("lattice X\nelements 0\nend", "line 2: need at least two elements"),
    ("lattice X\nelements 0 1\nbottom\nend", "line 3: expected: bottom <tok>"),
    ("lattice X\nelements 0 1\ntop 1 0\nend", "line 3: expected: top <tok>"),
    ("lattice X\nelements 0 1\ncover 0\nend", "line 3: expected: cover <x> <y>"),
    ("lattice X\nelements 0 1\nmul 0 1\nend",
     "line 3: expected: mul <x> <y> <tok>"),
    ("lattice X\nelements 0 1\nres 0 1 1 0\nend",
     "line 3: expected: res <x> <y> <tok>"),
    ("lattice X\nelements 0 1\nmul 0 1 2\nend", "line 3: unknown element '2'"),
    ("lattice X\nelements 0 1\nres 2 1 1\nend", "line 3: unknown element '2'"),
    ("lattice X\nelements 0 1\nbottom 0\ntop 2\ncover 0 1\nend",
     "<string>: bottom/top must name declared elements"),
    ("lattice X\nelements 0 1\nbottom 0\ncover 0 1\nend",
     "<string>: bottom/top must be declared"),
    ("elements 0 1\nbottom 0\ntop 1\ncover 0 1\nend",
     "<string>: missing 'lattice' line"),
    ("lattice X\nbottom 0\ntop 1\nend", "<string>: missing 'elements' line"),
], ids=["dup-mul", "missing-mul", "unknown-tok", "after-end", "end-args",
     "no-bottom", "dup-tok", "dup-lattice", "dup-elements", "dup-bottom",
     "dup-top", "no-end", "unknown-directive", "lattice-arity",
     "elements-arity", "bottom-arity", "top-arity", "cover-arity", "mul-arity",
     "res-arity", "mul-unknown-tok", "res-unknown-tok", "undeclared-top",
     "no-top", "no-lattice", "no-elements"])
def test_parse_errors(text, snippet):
    with pytest.raises(ParseError) as err:
        parse_lattice_text(text)
    assert snippet in str(err.value)
    # a file-level error (no line to blame) prints no line number
    assert str(err.value).startswith("line ") == (err.value.line_no is not None)


DIAMOND = ("lattice D\nelements 0 a b 1\nbottom 0\ntop 1\n"
           "cover 0 a\ncover 0 b\ncover a 1\ncover b 1\n")


@pytest.mark.parametrize("row,first", [("mul a a a", "(a,b)"),
                                       ("mul b b b", "(a,a)")],
                         ids=["a-b", "a-a"])
def test_parse_names_the_first_missing_mul_row(row, first):
    # two of (a,a), (a,b), (b,b) are missing: the first in row-major order
    # is named
    with pytest.raises(ParseError) as err:
        parse_lattice_text(DIAMOND + row + "\nend\n")
    assert str(err.value) == f"<string>: missing mul row for {first}"


def test_parse_mul_rows_are_unordered_pairs():
    with pytest.raises(ParseError) as err:
        parse_lattice_text(DIAMOND + "mul a b 0\nmul b a 0\nend\n")
    assert str(err.value) == "line 10: duplicate mul row for (b,a)"
    raw = parse_lattice_text(DIAMOND + "mul b a 0\nmul a a a\nmul b b b\nend\n")
    assert raw.prod == [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    assert not isinstance(validate(raw), ValidationReport)


@pytest.mark.parametrize("row,entries,message", [
    ("mul 1 1 0", {(1, 1): 0}, "1 * 1 = 0 instead of 1"),
    ("mul 0 1 1", {(0, 1): 1, (1, 0): 1}, "0 * 1 = 1 instead of 0"),
], ids=["top", "bottom"])
def test_mul_row_overrides_the_bound_defaults(row, entries, message):
    raw = parse_lattice_text(TWO_CHAIN.replace("end", row + "\nend"))
    for (x, y), v in entries.items():
        assert raw.prod[x][y] == v
    rep = validate(raw)
    assert isinstance(rep, ValidationReport)
    assert ("NotMonoid", message) in [(v.kind, v.message) for v in rep.violations]


def test_over_cap_file_refused_at_its_elements_line(tmp_path, capsys):
    tokens = " ".join(f"e{i}" for i in range(MAX_ELEMENTS + 1))
    # the line after `elements` is malformed: the cap is reported first
    text = f"elements {tokens}\nbottom\nend\n"
    with pytest.raises(SizeLimit) as err:
        parse_lattice_text(text, source="big.rlat")
    cap = f"{MAX_ELEMENTS + 1} elements exceeds the cap of {MAX_ELEMENTS}"
    assert str(err.value) == f"big.rlat: {cap}"
    with pytest.raises(SizeLimit) as err:
        parse_lattice_text("lattice Big\n" + text)
    assert str(err.value) == f"Big: {cap}"
    path = tmp_path / "big.rlat"
    path.write_text("lattice Big\n" + text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"Big: {cap}\n"


def test_load_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.rlat"
    path.write_bytes("lattice \u00c4\nend\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        core.load_lattice(path)
    assert err.value.line_no is None
    assert str(err.value) == f"{path}: not UTF-8 text"


def test_product_of_two_chains_is_boolean_diamond():
    two = godel_chain(2)
    four = direct_product(two, two)
    assert four.n == 4
    beta = boolean_center(four)["elements"]
    assert beta == four.all_mask


def test_product_with_godel_three_chain():
    prod = direct_product(godel_chain(2), godel_chain(3))
    assert prod.n == 6
    beta = boolean_center(prod)["elements"]
    assert bin(beta).count("1") == 4


def test_product_size_cap():
    with pytest.raises(SizeLimit):
        direct_product(godel_chain(5), godel_chain(13))


def test_product_of_fixtures_validates(fixtures4):
    two = godel_chain(2)
    for lat in fixtures4:
        prod = direct_product(lat, two)    # would raise on any axiom failure
        assert prod.n == lat.n * 2


def test_distribution_identities(fixtures4):
    # x*(y v z) = (x*y) v (x*z)  and  x v (y*z) >= (x v y)*(x v z)
    for lat in fixtures4:
        for x in range(lat.n):
            for y in range(lat.n):
                for z in range(lat.n):
                    assert lat.prod[x][lat.join[y][z]] == \
                        lat.join[lat.prod[x][y]][lat.prod[x][z]]
                    assert lat.leq(lat.prod[lat.join[x][y]][lat.join[x][z]],
                                   lat.join[x][lat.prod[y][z]])


def test_residuum_monotonicity(fixtures4):
    for lat in fixtures4:
        for x in range(lat.n):
            for y in range(lat.n):
                for z in range(lat.n):
                    if lat.leq(x, y):
                        assert lat.leq(lat.res[y][z], lat.res[x][z])
                        assert lat.leq(lat.res[z][x], lat.res[z][y])


def test_chain_constructions():
    g = godel_chain(4)
    assert all(g.prod[i][j] == min(i, j) for i in range(4) for j in range(4))
    l3 = lukasiewicz_chain(3)
    m = l3.index("x1")
    assert l3.prod[m][m] == l3.bottom
    assert l3.neg(m) == m
    with pytest.raises(SizeLimit):
        godel_chain(65)


def test_cover_pairs_and_dot(a6):
    covers = {(a6.names[x], a6.names[y]) for x, y in a6.cover_pairs()}
    assert covers == {("0", "a"), ("a", "b"), ("0", "c"), ("b", "d"),
                      ("c", "d"), ("d", "1")}
    dot = a6.hasse_dot()
    assert '"b" -> "d";' in dot and dot.startswith("digraph")


def test_tables_are_frozen(a6):
    with pytest.raises(TypeError):
        a6.prod[0][0] = 1
    assert type(a6.up) is tuple and type(a6.down) is tuple
    for table in (a6.join, a6.meet, a6.prod, a6.res):
        assert type(table) is tuple
        assert all(type(row) is tuple for row in table)


def test_mask_helpers(a6):
    mask = a6.mask_of(["d", "1"])
    assert a6.tokens_of(mask) == ["d", "1"]
    assert a6.set_str(mask) == "{d,1}"


def _reference_bits(mask):
    """The set bits of a nonnegative mask, one cleared low bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bit_kernel_matches_the_lowest_bit_reference(monkeypatch):
    # from row 0 alone, as at import: range(1 << 16) builds row 1 and
    # 1 << 63 the rows 2..7 in one call
    monkeypatch.setattr(core, "_BIT_ROWS", core._BIT_ROWS[:1])
    rng = random.Random(20221)
    masks = (list(range(1 << 16)) + [0, 1 << 63, (1 << 64) - 1]
             + [rng.getrandbits(64) for _ in range(300)])
    for m in masks:
        assert iter_bits(m) == tuple(_reference_bits(m)), hex(m)
    assert sorted(masks, key=mask_key) == sorted(
        masks, key=lambda m: (bin(m).count("1"), tuple(_reference_bits(m))))


@pytest.mark.parametrize("mask", [-1, -256, 1 << MAX_ELEMENTS, 1 << 70])
def test_bit_kernel_refuses_negative_and_over_cap_masks(mask):
    with pytest.raises(ValueError):
        iter_bits(mask)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_byte_kernel_matches_its_definition(data):
    # tables and rows up to 256 wide; a row is bytes or a list of ints
    width = data.draw(st.integers(1, 256))
    row = data.draw(st.binary(min_size=width, max_size=width))
    table = bytes(v % width for v in data.draw(st.binary(max_size=300)))
    want = bytes(row[v] for v in table)
    assert read_through(table, row) == want
    assert read_through(table, list(row)) == want
    mask = data.draw(st.integers(0, (1 << width) - 1))
    marks = flags(mask, width)
    assert len(marks) == width and set(marks) <= set(b"01")
    assert [i for i, c in enumerate(marks) if c == ord("1")] == \
        [i for i in range(width) if mask >> i & 1]


_TABLE_BASES = [fixture(name) for name in ("a6", "b6", "c6", "a8")] + [
    godel_chain(5), lukasiewicz_chain(4)]
_RLAT_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(
    (ROOT / "fixtures").glob("*.rlat"))] + [
    (ROOT / "tests" / "data" / "hn.rlat").read_text(encoding="utf-8")]
_ODD_TOKENS = ["", "#", "end", "mul", "cover", "elements", "\t", "\x00",
               "\ufeff", "\u00e9", "-1", "0 0", "{a,b}", "x" * 5000]


@st.composite
def _mutated_rlat(draw):
    """A fixture's text with lines dropped, doubled or swapped, odd tokens
    put into lines, very long lines, and a byte-order mark."""
    lines = draw(st.sampled_from(_RLAT_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "double", "swap", "token",
                                     "long"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "double":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            words = lines[i].split()
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(_ODD_TOKENS)))
            lines[i] = " ".join(words)
        elif kind == "long":
            lines[i] = " ".join([lines[i]] * draw(st.integers(2, 2000)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(text=_mutated_rlat())
def test_parser_and_validate_refuse_mutated_text_cleanly(text):
    # the outcome is a lattice, a report of violations, or one of the two
    # documented parser errors: nothing else escapes
    try:
        raw = parse_lattice_text(text)
    except (ParseError, SizeLimit):
        return
    assert isinstance(validate(raw), (ResiduatedLattice, ValidationReport))


_ODD_VALUES = [None, True, -1, 1 << 70, 256, 1.5, 0.0, "a", "", b"\x01",
               b"", [], [0, 1], (0,)]


@st.composite
def _mutated_tables(draw):
    """A fixture's or a chain's RawTables with one to three mutations: odd
    values in product cells, order rows and bounds; product and order tables
    of the wrong shape; string, bytes, mapping and set rows; whole tables
    replaced, the product by an iterator too; element names that are not a
    sequence; residuum claims that are not three element indices."""
    raw = _raw_of(draw(st.sampled_from(_TABLE_BASES)))
    n = len(raw.leq)
    odd = st.sampled_from(_ODD_VALUES)

    def spot(t):
        """An index into ``t``, or None when ``t`` is no longer a list."""
        return draw(st.integers(0, len(t) - 1)) \
            if isinstance(t, list) and t else None

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cell", "order-row", "prod-row", "shape",
                                     "bound", "table", "names", "claim"]))
        if kind == "cell" and (i := spot(raw.prod)) is not None \
                and (j := spot(raw.prod[i])) is not None:
            raw.prod[i][j] = draw(odd | st.integers(-300, 300))
        elif kind == "order-row" and (i := spot(raw.leq)) is not None:
            raw.leq[i] = draw(odd | st.integers(-(1 << n), 1 << (n + 2)))
        elif kind == "prod-row" and (i := spot(raw.prod)) is not None:
            raw.prod[i] = draw(st.sampled_from(["x" * n, bytes(n), [0] * (n - 1),
                                                [0] * (n + 1), [],
                                                dict.fromkeys(range(n), 0),
                                                set(range(n))]))
        elif kind == "shape":
            t = draw(st.sampled_from([raw.leq, raw.prod]))
            if (i := spot(t)) is not None:
                t.insert(i, t[spot(t)]) if draw(st.booleans()) else t.pop(i)
        elif kind == "bound":
            setattr(raw, draw(st.sampled_from(["bottom", "top"])),
                    draw(odd | st.integers(-3, n + 3)))
        elif kind == "table":
            rows = [iter(raw.prod)] if isinstance(raw.prod, list) else []
            setattr(raw, draw(st.sampled_from(["leq", "prod"])),
                    draw(odd | st.sampled_from([6, 6.0, "x" * n, bytes(n)] + rows)))
        elif kind == "names":
            raw.element_names = draw(odd | st.sampled_from(
                [n, iter(range(n)), dict.fromkeys(map(str, range(n)))]))
        elif kind == "claim":
            raw.res_claims.append(draw(odd | st.tuples(
                *[st.integers(-1, n)] * draw(st.integers(0, 4)))))
    return raw


@settings(max_examples=150, deadline=None)
@given(raw=_mutated_tables())
def test_validate_refuses_mutated_tables_cleanly(raw):
    # the outcome is a lattice or a report of violations: nothing escapes
    assert isinstance(validate(raw), (ResiduatedLattice, ValidationReport))


def test_validate_holds_256_elements(monkeypatch):
    # read_through takes rows of up to 256 entries, so with the cap raised
    # for this test alone the 256-element chains validate, and their
    # residuum is the closed form
    monkeypatch.setattr(core, "MAX_ELEMENTS", 256)
    monkeypatch.setattr(core, "_BIT_ROWS", core._BIT_ROWS)
    n, r = 256, range(256)
    up = [(1 << n) - (1 << i) for i in r]
    chains = {
        "Godel": (min, lambda x, y: n - 1 if x <= y else y),
        "Luk": (lambda x, y: max(0, x + y - (n - 1)),
                lambda x, y: min(n - 1, n - 1 - x + y)),
    }
    for name, (mul, arrow) in chains.items():
        raw = RawTables(f"{name}256", [f"e{i}" for i in r], up,
                        [[mul(x, y) for y in r] for x in r], 0, n - 1)
        lat = validate(raw)
        assert isinstance(lat, ResiduatedLattice), str(lat)
        assert lat.res == tuple(tuple(arrow(x, y) for y in r) for x in r)


def test_rlat_round_trip_at_the_edges():
    # covers, the Warshall closure and validate on every acceptance instance
    # and at the size cap
    cap = [godel_chain(20), lukasiewicz_chain(20),
           product_instance(godel_chain(4), godel_chain(5))]
    for lat in list(acceptance_family()) + cap:
        back = validate(parse_lattice_text(cli.to_rlat_text(lat)))
        assert not isinstance(back, ValidationReport), str(back)
        for attr in ("names", "up", "down", "join", "meet", "prod", "res",
                     "bottom", "top"):
            assert getattr(back, attr) == getattr(lat, attr), (lat.name, attr)


# A fresh interpreter imports the CLI and lists the packages outside the
# standard library that the import loaded, then the reslat modules.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import reslat.cli
loaded = set(sys.modules) - before
print(sorted({m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names)))
print(sorted(m for m in loaded if m.split(".")[0] == "reslat"))
"""


def test_cli_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "['reslat']", "['reslat', 'reslat.cli', 'reslat.core']"]


# A fresh interpreter imports one module and prints which of the standard
# library modules that reslat leaves out of its start-up the import loaded.
_STARTUP_PROBE = """
import importlib, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
print(sorted({"dataclasses", "inspect", "json"} & set(sys.modules) - before))
"""


@pytest.mark.parametrize("module", ["reslat.harness", "reslat.cli"])
def test_import_skips_dataclasses_inspect_and_json(module):
    # dataclasses drags in inspect, ast, dis and tokenize, and the CLI
    # imports json only to print --json output
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, module],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
