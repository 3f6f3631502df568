"""Parsing, validation, residuum derivation, and direct products."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reslat import cli
from reslat.core import (ParseError, RawTables, SizeLimit, ValidationFailure,
                         ValidationReport, direct_product, parse_lattice_text,
                         validate)
from reslat.classify import boolean_center
from reslat.harness import (acceptance_family, fixture, godel_chain,
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
    n = lat.n
    return RawTables(name, list(lat.names),
                     [[lat.leq(i, j) for j in range(n)] for i in range(n)],
                     [list(r) for r in lat.prod], lat.bottom, lat.top)


def _a6_mutant(a6, flip=(), prod=(), bottom=None, top=None):
    """A6 with the ``flip`` order entries negated and ``prod`` entries set."""
    raw = _raw_of(a6, "A6")
    ix = a6.index
    for x, y in flip:
        raw.leq[ix(x)][ix(y)] = not raw.leq[ix(x)][ix(y)]
    for x, y, v in prod:
        raw.prod[ix(x)][ix(y)] = ix(v)
    if bottom is not None:
        raw.bottom = ix(bottom)
    if top is not None:
        raw.top = ix(top)
    return raw


def _a6_raw(a6, **fields):
    """A6's tables with whole RawTables fields replaced."""
    return dataclasses.replace(_raw_of(a6, "A6"), **fields)


def _a6_prod_entry(a6, x, y, v):
    """A6's product table with one raw entry set, range unchecked."""
    prod = [list(r) for r in a6.prod]
    prod[a6.index(x)][a6.index(y)] = v
    return _a6_raw(a6, prod=prod)


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
    n = a6.n
    leq = [[i == j for j in range(n)] for i in range(n)]
    rep = validate(RawTables("NoJoins", list(a6.names), leq,
                             [list(r) for r in a6.prod], a6.bottom, a6.top))
    assert any(v.kind in ("Order", "NotALattice", "Bounds")
               for v in rep.violations)


# One case per violation template of ``validate``: the full report text and
# every witness.  Each check reports its first witness in row-major index
# order, so these pin which witness appears, not only the kind.
VIOLATION_CASES = {
    "element-count": (
        lambda a6: RawTables("One", ["0"], [[True]], [[0]], 0, 0),
        "One: 1 violation(s)\n  [Bounds] element count 1 outside 2..64",
        [()]),
    "leq-shape": (
        lambda a6: _a6_raw(a6, leq=[[True] * 6] * 5),
        "A6: 1 violation(s)\n  [Bounds] leq is not 6x6",
        [()]),
    "prod-shape": (
        lambda a6: _a6_raw(a6, prod=[[0] * 5] * 6),
        "A6: 1 violation(s)\n  [Bounds] prod is not 6x6",
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
                             [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
                             [[0, 0, 0], [0, 1, 0], [0, 0, 2]], 0, 2),
        "V: 1 violation(s)\n  [NotALattice] a v b has no least upper bound",
        [("a", "b")]),
    "no-meet": (
        lambda a6: RawTables("W", ["a", "b", "1"],
                             [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
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
}


@pytest.mark.parametrize("case", VIOLATION_CASES)
def test_validation_report_text(a6, case):
    build, text, witnesses = VIOLATION_CASES[case]
    report = validate(build(a6))
    assert str(report) == text
    assert [v.witness for v in report.violations] == witnesses


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
    ("lattice X\nelements 0 1\ntop 1\ncover 0 1\nend", "bottom"),
    ("lattice X\nelements 0 0\nbottom 0\ntop 0\nend", "distinct"),
], ids=["dup-mul", "missing-mul", "unknown-tok", "after-end", "no-bottom", "dup-tok"])
def test_parse_errors(text, snippet):
    with pytest.raises(ParseError) as err:
        parse_lattice_text(text)
    assert snippet in str(err.value)


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
# standard library that the import loaded.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import reslat.cli
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_cli_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['reslat']"
