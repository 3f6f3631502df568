"""Generators, registry self-inventory, suite determinism and verdicts."""

import gc
import hashlib
import importlib.resources
import json
import random
import time
from collections import Counter
from functools import reduce
from operator import or_
from pathlib import Path
from types import SimpleNamespace

import pytest

from reslat import classify as cl
from reslat import harness as hz
from reslat.core import (MAX_ELEMENTS, LatticeError, RawTables,
                         ResiduatedLattice, SizeLimit, ValidationReport,
                         direct_product, iter_bits, load_lattice,
                         parse_lattice_text, validate)
from reslat.classify import Flag, boolean_center
from reslat.filters import enumerate_filters, least_elements
from reslat.purity import PureSpectrum, rho, sigma_filter, sigma_index
from reslat.spectra import spec_space
from reslat.topology import separation_report

from conftest import fresh


def test_fixture_generator(a6):
    assert hz.fixture("a6") is a6          # cached, cheap to share
    with pytest.raises(Exception):
        hz.fixture("z9")


def test_chain_generators():
    two = hz.godel_chain(2)
    assert boolean_center(two)["elements"] == two.all_mask
    l3 = hz.lukasiewicz_chain(3)
    m = l3.index("x1")
    assert l3.prod[m][m] == l3.bottom and l3.neg(m) == m
    with pytest.raises(SizeLimit):
        hz.lukasiewicz_chain(MAX_ELEMENTS + 1)
    with pytest.raises(SizeLimit):
        hz.godel_chain(MAX_ELEMENTS + 1)


def test_suite_leaves_no_lattice_in_a_reference_cycle():
    # a lattice whose memo points back at it is freed only by a full cyclic
    # collection; SAVEALL keeps whatever the collector finds, to inspect it
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        path = importlib.resources.files("reslat") / "fixtures" / "b6.rlat"
        b6 = load_lattice(path)
        instances = [b6, direct_product(b6, hz.godel_chain(2))]
        hz.run_theorem_suite(instances, "all")
        del instances, b6
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, ResiduatedLattice)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


def test_acceptance_family_shape(family):
    names = [lat.name for lat in family]
    assert len(names) == len(set(names))
    assert {"A6", "B6", "C6", "A8"} <= set(names)
    assert "Godel8" in names and "Luk8" in names
    assert all(lat.n <= 16 for lat in family if "x" in lat.name)
    assert "Godel2xLuk8" in names and "A8xGodel2" in names


def test_registry_matches_manifest():
    hz.self_inventory_check()
    assert len(hz.PROPERTIES) == len(hz.SPEC_ANCHOR_MANIFEST) == 78


def test_suite_refuses_out_of_sync_registry(monkeypatch):
    broken = dict(hz.PROPERTIES)
    broken["made_up_anchor"] = ("core", lambda lat: hz.PASS)
    monkeypatch.setattr(hz, "PROPERTIES", broken)
    with pytest.raises(Exception, match="out of sync"):
        hz.run_theorem_suite([hz.fixture("a6")], "core")


def test_suite_refuses_duplicate_instance_names(a6):
    path = importlib.resources.files("reslat") / "fixtures" / "a8.rlat"
    text = path.read_text(encoding="utf-8")
    renamed = validate(parse_lattice_text(text.replace("lattice A8",
                                                       "lattice A6")))
    for second in (renamed, a6):
        with pytest.raises(LatticeError, match="named 'A6'"):
            hz.run_theorem_suite([a6, second], "core")


def test_suite_takes_a_generator_of_instances():
    # the instances are read once, so a generator gives the list's report
    names = ("a6", "b6")
    want = hz.run_theorem_suite([hz.fixture(n) for n in names])
    got = hz.run_theorem_suite(hz.fixture(n) for n in names)
    assert got.counts() == want.counts() == {"pass": 146, "fail": 0,
                                             "not_applicable": 10}
    assert got.as_dict() == want.as_dict()
    assert got.text_lines() == want.text_lines()


HN_PATH = Path(__file__).parent / "data" / "hn.rlat"


def test_hn_separates_the_sink_from_the_pure_part(family, monkeypatch):
    # HN, the downset algebra of the N poset, is the smallest instance with
    # sigma != rho: at F = up(e1) the sink is not pure
    hn = load_lattice(HN_PATH)
    assert hn.n == 8 and "HN" not in {lat.name for lat in family}
    f = hn.mask_of(["e1", "e3", "e5", "e6", "1"])
    sigma = sigma_filter(hn, f)
    assert sigma == hn.mask_of(["e6", "1"])
    assert rho(hn, f) == hn.mask_of(["1"])
    assert sigma_filter(hn, sigma) == hn.mask_of(["1"])
    assert hz.run_theorem_suite([hn]).counts() == {
        "pass": 59, "fail": 0, "not_applicable": 19}
    # rfilter tells the two operators apart: read rho off the sink and it
    # fails
    monkeypatch.setattr(hz, "rho_index", sigma_index)
    verdict = hz.run_theorem_suite([load_lattice(HN_PATH)]).verdict(
        "HN", "rfilter")
    assert verdict.status == "fail" and verdict.witness["item"] == 2


def test_unknown_suite_rejected(a6):
    with pytest.raises(ValueError):
        hz.run_theorem_suite([a6], "everything")


def test_suite_on_fixtures_passes(fixtures4):
    rep = hz.run_theorem_suite(list(fixtures4), "all")
    assert rep.all_pass, rep.failures()
    counts = rep.counts()
    assert counts["fail"] == 0 and counts["pass"] > 200
    # conditional properties are skipped exactly where they do not apply
    assert rep.verdict("A6", "gelspphau").status == "not_applicable"
    assert rep.verdict("A8", "pureinterd").status == "not_applicable"
    assert rep.verdict("A8", "gelspphau").status == "pass"


def test_suite_finishes_at_the_cap():
    # each instance of the cap's size gets the full suite, timed from an
    # empty memo, in at most 5 s
    power = lambda base, k: reduce(hz.product_instance, [base] * k)
    godel = hz.godel_chain(MAX_ELEMENTS)
    at_cap = [godel, hz.lukasiewicz_chain(MAX_ELEMENTS),
              power(hz.godel_chain(2), 6), power(hz.godel_chain(4), 3)]
    assert [lat.n for lat in at_cap] == [MAX_ELEMENTS] * 4
    for lat in at_cap + [hz.product_instance(hz.godel_chain(4),
                                             hz.godel_chain(5))]:
        lat = fresh(lat)
        start = time.perf_counter()
        rep = hz.run_theorem_suite([lat], "all")
        elapsed = time.perf_counter() - start
        assert rep.counts()["fail"] == 0, rep.failures()
        assert elapsed <= 5.0, (lat.name, elapsed)
    # the patch topology on Spec(Godel64) is discrete on 63 points: 2^63
    # opens, but 63 one-point rows
    patch = spec_space(godel, "patch")
    assert patch.nbhd == tuple(1 << p for p in range(MAX_ELEMENTS - 1))
    assert separation_report(patch)["hausdorff"]


SUITE_DIGEST = \
    "2317513935c1f22e91a057f0a40e5dfd4cd5955b43d0212547d221c9e1112038"


def test_suite_report_digest():
    # the whole report, every verdict and witness, on the acceptance family
    # and three larger instances
    instances = list(hz.acceptance_family()) + [
        hz.godel_chain(20), hz.lukasiewicz_chain(20),
        hz.product_instance(hz.godel_chain(4), hz.godel_chain(5))]
    report = hz.run_theorem_suite(instances).as_dict()
    assert report["counts"] == {"pass": 4950, "fail": 0,
                                "not_applicable": 510}
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SUITE_DIGEST


def test_fixture_expectation_properties_na_off_fixture():
    rep = hz.run_theorem_suite([hz.godel_chain(3)], "core")
    assert rep.verdict("Godel3", "exa6").status == "not_applicable"
    assert rep.verdict("Godel3", "compeleex").status == "not_applicable"


def test_suite_reports_are_deterministic(fixtures4):
    rep1 = hz.run_theorem_suite(list(fixtures4), "purity")
    rep2 = hz.run_theorem_suite(list(fixtures4), "purity")
    blob1 = json.dumps(rep1.as_dict(), sort_keys=True)
    blob2 = json.dumps(rep2.as_dict(), sort_keys=True)
    assert blob1 == blob2


def test_mutated_fixture_fails_validation(a6):
    raw = RawTables("A6-broken", list(a6.names), list(a6.up),
                    [list(r) for r in a6.prod], a6.bottom, a6.top)
    ai, ci = a6.index("a"), a6.index("c")
    raw.prod[ai][ci] = raw.prod[ci][ai] = ai
    rep = validate(raw)
    assert isinstance(rep, ValidationReport) and not rep.ok
    # the suite only accepts validated instances, so the pipeline stops here


def test_verdict_witness_on_failure(a6, monkeypatch):
    # force one fail verdict and check it carries a witness dict
    rep = hz.run_theorem_suite([a6], "core")
    assert rep.all_pass
    broken = dict(hz.PROPERTIES)
    broken["resproposition"] = (
        "core", lambda lat: hz._fail({"triple": ["a", "b", "c"]}))
    monkeypatch.setattr(hz, "PROPERTIES", broken)
    monkeypatch.setattr(hz, "SPEC_ANCHOR_MANIFEST",
                        tuple(broken))
    rep = hz.run_theorem_suite([a6], "core")
    assert not rep.all_pass
    (inst, pid, verdict), = rep.failures()
    assert verdict.witness == {"triple": ["a", "b", "c"]}
    assert rep.as_dict()["counts"]["fail"] == 1


def test_conjecture_recorded(fixtures4):
    rep = hz.run_theorem_suite(list(fixtures4), "spp")
    assert set(rep.conjecture_spp_is_purely_maximal) == \
        {"A6", "B6", "C6", "A8"}
    assert all(rep.conjecture_spp_is_purely_maximal.values())


def test_suite_groups_partition_registry():
    groups = {grp for grp, _ in hz.PROPERTIES.values()}
    assert groups == set(hz.GROUPS)
    total = sum(1 for _ in hz.PROPERTIES)
    assert total == sum(
        sum(1 for g, _ in hz.PROPERTIES.values() if g == grp)
        for grp in hz.GROUPS)


def _verdict(pid, lat):
    return hz.PROPERTIES[pid][1](lat)


def test_omegprop_fails_with_witness(b6, monkeypatch):
    assert _verdict("omegprop", b6) == hz.PASS
    with monkeypatch.context() as m:
        m.setattr(hz, "D_operator", lambda lat, p: lat.all_mask)
        v = _verdict("omegprop", b6)
    assert v.status == "fail" and v.witness["item"] == 2
    assert v.witness["D"] == list(b6.names)
    monkeypatch.setattr(hz, "is_filter", lambda lat, mask: False)
    v = _verdict("omegprop", b6)
    assert v.status == "fail" and "omega_filter" in v.witness


def test_omegprop_join_item_fails_with_witness(a6, b6, monkeypatch):
    # every generated ideal is {0}: item 1 fails at the first pair in
    # row-major order whose join has a coannulet other than {1}
    monkeypatch.setattr(hz, "ideal_generated",
                        lambda lat, mask: lat.down[lat.bottom])
    for lat, pair in ((a6, ["0", "1"]), (b6, ["0", "a"])):
        assert _verdict("omegprop", fresh(lat)) == hz.Verdict(
            "fail", {"item": 1, "pair": pair})


def test_boleleprop_fails_with_witness(b6, monkeypatch):
    assert _verdict("boleleprop", b6) == hz.PASS
    bc = boolean_center(b6)
    a = b6.index("a")
    with monkeypatch.context() as m:
        m.setattr(hz, "boolean_center", lambda lat: {
            "elements": bc["elements"] & ~(1 << a),
            "complements": bc["complements"]})
        v = _verdict("boleleprop", b6)
    assert v.status == "fail" and v.witness["item"] == 2
    assert "a" in v.witness["negation_form"]
    monkeypatch.setattr(hz, "boolean_center", lambda lat: {
        "elements": bc["elements"],
        "complements": {e: e for e in bc["complements"]}})
    v = _verdict("boleleprop", b6)
    assert v.status == "fail" and v.witness["item"] == 3


def test_b9fxpro_fails_with_witness(b6, monkeypatch):
    assert _verdict("b9fxpro", b6) == hz.PASS
    monkeypatch.setattr(hz, "direct_summands",
                        lambda lat: (1 << lat.top, lat.all_mask))
    v = _verdict("b9fxpro", b6)
    assert v.status == "fail"
    assert v.witness["summands"] == [["1"], list(b6.names)]
    assert len(v.witness["by_center"]) == len(v.witness["by_complement"]) == 4


def test_sigmafequiv_fails_with_witness(b6, monkeypatch):
    assert _verdict("sigmafequiv", b6) == hz.PASS
    real = hz.sigma_formulas

    def broken(lat, f):
        forms = dict(real(lat, f))
        forms["f4"] ^= 1 << lat.bottom
        return forms
    monkeypatch.setattr(hz, "sigma_formulas", broken)
    v = _verdict("sigmafequiv", b6)
    assert v.status == "fail"
    assert v.witness["formula"] == "f4"
    assert v.witness["element"] == b6.names[b6.bottom]


def test_genfilprop_fails_with_witness(a6, b6):
    # item 4 reads F = up(e) off the least-element map; a planted entry that
    # names the generator of a larger filter (c for {d,1} on A6, d for {1}
    # on B6) makes a_x = (e*x)^oo wrong at the first x where (c*x)^oo
    # differs from (d*x)^oo (A6) or (d*x)^oo from x^oo (B6), here x = a.
    # Items 1-3 read generated_filter only, so item 4 fails first, at (a, a):
    # up(a_a * a_a) is set against <F u {a*a}> = <F u {a}>
    for lat, toks, wrong in ((a6, "d 1", "c"), (b6, "1", "d")):
        lat = fresh(lat)
        assert _verdict("genfilprop", lat) == hz.PASS
        least = dict(least_elements(lat))
        least[lat.mask_of(toks.split())] = lat.names.index(wrong)
        lat._cache["least_elements"] = least
        assert _verdict("genfilprop", lat) == \
            hz.Verdict("fail", {"item": 4, "x": "a", "y": "a"})


def test_subset_samples_match_randrange_reference():
    # past 10 elements the samples are the structured masks plus 400 draws
    # of rng.randrange(1 << n), whatever way the harness draws them
    for n in range(11, MAX_ELEMENTS + 1):
        lat = hz.godel_chain(n)
        rng = random.Random(0x5EED ^ n)
        want = {0, lat.all_mask}
        want.update((1 << x) | (1 << y) for x in range(n) for y in range(n))
        want.update(enumerate_filters(lat).filters)
        want.update(rng.randrange(1 << n) for _ in range(400))
        assert hz._subset_samples(lat) == sorted(want), n


# ``sigma_filter`` and ``rho`` read their memo first, so one planted entry
# makes the operator wrong at exactly one filter, on every path that reads it
def _broken_at(lat, op, toks, image):
    lat = fresh(lat)
    lat._cache[(op, lat.mask_of(toks.split()))] = lat.mask_of(image.split())
    return lat


def test_primesigmad_fails_with_witness(b6):
    # sigma(F ^ G) = sigma F ^ sigma G (item 2), and sigma F v sigma G lies
    # inside sigma(F v G) (item 3), first broken at the same pair
    pair = [["d", "1"], ["a", "c", "1"]]
    assert _verdict("primesigmad", fresh(b6)) == hz.PASS
    assert _verdict("primesigmad", _broken_at(b6, "sigma", "a c 1", "d 1")) \
        == hz.Verdict("fail", {"item": 2, "pair": pair})
    assert _verdict("primesigmad",
                    _broken_at(b6, "sigma", "0 a b c d 1", "1")) \
        == hz.Verdict("fail", {"item": 3, "pair": pair})


def test_sigmapro_monotonicity_fails_with_witness(a6):
    assert _verdict("sigmapro", fresh(a6)) == hz.PASS
    assert _verdict("sigmapro", _broken_at(a6, "sigma", "1", "d 1")) == \
        hz.Verdict("fail", {"item": 2, "pair": [["1"], ["d", "1"]]})


def test_rfilter_pair_items_fail_with_witness(b6):
    # the rho forms of primesigmad's items 2 and 3
    pair = [["d", "1"], ["a", "c", "1"]]
    assert _verdict("rfilter", fresh(b6)) == hz.PASS
    assert _verdict("rfilter", _broken_at(b6, "rho", "a c 1", "d 1")) == \
        hz.Verdict("fail", {"item": 4, "pair": pair})
    assert _verdict("rfilter", _broken_at(b6, "rho", "0 a b c d 1", "1")) == \
        hz.Verdict("fail", {"item": 5, "pair": pair})


def test_equgelcha_clauses_under_a_broken_operator(a6, b6, a8):
    # every clause holds on Gelfand B6 and A8 and fails on A6.  One wrong
    # image breaks c2 on A8 and, at a maximal filter of B6, c7; c5
    # (comaximality kept) and c6 (joins kept) part ways in both directions
    for lat, toks, image, c2, c5, c6, c7 in (
            (b6, "1", "d 1", True, True, False, True),
            (b6, "d 1", "1", False, False, False, False),
            (a8, "0 a b c d e f 1", "1", False, False, True, True),
            (a6, "0 a b c d 1", "1", False, False, True, False)):
        gelfand = lat is not a6
        assert _verdict("equgelchaunit", _broken_at(lat, "sigma", toks, image)) \
            == hz.Verdict("fail", {"gelfand": gelfand, "c2": c2, "c3": False,
                                   "c4": False, "c5": c5, "c6": c6})
        assert _verdict("equgelchapure", _broken_at(lat, "rho", toks, image)) \
            == hz.Verdict("fail", {"gelfand": gelfand, "c2": c2, "c3": False,
                                   "c4": False, "c5": c5, "c6": c6, "c7": c7,
                                   "rho_rad_adjunction": False})
        # sigma does not read rho (rho reads sigma through the pure filters)
        assert _verdict("equgelchaunit", _broken_at(lat, "rho", toks, image)) \
            == hz.PASS


def _tampered(lat, **tables):
    """``lat`` with some tables replaced, unvalidated, and an empty memo."""
    parts = {k: getattr(lat, k)
             for k in ("up", "down", "join", "meet", "prod", "res")}
    parts.update(tables)
    return ResiduatedLattice(lat.name, lat.names, bottom=lat.bottom,
                             top=lat.top, **parts)


def test_resproposition_fails_with_witness(a6, b6):
    # a*b = 0 breaks r1; the identity order breaks r2 (r1 reads no order)
    assert _verdict("resproposition", a6) == hz.PASS
    prod = [list(row) for row in a6.prod]
    a, b = a6.index("a"), a6.index("b")
    prod[a][b] = prod[b][a] = a6.bottom
    assert _verdict("resproposition", _tampered(a6, prod=prod)) == hz.Verdict(
        "fail", {"rule": "r1", "triple": ["a", "a", "b"]})
    for lat in (a6, b6):
        flat = [1 << x for x in range(lat.n)]
        assert _verdict("resproposition",
                        _tampered(lat, up=flat, down=flat)) == \
            hz.Verdict("fail", {"rule": "r2", "triple": ["b", "0", "0"]})


def _resproposition_failures(lat):
    """Every failing (rule, triple) of resproposition, element by element in
    row-major order, r1 before r2 at the same triple."""
    J, P, n = lat.join, lat.prod, lat.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                triple = [lat.names[x], lat.names[y], lat.names[z]]
                if P[x][J[y][z]] != J[P[x][y]][P[x][z]]:
                    yield "r1", triple
                if not lat.leq(P[J[x][y]][J[x][z]], J[x][P[y][z]]):
                    yield "r2", triple


def _symmetric_tamper(lat, table, x, y, v):
    """``lat`` with cells (x, y) and (y, x) of prod or join set to v."""
    rows = [list(r) for r in getattr(lat, table)]
    rows[x][y] = rows[y][x] = v
    return _tampered(lat, **{table: rows})


def test_resproposition_witness_matches_elementwise_search(a6, b6, a8):
    # seeded single-cell tamperings that keep prod and join commutative:
    # the verdict is the first failure of the element-by-element search
    rng = random.Random(2406)
    failed = 0
    for lat in (a6, b6, a8):
        for _ in range(60):
            table = rng.choice(("prod", "join"))
            x, y = rng.randrange(lat.n), rng.randrange(lat.n)
            v = rng.choice([v for v in range(lat.n)
                            if v != getattr(lat, table)[x][y]])
            t = _symmetric_tamper(lat, table, x, y, v)
            first = next(_resproposition_failures(t), None)
            want = hz.PASS if first is None else hz.Verdict(
                "fail", {"rule": first[0], "triple": first[1]})
            assert _verdict("resproposition", t) == want, (lat.name, table,
                                                           x, y, v)
            failed += first is not None
    assert failed > 30
    # a*a = b in A6 breaks r2 at (a, 0, 0), before every r1 failure
    t = _symmetric_tamper(a6, "prod", *map(a6.index, "aab"))
    fails = list(_resproposition_failures(t))
    assert fails[0] == ("r2", ["a", "0", "0"])
    assert any(rule == "r1" for rule, _ in fails)
    assert _verdict("resproposition", t) == hz.Verdict(
        "fail", {"rule": "r2", "triple": ["a", "0", "0"]})
    # b v b = 1 in A6 (b v b = d in B6) breaks r1 and r2 at (b, b, b): r1
    # is reported
    for lat, v in ((a6, "1"), (b6, "d")):
        t = _symmetric_tamper(lat, "join", *map(lat.index, "bb" + v))
        assert list(_resproposition_failures(t))[:2] == [
            ("r1", ["b", "b", "b"]), ("r2", ["b", "b", "b"])]
        assert _verdict("resproposition", t) == hz.Verdict(
            "fail", {"rule": "r1", "triple": ["b", "b", "b"]})


def test_omegprop_diagonal_pair_fails_with_witness(a6):
    # a*a = 1 in A6: a_perp = {1} but (a*a)_perp = A.  The cell (a, a) is
    # read by no clause but the pair (a, a), so only x_perp = (x*x)_perp at
    # y = x catches it
    prod = [list(row) for row in a6.prod]
    a = a6.index("a")
    prod[a][a] = a6.top
    assert _verdict("omegprop", _tampered(a6, prod=prod)) == hz.Verdict(
        "fail", {"item": 1, "pair": ["a", "a"]})


def _elementwise_genfilprop(lat):
    """genfilprop with item 1 read element by element: for each filter F and
    each x, the OR over the members c of up{c*x^k : k >= 0}, each one a
    reduce over the cells prod[c][x^k].  Items 2-4 and principality as in
    the library."""
    fl = enumerate_filters(lat)
    n, up, prod, join = lat.n, lat.up, lat.prod, lat.join
    least, stable = least_elements(lat), hz.stable_powers(lat)
    via_x = []
    for x in range(n):
        powers, p = [lat.top], lat.top
        while prod[p][x] != p:
            p = prod[p][x]
            powers.append(p)
        via_x.append([reduce(or_, [up[row[pw]] for pw in powers])
                      for row in prod])
    for f in fl.filters:
        gen_x = [hz.generated_filter(lat, f | (1 << x)) for x in range(n)]
        members = iter_bits(f)
        for x in range(n):
            via = via_x[x]
            if reduce(or_, [via[c] for c in members]) != gen_x[x]:
                return hz._fail({"item": 1, "filter": hz._toks(lat, f),
                                 "x": lat.names[x]})
        e_row = prod[least[f]]
        a = [stable[v] for v in e_row]
        for x in range(n):
            gx, above_x, join_x, prod_x = gen_x[x], up[x], join[x], prod[x]
            a_row, ex_row = prod[a[x]], prod[e_row[x]]
            for y in range(n):
                gy = gen_x[y]
                if (above_x >> y) & 1 and gy & ~gx:
                    return hz._fail({"item": 2, "x": lat.names[x],
                                     "y": lat.names[y]})
                if y < x:
                    continue
                if gx & gy != gen_x[join_x[y]]:
                    return hz._fail({"item": 3, "x": lat.names[x],
                                     "y": lat.names[y]})
                joined = a_row[a[y]]
                if up[joined] != gen_x[prod_x[y]] or \
                        joined != stable[ex_row[y]]:
                    return hz._fail({"item": 4, "x": lat.names[x],
                                     "y": lat.names[y]})
    for f in fl.filters:
        if hz.generated_filter(
                lat, 1 << hz._principal_generator(lat, f)) != f:
            return hz._fail({"item": "finite principality",
                             "filter": hz._toks(lat, f)})
    return hz.PASS


def _elementwise_omegprop(lat):
    """omegprop with omega(I) taken element by element: a is in omega(I)
    when join[a][y] = 1 for some y in I.  Everything else as in the
    library."""
    join, top = lat.join, lat.top
    by_ideal = {}

    def omega(ideal):
        if ideal not in by_ideal:
            members = iter_bits(ideal)
            by_ideal[ideal] = sum(
                1 << a for a in range(lat.n)
                if any(join[a][y] == top for y in members))
        return by_ideal[ideal]

    omeg = set(hz.omega_filters(lat))
    perp = [hz.x_perp(lat, x) for x in range(lat.n)]
    downs = [hz.principal_ideal(lat, x) for x in range(lat.n)]
    for x, (perp_x, down_x) in enumerate(zip(perp, downs)):
        if not omega(down_x) == hz.omega_filter(lat, down_x) == perp_x:
            return hz._fail({"item": 1, "x": lat.names[x]})
        if perp_x not in omeg:
            return hz._fail({"item": 1, "x": lat.names[x]})
        prod_x, join_x = lat.prod[x], join[x]
        for y in range(x, lat.n):
            pair = [lat.names[x], lat.names[y]]
            if perp_x & perp[y] != perp[prod_x[y]]:
                return hz._fail({"item": 1, "pair": pair})
            joined = hz.ideal_generated(lat, down_x | downs[y])
            if omega(joined) != perp[join_x[y]]:
                return hz._fail({"item": 1, "pair": pair})
    for f in omeg:
        if not hz.is_filter(lat, f):
            return hz._fail({"item": 1, "omega_filter": hz._toks(lat, f)})
    spec = hz.prime_filters(lat)
    minp = hz.minimal_primes(lat)
    for p in spec:
        d = hz.D_operator(lat, p)
        via_primes = hz.kernel(lat, hz.inside(spec, p))
        via_minimal = hz.kernel(lat, hz.inside(minp, p))
        if d != via_primes or d != via_minimal:
            return hz._fail({"item": 2, "prime": hz._toks(lat, p),
                             "D": hz._toks(lat, d),
                             "primes_inside": hz._toks(lat, via_primes),
                             "minimal_primes_inside": hz._toks(lat,
                                                               via_minimal)})
        if (d == p) != (p in minp):
            return hz._fail({"item": 3, "prime": hz._toks(lat, p)})
    return hz.PASS


def _outcome(prop, lat):
    """The verdict, or the type and arguments of the exception raised."""
    try:
        return prop(lat)
    except Exception as exc:
        return type(exc).__name__, exc.args


def _is_item_1(outcome):
    return isinstance(outcome, hz.Verdict) and outcome.status == "fail" and \
        outcome.witness.get("item") == 1


def _one_cell(lat, table, x, y, v):
    """``lat`` with the single cell (x, y) of prod or join set to v."""
    rows = [list(r) for r in getattr(lat, table)]
    rows[x][y] = v
    return _tampered(lat, **{table: rows})


def test_column_oracles_match_elementwise_references(a6, b6, a8,
                                                     monkeypatch):
    # seeded tamperings: a generated filter with one bit flipped for one
    # input, one join cell set to 1, one prod cell off the diagonal changed
    # on one side only.  The last two leave the tables non-commutative, so
    # a column read from prod[pw][c] or join[y][a] in place of prod[c][pw]
    # or join[a][y] shows.  A changed prod cell x*y stays below x ^ y, so
    # every power sequence p, p*x, ... still descends to a fixed point (on
    # a table where it cycles, the power loops would not end).  genfilprop
    # and omegprop must give the verdicts and witnesses of the
    # element-by-element references
    rng = random.Random(2505)
    real = hz.generated_filter
    item1 = Counter()               # item-1 failures, by property and kind
    for lat in (a6, b6, a8, load_lattice(str(HN_PATH))):
        n, filters = lat.n, enumerate_filters(lat).filters
        for _ in range(40):
            target = rng.choice(filters) | 1 << rng.randrange(n)
            bit = 1 << rng.randrange(n)
            with monkeypatch.context() as m:
                m.setattr(hz, "generated_filter", lambda lat, mask: real(
                    lat, mask) ^ (bit if mask == target else 0))
                got = _outcome(hz.PROPERTIES["genfilprop"][1], fresh(lat))
                want = _outcome(_elementwise_genfilprop, fresh(lat))
            assert got == want, (lat.name, target, bit)
            item1["genfilprop", "flip"] += _is_item_1(want)
        cells = [("join", x, y, lat.top) for x in range(n) for y in range(n)
                 if lat.join[x][y] != lat.top]
        cells += [("prod", x, y, v) for x in range(n) for y in range(n)
                  if x != y for v in iter_bits(lat.down[lat.meet[x][y]])
                  if v != lat.prod[x][y]]
        for table, x, y, v in rng.sample(cells, min(60, len(cells))):
            for pid, ref in (("genfilprop", _elementwise_genfilprop),
                             ("omegprop", _elementwise_omegprop)):
                t = _one_cell(lat, table, x, y, v)
                got = _outcome(hz.PROPERTIES[pid][1], t)
                want = _outcome(ref, _one_cell(lat, table, x, y, v))
                assert got == want, (pid, lat.name, table, x, y, v)
                item1[pid, table] += _is_item_1(want)
    # genfilprop's item 1 reads no join cell
    kinds = [("genfilprop", "flip"), ("genfilprop", "prod"),
             ("omegprop", "join"), ("omegprop", "prod")]
    assert min(item1[k] for k in kinds) >= 10, item1


def test_canonflat_fails_with_witness(a6, monkeypatch):
    # the projection by {d,1} is not flat: the definition side sees the
    # identity quotient instead, or the criterion says flat everywhere
    assert _verdict("canonflat", fresh(a6)) == hz.PASS
    real = hz.quotient
    with monkeypatch.context() as m:
        m.setattr(hz, "quotient", lambda lat, f: real(lat, 1 << lat.top))
        assert _verdict("canonflat", fresh(a6)) == hz.Verdict(
            "fail", {"filter": ["d", "1"], "criterion": False,
                     "definition": True})
    monkeypatch.setattr(hz, "is_projection_flat", lambda lat, f: (True, None))
    assert _verdict("canonflat", fresh(a6)) == hz.Verdict(
        "fail", {"filter": ["d", "1"], "criterion": True,
                 "definition": False})


def test_filqou_fails_with_witness(a6, b6, monkeypatch):
    # every quotient is the identity: the unit filter still passes, and
    # the next filter in order is the witness
    real = hz.quotient
    for lat in (a6, b6):
        assert _verdict("filqou", fresh(lat)) == hz.PASS
    monkeypatch.setattr(hz, "quotient", lambda lat, f: real(lat, 1 << lat.top))
    for lat in (a6, b6):
        assert _verdict("filqou", fresh(lat)) == hz.Verdict(
            "fail", {"filter": ["d", "1"]})


def test_purefilqou_fails_with_witness(a6, b6, monkeypatch):
    # the pure-filter form of filqou, under the same identity quotient
    real = hz.quotient
    for lat in (a6, b6):
        assert _verdict("purefilqou", fresh(lat)) == hz.PASS
    monkeypatch.setattr(hz, "quotient", lambda lat, f: real(lat, 1 << lat.top))
    for lat, first in ((a6, list(a6.names)), (b6, ["d", "1"])):
        assert _verdict("purefilqou", fresh(lat)) == hz.Verdict(
            "fail", {"filter": first})


def test_purefilqou_reads_the_pure_filters_of_the_quotient(b6):
    # a planted memo entry drops a pure filter of B6/{1} alone: the pure
    # form fails at {1}, and the all-filters form does not read it
    lat = fresh(b6)
    q = hz.quotient(lat, 1 << lat.top).quotient
    q._cache["pure_filters"] = (1 << q.top, q.all_mask)
    assert _verdict("purefilqou", lat) == hz.Verdict("fail", {"filter": ["1"]})
    assert _verdict("filqou", lat) == hz.PASS


def test_mp_and_1mineq_fail_with_witness(a6, b6, a8, monkeypatch):
    # without the last minimal prime, the first prime over none of the
    # rest fails mp, and the first minimal prime not listed fails 1mineq
    real = hz.minimal_primes
    for lat in (a6, a8):
        assert _verdict("mp", lat) == _verdict("1mineq", lat) == hz.PASS
    with monkeypatch.context() as m:
        m.setattr(hz, "minimal_primes", lambda lat: real(lat)[:-1])
        for lat, first in ((a6, ["1"]), (a8, ["c", "e", "1"])):
            for pid in ("mp", "1mineq"):
                assert _verdict(pid, lat) == hz.Verdict(
                    "fail", {"prime": first}), pid
    # every coannulet is all of A: no proper prime meets the criterion, so
    # the first minimal prime fails
    monkeypatch.setattr(hz, "x_perp", lambda lat, x: lat.all_mask)
    assert _verdict("1mineq", b6) == hz.Verdict("fail", {"prime": ["d", "1"]})


def test_sigfildef_fails_with_witness(a6, a8, monkeypatch):
    # a defining form that returns F itself agrees exactly on the pure
    # filters: the first filter that is not pure is the witness
    for lat in (a6, a8):
        assert _verdict("sigfildef", lat) == hz.PASS
    monkeypatch.setattr(hz, "sigma_def", lambda lat, f: f)
    for lat, first in ((a6, ["d", "1"]), (a8, ["f", "1"])):
        assert _verdict("sigfildef", lat) == hz.Verdict(
            "fail", {"filter": first})


def test_minpurfil_fails_with_witness(a6, b6, monkeypatch):
    # the first point no longer flagged purely minimal lies over no
    # purely minimal point
    real = hz.pure_spectrum
    for lat in (a6, b6):
        assert _verdict("minpurfil", lat) == hz.PASS

    def first_not_minimal(lat):
        spp = real(lat)
        return PureSpectrum(spp.points, spp.space, spp.purely_maximal,
                            (False,) + spp.purely_minimal[1:])
    monkeypatch.setattr(hz, "pure_spectrum", first_not_minimal)
    for lat, first in ((a6, ["1"]), (b6, ["d", "1"])):
        assert _verdict("minpurfil", lat) == hz.Verdict(
            "fail", {"point": first})


def test_closurofp_fails_with_witness(a6, b6, monkeypatch):
    # h(p) without the first point: the first point's closure differs
    real = hz.h_set
    for lat in (a6, b6):
        assert _verdict("closurofp", lat) == hz.PASS
    monkeypatch.setattr(hz, "h_set",
                        lambda points, mask: real(points, mask) & ~1)
    for lat, first in ((a6, ["1"]), (b6, ["d", "1"])):
        assert _verdict("closurofp", lat) == hz.Verdict(
            "fail", {"point": first})


def test_flag_properties_fail_with_witness(a6, b6, monkeypatch):
    # each property compares a classification flag (Spec an antichain, or
    # beta = {0,1}) with a side broken here.  A6 is directly indecomposable
    # and its Spec is a chain; B6 is neither
    pids = ("hperarchpri", "sigmahyper", "huldtopohyper", "direcindbeta",
            "sppconn")
    for lat in (a6, b6):
        assert [_verdict(pid, lat) for pid in pids] == [hz.PASS] * 5
    real_report = hz.separation_report
    for lat, connected, beta in ((a6, False, ["0", "1"]),
                                 (b6, True, ["0", "a", "d", "1"])):
        with monkeypatch.context() as m:
            m.setattr(hz, "separation_report", lambda space: {
                **real_report(space), "connected": connected})
            assert _verdict("sppconn", lat) == hz.Verdict(
                "fail", {"beta": beta, "connected": connected})
    with monkeypatch.context() as m:
        m.setattr(hz, "d_topology", lambda lat: spec_space(lat, "h"))
        assert _verdict("huldtopohyper", a6) == hz.Verdict(
            "fail", {"coincide": True})
    with monkeypatch.context() as m:
        m.setattr(hz, "pure_filters", lambda lat: (1 << lat.top,))
        assert _verdict("sigmahyper", b6) == hz.Verdict(
            "fail", {"clauses": [False, True, False]})
    monkeypatch.setattr(hz, "direct_summands",
                        lambda lat: (1 << lat.top, lat.all_mask))
    assert _verdict("direcindbeta", b6) == hz.Verdict(
        "fail", {"beta": ["0", "a", "d", "1"]})
    assert _verdict("hperarchpri", b6) == hz.Verdict(
        "fail", {"clauses": [False, True, True]})


def test_intprimfilt_fails_with_witness(a6, b6, monkeypatch):
    real_spec, real_fil = hz.prime_filters, hz.enumerate_filters
    for lat, first in ((a6, ["a"]), (b6, [])):
        assert _verdict("intprimfilt", fresh(lat)) == hz.PASS
        # without the last prime, the first subset in mask order whose
        # generated filter is no longer the intersection
        with monkeypatch.context() as m:
            m.setattr(hz, "prime_filters", lambda lat: real_spec(lat)[:-1])
            assert _verdict("intprimfilt", fresh(lat)) == hz.Verdict(
                "fail", {"subset": first})
    # a non-filter {c,1} among the filters: every prime containing it
    # contains <c,1>, so item 1 fails at the first filter in order that
    # lies inside <c,1> but not inside {c,1}
    for lat, first in ((a6, ["d", "1"]), (b6, ["a", "c", "1"])):
        extra = lat.mask_of(["c", "1"])
        with monkeypatch.context() as m:
            m.setattr(hz, "enumerate_filters", lambda lat: SimpleNamespace(
                filters=real_fil(lat).filters + (extra,)))
            assert _verdict("intprimfilt", fresh(lat)) == hz.Verdict(
                "fail", {"item": 1, "filter": ["c", "1"], "subset": first})


def test_sigmfiltlatt_fails_with_witness(a6, monkeypatch):
    # {c,d,1} v {a,b,d,1} is not in the family
    family = tuple(a6.mask_of(t.split()) for t in ("d 1", "c d 1", "a b d 1"))
    assert _verdict("sigmfiltlatt", a6) == hz.PASS
    monkeypatch.setattr(hz, "pure_filters", lambda lat: family)
    assert _verdict("sigmfiltlatt", a6) == hz.Verdict(
        "fail", {"pair": [["c", "d", "1"], ["a", "b", "d", "1"]]})


def test_fixture_flag_fails_when_the_witness_does_not_reverify(a6,
                                                              monkeypatch):
    for pid in ("quanorexas", "quanorempxas"):
        assert _verdict(pid, a6) == hz.PASS
    monkeypatch.setattr(hz, "verify_flag_witness", lambda lat, flag, got: False)
    for pid in ("quanorexas", "quanorempxas"):
        assert _verdict(pid, a6) == hz.Verdict(
            "fail", {"note": "witness does not re-verify"}), pid


def test_gelfand_conclusions_fail_with_witness(b6, monkeypatch):
    # B6 is Gelfand and every conclusion holds; each one is broken in turn
    # through what its predicate reads, and the witness lambda still runs
    # on the real structures
    lat = fresh(b6)
    unit = 1 << lat.top
    pids = ("rhosigmanorg", "gelfmaxpure", "gelspphau", "gelpurefcl")
    assert [_verdict(pid, lat) for pid in pids] == [hz.PASS] * 4
    monkeypatch.setattr(hz, "_is_gelfand", lambda lat: True)
    with monkeypatch.context() as m:
        m.setattr(cl, "sigma_filter", lambda lat, f: unit)
        m.setattr(hz, "sigma_filter", lambda lat, f: unit)
        assert _verdict("rhosigmanorg", lat) == hz.Verdict(
            "fail", {"filter": ["d", "1"]})
    with monkeypatch.context() as m:
        m.setattr(hz, "spp_equals_max_sigma", lambda lat: False)
        assert _verdict("gelfmaxpure", lat) == hz.Verdict(
            "fail", {"purely_maximal": [["d", "1"], ["a", "c", "1"]],
                     "rho_of_max": [["d", "1"], ["a", "c", "1"]]})
    with monkeypatch.context() as m:
        m.setattr(cl, "separation_report", lambda space: {"hausdorff": False})
        assert _verdict("gelspphau", lat) == hz.Verdict(
            "fail", {"space": "Spp"})
    with monkeypatch.context() as m:
        m.setattr(cl, "gelfand_closed_forms", lambda lat: set())
        assert _verdict("gelpurefcl", lat) == hz.Verdict(
            "fail", {"closed_forms": [["1"], ["d", "1"], ["a", "c", "1"],
                                      list(lat.names)]})


FLIPPED_EXPECT = Path(__file__).parent / "data" / "flipped_hypothesis.json"


def _flipped_reports(monkeypatch):
    """Gelfand and mp groups with both hypothesis flags negated.

    Every conditional property then runs on the instances it skips, and
    every equivalence compares its clauses with the wrong side, so the
    failure witnesses of both groups are exercised.
    """
    real = hz.classify

    def flipped(lat):
        rep = real(lat)
        return rep._replace(
            gelfand=Flag(not rep.gelfand.value, rep.gelfand.witness),
            mp=Flag(not rep.mp.value, rep.mp.witness))
    monkeypatch.setattr(hz, "classify", flipped)
    instances = hz.acceptance_family()[:20]   # fixtures, chains, 2 products
    reports = {grp: hz.run_theorem_suite(instances, grp).as_dict()
               for grp in ("gelfand", "mp")}
    return json.dumps(reports, indent=1) + "\n"


def test_flipped_hypothesis_verdicts(monkeypatch):
    # compared as text, so the key order of each witness is pinned too
    got = _flipped_reports(monkeypatch)
    counts = {grp: rep["counts"] for grp, rep in json.loads(got).items()}
    assert counts == {
        "gelfand": {"pass": 12, "fail": 124, "not_applicable": 84},
        "mp": {"pass": 5, "fail": 127, "not_applicable": 168}}
    assert got == FLIPPED_EXPECT.read_text(encoding="utf-8")


if __name__ == "__main__":
    # rewrite the expected data: python tests/test_harness.py
    with pytest.MonkeyPatch.context() as mp:
        FLIPPED_EXPECT.write_text(_flipped_reports(mp), encoding="utf-8")
