"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import importlib.resources
import time

import pytest

from reslat import classify as cl
from reslat import filters as fi
from reslat.families import FIXTURE_NAMES
from reslat import harness as hz
from reslat import purity as pu
from reslat import spectra as sp
from reslat.core import iter_bits, load_lattice
from reslat.topology import label_map, map_analysis, separation_report, subspace

from conftest import toksets


def _report(num, title, ok):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"criterion {num}: {title}"


def _fresh_fixture(name):
    path = importlib.resources.files("reslat") / "fixtures" / f"{name}.rlat"
    return load_lattice(path)


def test_criterion_01_filter_tables():
    t0 = time.monotonic()
    ok = True
    for name in FIXTURE_NAMES:
        lat = _fresh_fixture(name)          # no cached state: honest timing
        got = toksets(lat, fi.enumerate_filters(lat).filters)
        ok &= got == set(hz.FIXTURE_EXPECT[lat.name]["filters"])
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(1, f"filter tables of all four fixtures ({elapsed:.2f}s < 1s)", ok)


def test_criterion_02_spectra_tables(fixtures4):
    ok = True
    for lat in fixtures4:
        exp = hz.FIXTURE_EXPECT[lat.name]
        ok &= toksets(lat, sp.spectrum(lat, "maximal")) == set(exp["maximal"])
        ok &= toksets(lat, sp.spectrum(lat, "minimal_prime")) == \
            set(exp["minimal_prime"])
    _report(2, "maximal and minimal-prime tables of all four fixtures", ok)


def test_criterion_03_alpha_and_pure_tables(fixtures4):
    ok = True
    for lat in fixtures4:
        exp = hz.FIXTURE_EXPECT[lat.name]
        ok &= toksets(lat, fi.enumerate_alpha(lat)) == set(exp["alpha"])
        ok &= toksets(lat, pu.pure_filters(lat)) == set(exp["pure"])
    _report(3, "alpha-filter and pure-filter tables of all four fixtures", ok)


def test_criterion_04_boolean_centers(fixtures4):
    ok = True
    for lat in fixtures4:
        beta = cl.boolean_center(lat)["elements"]
        ok &= frozenset(lat.tokens_of(beta)) == hz.FIXTURE_EXPECT[lat.name]["center"]
    _report(4, "Boolean centers of all four fixtures", ok)


def test_criterion_05_classification(fixtures4):
    ok = True
    for lat in fixtures4:
        rep = cl.classify(lat)
        exp = hz.FIXTURE_EXPECT[lat.name]
        ok &= rep.gelfand.value == exp["gelfand"]
        ok &= rep.mp.value == exp["mp"]
        for name, flag in rep.flags().items():
            ok &= cl.verify_flag_witness(lat, name, flag)
    _report(5, "Gelfand/mp classification with re-verifying witnesses", ok)


def test_criterion_06_sigma_formula_equivalence(family):
    t0 = time.monotonic()
    mismatches = 0
    for lat in family:
        for f in fi.enumerate_filters(lat).filters:
            forms = pu.sigma_formulas(lat, f)
            if len(set(forms.values())) != 1:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(6, f"sink formulas agree on every filter of {len(family)} "
               f"instances ({elapsed:.1f}s < 60s)", ok)


def test_criterion_07_purity_quadrangle(family):
    mismatches = 0
    for lat in family:
        spec = sp.prime_filters(lat)
        for f in fi.enumerate_filters(lat).filters:
            pure = pu.is_pure(lat, f)
            flat, _ = fi.is_projection_flat(lat, f)
            supp = sp.support(lat, f) == pu.d_of(lat, f)
            d = pu.d_of(lat, f)
            stab = sp.stability(spec, d) == d
            if not pure == flat == supp == stab:
                mismatches += 1
    _report(7, "pure = flat-projection = support = S-stable on every filter",
            mismatches == 0)


def test_criterion_08_grothendieck(family, a6, b6):
    ok = True
    for lat in family:
        try:
            cl.grothendieck_check(lat)
        except cl.BijectionFailure:
            ok = False
    ok &= cl.grothendieck_check(b6)["clopen_count"] == 4
    ok &= cl.grothendieck_check(a6)["clopen_count"] == 2
    _report(8, "center <-> Spp-clopen bijection on every instance "
               "(spot: b6 4<->4, a6 2<->2)", ok)


def test_criterion_09_spp_topology(family):
    ok = True
    for lat in family:
        spp = pu.pure_spectrum(lat)
        rep = separation_report(spp.space)
        ok &= rep["t0"] and rep["sober"]
        antichain = not any(p != q and p & ~q == 0
                            for p in spp.points for q in spp.points)
        ok &= rep["t1"] == antichain
        flags = cl.classify(lat)
        if flags.gelfand.value or flags.mp.value:
            ok &= rep["hausdorff"]
    _report(9, "Spp is T0+sober; T1 iff antichain; Hausdorff on Gelfand/mp", ok)


def test_criterion_10_gelfand_certificates(family):
    ok = True
    ran = 0
    for lat in family:
        if not cl.classify(lat).gelfand.value:
            continue
        ran += 1
        try:
            cl.gelfand_structure(lat)
        except Exception:
            ok = False
    _report(10, f"Gelfand certificate on all {ran} Gelfand instances", ok and ran)


def test_criterion_11_mp_certificates(family):
    ok = True
    ran = 0
    for lat in family:
        if not cl.classify(lat).mp.value:
            continue
        ran += 1
        try:
            cl.mp_structure(lat)
        except Exception:
            ok = False
    _report(11, f"mp certificate on all {ran} mp instances", ok and ran)


def test_criterion_12_quotient_transport(fixtures4):
    ok = True
    for lat in fixtures4:
        spp = pu.pure_spectrum(lat)
        for f in pu.pure_filters(lat):
            qr = fi.quotient(lat, f)
            # pure filters transport: sigma(A/F) = {H/F | F <= H pure}
            images = {qr.push_mask(h) for h in pu.pure_filters(lat)
                      if f & ~h == 0}
            ok &= images == set(pu.pure_filters(qr.quotient))
            # spectra transport: Spp(A/F) homeomorphic to the hull of F
            hull = sum(1 << i for i, p in enumerate(spp.points)
                       if f & ~p == 0)
            target = subspace(spp.space, hull)
            qspp = pu.pure_spectrum(qr.quotient)
            pm = label_map(qspp.space, target, qr.pull_mask)
            ok &= pm is not None and map_analysis(pm)["homeomorphism"]
    _report(12, "quotient transport of pure filters and pure spectra", ok)


def test_criterion_13_full_suite(family):
    t0 = time.monotonic()
    hz.self_inventory_check()
    rep = hz.run_theorem_suite(family, "all")
    elapsed = time.monotonic() - t0
    ok = rep.all_pass and elapsed < 300.0
    counts = rep.counts()
    ok &= all(rep.conjecture_spp_is_purely_maximal.values())
    _report(13, f"registry inventory + full suite on {len(family)} instances: "
                f"{counts['pass']} pass / {counts['fail']} fail "
                f"({elapsed:.1f}s < 300s)", ok)
