"""The sink, pure filters, pure parts, the pure spectrum, the D-topology."""

import pytest
from hypothesis import given, settings, strategies as st

from reslat import filters as fi
from reslat import purity as pu
from reslat import spectra as sp
from reslat.harness import FIXTURE_EXPECT
from reslat.topology import map_analysis, separation_report

from conftest import fresh, tokset, toksets


def test_sigma_examples(a6, b6):
    assert tokset(a6, pu.sigma_filter(a6, a6.mask_of("cd1"))) == {"1"}
    assert pu.sigma_filter(a6, a6.all_mask) == a6.all_mask
    assert tokset(b6, pu.sigma_filter(b6, b6.mask_of("ac1"))) == {"a", "c", "1"}


def test_sigma_formulas_agree_on_fixtures(fixtures4):
    for lat in fixtures4:
        for f in fi.enumerate_filters(lat).filters:
            forms = pu.sigma_formulas(lat, f)
            assert set(forms.values()) == {pu.sigma_filter(lat, f)}, \
                (lat.name, lat.set_str(f))
            assert pu.sigma_def(lat, f) == forms["def"]


def test_is_pure_examples(a8, b6):
    assert not pu.is_pure(a8, a8.mask_of("ce1"))
    assert pu.is_pure(b6, 1 << b6.top)
    assert pu.is_pure(b6, b6.mask_of(["d", "1"]))


def test_pure_tables_match_reference_sets(fixtures4):
    for lat in fixtures4:
        assert toksets(lat, pu.pure_filters(lat)) == \
            set(FIXTURE_EXPECT[lat.name]["pure"])


def test_sigma_is_deflationary_and_meet_preserving(fixtures4):
    for lat in fixtures4:
        fl = fi.enumerate_filters(lat)
        for f in fl.filters:
            sf = pu.sigma_filter(lat, f)
            assert sf & ~f == 0
            assert fi.is_filter(lat, sf)
            for g in fl.filters:
                assert pu.sigma_filter(lat, f & g) == \
                    sf & pu.sigma_filter(lat, g)
                if f & ~g == 0:
                    assert sf & ~pu.sigma_filter(lat, g) == 0


def test_sigma_vs_D_on_primes(fixtures4):
    for lat in fixtures4:
        for p in sp.prime_filters(lat):
            assert pu.sigma_filter(lat, p) & ~sp.D_operator(lat, p) == 0
        for m in sp.spectrum(lat, "maximal"):
            assert pu.sigma_filter(lat, m) == sp.D_operator(lat, m)


@settings(max_examples=150)
@given(data=st.data())
def test_sigma_meet_identity_hypothesis(fixtures4, data):
    lat = data.draw(st.sampled_from(list(fixtures4)))
    fl = fi.enumerate_filters(lat).filters
    f = data.draw(st.sampled_from(list(fl)))
    g = data.draw(st.sampled_from(list(fl)))
    assert pu.sigma_filter(lat, f & g) == \
        pu.sigma_filter(lat, f) & pu.sigma_filter(lat, g)


def test_rho_examples(a6, a8):
    assert tokset(a6, pu.rho(a6, a6.mask_of("abd1"))) == {"1"}
    assert pu.rho(a6, a6.all_mask) == a6.all_mask
    assert tokset(a8, pu.rho(a8, a8.mask_of("acdef1"))) == {"1"}


def test_rho_is_an_interior_operator(fixtures4):
    for lat in fixtures4:
        pure = set(pu.pure_filters(lat))
        fl = fi.enumerate_filters(lat)
        for f in fl.filters:
            rf = pu.rho(lat, f)
            assert rf in pure and rf & ~f == 0
            assert pu.rho(lat, rf) == rf
            assert (rf == f) == (f in pure)
            for g in fl.filters:
                assert pu.rho(lat, f & g) == rf & pu.rho(lat, g)


def test_pure_spectrum_examples(fixtures4, a6, b6, c6):
    spp_b6 = pu.pure_spectrum(b6)
    assert toksets(b6, spp_b6.points) == {frozenset("ac1"), frozenset("d1")}
    assert all(spp_b6.purely_maximal)
    assert len(spp_b6.space.opens) == 4            # discrete on two points
    for lat in (a6, c6):
        spp = pu.pure_spectrum(lat)
        assert toksets(lat, spp.points) == {frozenset("1")}
        assert spp.purely_maximal == (True,) and spp.purely_minimal == (True,)


def test_purely_prime_meet_irreducibility_forms_agree(fixtures4):
    for lat in fixtures4:
        pure = pu.pure_filters(lat)
        spp = set(pu.purely_prime_filters(lat))
        for p in pure:
            if p == lat.all_mask:
                continue
            eq_form = not any(f1 & f2 == p and f1 != p and f2 != p
                              for f1 in pure for f2 in pure)
            assert eq_form == (p in spp)


def test_d_topology_examples(a6, b6, c6):
    assert set(pu.d_topology(a6).opens) == {0, pu.d_topology(a6).full}
    assert pu.d_topology(b6).opens == sp.spec_space(b6, "h").opens
    one = pu.d_topology(c6)
    assert one.k == 1 and one.opens == frozenset({0, 1})


def test_d_topology_is_coarser(fixtures4):
    for lat in fixtures4:
        assert pu.d_topology(lat).opens <= sp.spec_space(lat, "h").opens


def test_purity_quadrangle(fixtures4):
    for lat in fixtures4:
        spec = sp.prime_filters(lat)
        for f in fi.enumerate_filters(lat).filters:
            pure = pu.is_pure(lat, f)
            flat, _ = fi.is_projection_flat(lat, f)
            supp = sp.support(lat, f) == pu.d_of(lat, f)
            d = pu.d_of(lat, f)
            stab = sp.stability(spec, d) == d
            assert pure == flat == supp == stab


def test_pure_filter_recovered_from_support(fixtures4):
    for lat in fixtures4:
        spec = sp.prime_filters(lat)
        full_pts = (1 << len(spec)) - 1
        for f in pu.pure_filters(lat):
            supp = sp.support(lat, f)
            via = 0
            for a in range(lat.n):
                if (full_pts ^ sp.h_set(spec, 1 << a)) & ~supp == 0:
                    via |= 1 << a
            assert via == f


def test_pure_part_map_examples(a6, b6, a8):
    for lat in (a6, a8):
        pm = pu.pure_part_map(lat)
        spp = pu.pure_spectrum(lat)
        assert {tokset(lat, spp.points[i]) for i in pm.mapping} == \
            {frozenset(["1"])}
    pm_b6 = pu.pure_part_map(b6)
    spp_b6 = pu.pure_spectrum(b6)
    src = sp.spec_space(b6, "h")
    for i, p in enumerate(src.labels):
        assert spp_b6.points[pm_b6.mapping[i]] == p     # primes already pure


def test_pure_part_map_continuity(fixtures4):
    for lat in fixtures4:
        rep = pu.pure_part_map_report(lat)
        assert rep["continuous"] and rep["preimages_match"]


def test_spp_separation_and_closures(fixtures4):
    for lat in fixtures4:
        spp = pu.pure_spectrum(lat)
        rep = separation_report(spp.space)
        assert rep["t0"] and rep["sober"]
        antichain = not any(p != q and p & ~q == 0
                            for p in spp.points for q in spp.points)
        assert rep["t1"] == antichain
        for i, p in enumerate(spp.points):
            h_k = sum(1 << j for j, q in enumerate(spp.points) if p & ~q == 0)
            assert spp.space.closure(1 << i) == h_k


def test_delta_is_a_lattice_isomorphism(fixtures4):
    for lat in fixtures4:
        spp = pu.pure_spectrum(lat)
        pure = pu.pure_filters(lat)
        images = {f: sp.d_set(spp.points, f) for f in pure}
        assert len(set(images.values())) == len(pure)
        assert set(images.values()) == set(spp.space.opens)
        for f in pure:
            for g in pure:
                assert (f & ~g == 0) == (images[f] & ~images[g] == 0)


def test_distinct_pure_primes_are_comaximal(fixtures4):
    for lat in fixtures4:
        pp = [p for p in sp.prime_filters(lat) if pu.is_pure(lat, p)]
        for p in pp:
            for q in pp:
                if p != q:
                    assert fi.generated_filter(lat, p | q) == lat.all_mask


def test_pure_closed_under_meet_and_join(fixtures4):
    for lat in fixtures4:
        pure = set(pu.pure_filters(lat))
        for f in pure:
            for g in pure:
                assert f & g in pure
                assert fi.generated_filter(lat, f | g) in pure


def _check_index_vectors(lat):
    # each operator is called per filter first, on an empty memo, and the
    # vector is then read against those calls
    lat = fresh(lat)
    fl = fi.enumerate_filters(lat)
    assert fl.filters[fl.top_i] == lat.all_mask
    for op, vector in ((pu.sigma_filter, pu.sigma_index),
                       (pu.rho, pu.rho_index),
                       (fi.radical, fi.radical_index)):
        want = [op(lat, f) for f in fl.filters]
        assert [fl.filters[k] for k in vector(lat)] == want, \
            (lat.name, op.__name__)


def test_index_vectors_match_the_operators(family):
    # on every acceptance instance and on its quotient by every filter
    for lat in family:
        _check_index_vectors(lat)
        for f in fi.enumerate_filters(lat).filters:
            _check_index_vectors(fi.quotient(lat, f).quotient)


def _sink_oracles(lat, x_mask):
    # the per-element forms: a is in sigma(X) when <a^perp u X> = A, and in
    # I_X when <a^perp-perp u X> = A
    def comaximal(g):
        return fi.generated_filter(lat, g | x_mask) == lat.all_mask
    sigma = sum(1 << a for a in range(lat.n) if comaximal(fi.x_perp(lat, a)))
    ideal = sum(1 << a for a in range(lat.n)
                if comaximal(fi.double_perp(lat, a)))
    return sigma, ideal


def _check_sink_forms(lat):
    # every filter, and masks that are not filters: each single element,
    # each upset up(x) of a non-idempotent x (its least element x is not a
    # generator) and each downset down(x) with x below the top
    masks = set(fi.enumerate_filters(lat).filters)
    masks.update(1 << x for x in range(lat.n))
    masks.update(lat.up[x] for x in range(lat.n) if lat.prod[x][x] != x)
    masks.update(lat.down[x] for x in range(lat.n) if x != lat.top)
    for m in masks:
        assert (pu.sigma_filter(lat, m), pu.sink_ideal(lat, m)) == \
            _sink_oracles(lat, m), (lat.name, lat.set_str(m))


def test_sink_and_sink_ideal_match_the_elementwise_forms(family):
    # on every acceptance instance and on its quotient by every filter
    for lat in family:
        _check_sink_forms(lat)
        for f in fi.enumerate_filters(lat).filters:
            _check_sink_forms(fi.quotient(lat, f).quotient)


def test_index_vectors_follow_their_own_operator(b6):
    # sigma = rho on B6 (and on every acceptance instance); a wrong memo
    # entry for one of them shows in its own vector only
    for op, own, other in (("sigma", pu.sigma_index, pu.rho_index),
                           ("rho", pu.rho_index, pu.sigma_index)):
        lat = fresh(b6)
        fl = fi.enumerate_filters(lat)
        lat._cache[(op, lat.all_mask)] = 1 << lat.top
        assert fl.filters[own(lat)[fl.top_i]] == 1 << lat.top
        assert fl.filters[other(lat)[fl.top_i]] == lat.all_mask


def test_degenerate_quotient_pipeline(a6):
    qr = fi.quotient(a6, a6.all_mask)
    q = qr.quotient
    assert pu.pure_filters(q) == (1,)          # the single improper filter
    assert pu.purely_prime_filters(q) == ()
    assert pu.pure_spectrum(q).space.k == 0
