"""Boolean centers, summands, classification flags, structure certificates."""

import inspect

import pytest

from reslat import classify as cl
from reslat import filters as fi
from reslat import purity as pu
from reslat.core import iter_bits
from reslat.families import godel_chain
from reslat.harness import FIXTURE_EXPECT

from conftest import tokset, toksets


def test_boolean_centers_match_reference_values(fixtures4):
    for lat in fixtures4:
        beta = cl.boolean_center(lat)["elements"]
        assert tokset(lat, beta) == set(FIXTURE_EXPECT[lat.name]["center"])
        assert (beta >> lat.bottom) & 1 and (beta >> lat.top) & 1


def test_complements_are_negations(b6):
    bc = cl.boolean_center(b6)
    a, d = b6.index("a"), b6.index("d")
    assert bc["complements"][a] == d and bc["complements"][d] == a
    for e, comp in bc["complements"].items():
        assert b6.neg(e) == comp


def test_direct_summands_examples(a6, b6):
    assert toksets(b6, cl.direct_summands(b6)) == \
        {frozenset("1"), frozenset("ac1"), frozenset("d1"),
         frozenset("0abcd1")}
    assert toksets(a6, cl.direct_summands(a6)) == \
        {frozenset("1"), frozenset("0abcd1")}


def test_summands_always_contain_trivial_pair(fixtures4):
    for lat in fixtures4:
        ds = set(cl.direct_summands(lat))
        assert 1 << lat.top in ds and lat.all_mask in ds


def test_classification_flags(fixtures4):
    for lat in fixtures4:
        rep = cl.classify(lat)
        assert rep.gelfand.value == FIXTURE_EXPECT[lat.name]["gelfand"]
        assert rep.mp.value == FIXTURE_EXPECT[lat.name]["mp"]
    a6 = fixtures4[0]
    rep6 = cl.classify(a6)
    assert rep6.hyperarchimedean.value is False
    assert rep6.directly_indecomposable.value is True
    b6 = fixtures4[1]
    assert cl.classify(b6).hyperarchimedean.value is True
    assert cl.classify(b6).directly_indecomposable.value is False


def test_negative_witnesses_reverify(a6, a8):
    rep6 = cl.classify(a6)
    assert not rep6.gelfand.value
    assert set(rep6.gelfand.witness["prime"]) == {"1"}
    assert len(rep6.gelfand.witness["maximals"]) == 2
    assert cl.verify_flag_witness(a6, "gelfand", rep6.gelfand)

    rep8 = cl.classify(a8)
    assert not rep8.mp.value
    assert len(rep8.mp.witness["minimal_primes"]) == 2
    assert cl.verify_flag_witness(a8, "mp", rep8.mp)

    for lat, rep in ((a6, rep6), (a8, rep8)):
        for name, flag in rep.flags().items():
            assert cl.verify_flag_witness(lat, name, flag)


def test_pure_equals_summands_equals_center_upsets(fixtures4):
    for lat in fixtures4:
        beta = cl.boolean_center(lat)["elements"]
        fbeta = {lat.up[e] for e in iter_bits(beta)}
        assert set(pu.pure_filters(lat)) == set(cl.direct_summands(lat)) == fbeta


def test_grothendieck_examples(a6, b6):
    g6 = cl.grothendieck_check(b6)
    assert len(g6["pairs"]) == 4 and g6["clopen_count"] == 4
    g = cl.grothendieck_check(a6)
    assert len(g["pairs"]) == 2 and g["clopen_count"] == 2
    two = godel_chain(2)
    g2 = cl.grothendieck_check(two)
    assert len(g2["pairs"]) == 2 and g2["clopen_count"] == 2


def test_gelfand_structure_passes_on_gelfand_fixtures(b6, c6, a8):
    for lat in (b6, c6, a8):
        rep = cl.gelfand_structure(lat)
        assert rep["qualifies"]
        ids = [cid for cid, _ in rep["clauses"]]
        assert "rho_m_homeomorphism" in ids
        assert "rho_rad_adjunction" in ids
        assert "rho_equals_sigma" in ids


def test_mp_structure_passes_on_mp_fixtures(a6, b6, c6):
    for lat in (a6, b6, c6):
        rep = cl.mp_structure(lat)
        assert rep["qualifies"]
        ids = [cid for cid, _ in rep["clauses"]]
        assert "min_equals_spp" in ids
        assert "iota_spp_to_min_d_homeomorphism" in ids
        assert "min_h_homeomorphic_to_spp" in ids


def test_structure_reports_refuse_nonqualifying(a6, a8):
    with pytest.raises(cl.NotApplicable):
        cl.gelfand_structure(a6)
    with pytest.raises(cl.NotApplicable):
        cl.mp_structure(a8)


def test_f_a_construction(a6):
    # F_a meets the coannulet of a trivially on an mp instance
    unit = 1 << a6.top
    for a in range(a6.n):
        assert fi.x_perp(a6, a) & cl.f_a(a6, a) == unit


def test_f_as_matches_the_per_element_formula(family):
    # F_a is the meet of rho(M) over the maximal filters M that hold a
    for lat in family:
        fas = cl.f_as(lat)
        assert len(fas) == lat.n
        for a in range(lat.n):
            over_a = fi.hull(fi.maximal_filters(lat), 1 << a)
            want = fi.kernel(lat, [pu.rho(lat, m) for m in over_a])
            assert fas[a] == cl.f_a(lat, a) == want, (lat.name, a)


# certificate clause -> the suite properties that state the same fact
CLAUSE_TWINS = {
    "rho_m_homeomorphism": ("sppgelfch",),
    "spp_equals_max_sigma": ("gelfmaxpure",),
    "spp_equals_rho_of_max": ("gelfmaxpure",),
    "spp_hausdorff": ("gelspphau", "mpspphau"),
    "pure_filters_closed_form": ("gelpurefcl",),
    "hull_kernel_equals_d_topology_on_max": ("gelfhulldmin",),
    "rho_rad_adjunction": ("equgelchapure",),
    "hm_of_sigma_unchanged": ("equgelchaunit",),
    "rho_below_max_implies_f_below": ("equgelchapure",),
    "rho_equals_sigma": ("rhosigmanorg",),
    "minimal_primes_comaximal": ("noco",),
    "comaximal_coannulets": ("noco",),
    "omega_filters_pure": ("norgammsig",),
    "coannulets_pure": ("norgammsig",),
    "min_equals_max_sigma": ("normpurprimxa",),
    "min_equals_spp": ("mp2minspp",),
    "spp_in_max_sigma": ("mpminspp",),
    "iota_spp_to_min_d_homeomorphism": ("equmpflatmin",),
    "min_d_hausdorff": ("mpmpropd",),
    "proper_pure_equal_kh_m": ("pureinterd",),
    "pure_filters_closed_form_min": ("mppurefcl",),
    "coannulet_meets_fa_trivially": ("mppureco1",),
    "minimal_prime_is_join_of_fa": ("mppu1re",),
    "min_h_homeomorphic_to_spp": ("minspprick",),
}


def _reached(fn):
    """What a registry function calls: its globals and closure cells (and
    the values of a dict cell), followed into the harness lambdas among them."""
    found, todo = [], [fn]
    while todo:
        cv = inspect.getclosurevars(todo.pop())
        cells = list(cv.nonlocals.values())
        cells += [v for c in cells if isinstance(c, dict) for v in c.values()]
        for obj in list(cv.globals.values()) + cells:
            if any(obj is seen for seen in found):
                continue
            found.append(obj)
            if inspect.isfunction(obj) and obj.__name__ == "<lambda>" and \
                    obj.__module__ == "reslat.harness":
                todo.append(obj)
    return found


def test_certificate_clauses_share_predicates_with_the_suite():
    from reslat.harness import PROPERTIES
    clauses = {cid: pred for cid, pred, _ in cl.GELFAND_CLAUSES + cl.MP_CLAUSES}
    assert set(clauses) - set(CLAUSE_TWINS) == \
        {"rho_m_well_defined", "d_of_maximal_pure_and_minimal"}
    assert "rho_m_well_defined" in cl.rho_m_homeomorphism.__code__.co_names
    for cid, pids in CLAUSE_TWINS.items():
        pred = clauses[cid]
        for pid in pids:
            reached = _reached(PROPERTIES[pid][1])
            assert any(obj is pred for obj in reached), (cid, pid)


def test_certificate_names_the_failing_clause(b6, monkeypatch):
    clauses = list(cl.GELFAND_CLAUSES)
    clauses[4] = (clauses[4][0], lambda lat: False, clauses[4][2])
    monkeypatch.setattr(cl, "GELFAND_CLAUSES", tuple(clauses))
    with pytest.raises(cl.GelfandCertFailure) as exc:
        cl.gelfand_structure(b6)
    assert exc.value.clause == "spp_hausdorff"


def test_mp_certificate_names_the_failing_clause(b6, monkeypatch):
    clauses = list(cl.MP_CLAUSES)
    clauses[9] = (clauses[9][0], lambda lat: False, clauses[9][2])
    monkeypatch.setattr(cl, "MP_CLAUSES", tuple(clauses))
    with pytest.raises(cl.MpCertFailure) as exc:
        cl.mp_structure(b6)
    assert exc.value.clause == "min_d_hausdorff"
