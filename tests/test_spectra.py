"""Spectra, the D operator, hull-kernel topologies, stability, supports."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reslat import spectra as sp
from reslat import filters as fi
from reslat.core import iter_bits, load_lattice
from reslat.harness import FIXTURE_EXPECT, PROPERTIES
from reslat.topology import separation_report, subspace

from conftest import tokset, toksets

HN_PATH = Path(__file__).parent / "data" / "hn.rlat"


def test_spectrum_tables(fixtures4):
    for lat in fixtures4:
        exp = FIXTURE_EXPECT[lat.name]
        assert toksets(lat, sp.spectrum(lat, "maximal")) == set(exp["maximal"])
        assert toksets(lat, sp.spectrum(lat, "minimal_prime")) == \
            set(exp["minimal_prime"])


def test_b6_primes_are_an_antichain(b6):
    primes = sp.spectrum(b6, "prime")
    assert toksets(b6, primes) == {frozenset("ac1"), frozenset("d1")}
    assert not sp.is_prime(b6, b6.mask_of(["1"]))    # a v d = 1 splits it


def test_max_in_spec_and_zorn(fixtures4):
    for lat in fixtures4:
        spec = set(sp.prime_filters(lat))
        maxf = sp.spectrum(lat, "maximal")
        assert set(maxf) <= spec
        for f in fi.enumerate_filters(lat).proper:
            assert any(f & ~m == 0 for m in maxf)


def test_every_prime_contains_a_minimal_prime(fixtures4):
    for lat in fixtures4:
        minp = sp.minimal_primes(lat)
        for p in sp.prime_filters(lat):
            assert any(q & ~p == 0 for q in minp)


def test_minimal_prime_characterization(fixtures4):
    # p is minimal prime iff it contains exactly one of x, x-perp, per x
    for lat in fixtures4:
        minset = set(sp.minimal_primes(lat))
        for p in sp.prime_filters(lat):
            crit = all(bool((p >> x) & 1) != (fi.x_perp(lat, x) & ~p == 0)
                       for x in range(lat.n))
            assert crit == (p in minset)


def test_D_operator_examples(a6, b6, a8):
    assert tokset(a6, sp.D_operator(a6, a6.mask_of("abd1"))) == {"1"}
    assert tokset(b6, sp.D_operator(b6, b6.mask_of(["d", "1"]))) == {"d", "1"}
    assert tokset(a8, sp.D_operator(a8, a8.mask_of("acdef1"))) == {"1"}


def test_D_operator_rejects_non_prime(a8):
    with pytest.raises(sp.NotPrime):
        sp.D_operator(a8, a8.mask_of(["1"]))     # {1} is not prime in a8


def test_D_operator_never_caches_non_prime(a8):
    p = a8.mask_of(["1"])
    for _ in range(2):
        with pytest.raises(sp.NotPrime):
            sp.D_operator(a8, p)
    assert ("D", p) not in a8._cache


def test_maximal_primes_are_maximal_filters(family):
    for lat in family:
        spec = sp.prime_filters(lat)
        max_primes = tuple(p for p in spec
                           if not any(q != p and p & ~q == 0 for q in spec))
        assert max_primes == fi.maximal_filters(lat) == \
            sp.spectrum(lat, "maximal"), lat.name


def test_D_fixed_points_are_minimal_primes(fixtures4):
    for lat in fixtures4:
        minset = set(sp.minimal_primes(lat))
        for p in sp.prime_filters(lat):
            assert (sp.D_operator(lat, p) == p) == (p in minset)


def test_min_d_of_b6_is_discrete(b6):
    space = sp.min_space(b6, "d")
    assert len(space.opens) == 4
    rep = separation_report(space)
    assert rep["hausdorff"] and rep["t1"]


def test_empty_space(a6):
    space = subspace(sp.spec_space(a6, "h"), sp.spec_mask(a6, ()))
    assert space.k == 0 and space.opens == frozenset({0})


def test_spec_h_of_a6_t0_not_t1(a6):
    space = sp.spec_space(a6, "h")
    rep = separation_report(space)
    assert rep["t0"] and not rep["t1"]
    i = space.labels.index(a6.mask_of(["1"]))
    assert space.closure(1 << i) == space.full     # {1} is dense


def test_stability_examples(a6):
    spec = sp.prime_filters(a6)
    i = spec.index(a6.mask_of(["1"]))
    assert sp.stability(spec, 1 << i) == (1 << len(spec)) - 1   # not stable
    assert sp.stability(spec, 0) == 0
    from reslat.purity import d_of
    d = d_of(a6, a6.mask_of(["d", "1"]))
    assert d == 1 << i                      # only the prime {1} omits {d,1}
    assert sp.stability(spec, d) != d


def test_support_examples(a6, b6):
    assert sp.support(a6, 1 << a6.top) == 0
    spec_b = sp.prime_filters(b6)
    supp = sp.support(b6, b6.mask_of(["d", "1"]))
    assert [tokset(b6, spec_b[i]) for i in iter_bits(supp)] == [{"a", "c", "1"}]
    from reslat.purity import d_of
    assert supp == d_of(b6, b6.mask_of(["d", "1"]))
    # not pure in a6: the support is strictly bigger than d(F)
    supp6 = sp.support(a6, a6.mask_of(["d", "1"]))
    assert supp6 == (1 << len(sp.prime_filters(a6))) - 1
    assert supp6 != d_of(a6, a6.mask_of(["d", "1"]))


def test_support_is_the_union_of_perp_hulls(fixtures4):
    # Supp(F) is the OR of h(x_perp) over the members, on every subset; the
    # table of h(x_perp) is built once per lattice
    for lat in fixtures4 + (load_lattice(HN_PATH),):
        spec = sp.prime_filters(lat)
        hulls = [sp.h_set(spec, fi.x_perp(lat, x)) for x in range(lat.n)]
        for f in range(1 << lat.n):
            want = 0
            for x in iter_bits(f):
                want |= hulls[x]
            assert sp.support(lat, f) == want, (lat.name, f)
        assert [k for k in lat._cache if "perp_hulls" in k] == ["perp_hulls"]


def test_opens_of_dual_topology_are_unions_of_hulls(family):
    opensd = PROPERTIES["opensd"][1]
    for lat in family:
        spec = sp.prime_filters(lat)
        fam = {0} | {sp.h_set(spec, 1 << x) for x in range(lat.n)}
        while True:
            extra = {u | v for u in fam for v in fam} - fam
            if not extra:
                break
            fam |= extra
        assert fam == set(sp.spec_space(lat, "d").opens), lat.name
        assert opensd(lat).status == "pass", lat.name


def test_h_closed_iff_patch_closed_and_stable(family):
    closefalzai = PROPERTIES["closefalzai"][1]
    for lat in family:
        spec = sp.prime_filters(lat)
        sh, spatch = sp.spec_space(lat, "h"), sp.spec_space(lat, "patch")
        for sub in range(1 << len(spec)):
            lhs = sh.is_closed(sub)
            rhs = spatch.is_closed(sub) and \
                sp.stability(spec, sub) == sub
            assert lhs == rhs, (lat.name, sub)
        assert closefalzai(lat).status == "pass", lat.name


def test_unknown_flavor_rejected(a6):
    with pytest.raises(ValueError):
        sp.spec_space(a6, "weird")


def test_point_rows_match_h_set(family):
    # one row set per lattice, shared by the spaces built over Spec; every
    # spectrum is a family of primes with an index mask over Spec
    for lat in family:
        spec = sp.prime_filters(lat)
        rows = sp.point_rows(lat)
        assert rows == tuple(sp.h_set(spec, 1 << x) for x in range(lat.n))
        assert sp.point_rows(lat) is rows
        for kind in ("prime", "maximal", "minimal_prime"):
            pts = sp.spectrum(lat, kind)
            mask = sp.spec_mask(lat, pts)
            assert [spec[i] for i in iter_bits(mask)] == list(pts)
            assert sp.spec_mask(lat, list(pts)) == mask


@settings(max_examples=300)
@given(points=st.lists(st.integers(0, (1 << 12) - 1), unique=True,
                       max_size=20),
       x_mask=st.integers(0, (1 << 12) - 1))
def test_h_set_is_the_hull(points, x_mask):
    # bit i is set iff point i contains every element of X; in point order
    # those points are filters.hull(points, X)
    want = sum(1 << i for i, p in enumerate(points)
               if all(p >> x & 1 for x in iter_bits(x_mask)))
    assert sp.h_set(points, x_mask) == sp.h_set(tuple(points), x_mask) == want
    assert [points[i] for i in iter_bits(want)] == fi.hull(points, x_mask)


def _is_prime_oracle(lat, mask):
    # a proper filter in which x v y in F implies x in F or y in F
    return (mask != lat.all_mask and fi.is_filter(lat, mask)
            and all(mask >> x & 1 or mask >> y & 1
                    for x in range(lat.n) for y in range(lat.n)
                    if mask >> lat.join[x][y] & 1))


def _check_spectra(lat):
    # every filter, the empty set, each single element, each upset up(x) of
    # a non-idempotent x and each downset down(x) with x below the top
    masks = set(fi.enumerate_filters(lat).filters) | {0}
    masks.update(1 << x for x in range(lat.n))
    masks.update(lat.up[x] for x in range(lat.n) if lat.prod[x][x] != x)
    masks.update(lat.down[x] for x in range(lat.n) if x != lat.top)
    for m in masks:
        assert sp.is_prime(lat, m) == _is_prime_oracle(lat, m), \
            (lat.name, lat.set_str(m))
    for p in sp.prime_filters(lat):
        want = sum(1 << a for a in range(lat.n)
                   if any(lat.join[a][y] == lat.top
                          for y in range(lat.n) if not p >> y & 1))
        assert sp.D_operator(lat, p) == want, (lat.name, lat.set_str(p))
    spec = sp.prime_filters(lat)
    assert sp.point_rows(lat) == tuple(
        sum(1 << i for i, p in enumerate(spec) if p >> x & 1)
        for x in range(lat.n))
    for kind in ("prime", "maximal", "minimal_prime"):
        pts = set(sp.spectrum(lat, kind))
        assert sp.spec_mask(lat, pts) == sum(
            1 << i for i, p in enumerate(spec) if p in pts)


def test_spectra_match_the_definitions(family):
    # is_prime, D and the point rows against their definitions, on every
    # acceptance instance and on its quotient by every filter
    for lat in family:
        _check_spectra(lat)
        for f in fi.enumerate_filters(lat).filters:
            _check_spectra(fi.quotient(lat, f).quotient)
