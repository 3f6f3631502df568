"""Generic finite-space machinery: separation, irreducibility, point maps.

The library stores a finite space as one minimal open set per point.  The
oracle below stores the whole family of opens instead, builds it with the
union/intersection fixpoint and answers every query from that family; the
two must agree on every small space the theorem suite builds.
"""

import itertools
import random

import pytest

from reslat import spectra as sp
from reslat.classify import maximal_point_mask
from reslat.core import LatticeError, iter_bits, mask_key
from reslat.filters import maximal_filters
from reslat.purity import (d_of, d_topology, pure_filters,
                           pure_part_map, pure_spectrum, rho)
from reslat.topology import (FiniteSpace, PointMap, clopens, components,
                             irreducible_closed_sets, map_analysis,
                             separation_report, space_from_subbasis,
                             specialization_dot, subspace)

ORACLE_MAX_POINTS = 8


class ExplicitSpace:
    """A finite space as its explicit family of opens (test oracle)."""

    def __init__(self, k, opens):
        self.k, self.full = k, (1 << k) - 1
        self.opens = frozenset(opens)
        assert 0 in self.opens and self.full in self.opens
        assert all(u | v in self.opens and u & v in self.opens
                   for u in self.opens for v in self.opens)
        self.closed_sets = frozenset(self.full ^ o for o in self.opens)

    @classmethod
    def from_subbasis(cls, k, subbasis):
        fam = {0, (1 << k) - 1} | set(subbasis)
        while True:
            extra = {w for u in fam for v in fam for w in (u | v, u & v)} - fam
            if not extra:
                return cls(k, fam)
            fam |= extra

    def is_closed(self, mask):
        return mask in self.closed_sets

    def closure(self, mask):
        out = self.full
        for c in self.closed_sets:
            if mask & ~c == 0:
                out &= c
        return out

    def clopens(self):
        return sorted((o for o in self.opens if self.is_closed(o)),
                      key=mask_key)

    def irreducible_closed_sets(self):
        closed = sorted(self.closed_sets, key=mask_key)
        out = []
        for c in closed:
            if c == 0:
                continue
            # only maximal proper closed traces inside c can witness a cover
            traces = {c & d for d in closed if c & ~d}
            maximal = [t for t in traces
                       if not any(t != u and t & ~u == 0 for u in traces)]
            if not any(t1 | t2 == c for t1, t2 in
                       itertools.combinations_with_replacement(maximal, 2)):
                out.append((c, tuple(p for p in iter_bits(c)
                                     if self.closure(1 << p) == c)))
        return out

    def separation_report(self):
        nb = [self.full] * self.k
        for o in self.opens:
            for i in iter_bits(o):
                nb[i] &= o
        return {"t0": len(set(nb)) == self.k,
                "t1": all(self.closure(1 << i) == 1 << i
                          for i in range(self.k)),
                "hausdorff": all(not nb[i] & nb[j] for i in range(self.k)
                                 for j in range(i + 1, self.k)),
                "sober": all(len(g) == 1
                             for _, g in self.irreducible_closed_sets()),
                "connected": len(self.clopens()) <= 2 if self.k else True,
                "compact_note": "trivially compact (finite)"}


def explicit_map_analysis(pm, src, tgt):
    """The family-based continuity, openness and closedness of a point map."""
    continuous = all(pm.preimage_mask(o) in src.opens for o in tgt.opens)
    open_map = all(pm.image_mask(o) in tgt.opens for o in src.opens)
    closed_map = all(tgt.is_closed(pm.image_mask(c)) for c in src.closed_sets)
    return {"continuous": continuous, "open": open_map, "closed": closed_map}


def _hull_kernel_subbasis(lat, points, flavor):
    hx = [sp.h_set(points, 1 << x) for x in range(lat.n)]
    dx = [((1 << len(points)) - 1) ^ m for m in hx]
    return {"h": dx, "d": hx, "patch": hx + dx}[flavor]


def suite_spaces(lat):
    """Each space the suite builds on ``lat`` with its explicit oracle."""
    spec, mins = sp.prime_filters(lat), sp.minimal_primes(lat)
    out = {}
    for flavor in ("h", "d", "patch"):
        out[f"Spec_{flavor}"] = (sp.spec_space(lat, flavor), ExplicitSpace.
                                 from_subbasis(len(spec), _hull_kernel_subbasis(
                                     lat, spec, flavor)))
    for flavor in ("h", "d"):
        out[f"Min_{flavor}"] = (sp.min_space(lat, flavor), ExplicitSpace.
                                from_subbasis(len(mins), _hull_kernel_subbasis(
                                    lat, mins, flavor)))
    maxf = maximal_filters(lat)
    out["Max_h"] = (sp.hull_kernel_space(lat, maxf, "h"),
                    ExplicitSpace.from_subbasis(
                        len(maxf), _hull_kernel_subbasis(lat, maxf, "h")))
    spp = pure_spectrum(lat)
    # Spp and Spec_D were once built straight from these families, which
    # must then already be topologies
    out["Spp"] = (spp.space, ExplicitSpace(
        len(spp), {sp.d_set(spp.points, f) for f in pure_filters(lat)}))
    out["Spec_D"] = (d_topology(lat), ExplicitSpace(
        len(spec), {d_of(lat, f) for f in pure_filters(lat)}))
    return {name: pair for name, pair in out.items()
            if pair[0].k <= ORACLE_MAX_POINTS}


def _assorted_spaces(fixtures4):
    out = []
    for lat in fixtures4:
        out.append(sp.spec_space(lat, "h"))
        out.append(sp.spec_space(lat, "d"))
        out.append(sp.spec_space(lat, "patch"))
        out.append(pure_spectrum(lat).space)
    return out


def test_construction_rejects_non_topology():
    with pytest.raises(LatticeError):          # p is not in its own row
        FiniteSpace(("p", "q"), (0b10, 0b10))
    with pytest.raises(LatticeError):          # q in U_p, but U_q not in U_p
        FiniteSpace(("p", "q", "r"), (0b011, 0b110, 0b100))
    with pytest.raises(LatticeError):          # a row leaves the space
        FiniteSpace(("p",), (0b11,))
    with pytest.raises(LatticeError):          # one row per point
        FiniteSpace(("p", "q"), (0b01,))


def test_subbasis_generation():
    space = space_from_subbasis(("p", "q", "r"), [0b011, 0b110])
    assert space.nbhd == (0b011, 0b010, 0b110)
    assert 0b010 in space.opens           # the pairwise intersection
    assert 0b111 in space.opens and 0 in space.opens


def test_separation_of_known_spaces(b6, a6):
    spp_b6 = pure_spectrum(b6).space
    rep = separation_report(spp_b6)
    assert rep == {"t0": True, "t1": True, "hausdorff": True, "sober": True,
                   "connected": False,
                   "compact_note": "trivially compact (finite)"}
    one_point = FiniteSpace(("pt",), (0b1,))
    assert one_point.opens == frozenset({0, 1})
    rep1 = separation_report(one_point)
    assert all(rep1[k] for k in ("t0", "t1", "hausdorff", "sober", "connected"))
    rep6 = separation_report(sp.spec_space(a6, "h"))
    assert rep6["t0"] and not rep6["t1"]


def test_separation_implications_hold(fixtures4):
    for space in _assorted_spaces(fixtures4):
        rep = separation_report(space)
        if rep["hausdorff"]:
            assert rep["t1"] and rep["sober"]
        if rep["t1"]:
            assert rep["t0"]


def test_sober_matches_generic_point_uniqueness(fixtures4):
    for space in _assorted_spaces(fixtures4):
        unique = all(len(g) == 1 for _, g in irreducible_closed_sets(space))
        assert separation_report(space)["sober"] == unique


def test_irreducible_closed_sets_examples(b6, a6):
    spp = pure_spectrum(b6).space
    irr = irreducible_closed_sets(spp)
    assert sorted(c for c, _ in irr) == [0b01, 0b10]
    assert all(g == (c.bit_length() - 1,) for c, g in irr)

    empty = FiniteSpace((), ())
    assert empty.opens == frozenset({0})
    assert irreducible_closed_sets(empty) == []

    sh = sp.spec_space(a6, "h")
    whole = [(c, g) for c, g in irreducible_closed_sets(sh) if c == sh.full]
    assert len(whole) == 1
    (c, gens), = whole
    assert [sh.labels[i] for i in gens] == [a6.mask_of(["1"])]


def test_clopens_examples(b6, a6, fixtures4):
    assert len(clopens(pure_spectrum(b6).space)) == 4
    assert len(clopens(pure_spectrum(a6).space)) == 2
    for space in _assorted_spaces(fixtures4):
        cl = clopens(space)
        assert 0 in cl and space.full in cl
        comps = components(space)          # the atoms of the clopens
        assert sum(comps) == space.full and all(
            not a & b for a, b in itertools.combinations(comps, 2))
        assert len(cl) == 2 ** len(comps)
    assert components(FiniteSpace((), ())) == []


def test_identity_is_homeomorphism(b6):
    space = pure_spectrum(b6).space
    pm = PointMap(space, space, tuple(range(space.k)))
    rep = map_analysis(pm)
    assert rep["homeomorphism"] and rep["retraction_onto_image"]


def test_min_d_to_spp_identity_is_homeomorphism(b6):
    spp = pure_spectrum(b6)
    min_d = sp.hull_kernel_space(b6, spp.points, "d")
    pm = PointMap(min_d, spp.space, tuple(range(min_d.k)))
    assert map_analysis(pm)["homeomorphism"]


def test_a8_min_vs_spp_cannot_biject(a8):
    spp = pure_spectrum(a8)
    min_d = sp.hull_kernel_space(a8, sp.minimal_primes(a8), "d")
    assert min_d.k == 2 and spp.space.k == 1
    pm = PointMap(min_d, spp.space, (0, 0))
    rep = map_analysis(pm)
    assert not rep["injective"] and not rep["homeomorphism"]


def test_point_map_totality_enforced(b6):
    space = pure_spectrum(b6).space
    with pytest.raises(LatticeError):
        PointMap(space, space, (0,))
    with pytest.raises(LatticeError):
        PointMap(space, space, (0, 5))


def test_retraction_flag_respects_labels(a6):
    sh = sp.spec_space(a6, "h")
    maxset = set(sp.spectrum(a6, "maximal"))
    mmask = sum(1 << i for i, p in enumerate(sh.labels) if p in maxset)
    sub = subspace(sh, mmask)
    mapping = []
    for p in sh.labels:
        mapping.append(sub.labels.index(p) if p in maxset else 0)
    rep = map_analysis(PointMap(sh, sub, tuple(mapping)))
    assert rep["retraction_onto_image"] == rep["continuous"]


def test_minimal_neighborhoods(b6, a6):
    assert pure_spectrum(b6).space.nbhd == (0b01, 0b10)
    # U_p is the primes inside p: {1} lies inside every prime of A6
    sh = sp.spec_space(a6, "h")
    one = 1 << sh.labels.index(a6.mask_of(["1"]))
    for p, u in enumerate(sh.nbhd):
        assert u == sum(1 << q for q, lq in enumerate(sh.labels)
                        if lq & ~sh.labels[p] == 0)
        assert u & one


def test_subspace_traces(a6):
    sh = sp.spec_space(a6, "h")
    sub = subspace(sh, 0b11)
    assert sub.k == 2
    assert all(o <= 0b11 for o in sub.opens)
    assert sub.opens == {((o & 1) | ((o >> 1) & 1) << 1) for o in sh.opens}


def test_interior_closure_duality(fixtures4):
    for space in _assorted_spaces(fixtures4):
        for mask in range(min(1 << space.k, 64)):
            inter = space.full ^ space.closure(space.full ^ mask)
            assert space.is_open(inter) and inter & ~mask == 0
            cl = space.closure(mask)
            assert space.is_closed(cl) and mask & ~cl == 0


def test_specialization_dot(a6):
    # p -> q iff p lies in the closure of q; {1} is the dense generic point
    sh = sp.spec_space(a6, "h")
    dot = specialization_dot(sh, "SpecA6", [a6.set_str(p) for p in sh.labels])
    assert dot == """digraph "SpecA6" {
  rankdir=BT;
  node [shape=plaintext];
  "{1}";
  "{c,d,1}";
  "{a,b,d,1}";
  "{c,d,1}" -> "{1}";
  "{a,b,d,1}" -> "{1}";
}"""


def test_rows_agree_with_explicit_opens_oracle(family):
    seen = 0
    for lat in family:
        for name, (space, ref) in suite_spaces(lat).items():
            where = (lat.name, name)
            seen += 1
            assert space.k == ref.k, where
            assert space.opens == ref.opens, where
            assert space.closed_sets == ref.closed_sets, where
            for mask in range(1 << space.k):
                assert space.closure(mask) == ref.closure(mask), where
                assert space.is_open(mask) == (mask in ref.opens), where
                assert space.is_closed(mask) == ref.is_closed(mask), where
            assert separation_report(space) == ref.separation_report(), where
            assert clopens(space) == ref.clopens(), where
            assert irreducible_closed_sets(space) == \
                ref.irreducible_closed_sets(), where
    assert seen > 400


def test_map_analysis_agrees_with_explicit_opens_oracle(family):
    rng = random.Random(20220)
    checked = 0
    for lat in family:
        spaces = suite_spaces(lat)
        maps = [(PointMap(s, s, tuple(range(s.k))), ref, ref)
                for s, ref in spaces.values()]
        if {"Spec_h", "Spp"} <= set(spaces):
            maps.append((pure_part_map(lat), spaces["Spec_h"][1],
                         spaces["Spp"][1]))
        spp = pure_spectrum(lat)
        if "Max_h" in spaces and "Spp" in spaces and \
                all(rho(lat, m) in spp.points for m in maximal_filters(lat)):
            max_h, max_ref = spaces["Max_h"]
            maps.append((PointMap(max_h, spp.space, tuple(
                spp.points.index(rho(lat, m)) for m in max_h.labels)),
                max_ref, spaces["Spp"][1]))
        pairs = [(a, b) for a in spaces.values() for b in spaces.values()
                 if b[0].k]
        for _ in range(6):
            (src, src_ref), (tgt, tgt_ref) = rng.choice(pairs)
            mapping = tuple(rng.randrange(tgt.k) for _ in range(src.k))
            maps.append((PointMap(src, tgt, mapping), src_ref, tgt_ref))
        for pm, src_ref, tgt_ref in maps:
            got = map_analysis(pm)
            want = explicit_map_analysis(pm, src_ref, tgt_ref)
            assert {k: got[k] for k in want} == want, (lat.name, pm.mapping)
            assert got["homeomorphism"] == (
                want["continuous"] and want["open"] and
                sorted(pm.mapping) == list(range(pm.target.k)))
            checked += 1
    assert checked > 800


def _gelnor_search(lat):
    """The brute-force search for a continuous retraction Spec_h -> Max_h."""
    spec, sh = sp.prime_filters(lat), sp.spec_space(lat, "h")
    ref = ExplicitSpace.from_subbasis(len(spec),
                                      _hull_kernel_subbasis(lat, spec, "h"))
    maxset = set(maximal_filters(lat))
    sub = subspace(sh, maximal_point_mask(lat))
    sub_ref = ExplicitSpace.from_subbasis(
        sub.k, _hull_kernel_subbasis(lat, sub.labels, "h"))
    pos = {sub.labels[i]: i for i in range(sub.k)}
    free = [i for i, p in enumerate(spec) if p not in maxset]
    for combo in itertools.product(range(sub.k), repeat=len(free)):
        mapping = [pos.get(p, 0) for p in spec]
        for slot, i in enumerate(free):
            mapping[i] = combo[slot]
        pm = PointMap(sh, sub, tuple(mapping))
        if explicit_map_analysis(pm, ref, sub_ref)["continuous"]:
            return True
    return False


def test_gelnor_agrees_with_retraction_search(family):
    from reslat.harness import PROPERTIES, _is_gelfand
    gelnor = PROPERTIES["gelnor"][1]
    for lat in family:
        if len(sp.prime_filters(lat)) > ORACLE_MAX_POINTS:
            continue
        want = "pass" if _gelnor_search(lat) == _is_gelfand(lat) else "fail"
        assert gelnor(lat).status == want, lat.name
