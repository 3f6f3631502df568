"""Boolean center, direct summands, structural classification, certificates.

Every classification flag carries a witness: a re-verifiable violating
configuration when false, the identifier of the exhaustive check when
true.  The Gelfand and mp structure reports refuse non-qualifying inputs
outright; each of their clauses is a predicate that the theorem suite's
property for the same statement calls as well.
"""

from __future__ import annotations

from collections import namedtuple

from .core import LatticeError, ResiduatedLattice, iter_bits, transpose
from .filters import (coannihilator, coannulets, enumerate_filters,
                      generated_filter, hull, inside, kernel, maximal_filters,
                      omega_filters, per_lattice, radical_index)
from .spectra import (D_operator, d_set, h_set, max_space, min_space,
                      minimal_primes, nested_pair, prime_filters, spec_mask,
                      spec_space)
from .purity import (d_topology, pure_filters, pure_spectrum, rho, rho_index,
                     sigma_filter, sigma_index)
from .topology import (clopens, is_homeomorphism, label_map,
                       separation_report, subspace)


class BijectionFailure(LatticeError):
    """The complemented-element/clopen correspondence is not a bijection."""


class NotApplicable(LatticeError):
    """A structure report was requested for a non-qualifying lattice."""


class CertificateFailure(LatticeError):
    """A clause of a structure certificate does not hold."""

    def __init__(self, clause, detail):
        super().__init__(f"clause {clause}: {detail}")
        self.clause = clause


class GelfandCertFailure(CertificateFailure):
    pass


class MpCertFailure(CertificateFailure):
    pass


@per_lattice("boolean_center")
def boolean_center(lat: ResiduatedLattice) -> dict:
    """Complemented elements with their complements.

    An element x is complemented when some y has x v y = 1 and x ^ y = 0.
    The theorem suite checks the negation form {a | a v -a = 1}, that -x
    is the only complement, and that central products are meets
    (``boleleprop``).
    """
    n, top, bottom = lat.n, lat.top, lat.bottom
    elems = 0
    complements = {}
    for x in range(n):
        comp = next((y for y in range(n) if lat.join[x][y] == top
                     and lat.meet[x][y] == bottom), None)
        if comp is not None:
            elems |= 1 << x
            complements[x] = comp
    return {"elements": elems, "complements": complements}


@per_lattice("direct_summands")
def direct_summands(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Filters F with F v F-perp = A.

    ``b9fxpro`` compares them with the upsets of central elements and with
    the filters that have a complement in the filter lattice.
    """
    full = lat.all_mask
    unit = 1 << lat.top
    return tuple(f for f in enumerate_filters(lat).filters
                 if generated_filter(lat, f | coannihilator(lat, unit, f))
                 == full)


class Flag(namedtuple("Flag", "value witness")):
    __slots__ = ()


class ClassificationReport(namedtuple(
        "ClassificationReport", "gelfand mp hyperarchimedean "
        "directly_indecomposable boolean_center direct_summands")):
    __slots__ = ()

    def flags(self) -> dict:
        return {"gelfand": self.gelfand, "mp": self.mp,
                "hyperarchimedean": self.hyperarchimedean,
                "directly_indecomposable": self.directly_indecomposable}


@per_lattice("classification")
def classify(lat: ResiduatedLattice) -> ClassificationReport:
    spec = prime_filters(lat)
    maxf = maximal_filters(lat)
    minp = minimal_primes(lat)
    toks = lat.tokens_of

    gelfand = Flag(True, {"check": "every prime under exactly one maximal"})
    for p in spec:
        over = hull(maxf, p)
        if len(over) != 1:
            gelfand = Flag(False, {"prime": toks(p),
                                   "maximals": [toks(m) for m in over]})
            break

    mp = Flag(True, {"check": "every prime over exactly one minimal prime"})
    for p in spec:
        under = inside(minp, p)
        if len(under) != 1:
            mp = Flag(False, {"prime": toks(p),
                              "minimal_primes": [toks(q) for q in under]})
            break

    pair = nested_pair(spec)
    hyper = (Flag(True, {"check": "Spec is an antichain"}) if pair is None
             else Flag(False, {"lower": toks(pair[0]),
                               "upper": toks(pair[1])}))

    beta = boolean_center(lat)["elements"]
    trivial = (1 << lat.bottom) | (1 << lat.top)
    if beta == trivial:
        ind = Flag(True, {"check": "Boolean center is {0,1}"})
    else:
        extra = iter_bits(beta & ~trivial)[0]
        ind = Flag(False, {"central_element": lat.names[extra]})

    return ClassificationReport(gelfand, mp, hyper, ind, beta,
                                direct_summands(lat))


def verify_flag_witness(lat: ResiduatedLattice, name: str, flag: Flag) -> bool:
    """Re-verify a false flag's witness as an actual violating configuration."""
    if flag.value:
        return "check" in flag.witness
    w = flag.witness
    if name == "gelfand":
        p = lat.mask_of(w["prime"])
        ms = [lat.mask_of(t) for t in w["maximals"]]
        actual = hull(maximal_filters(lat), p)
        return (p in set(prime_filters(lat)) and sorted(ms) == sorted(actual)
                and len(ms) != 1)
    if name == "mp":
        p = lat.mask_of(w["prime"])
        qs = [lat.mask_of(t) for t in w["minimal_primes"]]
        actual = inside(minimal_primes(lat), p)
        return (p in set(prime_filters(lat)) and sorted(qs) == sorted(actual)
                and len(qs) != 1)
    if name == "hyperarchimedean":
        lo, up = lat.mask_of(w["lower"]), lat.mask_of(w["upper"])
        spec = set(prime_filters(lat))
        return lo in spec and up in spec and lo != up and lo & ~up == 0
    if name == "directly_indecomposable":
        e = lat.index(w["central_element"])
        beta = boolean_center(lat)["elements"]
        return bool((beta >> e) & 1) and e not in (lat.bottom, lat.top)
    raise ValueError(f"unknown flag {name!r}")


def grothendieck_check(lat: ResiduatedLattice) -> dict:
    """e -> d(up(e)) on Spp must biject the center onto the Spp clopens."""
    spp = pure_spectrum(lat)
    beta = boolean_center(lat)["elements"]
    pairs = []
    seen = {}
    for e in iter_bits(beta):
        image = d_set(spp.points, lat.up[e])
        if image in seen:
            raise BijectionFailure(
                f"{lat.name}: {lat.names[seen[image]]} and {lat.names[e]} "
                "map to the same clopen")
        seen[image] = e
        pairs.append((e, image))
    clop = set(clopens(spp.space))
    images = set(seen)
    if not images <= clop:
        raise BijectionFailure(f"{lat.name}: some image is not clopen")
    if images != clop:
        missing = next(iter(clop - images))
        raise BijectionFailure(
            f"{lat.name}: clopen {missing:b} has no central preimage")
    return {"pairs": pairs, "clopen_count": len(clop)}


# -- certificate predicates ---------------------------------------------------
# Each predicate states one structural fact and returns a bool.  The Gelfand
# and mp certificates list them as clauses; the theorem-suite property that
# states the same fact calls the same function.  Those that range over
# pairs of filters work on filter indices: comaximality is one lookup in the
# join table of Fil(A), and sigma, rho and rad are read off their per-lattice
# index vectors.


def pairwise_comaximal(lat: ResiduatedLattice, ids) -> bool:
    """The filters at any two positions of a list of filter indices are
    comaximal (the join is commutative, so each pair is read once)."""
    fl = enumerate_filters(lat)
    join_t, top = fl.join_t, fl.top_i
    return all(join_t[i][j] == top for a, i in enumerate(ids)
               for j in ids[a + 1:])


def kh_m(lat: ResiduatedLattice, f_mask: int) -> int:
    """The intersection of the minimal primes containing F."""
    return kernel(lat, hull(minimal_primes(lat), f_mask))


def purely_maximal_points(lat: ResiduatedLattice) -> set:
    spp = pure_spectrum(lat)
    return {p for p, is_m in zip(spp.points, spp.purely_maximal) if is_m}


def f_a(lat: ResiduatedLattice, a: int) -> int:
    """F_a: intersection of the pure parts of the maximal filters over a."""
    return f_as(lat)[a]


@per_lattice("f_as")
def f_as(lat: ResiduatedLattice) -> tuple[int, ...]:
    """F_a for every element a, from one pure part per maximal filter."""
    maxf = maximal_filters(lat)
    rhos = [rho(lat, m) for m in maxf]
    return tuple([kernel(lat, map(rhos.__getitem__, iter_bits(over)))
                  for over in transpose(maxf, lat.n)])


def _hull_closed_forms(lat, flavor, points) -> set:
    """For each closed set of Spec_flavor, the meet of ``points[p]`` over
    its members p that are keys of ``points``."""
    space = spec_space(lat, flavor)
    forms = set()
    for c in space.closed_sets:
        members = [space.labels[i] for i in iter_bits(c)]
        forms.add(kernel(lat, [points[p] for p in members if p in points]))
    return forms


def gelfand_closed_forms(lat: ResiduatedLattice) -> set:
    """D-intersections over the maximal points of each h-closed set."""
    return _hull_closed_forms(lat, "h", {m: D_operator(lat, m)
                                         for m in maximal_filters(lat)})


def mp_closed_forms(lat: ResiduatedLattice) -> set:
    """Intersections of the minimal primes of each d-closed set."""
    return _hull_closed_forms(lat, "d", {q: q for q in minimal_primes(lat)})


def rho_m_well_defined(lat: ResiduatedLattice) -> bool:
    points = set(pure_spectrum(lat).points)
    return all(rho(lat, m) in points for m in maximal_filters(lat))


def rho_m_homeomorphism(lat: ResiduatedLattice) -> bool:
    """rho restricted to Max_h is a homeomorphism onto Spp."""
    if not rho_m_well_defined(lat):
        return False
    rho_m = label_map(max_space(lat, "h"), pure_spectrum(lat).space,
                      lambda m: rho(lat, m))
    return is_homeomorphism(rho_m)


def spp_equals_max_sigma(lat: ResiduatedLattice) -> bool:
    return set(pure_spectrum(lat).points) == purely_maximal_points(lat)


def spp_equals_rho_of_max(lat: ResiduatedLattice) -> bool:
    return set(pure_spectrum(lat).points) == \
        {rho(lat, m) for m in maximal_filters(lat)}


def spp_hausdorff(lat: ResiduatedLattice) -> bool:
    return separation_report(pure_spectrum(lat).space)["hausdorff"]


def pure_filters_closed_form(lat: ResiduatedLattice) -> bool:
    return gelfand_closed_forms(lat) == set(pure_filters(lat))


def hull_kernel_equals_d_topology_on_max(lat: ResiduatedLattice) -> bool:
    mmask = spec_mask(lat, maximal_filters(lat))
    return max_space(lat, "h").nbhd == subspace(d_topology(lat), mmask).nbhd


def rho_rad_adjunction(lat: ResiduatedLattice) -> bool:
    fl = enumerate_filters(lat).filters
    rhos = [fl[k] for k in rho_index(lat)]
    rads = [fl[k] for k in radical_index(lat)]
    return all((rf & ~g == 0) == (f & ~rad_g == 0)
               for f, rf in zip(fl, rhos) for g, rad_g in zip(fl, rads))


def hm_unchanged(lat: ResiduatedLattice, images) -> bool:
    """h_M(F) = h_M(op F) for every filter F, where ``images`` is the index
    vector of op and h_M(F) the index mask of the maximal filters over F."""
    maxf = maximal_filters(lat)
    hm = [h_set(maxf, f) for f in enumerate_filters(lat).filters]
    return all(hm[i] == hm[k] for i, k in enumerate(images))


def hm_of_sigma_unchanged(lat: ResiduatedLattice) -> bool:
    return hm_unchanged(lat, sigma_index(lat))


def below_max_implies_f_below(lat: ResiduatedLattice, images) -> bool:
    """op F inside a maximal filter M implies F inside M, where ``images``
    is the index vector of op."""
    fl = enumerate_filters(lat).filters
    maxf = maximal_filters(lat)
    return all(fl[k] & ~m or f & ~m == 0
               for f, k in zip(fl, images) for m in maxf)


def rho_below_max_implies_f_below(lat: ResiduatedLattice) -> bool:
    return below_max_implies_f_below(lat, rho_index(lat))


def rho_equals_sigma(lat: ResiduatedLattice) -> bool:
    return all(rho(lat, f) == sigma_filter(lat, f)
               for f in enumerate_filters(lat).filters)


def minimal_primes_comaximal(lat: ResiduatedLattice) -> bool:
    idx = enumerate_filters(lat).idx
    return pairwise_comaximal(lat, [idx(p) for p in minimal_primes(lat)])


def comaximal_coannulets(lat: ResiduatedLattice) -> bool:
    """x v y = 1 implies that the coannulets of x and y are comaximal: y
    ranges over x-perp, the elements that join x to 1."""
    fl = enumerate_filters(lat)
    join_t, top = fl.join_t, fl.top_i
    perps = coannulets(lat)
    ids = [fl.idx(p) for p in perps]
    return all(join_t[i][ids[y]] == top
               for i, p in zip(ids, perps) for y in iter_bits(p))


def omega_filters_pure(lat: ResiduatedLattice) -> bool:
    return set(omega_filters(lat)) <= set(pure_filters(lat))


def coannulets_pure(lat: ResiduatedLattice) -> bool:
    return set(coannulets(lat)) <= set(pure_filters(lat))


def d_of_maximal_pure_and_minimal(lat: ResiduatedLattice) -> bool:
    pure, minset = set(pure_filters(lat)), set(minimal_primes(lat))
    return all(D_operator(lat, m) in pure and D_operator(lat, m) in minset
               for m in maximal_filters(lat))


def min_equals_max_sigma(lat: ResiduatedLattice) -> bool:
    return set(minimal_primes(lat)) == purely_maximal_points(lat)


def min_equals_spp(lat: ResiduatedLattice) -> bool:
    return set(minimal_primes(lat)) == set(pure_spectrum(lat).points)


def spp_in_max_sigma(lat: ResiduatedLattice) -> bool:
    return set(pure_spectrum(lat).points) <= purely_maximal_points(lat)


def iota_spp_to_min_d_homeomorphism(lat: ResiduatedLattice) -> bool:
    """Spp and Min_d have the same points, and the identity is a homeomorphism."""
    iota = label_map(pure_spectrum(lat).space, min_space(lat, "d"))
    return iota is not None and is_homeomorphism(iota)


def min_d_hausdorff(lat: ResiduatedLattice) -> bool:
    return separation_report(min_space(lat, "d"))["hausdorff"]


def proper_pure_equal_kh_m(lat: ResiduatedLattice) -> bool:
    return all(kh_m(lat, f) == f for f in pure_filters(lat)
               if f != lat.all_mask)


def pure_filters_closed_form_min(lat: ResiduatedLattice) -> bool:
    return mp_closed_forms(lat) == set(pure_filters(lat))


def coannulet_meets_fa_trivially(lat: ResiduatedLattice) -> bool:
    unit = 1 << lat.top
    return all(perp & fa == unit
               for perp, fa in zip(coannulets(lat), f_as(lat)))


def fa_join(lat: ResiduatedLattice, mask: int) -> int:
    """The filter generated by the F_a of the members of a set."""
    fas, union = f_as(lat), 0
    for a in iter_bits(mask):
        union |= fas[a]
    return generated_filter(lat, union)


def minimal_prime_is_join_of_fa(lat: ResiduatedLattice) -> bool:
    return all(fa_join(lat, q) == q for q in minimal_primes(lat))


def min_h_homeomorphic_to_spp(lat: ResiduatedLattice) -> bool:
    """Min_h and Spp have the same points, and the identity is a homeomorphism."""
    iota = label_map(min_space(lat, "h"), pure_spectrum(lat).space)
    return iota is not None and is_homeomorphism(iota)


# (clause id, predicate, note), in certification order
GELFAND_CLAUSES = (
    ("rho_m_well_defined", rho_m_well_defined, ""),
    ("rho_m_homeomorphism", rho_m_homeomorphism, ""),
    ("spp_equals_max_sigma", spp_equals_max_sigma, ""),
    ("spp_equals_rho_of_max", spp_equals_rho_of_max, ""),
    ("spp_hausdorff", spp_hausdorff, ""),
    ("pure_filters_closed_form", pure_filters_closed_form,
     "pure filters are exactly the D-intersections over h-closed sets"),
    ("hull_kernel_equals_d_topology_on_max",
     hull_kernel_equals_d_topology_on_max, ""),
    ("rho_rad_adjunction", rho_rad_adjunction, ""),
    ("hm_of_sigma_unchanged", hm_of_sigma_unchanged, ""),
    ("rho_below_max_implies_f_below", rho_below_max_implies_f_below, ""),
    ("rho_equals_sigma", rho_equals_sigma, ""),
)

MP_CLAUSES = (
    ("minimal_primes_comaximal", minimal_primes_comaximal, ""),
    ("comaximal_coannulets", comaximal_coannulets, ""),
    ("omega_filters_pure", omega_filters_pure, ""),
    ("coannulets_pure", coannulets_pure, ""),
    ("d_of_maximal_pure_and_minimal", d_of_maximal_pure_and_minimal, ""),
    ("min_equals_max_sigma", min_equals_max_sigma, ""),
    ("min_equals_spp", min_equals_spp, ""),
    ("spp_in_max_sigma", spp_in_max_sigma, ""),
    ("iota_spp_to_min_d_homeomorphism", iota_spp_to_min_d_homeomorphism, ""),
    ("min_d_hausdorff", min_d_hausdorff, ""),
    ("spp_hausdorff", spp_hausdorff, ""),
    ("proper_pure_equal_kh_m", proper_pure_equal_kh_m, ""),
    ("pure_filters_closed_form_min", pure_filters_closed_form_min, ""),
    ("coannulet_meets_fa_trivially", coannulet_meets_fa_trivially, ""),
    ("minimal_prime_is_join_of_fa", minimal_prime_is_join_of_fa, ""),
    ("min_h_homeomorphic_to_spp", min_h_homeomorphic_to_spp,
     "finiteness makes the compactness hypothesis vacuous"),
)


def _certify(lat, clauses, failure) -> dict:
    certified = []
    for cid, holds, note in clauses:
        if not holds(lat):
            raise failure(cid, note or "failed")
        certified.append((cid, note))
    return {"lattice": lat.name, "qualifies": True, "clauses": certified}


def gelfand_structure(lat: ResiduatedLattice) -> dict:
    """Certify the Gelfand structure theorems clause by clause."""
    if not classify(lat).gelfand.value:
        raise NotApplicable(f"{lat.name} is not Gelfand")
    return _certify(lat, GELFAND_CLAUSES, GelfandCertFailure)


def mp_structure(lat: ResiduatedLattice) -> dict:
    """Certify the mp structure theorems clause by clause."""
    if not classify(lat).mp.value:
        raise NotApplicable(f"{lat.name} is not mp")
    return _certify(lat, MP_CLAUSES, MpCertFailure)
