"""Pure filters: the sink, the pure part, and the pure spectrum.

The sink of a filter F collects the elements whose coannulet is comaximal
with F; F is pure when it equals its sink.  Purely-prime filters (the
meet-irreducible proper pure filters) carry the pure-spectrum topology
with opens d(F) = the points not containing F, for pure F.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .core import LatticeError, ResiduatedLattice, mask_key
from .filters import (coannulets, double_perps, enumerate_filters,
                      generated_filter, hull, image_index, inside, kernel,
                      least_elements, maximal_filters, omega_filter,
                      per_lattice)
from .spectra import (D_operator, d_set, minimal_primes, prime_filters,
                      spec_space)
from .topology import (FiniteSpace, PointMap, map_analysis,
                       space_from_subbasis)


def _generalizations(lat, f_mask: int) -> list[int]:
    """Primes lying inside some prime that contains F."""
    spec = prime_filters(lat)
    h_f = hull(spec, f_mask)
    return [q for q in spec if hull(h_f, q)]


def sigma_def(lat: ResiduatedLattice, f_mask: int) -> int:
    """The defining form of the sink: the kernel of the generalizations of h(F)."""
    return kernel(lat, _generalizations(lat, f_mask))


def sigma_formulas(lat: ResiduatedLattice, f_mask: int) -> dict:
    """All closed forms of the sink, keyed by formula id.

    ``f3`` is :func:`sigma_filter` itself; the theorem suite checks every
    other form against it (``sigmafequiv``).
    """
    h_f = hull(prime_filters(lat), f_mask)
    gh_f = _generalizations(lat, f_mask)
    mins = set(minimal_primes(lat))
    # f4: some b in a^perp has -b in F, i.e. a^perp meets {b : -b in F}
    neg_in_f = sum(1 << b for b in range(lat.n) if f_mask >> lat.neg(b) & 1)
    f4 = sum(1 << a for a, perp in enumerate(coannulets(lat))
             if perp & neg_in_f)
    f6 = omega_filter(lat, sink_ideal(lat, f_mask))   # the bottom lies in I_F

    return {
        "def": kernel(lat, gh_f),
        "f1": kernel(lat, [q for q in gh_f if q in mins]),
        "f2": kernel(lat, [D_operator(lat, p) for p in h_f]),
        "f3": sigma_filter(lat, f_mask),
        "f4": f4,
        "f5": kernel(lat, [D_operator(lat, m)
                           for m in hull(maximal_filters(lat), f_mask)]),
        "f6": f6,
    }


def _comaximal(lat: ResiduatedLattice, x_mask: int, filters) -> int:
    """{a : <filters[a] u X> = A}, for filters indexed by element.

    <X> = up(e) and filters[a] = up(g) for idempotents e and g, and the
    filter that up(e) and up(g) generate is up(e*g): it is all of A exactly
    when e*g is the bottom.  So each a costs one product-row read.
    """
    least, bottom = least_elements(lat), lat.bottom
    row = lat.prod[least[generated_filter(lat, x_mask)]]
    return sum(1 << a for a, g in enumerate(filters) if row[least[g]] == bottom)


@per_lattice("sink_ideal")
def sink_ideal(lat: ResiduatedLattice, f_mask: int) -> int:
    """I_F = {a : <a^perp-perp u F> = A}, whose omega is the sink (``f6``).

    a^perp-perp is a filter, up(d_a), so I_F = {a : e*d_a = 0} for F = up(e).
    """
    return _comaximal(lat, f_mask, double_perps(lat))


@per_lattice("sigma")
def sigma_filter(lat: ResiduatedLattice, f_mask: int) -> int:
    """The sink of a filter: elements whose coannulet is comaximal with F.

    The coannulet a^perp is a filter, up(c_a), so sigma(F) = {a : e*c_a = 0}
    for F = up(e).  A subset X that is not a filter has the sink of <X>.
    """
    return _comaximal(lat, f_mask, coannulets(lat))


@per_lattice("sigma_index")
def sigma_index(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The filter index of the sink of each filter."""
    return image_index(lat, sigma_filter)


def is_pure(lat: ResiduatedLattice, f_mask: int) -> bool:
    return sigma_filter(lat, f_mask) == f_mask


@per_lattice("pure_filters")
def pure_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in enumerate_filters(lat).filters if is_pure(lat, f))


@per_lattice("rho")
def rho(lat: ResiduatedLattice, f_mask: int) -> int:
    """Pure part: the join of the pure filters inside F."""
    return generated_filter(
        lat, reduce(or_, inside(pure_filters(lat), f_mask), 0))


@per_lattice("rho_index")
def rho_index(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The filter index of the pure part of each filter."""
    return image_index(lat, rho)


def d_of(lat: ResiduatedLattice, f_mask: int) -> int:
    """d(F) over Spec: index mask of the primes not containing F."""
    return d_set(prime_filters(lat), f_mask)


@per_lattice("purely_prime")
def purely_prime_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Proper pure filters that are meet-irreducible among pure filters."""
    def irreducible(p, pure):
        # no two pure filters outside P meet inside P
        outside = [f for f in pure if f & ~p]
        return all(f & g & ~p for i, f in enumerate(outside)
                   for g in outside[i + 1:])

    pure = pure_filters(lat)
    return tuple(sorted((p for p in pure if p != lat.all_mask
                         and irreducible(p, pure)), key=mask_key))


class PureSpectrum:
    """Purely-prime points with their topology and per-point flags."""

    def __init__(self, points, space, purely_maximal, purely_minimal):
        self.points = points
        self.space = space
        self.purely_maximal = purely_maximal
        self.purely_minimal = purely_minimal

    def __len__(self):
        return len(self.points)


@per_lattice("pure_spectrum")
def pure_spectrum(lat: ResiduatedLattice) -> PureSpectrum:
    pts = purely_prime_filters(lat)
    pure = pure_filters(lat)
    space = space_from_subbasis(pts, {d_set(pts, f) for f in pure})
    proper_pure = [f for f in pure if f != lat.all_mask]
    pmax = tuple(hull(proper_pure, p) == [p] for p in pts)
    pmin = tuple(inside(pts, p) == [p] for p in pts)
    return PureSpectrum(pts, space, pmax, pmin)


@per_lattice("d_topology")
def d_topology(lat: ResiduatedLattice) -> FiniteSpace:
    """Opens d(F) for pure F, on the prime spectrum."""
    spec = prime_filters(lat)
    fam = {d_of(lat, f) for f in pure_filters(lat)}
    return space_from_subbasis(spec, fam)


@per_lattice("pure_part_map")
def pure_part_map(lat: ResiduatedLattice) -> PointMap:
    """Spec_h -> Spp sending a prime to its pure part (checked landing)."""
    spp = pure_spectrum(lat)
    src = spec_space(lat, "h")
    idx = {p: i for i, p in enumerate(spp.points)}
    mapping = []
    for p in prime_filters(lat):
        r = rho(lat, p)
        if r not in idx:
            raise LatticeError(f"{lat.name}: pure part of a prime "
                               f"{lat.set_str(p)} is not purely prime")
        mapping.append(idx[r])
    return PointMap(src, spp.space, tuple(mapping))


def pure_part_map_report(lat: ResiduatedLattice) -> dict:
    """Continuity certificate: preimage of d(F) on Spp is d(F) on Spec, F pure."""
    pm = pure_part_map(lat)
    spp = pure_spectrum(lat)
    preimages_match = all(
        pm.preimage_mask(d_set(spp.points, f)) == d_of(lat, f)
        for f in pure_filters(lat))
    analysis = map_analysis(pm)
    return {"continuous": analysis["continuous"],
            "preimages_match": preimages_match,
            "analysis": analysis}
