"""Pure filters: the sink, the pure part, and the pure spectrum.

The sink of a filter F collects the elements whose coannulet is comaximal
with F; F is pure when it equals its sink.  Purely-prime filters (the
meet-irreducible proper pure filters) carry the pure-spectrum topology
with opens d(F) = the points not containing F, for pure F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import LatticeError, ResiduatedLattice, mask_key
from .filters import (cached, coannulets, double_perp, enumerate_filters,
                      generated_filter, hull, image_index, inside, kernel,
                      maximal_filters, omega_filter)
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


def sink_ideal(lat: ResiduatedLattice, f_mask: int) -> int:
    """I_F = {a : <a^perp-perp u F> = A}, whose omega is the sink (``f6``)."""
    return cached(lat, ("sink_ideal", f_mask), lambda: sum(
        1 << a for a in range(lat.n)
        if generated_filter(lat, double_perp(lat, a) | f_mask) == lat.all_mask))


def sigma_filter(lat: ResiduatedLattice, f_mask: int) -> int:
    """The sink of a filter: elements whose coannulet is comaximal with F.

    The memo is read before a build is set up: the suite asks for the sink
    of the same filters many times over.
    """
    key = ("sigma", f_mask)
    return lat._cache.get(key) or cached(lat, key, lambda: sum(
        1 << a for a, perp in enumerate(coannulets(lat))
        if generated_filter(lat, perp | f_mask) == lat.all_mask))


def sigma_index(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The filter index of the sink of each filter."""
    return image_index(lat, "sigma_index", sigma_filter)


def is_pure(lat: ResiduatedLattice, f_mask: int) -> bool:
    return sigma_filter(lat, f_mask) == f_mask


def pure_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    def build():
        return tuple(f for f in enumerate_filters(lat).filters
                     if is_pure(lat, f))
    return cached(lat, "pure_filters", build)


def rho(lat: ResiduatedLattice, f_mask: int) -> int:
    """Pure part: the join of the pure filters inside F (memo read first,
    as in ``sigma_filter``)."""
    key = ("rho", f_mask)
    return lat._cache.get(key) or cached(lat, key, lambda: generated_filter(
        lat, reduce(or_, inside(pure_filters(lat), f_mask), 0)))


def rho_index(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The filter index of the pure part of each filter."""
    return image_index(lat, "rho_index", rho)


def d_of(lat: ResiduatedLattice, f_mask: int) -> int:
    """d(F) over Spec: index mask of the primes not containing F."""
    return d_set(prime_filters(lat), f_mask)


def purely_prime_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Proper pure filters that are meet-irreducible among pure filters."""
    def irreducible(p, pure):
        # no two pure filters outside P meet inside P
        outside = [f for f in pure if f & ~p]
        return all(f & g & ~p for i, f in enumerate(outside)
                   for g in outside[i + 1:])

    def build():
        pure = pure_filters(lat)
        return tuple(sorted((p for p in pure if p != lat.all_mask
                             and irreducible(p, pure)), key=mask_key))
    return cached(lat, "purely_prime", build)


@dataclass(frozen=True)
class PureSpectrum:
    """Purely-prime points with their topology and per-point flags."""

    points: tuple[int, ...]
    space: FiniteSpace
    purely_maximal: tuple[bool, ...]
    purely_minimal: tuple[bool, ...]

    def __len__(self):
        return len(self.points)


def pure_spectrum(lat: ResiduatedLattice) -> PureSpectrum:
    def build():
        pts = purely_prime_filters(lat)
        pure = pure_filters(lat)
        space = space_from_subbasis(pts, {d_set(pts, f) for f in pure},
                                    f"Spp({lat.name})",
                                    tuple(lat.set_str(p) for p in pts))
        proper_pure = [f for f in pure if f != lat.all_mask]
        pmax = tuple(hull(proper_pure, p) == [p] for p in pts)
        pmin = tuple(inside(pts, p) == [p] for p in pts)
        return PureSpectrum(pts, space, pmax, pmin)
    return cached(lat, "pure_spectrum", build)


def d_topology(lat: ResiduatedLattice) -> FiniteSpace:
    """Opens d(F) for pure F, on the prime spectrum."""
    def build():
        spec = prime_filters(lat)
        fam = {d_of(lat, f) for f in pure_filters(lat)}
        return space_from_subbasis(spec, fam, f"Spec_D({lat.name})",
                                   tuple(lat.set_str(p) for p in spec))
    return cached(lat, "d_topology", build)


def pure_part_map(lat: ResiduatedLattice) -> PointMap:
    """Spec_h -> Spp sending a prime to its pure part (checked landing)."""
    def build():
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
    return cached(lat, "pure_part_map", build)


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
