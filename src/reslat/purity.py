"""Pure filters: the sink, the pure part, and the pure spectrum.

The sink of a filter F collects the elements whose coannulet is comaximal
with F; F is pure when it equals its sink.  Purely-prime filters (the
meet-irreducible proper pure filters) carry the pure-spectrum topology
with opens d(F) = the points not containing F, for pure F.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LatticeError, ResiduatedLattice, iter_bits, mask_key
from .filters import (cached, double_perp, enumerate_filters,
                      generated_filter, hull, inside, kernel, maximal_filters,
                      omega_filter, x_perp)
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
    full = lat.all_mask
    h_f = hull(prime_filters(lat), f_mask)
    gh_f = _generalizations(lat, f_mask)
    mins = set(minimal_primes(lat))

    f4 = 0
    for a in range(lat.n):
        if any((f_mask >> lat.neg(b)) & 1 for b in iter_bits(x_perp(lat, a))):
            f4 |= 1 << a

    i_f = 0
    for a in range(lat.n):
        if generated_filter(lat, double_perp(lat, a) | f_mask) == full:
            i_f |= 1 << a
    f6 = omega_filter(lat, i_f)     # the bottom always lies in I_F

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


def sigma_filter(lat: ResiduatedLattice, f_mask: int) -> int:
    """The sink of a filter: elements whose coannulet is comaximal with F."""
    def build():
        full = lat.all_mask
        out = 0
        for a in range(lat.n):
            if generated_filter(lat, x_perp(lat, a) | f_mask) == full:
                out |= 1 << a
        return out
    return cached(lat, ("sigma", f_mask), build)


def is_pure(lat: ResiduatedLattice, f_mask: int) -> bool:
    return sigma_filter(lat, f_mask) == f_mask


def pure_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    def build():
        return tuple(f for f in enumerate_filters(lat).filters
                     if is_pure(lat, f))
    return cached(lat, "pure_filters", build)


def rho(lat: ResiduatedLattice, f_mask: int) -> int:
    """Pure part: the join of the pure filters inside F."""
    def build():
        union = 0
        for g in pure_filters(lat):
            if g & ~f_mask == 0:
                union |= g
        return generated_filter(lat, union)
    return cached(lat, ("rho", f_mask), build)


def d_of(lat: ResiduatedLattice, f_mask: int) -> int:
    """d(F) over Spec: index mask of the primes not containing F."""
    return d_set(prime_filters(lat), f_mask)


def purely_prime_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Proper pure filters that are meet-irreducible among pure filters."""
    def build():
        pure = pure_filters(lat)
        full = lat.all_mask
        pts = []
        for p in pure:
            if p == full:
                continue
            ok = True
            for i, f1 in enumerate(pure):
                for f2 in pure[i:]:
                    if (f1 & f2) & ~p == 0 and f1 & ~p and f2 & ~p:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                pts.append(p)
        return tuple(sorted(pts, key=mask_key))
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
