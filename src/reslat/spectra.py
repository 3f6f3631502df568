"""Prime, maximal and minimal-prime spectra with their hull-kernel topologies.

Spectrum points are filters (bitmasks over lattice elements); spaces over
them re-index the points 0..k-1 and carry the filter masks as labels.
``h_set`` and ``d_set`` are the hull h(X) and its complement d(X) over them.
``spec_space`` is the one hull-kernel construction: the space over any
other family of primes is its subspace on the family's ``spec_mask``, and
Min and Max are memoized as ``min_space`` and ``max_space``.
"""

from __future__ import annotations

from .core import LatticeError, ResiduatedLattice, iter_bits, transpose
from .filters import (enumerate_filters, hull, ideal_generated, inside,
                      maximal_filters, omega_filter, per_lattice, x_perp)
from .topology import FiniteSpace, space_from_subbasis, subspace


class NotPrime(LatticeError):
    """The argument must be a prime filter."""


def is_prime(lat: ResiduatedLattice, mask: int) -> bool:
    """Proper filter whose complement is a lattice ideal: the ideal that
    the complement generates misses the filter."""
    if mask == lat.all_mask or mask not in enumerate_filters(lat).index:
        return False
    return not mask & ideal_generated(lat, lat.all_mask & ~mask)


@per_lattice("prime_filters")
def prime_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in enumerate_filters(lat).proper if is_prime(lat, f))


@per_lattice("minimal_primes")
def minimal_primes(lat: ResiduatedLattice) -> tuple[int, ...]:
    spec = prime_filters(lat)
    return tuple(p for p in spec if inside(spec, p) == [p])


def spectrum(lat: ResiduatedLattice, kind: str) -> tuple[int, ...]:
    """The points of kind prime | maximal | minimal_prime, in mask_key order."""
    if kind == "prime":
        return prime_filters(lat)
    if kind == "maximal":
        return maximal_filters(lat)
    if kind == "minimal_prime":
        return minimal_primes(lat)
    raise ValueError(f"unknown spectrum kind {kind!r}")


@per_lattice("D")
def D_operator(lat: ResiduatedLattice, p_mask: int) -> int:
    """D(p) = elements joining to 1 with something outside p: omega(A - p).

    Raises NotPrime unless p is prime.  The theorem suite compares the
    formula with the intersections of the primes and of the minimal primes
    inside p (``omegprop`` item 2).
    """
    if not is_prime(lat, p_mask):
        raise NotPrime(f"{lat.name}: {lat.set_str(p_mask)} is not prime")
    return omega_filter(lat, lat.all_mask & ~p_mask)


def h_set(points, x_mask: int) -> int:
    """h(X) as an index mask over the points: those that contain X."""
    return sum(1 << i for i, p in enumerate(points) if x_mask & ~p == 0)


@per_lattice("point_rows")
def point_rows(lat: ResiduatedLattice) -> tuple[int, ...]:
    """h(x) for every element x, as index masks over Spec.

    Built once per lattice and shared by every space over the primes.
    """
    return transpose(prime_filters(lat), lat.n)


def spec_mask(lat: ResiduatedLattice, points) -> int:
    """The index mask over Spec of a family of primes."""
    pts = set(points)
    return sum(1 << i for i, p in enumerate(prime_filters(lat)) if p in pts)


def d_set(points, x_mask: int) -> int:
    """d(X) as an index mask: the points that do not contain X."""
    return ((1 << len(points)) - 1) ^ h_set(points, x_mask)


def nested_pair(points):
    """The first pair (p, q) of distinct points with p inside q, or None."""
    return next(((p, q) for p in points for q in hull(points, p) if q != p),
                None)


@per_lattice("spec_space")
def spec_space(lat: ResiduatedLattice, flavor: str) -> FiniteSpace:
    """The primes with a hull-kernel topology.

    flavor h: {h(x)} is a closed basis; flavor d: the same sets are an
    open basis; patch: generated by both.
    """
    hx = list(point_rows(lat))
    full = (1 << len(prime_filters(lat))) - 1
    if flavor == "h":
        sub = [full ^ m for m in hx]
    elif flavor == "d":
        sub = hx
    elif flavor == "patch":
        sub = hx + [full ^ m for m in hx]
    else:
        raise ValueError(f"unknown topology flavor {flavor!r}")
    return space_from_subbasis(prime_filters(lat), sub)


@per_lattice("min_space")
def min_space(lat: ResiduatedLattice, flavor: str) -> FiniteSpace:
    """The minimal primes as a subspace of Spec with that flavor."""
    return subspace(spec_space(lat, flavor),
                    spec_mask(lat, minimal_primes(lat)))


@per_lattice("max_space")
def max_space(lat: ResiduatedLattice, flavor: str) -> FiniteSpace:
    """The maximal filters as a subspace of Spec with that flavor."""
    return subspace(spec_space(lat, flavor),
                    spec_mask(lat, maximal_filters(lat)))


def stability(points, subset_mask: int) -> int:
    """S-closure of a subset: the points containing one of its points."""
    out = 0
    for i in iter_bits(subset_mask):
        out |= h_set(points, points[i])
    return out


@per_lattice("perp_hulls")
def perp_hulls(lat: ResiduatedLattice) -> tuple[int, ...]:
    """h(x_perp) for every element x, as index masks over Spec."""
    spec = prime_filters(lat)
    return tuple([h_set(spec, x_perp(lat, x)) for x in range(lat.n)])


def support(lat: ResiduatedLattice, f_mask: int) -> int:
    """Supp(F): primes containing the coannulet of some member of F."""
    hulls = perp_hulls(lat)
    out = 0
    for f in iter_bits(f_mask):
        out |= hulls[f]
    return out
