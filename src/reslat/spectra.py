"""Prime, maximal and minimal-prime spectra with their hull-kernel topologies.

Spectrum points are filters (bitmasks over lattice elements); spaces over
them re-index the points 0..k-1 and carry the filter masks as labels.
``h_set`` and ``d_set`` are the hull h(X) and its complement d(X) over them.
"""

from __future__ import annotations

from .core import LatticeError, ResiduatedLattice, iter_bits
from .filters import (enumerate_filters, hull, inside, maximal_filters,
                      per_lattice, x_perp)
from .topology import FiniteSpace, space_from_subbasis


class NotPrime(LatticeError):
    """The argument must be a prime filter."""


def is_prime(lat: ResiduatedLattice, mask: int) -> bool:
    """Proper filter whose membership splits every join."""
    if mask == lat.all_mask:
        return False
    fl = enumerate_filters(lat)
    if mask not in fl.index:
        return False
    join = lat.join
    for x in range(lat.n):
        if (mask >> x) & 1:
            continue
        row = join[x]
        for y in range(x + 1, lat.n):
            if (mask >> row[y]) & 1 and not (mask >> y) & 1:
                return False
    return True


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
    """D(p) = elements joining to 1 with something outside p.

    Raises NotPrime unless p is prime.  The theorem suite compares the
    formula with the intersections of the primes and of the minimal primes
    inside p (``omegprop`` item 2).
    """
    if not is_prime(lat, p_mask):
        raise NotPrime(f"{lat.name}: {lat.set_str(p_mask)} is not prime")
    join = lat.join
    top = lat.top
    outside = [y for y in range(lat.n) if not (p_mask >> y) & 1]
    d = 0
    for a in range(lat.n):
        row = join[a]
        if any(row[y] == top for y in outside):
            d |= 1 << a
    return d


def h_set(points, x_mask: int) -> int:
    """h(X) as an index mask over the points: those that contain X."""
    return sum(1 << i for i, p in enumerate(points) if x_mask & ~p == 0)


def point_rows(lat: ResiduatedLattice, points) -> tuple[int, ...]:
    """h(x) for every element x, as index masks over the points.

    Built once per point family and shared by every space over it.
    """
    return _point_rows(lat, tuple(points))


@per_lattice("point_rows")
def _point_rows(lat: ResiduatedLattice, pts: tuple) -> tuple[int, ...]:
    rows = [0] * lat.n
    for i, p in enumerate(pts):
        for x in iter_bits(p):
            rows[x] |= 1 << i
    return tuple(rows)


def d_set(points, x_mask: int) -> int:
    """d(X) as an index mask: the points that do not contain X."""
    return ((1 << len(points)) - 1) ^ h_set(points, x_mask)


def nested_pair(points):
    """The first pair (p, q) of distinct points with p inside q, or None."""
    return next(((p, q) for p in points for q in hull(points, p) if q != p),
                None)


def hull_kernel_space(lat: ResiduatedLattice, points, flavor: str,
                      name: str = "") -> FiniteSpace:
    """Topologize a family of primes.

    flavor h: {h(x)} is a closed basis; flavor d: the same sets are an
    open basis; patch: generated by both.
    """
    pts = tuple(points)
    full = (1 << len(pts)) - 1
    hx = list(point_rows(lat, pts))
    if flavor == "h":
        sub = [full ^ m for m in hx]
    elif flavor == "d":
        sub = list(hx)
    elif flavor == "patch":
        sub = hx + [full ^ m for m in hx]
    else:
        raise ValueError(f"unknown topology flavor {flavor!r}")
    return space_from_subbasis(pts, sub, name or f"{lat.name}:{flavor}",
                               tuple(lat.set_str(p) for p in pts))


@per_lattice("spec_space")
def spec_space(lat: ResiduatedLattice, flavor: str) -> FiniteSpace:
    return hull_kernel_space(lat, prime_filters(lat), flavor,
                             f"Spec_{flavor}({lat.name})")


@per_lattice("min_space")
def min_space(lat: ResiduatedLattice, flavor: str) -> FiniteSpace:
    """The minimal primes with the h or d hull-kernel topology."""
    return hull_kernel_space(lat, minimal_primes(lat), flavor,
                             f"Min_{flavor}({lat.name})")


def stability(points, subset_mask: int) -> int:
    """S-closure of a subset: the points containing one of its points."""
    out = 0
    for i in iter_bits(subset_mask):
        out |= h_set(points, points[i])
    return out


def support(lat: ResiduatedLattice, f_mask: int) -> int:
    """Supp(F): primes containing the coannulet of some member of F."""
    spec = prime_filters(lat)
    out = 0
    for f in iter_bits(f_mask):
        out |= h_set(spec, x_perp(lat, f))
    return out
