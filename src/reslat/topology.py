"""Finite topological spaces as specialization preorders.

A finite topology is determined by the smallest open set U_p around each
point p, and q in U_p says p lies in the closure of q (Stong, 1966).  A
space therefore stores one row per point, ``nbhd[p]`` = U_p, and reads
everything else off those k rows: a set is open when it contains the row
of each of its points, the closure of a set collects the points whose row
meets it, and each separation axiom is a fact about the preorder.  Points
are indexed 0..k-1 and subsets of points are bitmasks.
"""

from __future__ import annotations

from functools import cached_property

from .core import LatticeError, dot_digraph, iter_bits, mask_key


class FiniteSpace:
    """A finite space: point labels plus the minimal open set of each point.

    ``labels`` are opaque identity carriers (filter bitmasks for spectra);
    a caller that prints a space makes the text for them.
    """

    def __init__(self, labels: tuple, nbhd: tuple):
        # one row per point, p in U_p, and q in U_p implies U_q inside U_p
        k = len(labels)
        if len(nbhd) != k or any(
                not (u >> p) & 1 or u >> k or
                any(nbhd[q] & ~u for q in iter_bits(u))
                for p, u in enumerate(nbhd)):
            raise LatticeError("space rows are not a preorder")
        self.labels = labels
        self.nbhd = nbhd

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.k) - 1

    @cached_property
    def opens(self) -> frozenset:
        """Every open set: the unions of rows, listed without repeats."""
        fam = {0}
        for u in self.nbhd:
            fam |= {o | u for o in fam}
        return frozenset(fam)

    @property
    def closed_sets(self) -> frozenset:
        full = self.full
        return frozenset(full ^ o for o in self.opens)

    def is_open(self, mask: int) -> bool:
        return all(not self.nbhd[p] & ~mask for p in iter_bits(mask))

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full ^ mask)

    def closure(self, mask: int) -> int:
        out = 0
        for q, u in enumerate(self.nbhd):
            if u & mask:
                out |= 1 << q
        return out

    def point_of_label(self, label) -> int:
        for i, l in enumerate(self.labels):
            if l == label:
                return i
        raise LatticeError(f"space has no point labelled {label!r}")

    def sorted_opens(self) -> list[int]:
        return sorted(self.opens, key=mask_key)


def space_from_subbasis(labels, subbasis) -> FiniteSpace:
    """The topology a subbasis generates: U_p is the meet of its members at p."""
    k = len(labels)
    rows = [(1 << k) - 1] * k
    for s in subbasis:
        for p in iter_bits(s):
            rows[p] &= s
    return FiniteSpace(tuple(labels), tuple(rows))


def subspace(space: FiniteSpace, point_mask: int) -> FiniteSpace:
    """Induced topology on a subset of points (relabelled 0..m-1)."""
    pts = iter_bits(point_mask)
    rows = tuple(sum(1 << i for i, q in enumerate(pts)
                     if (space.nbhd[p] >> q) & 1) for p in pts)
    return FiniteSpace(tuple(space.labels[p] for p in pts), rows)


def components(space: FiniteSpace) -> list[int]:
    """Connected components: the classes of the comparability graph.

    Each row is connected (its points lie over its own point), and two
    comparable points share a row, so merging overlapping rows suffices.
    """
    out = []
    for u in space.nbhd:
        out = [c for c in out if not c & u] + \
              [u | sum(c for c in out if c & u)]
    return out


def clopens(space: FiniteSpace) -> list[int]:
    """The unions of connected components."""
    fam = {0}
    for c in components(space):
        fam |= {o | c for o in fam}
    return sorted(fam, key=mask_key)


def irreducible_closed_sets(space: FiniteSpace):
    """The nonempty irreducible closed sets: the point closures.

    Returns (closed set, tuple of generic points) pairs in ``mask_key``
    order; the generic points of a closure are the points with that same
    closure.
    """
    gens = {}
    for p in range(space.k):
        gens.setdefault(space.closure(1 << p), []).append(p)
    return [(c, tuple(gens[c])) for c in sorted(gens, key=mask_key)]


def separation_report(space: FiniteSpace) -> dict:
    """Separation axioms and connectedness, read off the preorder.

    T0: distinct points have distinct rows.  T1 and Hausdorff: every row
    is a single point (a finite T1 space is discrete).  Sober: T0, since
    every irreducible closed set of a finite space is a point closure.
    """
    t0 = len(set(space.nbhd)) == space.k
    t1 = all(u == 1 << p for p, u in enumerate(space.nbhd))
    return {"t0": t0, "t1": t1, "hausdorff": t1, "sober": t0,
            "connected": len(components(space)) <= 1,
            "compact_note": "trivially compact (finite)"}


class PointMap:
    """A total map between finite spaces, given as an index table."""

    def __init__(self, source: FiniteSpace, target: FiniteSpace,
                 mapping: tuple[int, ...]):
        if len(mapping) != source.k:
            raise LatticeError("point map is not total on the source")
        if any(not 0 <= t < target.k for t in mapping):
            raise LatticeError("point map leaves the target")
        self.source, self.target, self.mapping = source, target, mapping

    def image_mask(self, mask: int) -> int:
        out = 0
        for p in iter_bits(mask):
            out |= 1 << self.mapping[p]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for p, t in enumerate(self.mapping):
            if (mask >> t) & 1:
                out |= 1 << p
        return out


def map_analysis(pm: PointMap) -> dict:
    """Continuity, openness, closedness and friends for a point map.

    Opens are unions of rows and closed sets unions of point closures, so
    each property needs checking on those generators only.
    """
    src, tgt = pm.source, pm.target
    continuous = all(src.is_open(pm.preimage_mask(u)) for u in tgt.nbhd)
    open_map = all(tgt.is_open(pm.image_mask(u)) for u in src.nbhd)
    closed_map = all(tgt.is_closed(pm.image_mask(src.closure(1 << p)))
                     for p in range(src.k))
    injective = len(set(pm.mapping)) == src.k
    surjective = set(pm.mapping) == set(range(tgt.k))
    homeo = continuous and open_map and injective and surjective

    image_labels = {tgt.labels[t] for t in pm.mapping}
    fixes = all(tgt.labels[pm.mapping[s]] == src.labels[s]
                for s in range(src.k) if src.labels[s] in image_labels)
    return {"continuous": continuous, "open": open_map, "closed": closed_map,
            "injective": injective, "surjective": surjective,
            "homeomorphism": homeo,
            "retraction_onto_image": continuous and fixes}


def specialization_dot(space: FiniteSpace, graph_name: str, label_text) -> str:
    """DOT digraph of the specialization order: p -> q iff p in cl({q}).
    ``label_text`` holds the printed text of each point."""
    return dot_digraph(graph_name, label_text,
                       [(p, q) for q in range(space.k)
                        for p in iter_bits(space.closure(1 << q)) if p != q])
