"""Filters of a finite residuated lattice and the structures they form.

A filter is a subset containing the unit, closed under the monoid product
and under join with arbitrary elements (equivalently: a product-closed
upset containing 1).  Filters are bitmasks.

Everything here is built from element operations, never from a sweep over
subsets, on two lemmas about finite integral residuated lattices
(Galatos, Jipsen, Kowalski, Ono, *Residuated Lattices*, 2007):

* every filter F is the principal upset of its least element, the product
  of all its members, and that element is idempotent; conversely the
  upset of an idempotent is a filter.  So Fil(A) = {up(e) : e*e = e}, with
  up(e) n up(g) = up(e v g) and the join of up(e), up(g) equal to
  up(e*g), both again upsets of idempotents;
* every lattice ideal (nonempty join-closed downset) of a finite lattice is
  the principal downset of its largest element.

Every per-lattice object is a ``per_lattice`` memo.  The filter primitives
read these tables; only ``generated_filter``, the hottest, reads its
product tables from the memo dict directly:

* coannulet rows: ``coannulet_row(lat, F)[a]`` = (F : a), read off the
  join table through the flags of F in one pass.  (F : X) is the AND of
  the rows at the members of X, the coannulet x^perp is (1 : x), and
  omega(I) is the OR of the coannulets of the members of I;
* byte tables: ``prod`` and ``join`` are associative and commutative, so
  the product (join) of a subset is the product (join) of those of its
  8-bit chunks, and a table per chunk (one entry per byte value) gives it
  in ceil(n/8) lookups;
* least elements: ``least_elements(lat)[up(x)]`` = x.  A filter's entry is
  its idempotent generator e, so a question about filters is a question
  about idempotents: the join of up(e) and up(g) is up(e*g), which is all
  of A exactly when e*g is the bottom.
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps

from .core import (LatticeError, ResiduatedLattice, flags, iter_bits,
                   mask_key, read_through)


def cached(lat: ResiduatedLattice, key, build):
    """Build and store one memo entry.  ``per_lattice`` calls it only on a
    miss; the benchmark tracer wraps this name."""
    val = lat._cache[key] = build()
    return val


_MISS = object()


def per_lattice(kind: str):
    """Memoize ``fn(lat, *args)`` on the lattice under ``kind``, or under
    ``(kind, *args)`` when there are arguments; a miss builds via ``cached``."""
    def decorate(fn):
        @wraps(fn)
        def memo(lat, *args):
            key = (kind,) + args if args else kind
            val = lat._cache.get(key, _MISS)
            if val is _MISS:
                val = cached(lat, key, lambda: fn(lat, *args))
            return val
        return memo
    return decorate


def hull(masks, x_mask: int) -> list[int]:
    """h(X) over a family of subsets: the members that contain X, in order."""
    return [p for p in masks if x_mask & ~p == 0]


def inside(masks, x_mask: int) -> list[int]:
    """The order-dual of ``hull``: the members that lie inside X, in order."""
    return [q for q in masks if q & ~x_mask == 0]


def kernel(lat: ResiduatedLattice, masks) -> int:
    """k(S): the intersection of a family of subsets; all of A for S empty."""
    out = lat.all_mask
    for p in masks:
        out &= p
    return out


def is_filter(lat: ResiduatedLattice, mask: int) -> bool:
    if not (mask >> lat.top) & 1:
        return False
    bits = iter_bits(mask)
    for i in bits:
        if lat.up[i] & ~mask:
            return False
    prod = lat.prod
    for ai, i in enumerate(bits):
        row = prod[i]
        for j in bits[ai:]:
            if not (mask >> row[j]) & 1:
                return False
    return True


def generated_filter(lat: ResiduatedLattice, mask: int) -> int:
    """Smallest filter containing the given subset: up(p^oo).

    p is the product of the subset (the unit for the empty set) and p^oo
    the idempotent that repeated squaring of p reaches.  Every finite
    product of members lies above some power of p, hence above p^oo, and
    up(p^oo) is a filter because p^oo is idempotent.  p comes from the byte
    tables and p^oo from a table of the idempotent reached by each element.
    """
    # read directly, not via per_lattice: ~60 000 calls per acceptance pass
    chunks, stable = lat._cache.get("product_tables") or _product_tables(lat)
    prod = lat.prod
    p = lat.top
    for t in chunks:
        if not mask:
            break
        p = prod[p][t[mask & 255]]
        mask >>= 8
    return lat.up[stable[p]]


def _byte_tables(lat: ResiduatedLattice, op, unit: int) -> tuple:
    """chunks[k][b]: the commutative ``op`` folded over the elements 8k + i
    with bit i set in the byte b, starting from ``unit``.  Each element
    doubles the table: the entries with its bit set are op(x, entry)."""
    chunks = []
    for base in range(0, lat.n, 8):
        t = [unit]
        for x in range(base, min(base + 8, lat.n)):
            row = op[x]
            t += [row[v] for v in t]
        chunks.append(tuple(t))
    return tuple(chunks)


@per_lattice("product_tables")
def _product_tables(lat: ResiduatedLattice):
    """(chunks, stable): the product byte tables and ``stable_powers``."""
    return _byte_tables(lat, lat.prod, lat.top), stable_powers(lat)


@per_lattice("stable_powers")
def stable_powers(lat: ResiduatedLattice) -> tuple[int, ...]:
    """stable[p] = p^oo, the idempotent that repeated squaring of p reaches."""
    prod = lat.prod
    stable = []
    for p in range(lat.n):
        while prod[p][p] != p:
            p = prod[p][p]
        stable.append(p)
    return tuple(stable)


@per_lattice("least_elements")
def least_elements(lat: ResiduatedLattice) -> dict:
    """up(x) -> x for every element x; a filter maps to its generator."""
    return {u: x for x, u in enumerate(lat.up)}


class FiltersLattice:
    """All filters, in deterministic order, with their join table.

    Meet is set intersection; join of two filters is the filter generated
    by their union.  The table holds filter indices, and ``top_i`` is the
    index of A itself, so F and G are comaximal iff
    ``join_t[i][j] == top_i``.  Only the lattice's name
    and element tokens are kept (for error messages): a back-reference to
    the lattice, whose memo holds this object, would make a reference cycle.
    So A/{1}, which reads A's memo (``quotient``), is never stored in it,
    and the name read through A/{1} is A's.
    """

    def __init__(self, name, names, filters, index, join_t, top_i):
        self.name = name
        self.names = names
        self.filters = filters
        self.index = index
        self.join_t = join_t
        self.top_i = top_i

    def __len__(self):
        return len(self.filters)

    def idx(self, mask: int) -> int:
        try:
            return self.index[mask]
        except KeyError:
            toks = ",".join(self.names[i] for i in iter_bits(mask))
            raise LatticeError(
                f"{self.name}: {{{toks}}} is not a filter") from None

    @property
    def proper(self) -> tuple[int, ...]:
        full = (1 << len(self.names)) - 1
        return tuple(f for f in self.filters if f != full)


@per_lattice("filters_lattice")
def enumerate_filters(lat: ResiduatedLattice) -> FiltersLattice:
    """Fil(A) as the upsets of the idempotents, in canonical mask order.

    For idempotents e and g the join table reads up(e*g); e*g is
    idempotent, so each entry is one lookup.
    """
    prod, up = lat.prod, lat.up
    gens = sorted((e for e in range(lat.n) if prod[e][e] == e),
                  key=lambda e: mask_key(up[e]))
    found = [up[e] for e in gens]
    index = {f: i for i, f in enumerate(found)}
    join_t = tuple(tuple(index[up[prod[e][g]]] for g in gens) for e in gens)
    return FiltersLattice(lat.name, lat.names, tuple(found), index, join_t,
                          index[lat.all_mask])


@per_lattice("join_flat")
def _join_flat(lat: ResiduatedLattice) -> bytes:
    """The join table as one byte string, last cell first."""
    return b"".join(map(bytes, lat.join))[::-1]


@per_lattice("coannulet_row")
def coannulet_row(lat: ResiduatedLattice, f_mask: int) -> tuple[int, ...]:
    """(F : a) = {x : x v a in F} for every element a, for any subset F.

    The join table, last cell first, read through the flags of F is, in
    binary, the n^2 bits x v a in F: (F : a) is bits a*n .. a*n + n - 1.
    """
    n, full = lat.n, lat.all_mask
    bits = int(read_through(_join_flat(lat), flags(f_mask, n)), 2)
    return tuple([bits >> k & full for k in range(0, n * n, n)])


def coannihilator(lat: ResiduatedLattice, f_mask: int, x_mask: int) -> int:
    """(F : X) = elements whose join with every member of X lands in F."""
    row = coannulet_row(lat, f_mask)
    out = lat.all_mask
    for x in iter_bits(x_mask):
        out &= row[x]
    return out


def x_perp(lat: ResiduatedLattice, x: int) -> int:
    """Coannulet of x relative to {1}: the elements joining with x to 1."""
    return coannulets(lat)[x]


@per_lattice("coannulets")
def coannulets(lat: ResiduatedLattice) -> tuple[int, ...]:
    """x^perp for every element x: the coannulet row of {1}, under a memo
    key of its own, since the suite reads it thousands of times a pass."""
    return coannulet_row(lat, 1 << lat.top)


def double_perp(lat: ResiduatedLattice, x: int) -> int:
    return double_perps(lat)[x]


@per_lattice("double_perp")
def double_perps(lat: ResiduatedLattice) -> tuple[int, ...]:
    unit = 1 << lat.top
    return tuple(coannihilator(lat, unit, p) for p in coannulets(lat))


@per_lattice("coannulet_table")
def coannulet_table(lat: ResiduatedLattice):
    """(F : a) for every filter F and element a, indexed like the filter list."""
    return tuple(coannulet_row.__wrapped__(lat, f)      # no memo entry per F
                 for f in enumerate_filters(lat).filters)


@per_lattice("maximal_filters")
def maximal_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Inclusion-maximal proper filters, in the canonical filter order."""
    proper = enumerate_filters(lat).proper
    return tuple(f for f in proper
                 if not any(f != g and f & g == f for g in proper))


def radical(lat: ResiduatedLattice, f_mask: int) -> int:
    """k(h_M(F)): the intersection of the maximal filters containing F."""
    return kernel(lat, hull(maximal_filters(lat), f_mask))


def image_index(lat: ResiduatedLattice, op) -> tuple[int, ...]:
    """The filter index of op(lat, F) for each filter F, in filter order.

    Calls ``op`` on each filter and ``FiltersLattice.idx`` on its image, so
    an image that is not a filter raises LatticeError.  Each operator's
    vector is memoized by its own ``per_lattice`` one-liner; the theorem
    suite's loops over pairs of filters read these vectors and ``join_t``
    instead of the operator.
    """
    fl = enumerate_filters(lat)
    return tuple([fl.idx(op(lat, f)) for f in fl.filters])


@per_lattice("radical_index")
def radical_index(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The filter index of rad(F) for each filter F."""
    return image_index(lat, radical)


class QuotientResult(namedtuple("QuotientResult",
                                "quotient projection classes degenerate")):
    """Quotient algebra by the congruence a ~ b iff a->b and b->a lie in F;
    ``projection`` maps element indices to class indices, and ``classes``
    class indices to member masks."""

    __slots__ = ()

    def push_mask(self, mask: int) -> int:
        """Image of a subset of the source under the projection."""
        proj = self.projection
        out = 0
        for i in iter_bits(mask):
            out |= 1 << proj[i]
        return out

    def pull_mask(self, mask: int) -> int:
        """Preimage of a subset of the quotient."""
        out = 0
        for c in iter_bits(mask):
            out |= self.classes[c]
        return out


def quotient(lat: ResiduatedLattice, f_mask: int) -> QuotientResult:
    """Quotient by a filter F, whose classes are the fibres of x -> e*x.

    F = up(e) for its least element e, which is idempotent.  a->b lies in F
    iff e <= a->b iff e*a <= b, and e*a <= b together with e*b <= a holds
    iff e*a = e*b (multiply by e, which is idempotent; conversely e*a =
    e*b <= b).  So a ~ b iff e*a = e*b, and the fibre values v = e*x stand
    for the classes: class i lies below class j iff e*v_i <= v_j, that is
    iff v_i <= v_j.  Every table is the source table pushed through the
    projection (``class_of[op[v_i][v_j]]``): the congruence of a filter
    respects every operation, so no validation pass is needed.

    F = {1} (e = 1) is the one filter whose fibres are all singletons: the
    identity congruence.  A/{1} is then a lattice on A's own tables with
    the identity projection, whose memo is A's own dict, so nothing A has
    built is built again for it.  It is never stored in that memo, which
    would close a reference cycle; every other quotient is memoized.
    """
    if f_mask == 1 << lat.top:
        n = lat.n
        q = ResiduatedLattice(f"{lat.name}/{lat.set_str(f_mask)}", lat.names,
                              lat.up, lat.down, lat.join, lat.meet, lat.prod,
                              lat.res, lat.bottom, lat.top)
        q._cache = lat._cache
        return QuotientResult(q, tuple(range(n)),
                              tuple(1 << x for x in range(n)), n == 1)
    return _quotient(lat, f_mask)


@per_lattice("quotient")
def _quotient(lat: ResiduatedLattice, f_mask: int) -> QuotientResult:
    e = least_elements(lat).get(f_mask)
    if e is None or lat.prod[e][e] != e:
        raise LatticeError(f"{lat.name}: {lat.set_str(f_mask)} is not a filter")
    name, n = f"{lat.name}/{lat.set_str(f_mask)}", lat.n
    fibres = {}
    for x, v in enumerate(lat.prod[e]):
        fibres[v] = fibres.get(v, 0) | 1 << x
    vals = sorted(fibres, key=lambda v: mask_key(fibres[v]))
    classes = tuple(fibres[v] for v in vals)
    index = {v: ci for ci, v in enumerate(vals)}
    class_of = tuple(index[v] for v in lat.prod[e])
    pick, cls = bytes(vals), bytes(class_of)

    def push(op):           # row v at the fibre values, then through class_of
        return [read_through(read_through(pick, op[v]), cls) for v in vals]

    def order(rows):        # the flags of the row, last class first, in binary
        return [int(read_through(pick[::-1], flags(rows[v], n)), 2)
                for v in vals]

    names = ["|".join(lat.names[i] for i in iter_bits(m)) for m in classes]
    q = ResiduatedLattice(name, names, order(lat.up), order(lat.down),
                          push(lat.join), push(lat.meet), push(lat.prod),
                          push(lat.res), class_of[lat.bottom], class_of[lat.top])
    return QuotientResult(q, class_of, classes, len(classes) == 1)


@per_lattice("lattice_ideals")
def lattice_ideals(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Nonempty join-closed downsets of the underlying lattice.

    In a finite lattice each one is down(x) for its join x, so these are
    the n principal downsets.
    """
    return tuple(sorted(lat.down, key=mask_key))


def principal_ideal(lat: ResiduatedLattice, x: int) -> int:
    return lat.down[x]


@per_lattice("join_tables")
def _join_tables(lat: ResiduatedLattice) -> tuple:
    return _byte_tables(lat, lat.join, lat.bottom)


def ideal_generated(lat: ResiduatedLattice, mask: int) -> int:
    """Smallest lattice ideal containing the subset: down of its join, read
    off the join byte tables.

    The empty set is refused: a lattice ideal is nonempty.
    """
    if mask == 0:
        raise LatticeError("the empty set generates no ideal")
    chunks = _join_tables(lat)
    join = lat.join
    x = lat.bottom
    for t in chunks:
        if not mask:
            break
        x = join[x][t[mask & 255]]
        mask >>= 8
    return lat.down[x]


def omega_filter(lat: ResiduatedLattice, ideal_mask: int) -> int:
    """omega(I) = elements joining with some member of I to the top."""
    perp = coannulets(lat)
    out = 0
    for x in iter_bits(ideal_mask):
        out |= perp[x]
    return out


@per_lattice("omega_filters")
def omega_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    """The set of all omega-filters (one per lattice ideal, deduplicated)."""
    seen = {omega_filter(lat, i) for i in lattice_ideals(lat)}
    return tuple(sorted(seen, key=mask_key))


def is_alpha_filter(lat: ResiduatedLattice, f_mask: int) -> bool:
    """True when the double coannulet of every member stays inside."""
    return all(double_perp(lat, x) & ~f_mask == 0 for x in iter_bits(f_mask))


def enumerate_alpha(lat: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in enumerate_filters(lat).filters
                 if is_alpha_filter(lat, f))


@per_lattice("projection_flat")
def is_projection_flat(lat: ResiduatedLattice, f_mask: int):
    """Flatness of the canonical projection by the coannihilator criterion.

    Checks (G v F : a) <= (G : a) v F for every filter G and element a;
    on failure returns the witness (G, a, x) with x in the gap.
    """
    fl = enumerate_filters(lat)
    co = coannulet_table(lat)
    fi = fl.idx(f_mask)
    with_f = {h: fl.filters[row[fi]] for h, row in zip(fl.filters, fl.join_t)}
    for g, co_g, row in zip(fl.filters, co, fl.join_t):
        for a, (lhs, rhs) in enumerate(zip(co[row[fi]],
                                           map(with_f.__getitem__, co_g))):
            gap = lhs & ~rhs
            if gap:
                return False, (g, a, iter_bits(gap)[0])
    return True, None
