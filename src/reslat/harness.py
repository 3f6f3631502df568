"""Instance generators and the executable theorem suite.

Structured instance families (transcribed fixtures, Goedel and Lukasiewicz
chains, componentwise products) feed a registry of named properties, one
per catalogued statement.  The registry is checked against the manifest
before every run, verdicts are deterministic, and a failing verdict always
carries a concrete witness.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from functools import reduce
from itertools import compress, islice, repeat
from operator import or_

from .core import (MAX_ELEMENTS, LatticeError, ResiduatedLattice, SizeLimit,
                   direct_product, iter_bits, lattice_from_tables,
                   load_lattice, mask_key, read_through)
from .filters import (coannulet_table, enumerate_filters, generated_filter,
                      hull, ideal_generated, inside, is_alpha_filter,
                      is_filter, is_projection_flat, kernel, lattice_ideals,
                      least_elements, maximal_filters, omega_filter,
                      omega_filters, principal_ideal, quotient, radical,
                      radical_index, stable_powers, x_perp)
from .spectra import (D_operator, d_set, h_set, min_space, minimal_primes,
                      nested_pair, point_rows, prime_filters, spec_mask,
                      spec_space, stability, support)
from .purity import (d_of, d_topology, is_pure, pure_filters,
                     pure_part_map_report, pure_spectrum,
                     purely_prime_filters, rho, rho_index, sigma_def,
                     sigma_filter, sigma_formulas, sigma_index, sink_ideal)
from .classify import (
    BijectionFailure, below_max_implies_f_below, boolean_center, classify,
    coannulet_meets_fa_trivially, coannulets_pure, comaximal_coannulets,
    direct_summands, f_a, fa_join, gelfand_closed_forms, grothendieck_check,
    hm_of_sigma_unchanged, hm_unchanged, hull_kernel_equals_d_topology_on_max,
    iota_spp_to_min_d_homeomorphism, kh_m, min_d_hausdorff,
    min_equals_max_sigma, min_equals_spp, min_h_homeomorphic_to_spp,
    minimal_prime_is_join_of_fa, minimal_primes_comaximal, mp_closed_forms,
    omega_filters_pure, pairwise_comaximal, proper_pure_equal_kh_m,
    pure_filters_closed_form, pure_filters_closed_form_min,
    purely_maximal_points,
    rho_below_max_implies_f_below, rho_equals_sigma, rho_m_homeomorphism,
    rho_rad_adjunction, spp_equals_max_sigma, spp_equals_rho_of_max,
    spp_hausdorff, spp_in_max_sigma, verify_flag_witness)
from .topology import (components, irreducible_closed_sets, label_map,
                       map_analysis, separation_report, subspace)

# ---------------------------------------------------------------------------
# instance generators


FIXTURE_NAMES = ("a6", "b6", "c6", "a8")
_FIXTURES: dict[str, ResiduatedLattice] = {}
_CHAINS: dict[tuple, ResiduatedLattice] = {}
_PRODUCTS: dict[tuple, ResiduatedLattice] = {}


def fixture(name: str) -> ResiduatedLattice:
    """One of the four bundled instances (a6, b6, c6, a8)."""
    key = name.lower()
    if key not in FIXTURE_NAMES:
        raise LatticeError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    if key not in _FIXTURES:
        path = os.path.join(os.path.dirname(__file__), "fixtures", f"{key}.rlat")
        _FIXTURES[key] = load_lattice(path)
    return _FIXTURES[key]


def _chain_names(n: int) -> list[str]:
    return ["0"] + [f"x{i}" for i in range(1, n - 1)] + ["1"]


def _chain(name: str, n: int, mul) -> ResiduatedLattice:
    """The n-element chain 0 < x1 < ... < 1 with product ``mul(i, j)``."""
    if not 2 <= n <= MAX_ELEMENTS:
        raise SizeLimit(f"chain size {n} outside 2..{MAX_ELEMENTS}")
    key = (name, n)
    if key not in _CHAINS:
        up = [(1 << n) - (1 << i) for i in range(n)]      # bits i..n-1
        prod = [[mul(i, j) for j in range(n)] for i in range(n)]
        _CHAINS[key] = lattice_from_tables(f"{name}{n}", _chain_names(n),
                                           up, prod, 0, n - 1)
    return _CHAINS[key]


def godel_chain(n: int) -> ResiduatedLattice:
    """Linear order 0 < x1 < ... < 1 with the product equal to the meet."""
    return _chain("Godel", n, min)


def lukasiewicz_chain(n: int) -> ResiduatedLattice:
    """Linear order with truncated index addition: i*j = max(0, i+j-(n-1))."""
    return _chain("Luk", n, lambda i, j: max(0, i + j - (n - 1)))


def product_instance(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    key = (a.name, b.name)
    if key not in _PRODUCTS:
        _PRODUCTS[key] = direct_product(a, b)
    return _PRODUCTS[key]


def acceptance_family() -> tuple[ResiduatedLattice, ...]:
    """Fixtures, both chain families on 2..8 elements, and all pairwise
    products with at most 16 elements."""
    base = [fixture(n) for n in FIXTURE_NAMES]
    base += [godel_chain(n) for n in range(2, 9)]
    base += [lukasiewicz_chain(n) for n in range(2, 9)]
    out = list(base)
    for i, a in enumerate(base):
        for b in base[i:]:
            if a.n * b.n <= 16:
                out.append(product_instance(a, b))
    return tuple(out)


# expected outputs for the bundled fixtures, keyed by lattice name
def _sets(*specs):
    return tuple(frozenset(s) for s in specs)


FIXTURE_EXPECT = {
    "A6": {
        "filters": _sets("1", "abd1", "cd1", "d1", "0abcd1"),
        "maximal": _sets("abd1", "cd1"),
        "minimal_prime": _sets("1"),
        "alpha": _sets("1", "0abcd1"),
        "pure": _sets("1", "0abcd1"),
        "center": frozenset("01"),
        "gelfand": False, "mp": True,
    },
    "B6": {
        "filters": _sets("1", "ac1", "d1", "0abcd1"),
        "maximal": _sets("ac1", "d1"),
        "minimal_prime": _sets("ac1", "d1"),
        "alpha": _sets("1", "ac1", "d1", "0abcd1"),
        "pure": _sets("1", "ac1", "d1", "0abcd1"),
        "center": frozenset("0ad1"),
        "gelfand": True, "mp": True,
    },
    "C6": {
        "filters": _sets("1", "0abcd1"),
        "maximal": _sets("1"),
        "minimal_prime": _sets("1"),
        "alpha": _sets("1", "0abcd1"),
        "pure": _sets("1", "0abcd1"),
        "center": frozenset("01"),
        "gelfand": True, "mp": True,
    },
    "A8": {
        "filters": _sets("1", "acdef1", "ce1", "f1", "0abcdef1"),
        "maximal": _sets("acdef1"),
        "minimal_prime": _sets("ce1", "f1"),
        "alpha": _sets("1", "ce1", "f1", "0abcdef1"),
        "pure": _sets("1", "0abcdef1"),
        "center": frozenset("01"),
        "gelfand": True, "mp": False,
    },
}


# ---------------------------------------------------------------------------
# verdicts, registry, reports


class Verdict(namedtuple("Verdict", "status witness note",
                         defaults=(None, ""))):
    """``status`` is pass, fail or not_applicable."""

    __slots__ = ()

    def as_dict(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


PASS = Verdict("pass")


def _fail(witness: dict, note: str = "") -> Verdict:
    return Verdict("fail", witness, note)


def _na(note: str) -> Verdict:
    return Verdict("not_applicable", None, note)


def _when(cond: bool, witness_fn, note: str = "") -> Verdict:
    if cond:
        return PASS if not note else Verdict("pass", None, note)
    return _fail(witness_fn() if callable(witness_fn) else witness_fn)


PROPERTIES: dict[str, tuple[str, callable]] = {}


def _prop(pid: str, group: str):
    def deco(fn):
        if pid in PROPERTIES:
            raise LatticeError(f"duplicate property id {pid}")
        PROPERTIES[pid] = (group, fn)
        return fn
    return deco


# The Gelfand and mp sections state two theorem shapes, each written here
# once.  The hypothesis is read through ``_is_gelfand``/``_is_mp`` at call
# time, so it always comes from the current ``classify``.
_OFF_HYPOTHESIS = {"gelfand": "Gelfand instances only",
                   "mp": "mp instances only"}


def _hypothesis(lat, group):
    return _is_gelfand(lat) if group == "gelfand" else _is_mp(lat)


def _under(pid: str, group: str, holds, witness, note: str = ""):
    """Register "if A is Gelfand (mp), then holds(A)": n/a off the hypothesis,
    else ``holds`` decides and ``witness(lat)`` describes a failure."""
    def fn(lat):
        if not _hypothesis(lat, group):
            return _na(_OFF_HYPOTHESIS[group])
        return _when(holds(lat), lambda: witness(lat), note)
    _prop(pid, group)(fn)


def _iff(pid: str, group: str, **clauses):
    """Register "A is Gelfand (mp) iff each clause": every clause must equal
    the hypothesis; the witness gives the hypothesis, then every clause."""
    def fn(lat):
        h = _hypothesis(lat, group)
        got = {name: holds(lat) for name, holds in clauses.items()}
        return _when(all(v == h for v in got.values()),
                     lambda: {group: h, **got})
    _prop(pid, group)(fn)


def _every(pid: str, group: str, family, holds, key: str):
    """Register "holds(A, m) for every member m of family(A)": the first
    member that fails is the witness, as its tokens under ``key``."""
    def fn(lat):
        bad = next((m for m in family(lat) if not holds(lat, m)), None)
        return PASS if bad is None else _fail({key: _toks(lat, bad)})
    _prop(pid, group)(fn)


# The manifest of catalogued statement ids the registry must cover exactly.
SPEC_ANCHOR_MANIFEST = (
    # core: algebra, filters, spectra groundwork
    "resproposition", "exa6", "exb6", "exc6", "exa8", "compeleex",
    "genfilprop", "filqou", "intprimfilt", "mp", "1mineq",
    "boleleprop", "direcindbeta", "b9fxpro", "hperarchpri", "canonflat",
    "omegprop", "hulkerinstr", "opensd", "closefalzai",
    # purity: sink, pure filters, pure part, D-topology
    "sigfildef", "sigmapro", "sigmafequiv", "primesigmad", "puredef",
    "fbetasig", "flatpurethe", "pureequalsupport", "purestable",
    "sigmfiltlatt", "sigmahyper", "comxpureprime", "huldtopohyper",
    "rfilter", "purefilqou", "prinpuregen",
    # spp: the pure spectrum
    "preqpropu", "comppurpri", "r1filter", "minpurfil", "purpriprithe",
    "t0spppacecon", "closurofp", "t1spaspp", "sigmad", "puresppcomp",
    "Soberspec", "irrsppdclosub", "spsppconti", "grothfundres", "sppconn",
    "qoepuruspec",
    # gelfand
    "quanorexas", "pmprop", "gelnor", "equgelchaunit", "equgelchapure",
    "rhosigmanorg", "gelfmaxpure", "gelspphau", "sppgelfch", "gelpurefcl",
    "gelfhulldmin",
    # mp
    "quanorempxas", "noco", "mpmpropd", "norgammsig", "norgammsige",
    "normpurprimxa", "pureinterd", "mppurefcl", "mppureco1", "mppu1re",
    "mpminspp", "mp2minspp", "equmpflatmin", "mpspphau", "minspprick",
)


def _filters(lat):
    return enumerate_filters(lat).filters


# The clauses below range over pairs of filters.  They work on filter
# indices: ``images(lat)`` is the index vector of an operator on Fil(A)
# (``sigma_index``, ``rho_index``), F v H is read off the join table, and F
# and H are comaximal iff their join is ``top_i``.


def _preserves_joins(images):
    """The clause op(F) v op(H) = op(F v H) for all filters F and H."""
    def holds(lat):
        join_t, im = enumerate_filters(lat).join_t, images(lat)
        return all([join_t[im[i]][k] for k in im] == [im[k] for k in row]
                   for i, row in enumerate(join_t))
    return holds


def _preserves_comaximality(images):
    """The clause: F and H comaximal implies op(F) and op(H) comaximal."""
    def holds(lat):
        fl, im = enumerate_filters(lat), images(lat)
        join_t, top = fl.join_t, fl.top_i
        return all(t != top or join_t[im[i]][im[j]] == top
                   for i, row in enumerate(join_t) for j, t in enumerate(row))
    return holds


def _preserves_radical(images):
    """The clause rad(F) = rad(op F) for every filter F."""
    def holds(lat):
        rad = radical_index(lat)
        return all(rad[i] == rad[k] for i, k in enumerate(images(lat)))
    return holds


def _toks(lat, mask):
    return lat.tokens_of(mask)


def _principal_generator(lat, f_mask):
    out = lat.top
    for x in iter_bits(f_mask):
        out = lat.prod[out][x]
    return out


def _is_gelfand(lat):
    return classify(lat).gelfand.value


def _is_mp(lat):
    return classify(lat).mp.value


# -- core properties --------------------------------------------------------


@_prop("resproposition", "core")
def _p_resproposition(lat):
    """r1: x*(y v z) = (x*y) v (x*z);  r2: x v (y*z) >= (x v y)*(x v z).

    r1 is one comparison of two n^3 byte tables.  Cell (x, y, z) of the
    left one is the flat join table read through row x of the product,
    x*(y v z); of the right one, join row x*y read through row x,
    (x*y) v (x*z).  r2 is an order test, walked element by element for
    z >= y only: ``validate`` has checked that * commutes, so both sides
    are symmetric in y and z, and a failure at (x, y, z) with z < y comes
    after one at (x, z, y).  The witness is the first failing triple in
    row-major order, r1 before r2 at the same triple.
    """
    n, J, P, up = lat.n, lat.join, lat.prod, lat.up
    jrows, prows = [bytes(r) for r in J], [bytes(r) for r in P]
    flat = b"".join(jrows)
    lhs = b"".join([read_through(flat, px) for px in prows])
    rhs = b"".join([read_through(px, jrows[a]) for px in prows for a in px])
    end = n ** 3
    r1 = end if lhs == rhs else next(p for p in range(end) if lhs[p] != rhs[p])

    def first_r2():
        for x, jx in enumerate(J):
            for y, py in enumerate(P):
                p_jxy = P[jx[y]]
                for z in range(y, n):
                    if not up[p_jxy[jx[z]]] >> jx[py[z]] & 1:
                        return (x * n + y) * n + z
        return end

    p = min(r1, first_r2())
    if p == end:
        return PASS
    return _fail({"rule": "r1" if p == r1 else "r2",
                  "triple": [lat.names[p // (n * n)], lat.names[p // n % n],
                             lat.names[p % n]]})


def _fixture_fidelity(lat, key):
    if lat.name != key:
        return _na(f"fixture {key} only")
    exp = FIXTURE_EXPECT[key]
    got = {
        "filters": {frozenset(_toks(lat, f)) for f in _filters(lat)},
        "maximal": {frozenset(_toks(lat, f)) for f in maximal_filters(lat)},
        "minimal_prime": {frozenset(_toks(lat, f)) for f in minimal_primes(lat)},
        "alpha": {frozenset(_toks(lat, f)) for f in _filters(lat)
                  if is_alpha_filter(lat, f)},
        "pure": {frozenset(_toks(lat, f)) for f in pure_filters(lat)},
    }
    for field_name, want in exp.items():
        if field_name in ("center", "gelfand", "mp"):
            continue
        if got[field_name] != set(want):
            return _fail({"table": field_name,
                          "got": sorted(sorted(s) for s in got[field_name]),
                          "expected": sorted(sorted(s) for s in want)})
    return PASS


for _key in FIXTURE_NAMES:
    _prop(f"ex{_key}", "core")(
        lambda lat, key=_key.upper(): _fixture_fidelity(lat, key))


@_prop("compeleex", "core")
def _p_compeleex(lat):
    if lat.name not in FIXTURE_EXPECT:
        return _na("fixtures only")
    beta = boolean_center(lat)["elements"]
    got = frozenset(_toks(lat, beta))
    want = FIXTURE_EXPECT[lat.name]["center"]
    return _when(got == want,
                 lambda: {"got": sorted(got), "expected": sorted(want)})


@_prop("genfilprop", "core")
def _p_genfilprop(lat):
    """Generation formula, antitone law, meet/join transport, principality.

    Item 1 reads, for each x and each member c of F, the upset of
    {c*x^k : k >= 0}, which depends on neither F nor y, from a table built
    once, a column of all c at a time: each power x^k ORs in the upsets of
    the product column c*x^k.  Per F, the OR of its members' rows must
    equal the n generated filters <F u {x}> as one list; the first x is
    searched for only on a mismatch.  Items 3 and 4 are symmetric in x and
    y, so they run only for y >= x: a failure at (x, y) with y < x would
    already have failed at (y, x), earlier in row-major order.  Item 4
    works with idempotents: F = up(e), so <F u {x}> = up(a_x) with
    a_x = (e*x)^oo, <gx u gy> is up(a_x*a_y), and <F u {x, y}> is
    up((e*x*y)^oo).  The third side, <F u {x*y}>, is the generated filter
    that items 1-3 test.
    """
    fl = enumerate_filters(lat)
    n, up, prod, join = lat.n, lat.up, lat.prod, lat.join
    least, stable = least_elements(lat), stable_powers(lat)
    cols = list(zip(*prod))                # cols[pw][c] = c*pw
    via_x = []                             # via_x[x][c] = up{c*x^k : k >= 0}
    for x in range(n):
        p = lat.top
        via = list(map(up.__getitem__, cols[p]))
        while prod[p][x] != p:
            p = prod[p][x]
            via = list(map(or_, via, map(up.__getitem__, cols[p])))
        via_x.append(via)
    via_c = list(zip(*via_x))              # via_c[c][x] = via_x[x][c]
    for f in fl.filters:
        gen_x = [generated_filter(lat, f | (1 << x)) for x in range(n)]
        got = [0] * n
        for c in iter_bits(f):
            got = list(map(or_, got, via_c[c]))
        if got != gen_x:
            x = next(x for x in range(n) if got[x] != gen_x[x])
            return _fail({"item": 1, "filter": _toks(lat, f), "x": lat.names[x]})
        e_row = prod[least[f]]
        a = [stable[v] for v in e_row]     # a[x] = (e*x)^oo
        for x in range(n):
            gx, above_x, join_x, prod_x = gen_x[x], up[x], join[x], prod[x]
            a_row, ex_row = prod[a[x]], prod[e_row[x]]
            for y in range(n):
                gy = gen_x[y]
                if (above_x >> y) & 1 and gy & ~gx:
                    return _fail({"item": 2, "x": lat.names[x], "y": lat.names[y]})
                if y < x:
                    continue
                if gx & gy != gen_x[join_x[y]]:
                    return _fail({"item": 3, "x": lat.names[x], "y": lat.names[y]})
                joined = a_row[a[y]]
                if up[joined] != gen_x[prod_x[y]] or joined != stable[ex_row[y]]:
                    return _fail({"item": 4, "x": lat.names[x], "y": lat.names[y]})
    for f in fl.filters:
        if generated_filter(lat, 1 << _principal_generator(lat, f)) != f:
            return _fail({"item": "finite principality", "filter": _toks(lat, f)})
    return PASS


def _pushed(family):
    """The clause: the members of family(A/F) are the images of the members
    of family(A) that contain F."""
    def holds(lat, f):
        qr = quotient(lat, f)
        return {qr.push_mask(g) for g in hull(family(lat), f)} == \
            set(family(qr.quotient))
    return holds


# Filters of a quotient are the images of the filters over the kernel.
_every("filqou", "core", _filters, _pushed(_filters), "filter")


def _subset_samples(lat):
    if lat.n <= 10:
        return range(1 << lat.n)
    rng = random.Random(0x5EED ^ lat.n)
    samples = {0, lat.all_mask}
    samples.update(1 << x for x in range(lat.n))
    samples.update((1 << x) | (1 << y)
                   for x in range(lat.n) for y in range(lat.n))
    samples.update(_filters(lat))
    # 400 draws of rng.randrange(1 << n), which keeps the getrandbits(n + 1)
    # draws below 1 << n; the same values, without a Python call per draw
    draws = map(rng.getrandbits, repeat(lat.n + 1))
    samples.update(islice(filter((1 << lat.n).__gt__, draws), 400))
    return sorted(samples)


@_prop("intprimfilt", "core")
def _p_intprimfilt(lat):
    """Generated filter = intersection of the primes containing the set.

    h(X) is an index mask over the primes: the AND of the rows of the
    members of X, each row holding the primes that contain that element.
    It is read off a table per 8-bit chunk of X, in which h(X u {x}) is
    h(X) AND the row of x, so a subset of at most 8 elements is one lookup.
    The intersection is taken once per distinct h(X).
    """
    spec = prime_filters(lat)
    rows = point_rows(lat)
    chunks = []
    for base in range(0, lat.n, 8):
        t = [(1 << len(spec)) - 1]
        for row in rows[base:base + 8]:
            t += [h_x & row for h_x in t]
        chunks.append(t)

    def h(x_mask):
        out = -1
        for t in chunks:
            out &= t[x_mask & 255]
            x_mask >>= 8
        return out

    kernels = {}
    for x_mask in _subset_samples(lat):
        h_x = h(x_mask)
        if h_x not in kernels:
            kernels[h_x] = kernel(lat, [p for i, p in enumerate(spec)
                                        if h_x >> i & 1])
        if generated_filter(lat, x_mask) != kernels[h_x]:
            return _fail({"subset": _toks(lat, x_mask)})
    # some prime containing F misses G exactly when h(F) is not inside h(G)
    fl = enumerate_filters(lat)
    hulls = [h(f) for f in fl.filters]
    for f, h_f in zip(fl.filters, hulls):
        for g, h_g in zip(fl.filters, hulls):
            if g & ~f and not h_f & ~h_g:
                return _fail({"item": 1, "filter": _toks(lat, f),
                              "subset": _toks(lat, g)})
    return PASS


_every("mp", "core", prime_filters,
       lambda lat, p: inside(minimal_primes(lat), p), "prime")


def _one_of_x_and_perp(lat, p):
    """A prime is minimal iff it holds exactly one of x and x-perp, per x."""
    crit = all((((p >> x) & 1) == 1) != (x_perp(lat, x) & ~p == 0)
               for x in range(lat.n))
    return crit == (p in minimal_primes(lat))


_every("1mineq", "core", prime_filters, _one_of_x_and_perp, "prime")


@_prop("boleleprop", "core")
def _p_boleleprop(lat):
    """Central elements: principal upsets, the negation form, the unique
    complement -e, and e*x = e^x."""
    bc = boolean_center(lat)
    elems = bc["elements"]
    via_neg = 0
    for a in range(lat.n):
        if lat.join[a][lat.neg(a)] == lat.top:
            via_neg |= 1 << a
    if via_neg != elems:
        return _fail({"item": 2, "center": _toks(lat, elems),
                      "negation_form": _toks(lat, via_neg)})
    for e in iter_bits(elems):
        if generated_filter(lat, 1 << e) != lat.up[e]:
            return _fail({"item": 1, "e": lat.names[e]})
        comps = [y for y in range(lat.n) if lat.join[e][y] == lat.top
                 and lat.meet[e][y] == lat.bottom]
        if comps != [lat.neg(e)] or bc["complements"][e] != lat.neg(e):
            return _fail({"item": 3, "e": lat.names[e],
                          "complements": [lat.names[y] for y in comps],
                          "recorded": lat.names[bc["complements"][e]]})
        for x in range(lat.n):
            if lat.prod[e][x] != lat.meet[e][x]:
                return _fail({"item": 4, "e": lat.names[e],
                              "x": lat.names[x]})
    return PASS


@_prop("direcindbeta", "core")
def _p_direcindbeta(lat):
    rep = classify(lat)
    trivial_summands = set(direct_summands(lat)) == {1 << lat.top, lat.all_mask}
    return _when(rep.directly_indecomposable.value == trivial_summands,
                 lambda: {"beta": _toks(lat, rep.boolean_center)})


@_prop("b9fxpro", "core")
def _p_b9fxpro(lat):
    """Summands by F v F-perp = A, by central upsets, by complements in Fil."""
    ds = direct_summands(lat)
    unit = 1 << lat.top
    fl = enumerate_filters(lat)
    beta = boolean_center(lat)["elements"]
    by_center = sorted({lat.up[e] for e in iter_bits(beta)}, key=mask_key)
    by_complement = [f for f, row in zip(fl.filters, fl.join_t)
                     if any(f & g == unit and t == fl.top_i
                            for g, t in zip(fl.filters, row))]
    if not list(ds) == by_center == by_complement:
        return _fail({"summands": [_toks(lat, f) for f in ds],
                      "by_center": [_toks(lat, f) for f in by_center],
                      "by_complement": [_toks(lat, f) for f in by_complement]})
    needed = {unit, lat.all_mask}
    return _when(needed <= set(ds),
                 lambda: {"summands": [_toks(lat, f) for f in ds]})


@_prop("hperarchpri", "core")
def _p_hperarchpri(lat):
    all_f = set(_filters(lat))
    principal = {generated_filter(lat, 1 << x) for x in range(lat.n)} | \
                {generated_filter(lat, 0)}
    c1 = set(direct_summands(lat)) == principal
    c2 = {lat.up[e] for e in iter_bits(boolean_center(lat)["elements"])} == principal
    c3 = classify(lat).hyperarchimedean.value
    if principal != all_f:
        return _fail({"note": "finite instance has a non-principal filter"})
    return _when(c1 == c2 == c3, lambda: {"clauses": [c1, c2, c3]})


@_prop("canonflat", "core")
def _p_canonflat(lat):
    """Flatness of the projection: definition vs coannihilator criterion.

    The definition compares <pi((G : a))> with (<pi(G)> : pi(a)) in the
    quotient for every filter G and element a.  Each H among the filters
    and the (G : a) is a filter, up(e) for its least element e, so pi(H) is
    up(pi(e)) in the quotient (b >= pi(e) is the class of e v b, which lies
    in H): <pi(H)> is one lookup.  The right side is the row of <pi(G)> in
    the quotient's own coannulet table, read at the class of a.
    """
    fl = enumerate_filters(lat)
    co = coannulet_table(lat)
    least = least_elements(lat)
    rows = [(least[g], [least[h] for h in co_g])
            for g, co_g in zip(fl.filters, co)]
    for f in fl.filters:
        crit, _ = is_projection_flat(lat, f)
        qr = quotient(lat, f)
        q, proj = qr.quotient, qr.projection
        q_index, q_co = enumerate_filters(q).index, coannulet_table(q)
        image = [q.up[c] for c in proj]           # <pi(up(e))>, by e
        direct = True
        for e_g, e_co in rows:
            rhs = q_co[q_index[image[e_g]]]
            if [image[e] for e in e_co] != [rhs[c] for c in proj]:
                direct = False
                break
        if crit != direct:
            return _fail({"filter": _toks(lat, f),
                          "criterion": crit, "definition": direct})
    return PASS


@_prop("omegprop", "core")
def _p_omegprop(lat):
    """Coannulets sit inside the omega-filters as a sublattice; D facts.

    omega(I) = {a : a v y = 1 for some y in I} is taken from the join
    cells join[a][y] here, not from the coannulets, because the library
    reads both omega and the coannulets off one table; ``omega_filter``
    must agree with it on every principal ideal.  to_top[y] = {a : a v y =
    1} is read once per instance, and omega(I) is the OR of to_top over
    the members of I.  The pair clauses of item 1 are symmetric in x and
    y, so they run only for y >= x: a failure at (x, y) with y < x would
    already have failed at (y, x), earlier in row-major order.
    """
    join, top = lat.join, lat.top
    bits = [1 << a for a in range(lat.n)]
    to_top = [sum(compress(bits, map(top.__eq__, col))) for col in zip(*join)]
    by_ideal = {}

    def omega(ideal):
        if ideal not in by_ideal:
            by_ideal[ideal] = reduce(or_, map(to_top.__getitem__,
                                              iter_bits(ideal)))
        return by_ideal[ideal]

    omeg = set(omega_filters(lat))
    perp = [x_perp(lat, x) for x in range(lat.n)]
    downs = [principal_ideal(lat, x) for x in range(lat.n)]
    for x, (perp_x, down_x) in enumerate(zip(perp, downs)):
        if not omega(down_x) == omega_filter(lat, down_x) == perp_x:
            return _fail({"item": 1, "x": lat.names[x]})
        if perp_x not in omeg:
            return _fail({"item": 1, "x": lat.names[x]})
        prod_x, join_x = lat.prod[x], join[x]
        for y, (perp_y, down_y) in enumerate(zip(perp[x:], downs[x:]), x):
            if perp_x & perp_y != perp[prod_x[y]]:
                return _fail({"item": 1, "pair": [lat.names[x], lat.names[y]]})
            if omega(ideal_generated(lat, down_x | down_y)) != perp[join_x[y]]:
                return _fail({"item": 1, "pair": [lat.names[x], lat.names[y]]})
    for f in omeg:
        if not is_filter(lat, f):
            return _fail({"item": 1, "omega_filter": _toks(lat, f)})
    spec = prime_filters(lat)
    minp = minimal_primes(lat)
    for p in spec:
        d = D_operator(lat, p)
        via_primes = kernel(lat, inside(spec, p))
        via_minimal = kernel(lat, inside(minp, p))
        if d != via_primes or d != via_minimal:
            return _fail({"item": 2, "prime": _toks(lat, p),
                          "D": _toks(lat, d),
                          "primes_inside": _toks(lat, via_primes),
                          "minimal_primes_inside": _toks(lat, via_minimal)})
        if (d == p) != (p in minp):
            return _fail({"item": 3, "prime": _toks(lat, p)})
    return PASS


@_prop("hulkerinstr", "core")
def _p_hulkerinstr(lat):
    subspace(spec_space(lat, "h"), spec_mask(lat, maximal_filters(lat)))
    min_space(lat, "d")
    return Verdict("pass", None, "trivially compact (finite)")


@_prop("opensd", "core")
def _p_opensd(lat):
    """Opens of the dual hull-kernel topology are the unions of h(x).

    The h(x) form a basis: each is d-open, and each point p lies in some
    h(x) inside its minimal open set U_p.
    """
    spec = prime_filters(lat)
    sd = spec_space(lat, "d")
    hx = point_rows(lat)
    for x, h in enumerate(hx):
        if not sd.is_open(h):
            return _fail({"element": lat.names[x], "note": "h(x) is not open"})
    for p, u in enumerate(sd.nbhd):
        if not any((h >> p) & 1 and not h & ~u for h in hx):
            return _fail({"point": _toks(lat, spec[p]),
                          "note": "no h(x) between p and U_p"})
    return PASS


@_prop("closefalzai", "core")
def _p_closefalzai(lat):
    """h-closed = patch-closed and stable under specialization.

    The h-closed, patch-closed and S-stable sets are each closed under
    unions and intersections, so the two sides agree iff they agree on
    the hull of every point: the patch closure of {p} is {p}, and the
    h-closure of {p} is its S-stability hull.
    """
    spec = prime_filters(lat)
    sh, sp = spec_space(lat, "h"), spec_space(lat, "patch")
    for i in range(len(spec)):
        if (sp.closure(1 << i) != 1 << i or
                sh.closure(1 << i) != stability(spec, 1 << i)):
            return _fail({"points": [_toks(lat, spec[i])]})
    return PASS


# -- purity properties ------------------------------------------------------


_every("sigfildef", "purity", _filters,
       lambda lat, f: sigma_def(lat, f) == sigma_filter(lat, f), "filter")


@_prop("sigmapro", "purity")
def _p_sigmapro(lat):
    """Item 2 reads the sinks from one list of masks, not filter indices:
    item 1 must report a sink that is not a filter, which ``sigma_index``
    would refuse."""
    fl = _filters(lat)
    sig = [sigma_filter(lat, f) for f in fl]
    for f, sf in zip(fl, sig):
        if not is_filter(lat, sf):
            return _fail({"item": 1, "filter": _toks(lat, f)})
        for g, sg in zip(fl, sig):
            if f & ~g == 0 and sf & ~sg:
                return _fail({"item": 2, "pair": [_toks(lat, f), _toks(lat, g)]})
    for p in prime_filters(lat):
        if sigma_filter(lat, p) & ~D_operator(lat, p):
            return _fail({"item": 3, "prime": _toks(lat, p)})
    for m in maximal_filters(lat):
        if sigma_filter(lat, m) != D_operator(lat, m):
            return _fail({"item": 4, "maximal": _toks(lat, m)})
    return PASS


@_prop("sigmafequiv", "purity")
def _p_sigmafequiv(lat):
    """All closed forms of the sink agree elementwise with the primary one."""
    for f in _filters(lat):
        s = sigma_filter(lat, f)
        for key, val in sigma_formulas(lat, f).items():
            if val != s:
                return _fail({"filter": _toks(lat, f), "formula": key,
                              "element": lat.names[iter_bits(val ^ s)[0]]})
        i_f = sink_ideal(lat, f)
        if i_f and i_f not in set(lattice_ideals(lat)):
            return _fail({"filter": _toks(lat, f),
                          "note": "I_F is not a lattice ideal"})
    return PASS


@_prop("primesigmad", "purity")
def _p_primesigmad(lat):
    """sigma F inside F, sigma(F ^ G) = sigma F ^ sigma G, and sigma F v
    sigma G inside sigma(F v G), on filter indices: ``sigma_index``, the
    filter index for F ^ G and the join table for both joins."""
    fl = enumerate_filters(lat)
    filters, index, join_t = fl.filters, fl.index, fl.join_t
    s = sigma_index(lat)
    sig = [filters[k] for k in s]
    for f, sf, si, row in zip(filters, sig, s, join_t):
        if sf & ~f:
            return _fail({"item": 1, "filter": _toks(lat, f)})
        s_row = join_t[si]
        for g, sg, sj, t in zip(filters, sig, s, row):
            if sig[index[f & g]] != sf & sg:
                return _fail({"item": 2, "pair": [_toks(lat, f), _toks(lat, g)]})
            if filters[s_row[sj]] & ~sig[t]:
                return _fail({"item": 3, "pair": [_toks(lat, f), _toks(lat, g)]})
    return PASS


@_prop("puredef", "purity")
def _p_puredef(lat):
    return _when(is_pure(lat, 1 << lat.top) and is_pure(lat, lat.all_mask),
                 lambda: {"note": "trivial filters must be pure"})


@_prop("fbetasig", "purity")
def _p_fbetasig(lat):
    pure = set(pure_filters(lat))
    bad = [f for f in direct_summands(lat) if f not in pure]
    return _when(not bad, lambda: {"summand": _toks(lat, bad[0])})


@_prop("flatpurethe", "purity")
def _p_flatpurethe(lat):
    for f in _filters(lat):
        flat, wit = is_projection_flat(lat, f)
        if flat != is_pure(lat, f):
            w = {"filter": _toks(lat, f), "flat": flat}
            if wit:
                g, a, x = wit
                w["witness"] = {"G": _toks(lat, g), "a": lat.names[a],
                                "x": lat.names[x]}
            return _fail(w)
    return PASS


@_prop("pureequalsupport", "purity")
def _p_pureequalsupport(lat):
    d_x = [d_set(prime_filters(lat), 1 << a) for a in range(lat.n)]
    for f in _filters(lat):
        if (d_of(lat, f) == support(lat, f)) != is_pure(lat, f):
            return _fail({"filter": _toks(lat, f)})
    for f in pure_filters(lat):
        supp = support(lat, f)
        via = 0
        for a, d in enumerate(d_x):
            if d & ~supp == 0:
                via |= 1 << a
        if via != f:
            return _fail({"filter": _toks(lat, f),
                          "note": "support does not recover the pure filter"})
    return PASS


@_prop("purestable", "purity")
def _p_purestable(lat):
    spec = prime_filters(lat)
    for f in _filters(lat):
        d = d_of(lat, f)
        stable = stability(spec, d) == d
        if stable != is_pure(lat, f):
            return _fail({"filter": _toks(lat, f), "stable": stable})
    return PASS


@_prop("sigmfiltlatt", "purity")
def _p_sigmfiltlatt(lat):
    """Pure filters form a sublattice of Fil(A), and it is distributive.

    Works on filter indices: the joins g v h are listed once, the indices
    of f ^ h once per f, and each (f, g) compares a whole row over h.
    """
    fl = enumerate_filters(lat)
    filters, join_t, idx = fl.filters, fl.join_t, fl.idx
    pure = pure_filters(lat)
    pset = set(pure)
    ids = [idx(f) for f in pure]
    joins = [[filters[join_t[gi][hi]] for hi in ids] for gi in ids]
    for f, f_joins in zip(pure, joins):
        meets = [idx(f & h) for h in pure]
        for g, f_join_g, g_joins, fg in zip(pure, f_joins, joins, meets):
            if f & g not in pset or f_join_g not in pset:
                return _fail({"pair": [_toks(lat, f), _toks(lat, g)]})
            row = join_t[fg]
            lhs = [f & gh for gh in g_joins]
            rhs = [filters[row[fh]] for fh in meets]
            if lhs != rhs:
                h = pure[next(k for k, v in enumerate(lhs) if v != rhs[k])]
                return _fail({"triple": [_toks(lat, f), _toks(lat, g),
                                         _toks(lat, h)]})
    return PASS


@_prop("sigmahyper", "purity")
def _p_sigmahyper(lat):
    pure = set(pure_filters(lat))
    principal = {generated_filter(lat, 1 << x) for x in range(lat.n)}
    c1 = principal <= pure
    c2 = classify(lat).hyperarchimedean.value
    c3 = set(_filters(lat)) <= pure
    return _when(c1 == c2 == c3, lambda: {"clauses": [c1, c2, c3]})


@_prop("comxpureprime", "purity")
def _p_comxpureprime(lat):
    fl = enumerate_filters(lat)
    pp = [p for p in prime_filters(lat) if is_pure(lat, p)]
    ids = [fl.idx(p) for p in pp]
    for p, i in zip(pp, ids):
        row = fl.join_t[i]
        for q, j in zip(pp, ids):
            if p != q and row[j] != fl.top_i:
                return _fail({"pair": [_toks(lat, p), _toks(lat, q)]})
    return PASS


@_prop("huldtopohyper", "purity")
def _p_huldtopohyper(lat):
    same = d_topology(lat).nbhd == spec_space(lat, "h").nbhd
    antichain = classify(lat).hyperarchimedean.value
    return _when(same == antichain, lambda: {"coincide": same})


@_prop("rfilter", "purity")
def _p_rfilter(lat):
    """Items 1-5 read the pure parts off ``rho_index``, and items 4-5 the
    joins off the join table, as in ``primesigmad``."""
    fl = enumerate_filters(lat)
    filters, index, join_t = fl.filters, fl.index, fl.join_t
    r = rho_index(lat)
    rhos = [filters[k] for k in r]
    pure = set(pure_filters(lat))
    for f, rf, ri, row in zip(filters, rhos, r, join_t):
        if rf & ~sigma_filter(lat, f):
            return _fail({"item": 1, "filter": _toks(lat, f)})
        if rf not in pure or rf & ~f or any(g & ~rf for g in inside(pure, f)):
            return _fail({"item": 2, "filter": _toks(lat, f)})
        if rhos[ri] != rf or (rf == f) != (f in pure):
            return _fail({"item": 3, "filter": _toks(lat, f)})
        r_row = join_t[ri]
        for g, rg, rj, t in zip(filters, rhos, r, row):
            if rhos[index[f & g]] != rf & rg:
                return _fail({"item": 4, "pair": [_toks(lat, f), _toks(lat, g)]})
            if filters[r_row[rj]] & ~rhos[t]:
                return _fail({"item": 5, "pair": [_toks(lat, f), _toks(lat, g)]})
    for f in pure:
        over_f = hull(maximal_filters(lat), f)
        if kernel(lat, [rho(lat, m) for m in over_f]) != f:
            return _fail({"item": 6, "filter": _toks(lat, f)})
        if rho(lat, radical(lat, f)) != f:
            return _fail({"item": 7, "filter": _toks(lat, f)})
    for p in prime_filters(lat):
        if rho(lat, p) != rho(lat, D_operator(lat, p)):
            return _fail({"item": 8, "prime": _toks(lat, p)})
    return PASS


# Pure filters of a quotient by a pure filter are the pushed pure filters.
_every("purefilqou", "purity", pure_filters, _pushed(pure_filters), "filter")


@_prop("prinpuregen", "purity")
def _p_prinpuregen(lat):
    """Each (principal) pure filter is the upset of a complemented element."""
    beta = boolean_center(lat)["elements"]
    fbeta = {lat.up[e] for e in iter_bits(beta)}
    pure = set(pure_filters(lat))
    summands = set(direct_summands(lat))
    return _when(pure == summands == fbeta,
                 lambda: {"pure": [_toks(lat, f) for f in sorted(pure, key=mask_key)],
                          "f_beta": [_toks(lat, f) for f in sorted(fbeta, key=mask_key)]})


# -- pure spectrum properties -----------------------------------------------


@_prop("preqpropu", "spp")
def _p_preqpropu(lat):
    pure = pure_filters(lat)
    spp = set(purely_prime_filters(lat))
    for p in pure:
        if p == lat.all_mask:
            continue
        eq_form = True
        for f1 in pure:
            for f2 in pure:
                if f1 & f2 == p and f1 != p and f2 != p:
                    eq_form = False
        if eq_form != (p in spp):
            return _fail({"filter": _toks(lat, p)})
    return PASS


@_prop("comppurpri", "spp")
def _p_comppurpri(lat):
    beta = boolean_center(lat)["elements"]
    for p in purely_prime_filters(lat):
        for e in iter_bits(beta):
            if ((p >> e) & 1) == ((p >> lat.neg(e)) & 1):
                return _fail({"point": _toks(lat, p), "e": lat.names[e]})
    return PASS


@_prop("r1filter", "spp")
def _p_r1filter(lat):
    spp = pure_spectrum(lat)
    pmax = purely_maximal_points(lat)
    rho_max = {rho(lat, m) for m in maximal_filters(lat)}
    if not pmax <= rho_max:
        return _fail({"item": 1})
    sppset = set(spp.points)
    for p in prime_filters(lat):
        if rho(lat, p) not in sppset:
            return _fail({"item": 2, "prime": _toks(lat, p)})
    for f in pure_filters(lat):
        if kernel(lat, hull(spp.points, f)) != f:
            return _fail({"item": 3, "filter": _toks(lat, f)})
    return PASS


def _spp_points(lat):
    return pure_spectrum(lat).points


def _over_a_purely_minimal_point(lat, p):
    spp = pure_spectrum(lat)
    return inside(compress(spp.points, spp.purely_minimal), p)


_every("minpurfil", "spp", _spp_points, _over_a_purely_minimal_point, "point")


@_prop("purpriprithe", "spp")
def _p_purpriprithe(lat):
    def principal(f):
        return generated_filter(lat, 1 << _principal_generator(lat, f)) == f
    spp = pure_spectrum(lat)
    pmax = [p for p, m in zip(spp.points, spp.purely_maximal) if m]
    c1 = all(principal(p) for p in pmax)
    c2 = all(principal(p) for p in spp.points)
    c3 = all(principal(f) for f in pure_filters(lat))
    return _when(c1 == c2 == c3, lambda: {"clauses": [c1, c2, c3]},
                 note="all three clauses hold (finite instance)")


@_prop("t0spppacecon", "spp")
def _p_t0(lat):
    return _when(separation_report(pure_spectrum(lat).space)["t0"],
                 lambda: {"space": "Spp"})


def _closure_is_hull(lat, p):
    spp = pure_spectrum(lat)
    return spp.space.closure(1 << spp.points.index(p)) == h_set(spp.points, p)


_every("closurofp", "spp", _spp_points, _closure_is_hull, "point")


@_prop("t1spaspp", "spp")
def _p_t1spaspp(lat):
    spp = pure_spectrum(lat)
    t1 = separation_report(spp.space)["t1"]
    antichain = nested_pair(spp.points) is None
    return _when(t1 == antichain, lambda: {"t1": t1, "antichain": antichain})


@_prop("sigmad", "spp")
def _p_sigmad(lat):
    spp = pure_spectrum(lat)
    pure = pure_filters(lat)
    images = {f: d_set(spp.points, f) for f in pure}
    if len(set(images.values())) != len(pure):
        return _fail({"note": "map is not injective"})
    if set(images.values()) != set(spp.space.opens):
        return _fail({"note": "map is not onto the opens"})
    for f in pure:
        for g in pure:
            if (f & ~g == 0) != (images[f] & ~images[g] == 0):
                return _fail({"pair": [_toks(lat, f), _toks(lat, g)]})
    return PASS


@_prop("puresppcomp", "spp")
def _p_puresppcomp(lat):
    pure_spectrum(lat)
    return Verdict("pass", None, "trivially compact (finite)")


@_prop("Soberspec", "spp")
def _p_sober(lat):
    return _when(separation_report(pure_spectrum(lat).space)["sober"],
                 lambda: {"space": "Spp"})


@_prop("irrsppdclosub", "spp")
def _p_irrsppdclosub(lat):
    spp = pure_spectrum(lat)
    irr = {c for c, _ in irreducible_closed_sets(spp.space)}
    h_ks = {h_set(spp.points, p) for p in spp.points}
    return _when(irr == h_ks, lambda: {"note": "irreducible closed sets "
                                               "differ from point hulls"})


@_prop("spsppconti", "spp")
def _p_spsppconti(lat):
    rep = pure_part_map_report(lat)
    return _when(rep["continuous"] and rep["preimages_match"], lambda: rep)


@_prop("grothfundres", "spp")
def _p_grothfundres(lat):
    try:
        grothendieck_check(lat)
    except BijectionFailure as exc:
        return _fail({"error": str(exc)})
    return PASS


@_prop("sppconn", "spp")
def _p_sppconn(lat):
    rep = classify(lat)
    connected = separation_report(pure_spectrum(lat).space)["connected"]
    return _when(rep.directly_indecomposable.value == connected,
                 lambda: {"beta": _toks(lat, rep.boolean_center),
                          "connected": connected})


@_prop("qoepuruspec", "spp")
def _p_qoepuruspec(lat):
    """Quotient by a pure filter: its pure spectrum matches the hull inside."""
    spp = pure_spectrum(lat)
    for f in pure_filters(lat):
        qr = quotient(lat, f)
        qspp = pure_spectrum(qr.quotient)
        target = subspace(spp.space, h_set(spp.points, f))
        pm = label_map(qspp.space, target, qr.pull_mask)
        if pm is None:
            return _fail({"filter": _toks(lat, f),
                          "note": "pulled point is not in the hull"})
        if not map_analysis(pm)["homeomorphism"]:
            return _fail({"filter": _toks(lat, f),
                          "analysis": map_analysis(pm)})
    return PASS


# -- Gelfand properties -----------------------------------------------------


def _fixture_flag(lat, flag):
    """The bundled fixture's expected flag, with a witness that re-verifies."""
    if lat.name not in FIXTURE_EXPECT:
        return _na("fixtures only")
    got = getattr(classify(lat), flag)
    want = FIXTURE_EXPECT[lat.name][flag]
    if got.value != want:
        return _fail({"got": got.value, "expected": want})
    if not verify_flag_witness(lat, flag, got):
        return _fail({"note": "witness does not re-verify"})
    return PASS


def _max_h_is_a_retract(lat):
    """The maximal spectrum is a hull-kernel retract of the prime spectrum.

    Max_h is discrete, so a continuous map onto it is constant on each
    connected component of Spec_h; a retraction exists iff every component
    holds exactly one maximal point.
    """
    mmask = spec_mask(lat, maximal_filters(lat))
    return all((c & mmask).bit_count() == 1
               for c in components(spec_space(lat, "h")))


_prop("quanorexas", "gelfand")(lambda lat: _fixture_flag(lat, "gelfand"))
def _pmprop_c7(lat):
    """A proper filter comaximal with a maximal M is comaximal with D(M).
    A itself is comaximal with every filter, so no row is skipped."""
    fl = enumerate_filters(lat)
    top = fl.top_i
    pairs = [(fl.idx(m), fl.idx(D_operator(lat, m)))
             for m in maximal_filters(lat)]
    return all(row[mi] != top or row[di] == top
               for row in fl.join_t for mi, di in pairs)


_iff("pmprop", "gelfand",
     c3=lambda lat: pairwise_comaximal(lat, [
         enumerate_filters(lat).idx(D_operator(lat, m))
         for m in maximal_filters(lat)]),
     c7=_pmprop_c7)
_iff("gelnor", "gelfand", retraction=_max_h_is_a_retract)
_iff("equgelchaunit", "gelfand",
     c2=lambda lat: below_max_implies_f_below(lat, sigma_index(lat)),
     c3=hm_of_sigma_unchanged,
     c4=_preserves_radical(sigma_index),
     c5=_preserves_comaximality(sigma_index),
     c6=_preserves_joins(sigma_index))
_iff("equgelchapure", "gelfand",
     c2=rho_below_max_implies_f_below,
     c3=lambda lat: hm_unchanged(lat, rho_index(lat)),
     c4=_preserves_radical(rho_index),
     c5=_preserves_comaximality(rho_index),
     c6=_preserves_joins(rho_index),
     c7=lambda lat: pairwise_comaximal(lat, [
         rho_index(lat)[i] for i in map(enumerate_filters(lat).idx,
                                        maximal_filters(lat))]),
     rho_rad_adjunction=rho_rad_adjunction)
_under("rhosigmanorg", "gelfand", rho_equals_sigma, lambda lat: {
    "filter": _toks(lat, next(f for f in _filters(lat)
                              if rho(lat, f) != sigma_filter(lat, f)))})
_under("gelfmaxpure", "gelfand",
       lambda lat: spp_equals_max_sigma(lat) and spp_equals_rho_of_max(lat),
       lambda lat: {
           "purely_maximal": [_toks(lat, p) for p in purely_maximal_points(lat)],
           "rho_of_max": [_toks(lat, rho(lat, m)) for m in maximal_filters(lat)]})
_under("gelspphau", "gelfand", spp_hausdorff, lambda lat: {"space": "Spp"})
_iff("sppgelfch", "gelfand", homeomorphism=rho_m_homeomorphism)
_under("gelpurefcl", "gelfand", pure_filters_closed_form, lambda lat: {
    "closed_forms": [_toks(lat, f) for f in
                     sorted(gelfand_closed_forms(lat), key=mask_key)]})
_iff("gelfhulldmin", "gelfand", coincide=hull_kernel_equals_d_topology_on_max)


# -- mp properties ----------------------------------------------------------


_prop("quanorempxas", "mp")(lambda lat: _fixture_flag(lat, "mp"))
_iff("noco", "mp",
     c1=minimal_primes_comaximal,
     c4=lambda lat: all(D_operator(lat, mx) in minimal_primes(lat)
                        for mx in maximal_filters(lat)),
     c5=comaximal_coannulets)


@_prop("mpmpropd", "mp")
def _p_mpmpropd(lat):
    # Finite minimal spectra are always discrete in the dual topology, so
    # only the forward direction is testable at this scale.
    if not _is_mp(lat):
        return _na("mp instances only (converse is vacuous on finite instances)")
    return _when(min_d_hausdorff(lat), lambda: {"space": "Min_d"})


_iff("norgammsig", "mp", c2=omega_filters_pure, c3=coannulets_pure)


@_prop("norgammsige", "mp")
def _p_norgammsige(lat):
    # Clause 3 is checked forward-only: a non-mp instance can still have
    # D of every maximal filter pure (a8: D of the unique maximal is {1}),
    # so that clause does not characterize mp at finite scale.
    m = _is_mp(lat)
    c2 = all(is_pure(lat, D_operator(lat, p)) for p in prime_filters(lat))
    c3 = all(is_pure(lat, D_operator(lat, mx)) for mx in maximal_filters(lat))
    c4 = all(is_pure(lat, p) for p in minimal_primes(lat))
    return _when(c2 == m and c4 == m and (not m or c3),
                 lambda: {"mp": m, "c2": c2, "c3": c3, "c4": c4})


_iff("normpurprimxa", "mp", min_equals_max_sigma=min_equals_max_sigma)
_under("pureinterd", "mp", proper_pure_equal_kh_m, lambda lat: {
    "filter": _toks(lat, next(f for f in pure_filters(lat)
                              if f != lat.all_mask and kh_m(lat, f) != f))})
_under("mppurefcl", "mp", pure_filters_closed_form_min, lambda lat: {
    "closed_forms": [_toks(lat, f) for f in
                     sorted(mp_closed_forms(lat), key=mask_key)]})
_under("mppureco1", "mp", coannulet_meets_fa_trivially, lambda lat: {
    "a": next(lat.names[a] for a in range(lat.n)
              if x_perp(lat, a) & f_a(lat, a) != 1 << lat.top)})
_under("mppu1re", "mp", minimal_prime_is_join_of_fa, lambda lat: {
    "minimal_prime": _toks(lat, next(q for q in minimal_primes(lat)
                                     if fa_join(lat, q) != q))})
_under("mpminspp", "mp", spp_in_max_sigma, lambda lat: {
    "spp": [_toks(lat, p) for p in pure_spectrum(lat).points]})
_iff("mp2minspp", "mp", min_equals_spp=min_equals_spp)
_iff("equmpflatmin", "mp",
     identity_homeomorphism=iota_spp_to_min_d_homeomorphism)
_under("mpspphau", "mp", spp_hausdorff, lambda lat: {"space": "Spp"})
_under("minspprick", "mp", min_h_homeomorphic_to_spp, lambda lat: {
    "min_h": [_toks(lat, q) for q in min_space(lat, "h").labels],
    "spp": [_toks(lat, p) for p in pure_spectrum(lat).points]},
    note="finiteness makes the compactness hypothesis vacuous")


# ---------------------------------------------------------------------------
# suite runner


GROUPS = ("core", "purity", "spp", "gelfand", "mp")


def self_inventory_check():
    """The registry and the manifest must agree exactly."""
    reg, man = set(PROPERTIES), set(SPEC_ANCHOR_MANIFEST)
    if reg != man or len(SPEC_ANCHOR_MANIFEST) != len(PROPERTIES):
        missing = sorted(man - reg)
        extra = sorted(reg - man)
        raise LatticeError(f"property registry out of sync: missing={missing} "
                           f"extra={extra}")


class SuiteReport:
    def __init__(self, suite, property_ids, instance_names, verdicts=None,
                 conjecture_spp_is_purely_maximal=None):
        self.suite = suite
        self.property_ids = property_ids
        self.instance_names = instance_names
        # (instance, pid) -> Verdict
        self.verdicts = {} if verdicts is None else verdicts
        self.conjecture_spp_is_purely_maximal = (
            {} if conjecture_spp_is_purely_maximal is None
            else conjecture_spp_is_purely_maximal)

    def verdict(self, instance: str, pid: str) -> Verdict:
        return self.verdicts[(instance, pid)]

    def failures(self):
        return [(i, p, v) for (i, p), v in self.verdicts.items()
                if v.status == "fail"]

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def counts(self):
        out = {"pass": 0, "fail": 0, "not_applicable": 0}
        for v in self.verdicts.values():
            out[v.status] += 1
        return out

    def as_dict(self):
        return {
            "suite": self.suite,
            "properties": list(self.property_ids),
            "instances": [
                {"lattice": name,
                 "results": {pid: self.verdicts[(name, pid)].as_dict()
                             for pid in self.property_ids}}
                for name in self.instance_names
            ],
            "conjecture_spp_is_purely_maximal":
                self.conjecture_spp_is_purely_maximal,
            "counts": self.counts(),
        }

    def text_lines(self):
        lines = []
        for name in self.instance_names:
            bad = [pid for pid in self.property_ids
                   if self.verdicts[(name, pid)].status == "fail"]
            status = "FAIL" if bad else "ok"
            lines.append(f"{name}: {status}" + (f" ({', '.join(bad)})" if bad else ""))
        c = self.counts()
        lines.append(f"total: {c['pass']} pass, {c['fail']} fail, "
                     f"{c['not_applicable']} n/a")
        return lines


class DuplicateInstance(LatticeError):
    """Two suite instances share a name, which keys their verdicts."""


def run_theorem_suite(instances, suite: str = "all") -> SuiteReport:
    """Run every applicable property of the chosen suite on each instance."""
    self_inventory_check()
    if suite != "all" and suite not in GROUPS:
        raise ValueError(f"unknown suite {suite!r}")
    instances = tuple(instances)
    names = tuple(lat.name for lat in instances)
    dup = next((x for i, x in enumerate(names) if x in names[:i]), None)
    if dup is not None:
        raise DuplicateInstance(f"two instances are named {dup!r}")
    pids = tuple(pid for pid, (grp, _) in PROPERTIES.items()
                 if suite == "all" or grp == suite)
    report = SuiteReport(suite, pids, names)
    for lat in instances:
        for pid in pids:
            _, fn = PROPERTIES[pid]
            report.verdicts[(lat.name, pid)] = fn(lat)
        spp = pure_spectrum(lat)
        report.conjecture_spp_is_purely_maximal[lat.name] = \
            all(spp.purely_maximal)
    return report
