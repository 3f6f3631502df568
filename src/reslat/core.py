"""Finite residuated lattices: representation, validation, parsing, products.

A residuated lattice here is a bounded lattice (A; v, ^, 0, 1) carrying a
commutative monoid product * with unit 1 such that (*, ->) is an adjoint
pair: x*z <= y iff z <= x->y.  Everything is finite and element-indexed;
subsets of the carrier travel as int bitmasks throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


class LatticeError(Exception):
    """Base class for errors raised by this package."""


class SizeLimit(LatticeError):
    """Carrier would exceed the supported size cap."""


class ParseError(LatticeError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Violation:
    """One violated axiom, with a concrete witness (element tokens)."""

    kind: str      # NotALattice | NotMonoid | NotAdjoint | ResiduumGap | Order | Bounds | ResMismatch
    message: str
    witness: tuple = ()


@dataclass
class ValidationReport:
    name: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, message, witness=()):
        self.violations.append(Violation(kind, message, tuple(witness)))

    def __str__(self):
        if self.ok:
            return f"{self.name}: valid"
        lines = [f"{self.name}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.kind}] {v.message}" for v in self.violations]
        return "\n".join(lines)


class ValidationFailure(LatticeError):
    """Raised by loaders when a table set fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


# Carrier size cap.  No path in the library is exponential in the carrier
# size: filters and ideals come from at most n principal generators, and a
# space from one minimal open set per point.  FiniteSpace.opens lists every
# open set (2^|Spec| for the discrete patch topology), so the library lists
# opens only of spaces with at most |Fil| + 1 of them: Spec_h, Spec_d, Spp,
# Spec_D and their subspaces.  The cap bounds polynomial work (validate's
# O(n^3) axiom checks, suite properties of order |Fil|^2 * n) and the
# products that `gen --product` writes.
MAX_ELEMENTS = 20


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_key(mask: int) -> tuple:
    """Deterministic sort key: cardinality, then index-lexicographic."""
    return (popcount(mask), tuple(iter_bits(mask)))


@dataclass
class RawTables:
    """Unvalidated input for :func:`validate`."""

    name: str
    element_names: list[str]
    leq: np.ndarray                 # n x n bool
    prod: np.ndarray                # n x n int
    bottom: int
    top: int
    res_claims: list[tuple[int, int, int]] = field(default_factory=list)


class ResiduatedLattice:
    """A validated finite residuated lattice.

    Immutable once built (tables are read-only numpy arrays plus plain
    tuple mirrors for fast scalar access); safe to share across workers.
    Construct via :func:`validate`, :func:`load_lattice` or
    :func:`direct_product`, not directly.
    """

    __slots__ = ("name", "n", "names", "leq_np", "join_np", "meet_np",
                 "prod_np", "res_np", "join", "meet", "prod", "res",
                 "up", "down", "bottom", "top", "all_mask", "_index",
                 "_cache")

    def __init__(self, name, names, leq, join, meet, prod, res, bottom, top):
        self.name = name
        self.names = tuple(names)
        self.n = len(names)
        for arr in (leq, join, meet, prod, res):
            arr.setflags(write=False)
        self.leq_np = leq
        self.join_np = join
        self.meet_np = meet
        self.prod_np = prod
        self.res_np = res
        self.join = tuple(tuple(int(v) for v in row) for row in join)
        self.meet = tuple(tuple(int(v) for v in row) for row in meet)
        self.prod = tuple(tuple(int(v) for v in row) for row in prod)
        self.res = tuple(tuple(int(v) for v in row) for row in res)
        self.up = tuple(int(sum(1 << j for j in range(self.n) if leq[i, j]))
                        for i in range(self.n))
        self.down = tuple(int(sum(1 << j for j in range(self.n) if leq[j, i]))
                          for i in range(self.n))
        self.bottom = bottom
        self.top = top
        self.all_mask = (1 << self.n) - 1
        self._index = {tok: i for i, tok in enumerate(self.names)}
        self._cache = {}

    # -- element-level queries ------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise LatticeError(f"{self.name}: unknown element {token!r}") from None

    def neg(self, x: int) -> int:
        """Negation x -> 0."""
        return self.res[x][self.bottom]

    def power(self, x: int, k: int) -> int:
        """k-fold product of x; k = 0 gives the unit."""
        if k < 0:
            raise ValueError("power exponent must be >= 0")
        out = self.top
        for _ in range(k):
            out = self.prod[out][x]
        return out

    # -- subset helpers --------------------------------------------------

    def mask_of(self, tokens) -> int:
        mask = 0
        for tok in tokens:
            mask |= 1 << self.index(tok)
        return mask

    def tokens_of(self, mask: int) -> list[str]:
        return [self.names[i] for i in iter_bits(mask)]

    def set_str(self, mask: int) -> str:
        return "{" + ",".join(self.tokens_of(mask)) + "}"

    def upset_of(self, mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= self.up[i]
        return out

    def is_upset(self, mask: int) -> bool:
        return self.upset_of(mask) == mask

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (x, y) with y covering x."""
        lt = self.leq_np & ~np.eye(self.n, dtype=bool)
        covers = lt & ~(lt @ lt)
        return [(int(i), int(j)) for i, j in np.argwhere(covers)]

    def hasse_dot(self) -> str:
        """Graphviz text for the Hasse diagram (bottom drawn at the bottom)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=BT;",
                 '  node [shape=plaintext];']
        for tok in self.names:
            lines.append(f'  "{tok}";')
        for x, y in self.cover_pairs():
            lines.append(f'  "{self.names[x]}" -> "{self.names[y]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"ResiduatedLattice({self.name!r}, n={self.n})"


def _least_of(leq: np.ndarray, candidates: np.ndarray):
    """Index of the least element of a candidate set, or None."""
    idx = np.flatnonzero(candidates)
    for i in idx:
        if all(leq[i, j] for j in idx):
            return int(i)
    return None


def validate(raw: RawTables) -> ResiduatedLattice | ValidationReport:
    """Check every axiom; return the lattice, or a report of all violations.

    The residuum table is always derived from the order and the product;
    any res rows supplied in the input are cross-checked, never trusted.
    """
    rep = ValidationReport(raw.name)
    names = raw.element_names
    n = len(names)
    leq = raw.leq.astype(bool)
    prod = raw.prod.astype(np.int64)

    if not (2 <= n <= MAX_ELEMENTS):
        rep.add("Bounds", f"element count {n} outside 2..{MAX_ELEMENTS}")
        return rep

    # partial order
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        rep.add("Order", f"{names[i]} not reflexive", (names[i],))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        i, j = map(int, np.argwhere(anti)[0])
        rep.add("Order", f"antisymmetry fails at ({names[i]},{names[j]})",
                (names[i], names[j]))
    trans_gap = (leq @ leq) & ~leq
    if trans_gap.any():
        i, j = map(int, np.argwhere(trans_gap)[0])
        rep.add("Order", f"transitivity fails reaching {names[j]} from {names[i]}",
                (names[i], names[j]))
    if not rep.ok:
        return rep

    # bounded lattice with all joins/meets
    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x, n):
            j = _least_of(leq, leq[x] & leq[y])
            m = _least_of(leq.T, leq[:, x] & leq[:, y])
            if j is None:
                rep.add("NotALattice", f"{names[x]} v {names[y]} has no least upper bound",
                        (names[x], names[y]))
            if m is None:
                rep.add("NotALattice", f"{names[x]} ^ {names[y]} has no greatest lower bound",
                        (names[x], names[y]))
            if j is None or m is None:
                continue
            join[x, y] = join[y, x] = j
            meet[x, y] = meet[y, x] = m
    if not rep.ok:
        return rep

    if not leq[raw.bottom].all():
        x = int(np.flatnonzero(~leq[raw.bottom])[0])
        rep.add("Bounds", f"declared bottom {names[raw.bottom]} is not below {names[x]}",
                (names[raw.bottom], names[x]))
    if not leq[:, raw.top].all():
        x = int(np.flatnonzero(~leq[:, raw.top])[0])
        rep.add("Bounds", f"declared top {names[raw.top]} is not above {names[x]}",
                (names[raw.top], names[x]))
    if not rep.ok:
        return rep

    # commutative monoid with unit top
    if (prod != prod.T).any():
        x, y = map(int, np.argwhere(prod != prod.T)[0])
        rep.add("NotMonoid", f"product not commutative at ({names[x]},{names[y]})",
                (names[x], names[y]))
    unit_bad = np.flatnonzero(prod[:, raw.top] != np.arange(n))
    if unit_bad.size:
        x = int(unit_bad[0])
        rep.add("NotMonoid",
                f"{names[x]} * 1 = {names[int(prod[x, raw.top])]} instead of {names[x]}",
                (names[x],))
    lhs = prod[prod]                      # lhs[x,y,z] = (x*y)*z
    rhs = prod[:, prod]                   # rhs[x,y,z] = x*(y*z)
    if (lhs != rhs).any():
        x, y, z = map(int, np.argwhere(lhs != rhs)[0])
        rep.add("NotMonoid",
                f"associativity fails at ({names[x]},{names[y]},{names[z]})",
                (names[x], names[y], names[z]))

    # residuum: x->y is the maximum of S = {z | x*z <= y}, which must
    # contain its own join
    res = np.zeros((n, n), dtype=np.int64)
    gap = False
    for x in range(n):
        for y in range(n):
            zs = np.flatnonzero(leq[prod[x], y])
            if zs.size == 0:
                rep.add("ResiduumGap",
                        f"no z at all with {names[x]}*z <= {names[y]}",
                        (names[x], names[y]))
                gap = True
                continue
            j = zs[0]
            for z in zs[1:]:
                j = join[j, z]
            if not leq[prod[x, j], y]:
                rep.add("ResiduumGap",
                        f"{{z | {names[x]}*z <= {names[y]}}} has no maximum",
                        (names[x], names[y]))
                gap = True
                continue
            res[x, y] = j

    if not gap:
        # adjunction: x*z <= y  iff  z <= x->y
        left = np.transpose(leq[prod], (0, 2, 1))        # [x,y,z] = x*z <= y
        right = np.transpose(leq[:, res], (1, 2, 0))     # [x,y,z] = z <= x->y
        if (left != right).any():
            x, y, z = map(int, np.argwhere(left != right)[0])
            rep.add("NotAdjoint",
                    f"adjunction fails at x={names[x]}, y={names[y]}, z={names[z]}",
                    (names[x], names[y], names[z]))

    # x*y <= x^y (checked directly even though it follows from adjunction)
    pm = np.array([[leq[prod[x, y], meet[x, y]] for y in range(n)] for x in range(n)])
    if not pm.all():
        x, y = map(int, np.argwhere(~pm)[0])
        rep.add("NotAdjoint",
                f"{names[x]}*{names[y]} is not below {names[x]}^{names[y]}",
                (names[x], names[y]))

    for x, y, claimed in raw.res_claims:
        if rep.ok and res[x, y] != claimed:
            rep.add("ResMismatch",
                    f"file claims {names[x]}->{names[y]} = {names[claimed]}, "
                    f"derived {names[int(res[x, y])]}",
                    (names[x], names[y], names[claimed]))

    if not rep.ok:
        return rep
    return ResiduatedLattice(raw.name, names, leq, join, meet, prod, res,
                             raw.bottom, raw.top)


def residuum(lat: ResiduatedLattice, x: int, y: int) -> int:
    """Largest z with x*z <= y (total on a validated lattice)."""
    return lat.res[x][y]


def derived_element_ops(lat: ResiduatedLattice, x: int, k: int = 1) -> dict:
    """Negation and k-th power of an element."""
    return {"negation": lat.neg(x), "power": lat.power(x, k)}


_TOKEN_RE = re.compile(r"\S+")


def parse_lattice_text(text: str, source: str = "<string>") -> RawTables:
    """Parse the line-oriented lattice file format into raw tables.

    Order input is Hasse covers; the reflexive-transitive closure is
    computed here.  Product rows involving the bottom default to bottom,
    rows involving the top default to the other operand, and every other
    unordered pair must appear exactly once.
    """
    name = None
    element_names: list[str] = []
    index: dict[str, int] = {}
    bottom_tok = top_tok = None
    covers: list[tuple[int, int]] = []
    mul_rows: dict[frozenset, tuple[int, int]] = {}   # pair -> (value, line)
    res_claims: list[tuple[int, int, int]] = []
    ended = False

    def want(tok, line_no):
        if tok not in index:
            raise ParseError(line_no, f"unknown element {tok!r}")
        return index[tok]

    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(line_no, "content after 'end'")
        words = _TOKEN_RE.findall(line)
        head, args = words[0], words[1:]
        if head == "lattice":
            if len(args) != 1:
                raise ParseError(line_no, "expected: lattice <name>")
            name = args[0]
        elif head == "elements":
            if len(args) < 2:
                raise ParseError(line_no, "need at least two elements")
            if len(set(args)) != len(args):
                raise ParseError(line_no, "element tokens must be distinct")
            element_names = list(args)
            index = {tok: i for i, tok in enumerate(element_names)}
        elif head == "bottom":
            if len(args) != 1:
                raise ParseError(line_no, "expected: bottom <tok>")
            bottom_tok = args[0]
        elif head == "top":
            if len(args) != 1:
                raise ParseError(line_no, "expected: top <tok>")
            top_tok = args[0]
        elif head == "cover":
            if len(args) != 2:
                raise ParseError(line_no, "expected: cover <x> <y>")
            covers.append((want(args[0], line_no), want(args[1], line_no)))
        elif head == "mul":
            if len(args) != 3:
                raise ParseError(line_no, "expected: mul <x> <y> <tok>")
            x, y, v = (want(t, line_no) for t in args)
            key = frozenset((x, y))
            if key in mul_rows:
                raise ParseError(line_no, f"duplicate mul row for ({args[0]},{args[1]})")
            mul_rows[key] = (v, line_no)
        elif head == "res":
            if len(args) != 3:
                raise ParseError(line_no, "expected: res <x> <y> <tok>")
            x, y, v = (want(t, line_no) for t in args)
            res_claims.append((x, y, v))
        elif head == "end":
            ended = True
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")

    if name is None:
        raise ParseError(0, f"{source}: missing 'lattice' line")
    if not element_names:
        raise ParseError(0, f"{source}: missing 'elements' line")
    if not ended:
        raise ParseError(0, f"{source}: missing 'end'")
    if bottom_tok is None or top_tok is None:
        raise ParseError(0, f"{source}: bottom/top must be declared")
    n = len(element_names)
    if n > MAX_ELEMENTS:
        raise SizeLimit(f"{name}: {n} elements exceeds the cap of {MAX_ELEMENTS}")
    bottom = index[bottom_tok] if bottom_tok in index else None
    top = index[top_tok] if top_tok in index else None
    if bottom is None or top is None:
        raise ParseError(0, f"{source}: bottom/top must name declared elements")

    leq = np.eye(n, dtype=bool)
    for x, y in covers:
        leq[x, y] = True
    for k in range(n):                      # Warshall closure
        leq |= np.outer(leq[:, k], leq[k, :])

    prod = np.full((n, n), -1, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            key = frozenset((x, y))
            if key in mul_rows:
                prod[x, y] = mul_rows[key][0]
            elif bottom in (x, y):
                prod[x, y] = bottom
            elif x == top:
                prod[x, y] = y
            elif y == top:
                prod[x, y] = x
    missing = np.argwhere(prod < 0)
    if missing.size:
        x, y = map(int, missing[0])
        raise ParseError(0, f"{source}: missing mul row for "
                            f"({element_names[x]},{element_names[y]})")

    return RawTables(name, element_names, leq, prod, bottom, top, res_claims)


def load_lattice(path) -> ResiduatedLattice:
    """Parse and validate a lattice file; raise ValidationFailure if bad."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_lattice_text(fh.read(), source=str(path))
    out = validate(raw)
    if isinstance(out, ValidationReport):
        raise ValidationFailure(out)
    return out


def lattice_from_tables(name, names, leq, prod, bottom, top) -> ResiduatedLattice:
    """Validate in-memory tables; raise ValidationFailure if bad."""
    raw = RawTables(name, list(names), np.asarray(leq, dtype=bool),
                    np.asarray(prod, dtype=np.int64), bottom, top)
    out = validate(raw)
    if isinstance(out, ValidationReport):
        raise ValidationFailure(out)
    return out


def direct_product(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    """Componentwise product of two validated lattices (size-capped)."""
    if a.n < 2 or b.n < 2:
        raise SizeLimit("product factors need at least two elements")
    if a.n * b.n > MAX_ELEMENTS:
        raise SizeLimit(f"{a.name} x {b.name} would have {a.n * b.n} elements "
                        f"(cap {MAX_ELEMENTS})")
    n2 = b.n
    names = [f"({s},{t})" for s in a.names for t in b.names]
    n = a.n * b.n
    leq = np.zeros((n, n), dtype=bool)
    prod = np.zeros((n, n), dtype=np.int64)
    for x1 in range(a.n):
        for x2 in range(b.n):
            i = x1 * n2 + x2
            for y1 in range(a.n):
                for y2 in range(b.n):
                    j = y1 * n2 + y2
                    leq[i, j] = a.leq_np[x1, y1] and b.leq_np[x2, y2]
                    prod[i, j] = a.prod[x1][y1] * n2 + b.prod[x2][y2]
    raw = RawTables(f"{a.name}x{b.name}", names, leq, prod,
                    a.bottom * n2 + b.bottom, a.top * n2 + b.top)
    out = validate(raw)
    if isinstance(out, ValidationReport):
        raise ValidationFailure(out)
    return out
