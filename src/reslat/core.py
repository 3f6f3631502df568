"""Finite residuated lattices: representation, validation, parsing, products.

A residuated lattice here is a bounded lattice (A; v, ^, 0, 1) carrying a
commutative monoid product * with unit 1 such that (*, ->) is an adjoint
pair: x*z <= y iff z <= x->y.  Everything is finite and element-indexed;
subsets of the carrier travel as int bitmasks throughout the package.

Every layer reads masks back through one bit kernel, ``iter_bits`` and
``mask_key``, off per-byte index tables sized from ``MAX_ELEMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter


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
# O(n^3) axiom checks, suite properties of order |Fil|^2 * n and
# |Fil| * n^2) and the products that `gen --product` writes.  The bit
# kernel's tables are sized from it, so raising it needs no other edit.
MAX_ELEMENTS = 64


def _bit_rows() -> tuple:
    """rows[k][b]: the indices 8k + i of the set bits i of the byte b.  Each
    bit doubles a row: the entries with bit i set extend those without it."""
    rows = []
    for base in range(0, MAX_ELEMENTS, 8):
        t = [()]
        for i in range(base, base + 8):
            bit = (i,)
            t += [e + bit for e in t]
        rows.append(tuple(t))
    return tuple(rows)


_BIT_ROWS = _bit_rows()


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set-bit indices of ``mask`` in increasing order, one table row
    per byte; a negative or over-cap mask raises ValueError."""
    if 0 <= mask < 256:
        return _BIT_ROWS[0][mask]
    if mask < 0 or mask >> MAX_ELEMENTS:
        raise ValueError(f"mask {mask:#x} is outside the {MAX_ELEMENTS}-bit cap")
    out = ()
    for row in _BIT_ROWS:
        if not mask:
            break
        out += row[mask & 255]
        mask >>= 8
    return out


def mask_key(mask: int) -> tuple:
    """Deterministic sort key: cardinality, then index-lexicographic."""
    return (mask.bit_count(), iter_bits(mask))


@dataclass
class RawTables:
    """Unvalidated input for :func:`validate`."""

    name: str
    element_names: list[str]
    leq: list                       # n x n bools, read as leq[i][j]
    prod: list                      # n x n element indices, read as prod[i][j]
    bottom: int
    top: int
    res_claims: list[tuple[int, int, int]] = field(default_factory=list)


class ResiduatedLattice:
    """A validated finite residuated lattice.

    Immutable once built: the operation tables are tuples of tuples and the
    order is one bitmask row per element (``up[x]`` = {y : x <= y},
    ``down[y]`` = {x : x <= y}); safe to share across workers.  Construct
    via :func:`validate`, :func:`load_lattice` or :func:`direct_product`,
    not directly.
    """

    __slots__ = ("name", "n", "names", "join", "meet", "prod", "res",
                 "up", "down", "bottom", "top", "all_mask", "_index",
                 "_cache")

    def __init__(self, name, names, up, down, join, meet, prod, res, bottom,
                 top):
        self.name = name
        self.names = tuple(names)
        self.n = len(names)
        self.join = tuple(map(tuple, join))
        self.meet = tuple(map(tuple, meet))
        self.prod = tuple(map(tuple, prod))
        self.res = tuple(map(tuple, res))
        self.up = tuple(up)
        self.down = tuple(down)
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

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (x, y) with y covering x."""
        lower = _lower_covers(self.up, self.down, self.n)
        return sorted((c, y) for y in range(self.n) for c in lower[y])

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


def _transpose(rows, n: int) -> tuple[int, ...]:
    """Bitmask rows of the converse relation."""
    return tuple(sum(1 << i for i in range(n) if rows[i] >> j & 1)
                 for j in range(n))


def _lower_covers(up, down, n: int) -> list[list[int]]:
    """The lower covers of each element, from the order's bitmask rows."""
    out = []
    for y in range(n):
        strict = down[y] & ~(1 << y)
        out.append([c for c in iter_bits(strict)
                    if not strict & up[c] & ~(1 << c)])
    return out


def validate(raw: RawTables) -> ResiduatedLattice | ValidationReport:
    """Check every axiom; return the lattice, or a report of all violations.

    The residuum table is always derived from the order and the product;
    any res rows supplied in the input are cross-checked, never trusted.
    Each check reports its first witness in index order (row-major).
    """
    rep = ValidationReport(raw.name)
    names = raw.element_names
    n = len(names)

    if not (2 <= n <= MAX_ELEMENTS):
        rep.add("Bounds", f"element count {n} outside 2..{MAX_ELEMENTS}")
        return rep
    # shapes and indices first: every later check indexes by them
    for what, table in (("leq", raw.leq), ("prod", raw.prod)):
        if len(table) != n or any(len(row) != n for row in table):
            rep.add("Bounds", f"{what} is not {n}x{n}")
    for what, v in (("bottom", raw.bottom), ("top", raw.top)):
        if not 0 <= v < n:
            rep.add("Bounds", f"{what} index {v} outside 0..{n - 1}")
    if not rep.ok:
        return rep
    prod = [tuple(map(int, raw.prod[i])) for i in range(n)]
    bad = next(((x, y) for x in range(n) for y in range(n)
                if not 0 <= prod[x][y] < n), None)
    if bad:
        x, y = bad
        rep.add("Bounds", f"product {names[x]}*{names[y]} = {prod[x][y]} "
                          f"outside 0..{n - 1}", (names[x], names[y]))
        return rep
    full = (1 << n) - 1
    pows = [1 << j for j in range(n)]
    up = [sum(compress(pows, row)) for row in raw.leq]
    down = _transpose(up, n)

    # partial order
    for i in range(n):
        if not up[i] >> i & 1:
            rep.add("Order", f"{names[i]} not reflexive", (names[i],))
            break
    for i in range(n):
        anti = up[i] & down[i] & ~(1 << i)
        if anti:
            j = iter_bits(anti)[0]
            rep.add("Order", f"antisymmetry fails at ({names[i]},{names[j]})",
                    (names[i], names[j]))
            break
    for i in range(n):
        reach = 0
        for k in iter_bits(up[i]):
            reach |= up[k]
        if reach & ~up[i]:
            j = iter_bits(reach & ~up[i])[0]
            rep.add("Order", f"transitivity fails reaching {names[j]} from {names[i]}",
                    (names[i], names[j]))
            break
    if not rep.ok:
        return rep

    # bounded lattice with all joins/meets: the upper bounds of {x, y} have
    # a least member j exactly when they form the row up[j]
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    up_of = {row: i for i, row in enumerate(up)}
    down_of = {row: i for i, row in enumerate(down)}
    for x in range(n):
        for y in range(x, n):
            j = up_of.get(up[x] & up[y])
            m = down_of.get(down[x] & down[y])
            if j is None:
                rep.add("NotALattice", f"{names[x]} v {names[y]} has no least upper bound",
                        (names[x], names[y]))
            if m is None:
                rep.add("NotALattice", f"{names[x]} ^ {names[y]} has no greatest lower bound",
                        (names[x], names[y]))
            if j is None or m is None:
                continue
            join[x][y] = join[y][x] = j
            meet[x][y] = meet[y][x] = m
    if not rep.ok:
        return rep

    if up[raw.bottom] != full:
        x = iter_bits(full & ~up[raw.bottom])[0]
        rep.add("Bounds", f"declared bottom {names[raw.bottom]} is not below {names[x]}",
                (names[raw.bottom], names[x]))
    if down[raw.top] != full:
        x = iter_bits(full & ~down[raw.top])[0]
        rep.add("Bounds", f"declared top {names[raw.top]} is not above {names[x]}",
                (names[raw.top], names[x]))
    if not rep.ok:
        return rep

    # commutative monoid with unit top
    bad = next(((x, y) for x in range(n) for y in range(n)
                if prod[x][y] != prod[y][x]), None)
    if bad:
        x, y = bad
        rep.add("NotMonoid", f"product not commutative at ({names[x]},{names[y]})",
                (names[x], names[y]))
    for x in range(n):
        if prod[x][raw.top] != x:
            rep.add("NotMonoid",
                    f"{names[x]} * 1 = {names[prod[x][raw.top]]} instead of {names[x]}",
                    (names[x],))
            break
    # associativity, one x at a time: the row z -> (x*y)*z against the row
    # z -> x*(y*z) for every y; by_y[y](prod[x]) reads the second one
    by_y = [itemgetter(*r) for r in prod]
    for x, px in enumerate(prod):
        lhs, rhs = [prod[v] for v in px], [g(px) for g in by_y]
        if lhs != rhs:
            y = next(y for y in range(n) if lhs[y] != rhs[y])
            z = next(z for z in range(n) if lhs[y][z] != rhs[y][z])
            rep.add("NotMonoid",
                    f"associativity fails at ({names[x]},{names[y]},{names[z]})",
                    (names[x], names[y], names[z]))
            break

    # residuum: x->y is the maximum of S(x, y) = {z | x*z <= y}, which must
    # contain its own join.  S(x, y) is the fibre {z | x*z = y} together with
    # S(x, c) for each lower cover c of y, so S and its join are built up
    # the order from the fibres, one lower cover at a time.
    lower = _lower_covers(up, down, n)
    upward = sorted(range(n), key=lambda y: down[y].bit_count())
    res = [[0] * n for _ in range(n)]
    below = []                        # below[x][y] = S(x, y) as a bitmask
    gap = False
    for x, px in enumerate(prod):
        zs, js = [0] * n, [raw.bottom] * n     # S(x, y) and its join, per y
        for z, v in enumerate(px):             # the fibres first
            zs[v] |= 1 << z
            js[v] = join[js[v]][z]
        for y in upward:
            for c in lower[y]:
                zs[y] |= zs[c]
                js[y] = join[js[y]][js[c]]
        below.append(zs)
        for y in range(n):
            j = js[y]
            if not zs[y]:
                rep.add("ResiduumGap",
                        f"no z at all with {names[x]}*z <= {names[y]}",
                        (names[x], names[y]))
                gap = True
            elif not zs[y] >> j & 1:
                rep.add("ResiduumGap",
                        f"{{z | {names[x]}*z <= {names[y]}}} has no maximum",
                        (names[x], names[y]))
                gap = True
            else:
                res[x][y] = j

    if not gap:
        # adjunction: x*z <= y  iff  z <= x->y
        bad = next(((x, y, iter_bits(below[x][y] ^ down[res[x][y]])[0])
                    for x in range(n) for y in range(n)
                    if below[x][y] != down[res[x][y]]), None)
        if bad:
            x, y, z = bad
            rep.add("NotAdjoint",
                    f"adjunction fails at x={names[x]}, y={names[y]}, z={names[z]}",
                    (names[x], names[y], names[z]))

    # x*y <= x^y (checked directly even though it follows from adjunction)
    bad = next(((x, y) for x in range(n) for y in range(n)
                if not down[meet[x][y]] >> prod[x][y] & 1), None)
    if bad:
        x, y = bad
        rep.add("NotAdjoint",
                f"{names[x]}*{names[y]} is not below {names[x]}^{names[y]}",
                (names[x], names[y]))

    for x, y, claimed in raw.res_claims:
        if rep.ok and res[x][y] != claimed:
            rep.add("ResMismatch",
                    f"file claims {names[x]}->{names[y]} = {names[claimed]}, "
                    f"derived {names[res[x][y]]}",
                    (names[x], names[y], names[claimed]))

    if not rep.ok:
        return rep
    return ResiduatedLattice(raw.name, names, up, down, join, meet, prod, res,
                             raw.bottom, raw.top)


def parse_lattice_text(text: str, source: str = "<string>") -> RawTables:
    """Parse the line-oriented lattice file format into raw tables.

    Order input is Hasse covers; the reflexive-transitive closure is
    computed here.  Product rows involving the bottom default to bottom,
    rows involving the top default to the other operand, and every other
    unordered pair must appear exactly once.  A carrier past
    ``MAX_ELEMENTS`` raises :class:`SizeLimit` at its ``elements`` line.
    The ``lattice``, ``elements``, ``bottom`` and ``top`` lines appear once.
    """
    name = None
    element_names: list[str] = []
    index: dict[str, int] = {}
    bottom_tok = top_tok = None
    covers: list[tuple[int, int]] = []
    mul_rows: dict[tuple[int, int], int] = {}     # (min, max) -> value
    res_claims: list[tuple[int, int, int]] = []
    seen: set[str] = set()                        # directives read so far
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
        words = line.split()
        head, args = words[0], words[1:]
        if head in seen and head in ("lattice", "elements", "bottom", "top"):
            raise ParseError(line_no, f"duplicate {head!r} line")
        seen.add(head)
        if head == "lattice":
            if len(args) != 1:
                raise ParseError(line_no, "expected: lattice <name>")
            name = args[0]
        elif head == "elements":
            if len(args) < 2:
                raise ParseError(line_no, "need at least two elements")
            if len(set(args)) != len(args):
                raise ParseError(line_no, "element tokens must be distinct")
            if len(args) > MAX_ELEMENTS:
                raise SizeLimit(f"{name or source}: {len(args)} elements "
                                f"exceeds the cap of {MAX_ELEMENTS}")
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
            key = (x, y) if x <= y else (y, x)
            if key in mul_rows:
                raise ParseError(line_no, f"duplicate mul row for ({args[0]},{args[1]})")
            mul_rows[key] = v
        elif head == "res":
            if len(args) != 3:
                raise ParseError(line_no, "expected: res <x> <y> <tok>")
            x, y, v = (want(t, line_no) for t in args)
            res_claims.append((x, y, v))
        elif head == "end":
            if args:
                raise ParseError(line_no, "expected: end")
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
    bottom = index[bottom_tok] if bottom_tok in index else None
    top = index[top_tok] if top_tok in index else None
    if bottom is None or top is None:
        raise ParseError(0, f"{source}: bottom/top must name declared elements")

    up = [1 << i for i in range(n)]
    for x, y in covers:
        up[x] |= 1 << y
    for k in range(n):                      # Warshall closure
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]

    # the defaults (bottom absorbs, top is the unit), then the mul rows
    prod = [[None] * n for _ in range(n)]
    prod[top] = list(range(n))
    for x in range(n):
        prod[x][top] = x
        prod[x][bottom] = bottom
    prod[bottom] = [bottom] * n
    for (x, y), v in mul_rows.items():
        prod[x][y] = prod[y][x] = v
    for x, row in enumerate(prod):
        if None in row:
            y = row.index(None)
            raise ParseError(0, f"{source}: missing mul row for "
                                f"({element_names[x]},{element_names[y]})")

    return RawTables(name, element_names, leq, prod, bottom, top, res_claims)


def _validated(raw: RawTables) -> ResiduatedLattice:
    out = validate(raw)
    if isinstance(out, ValidationReport):
        raise ValidationFailure(out)
    return out


def load_lattice(path) -> ResiduatedLattice:
    """Parse and validate a lattice file; raise ValidationFailure if bad."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _validated(parse_lattice_text(text, source=str(path)))


def lattice_from_tables(name, names, leq, prod, bottom, top) -> ResiduatedLattice:
    """Validate in-memory tables; raise ValidationFailure if bad."""
    return _validated(RawTables(name, list(names), leq, prod, bottom, top))


def direct_product(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    """Componentwise product of two validated lattices (size-capped)."""
    if a.n < 2 or b.n < 2:
        raise SizeLimit("product factors need at least two elements")
    if a.n * b.n > MAX_ELEMENTS:
        raise SizeLimit(f"{a.name} x {b.name} would have {a.n * b.n} elements "
                        f"(cap {MAX_ELEMENTS})")
    n2 = b.n
    names = [f"({s},{t})" for s in a.names for t in b.names]
    pairs = [(x1, x2) for x1 in range(a.n) for x2 in range(b.n)]
    leq = [[a.leq(x1, y1) and b.leq(x2, y2) for y1, y2 in pairs]
           for x1, x2 in pairs]
    prod = [[a.prod[x1][y1] * n2 + b.prod[x2][y2] for y1, y2 in pairs]
            for x1, x2 in pairs]
    return _validated(RawTables(f"{a.name}x{b.name}", names, leq, prod,
                                a.bottom * n2 + b.bottom, a.top * n2 + b.top))
