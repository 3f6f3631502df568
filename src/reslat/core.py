"""Finite residuated lattices: representation, validation, the ``.rlat``
reader and writer, products.

A residuated lattice here is a bounded lattice (A; v, ^, 0, 1) carrying a
commutative monoid product * with unit 1 such that (*, ->) is an adjoint
pair: x*z <= y iff z <= x->y.  Everything is finite and element-indexed;
subsets of the carrier travel as int bitmasks throughout the package.

Every layer reads masks through one bit kernel (``iter_bits``, ``mask_key``)
and operation tables as bytes through one byte kernel (``read_through``).
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import and_, or_
from operator import index as as_index, length_hint
from struct import unpack


class LatticeError(Exception):
    """Base class for errors raised by this package."""


class SizeLimit(LatticeError):
    """Carrier would exceed the supported size cap."""


class ParseError(LatticeError):
    """A malformed line, or a file-level fault when ``line_no`` is None."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no


class Violation(namedtuple("Violation", "kind message witness",
                           defaults=((),))):
    """One violated axiom, with a concrete witness (element tokens).  Kinds:
    NotALattice NotMonoid NotAdjoint ResiduumGap Order Bounds ResMismatch."""

    __slots__ = ()


class ValidationReport:
    def __init__(self, name: str, violations: list | None = None):
        self.name = name
        self.violations = [] if violations is None else violations

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
# kernel grows with it; the byte kernel stops at 256 (see read_through).
MAX_ELEMENTS = 64


def _bit_row(k: int) -> tuple:
    """row[b]: the indices 8k + i of the set bits i of the byte b.  Each bit
    doubles the row: the entries with bit i set extend those without it."""
    t = [()]
    for i in range(8 * k, 8 * k + 8):
        bit = (i,)
        t += [e + bit for e in t]
    return tuple(t)


# row k of the table; row 0 now, each later row on the first mask reaching it
_BIT_ROWS = (_bit_row(0),)


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set-bit indices of ``mask`` in increasing order, one table row
    per byte; a negative or over-cap mask raises ValueError."""
    global _BIT_ROWS
    if 0 <= mask < 256:
        return _BIT_ROWS[0][mask]
    if mask < 0 or mask >> MAX_ELEMENTS:
        raise ValueError(f"mask {mask:#x} is outside the {MAX_ELEMENTS}-bit cap")
    rows, out = _BIT_ROWS, ()
    for row in rows:
        if not mask:
            return out
        out += row[mask & 255]
        mask >>= 8
    # later bytes: the grown table is swapped in whole, so callers never
    # see a partial one
    while mask:
        rows += (_bit_row(len(rows)),)
        out += rows[-1][mask & 255]
        mask >>= 8
    _BIT_ROWS = rows
    return out


def mask_key(mask: int) -> tuple:
    """Deterministic sort key: cardinality, then index-lexicographic."""
    return (mask.bit_count(), iter_bits(mask))


def read_through(table: bytes, row) -> bytes:
    """``table`` with each byte v replaced by ``row[v]`` (bytes, or ints below
    256), in one pass in C.  ``bytes.translate`` reads a 256-entry row, so
    this holds for n <= 256; a larger cap needs another form of it."""
    return table.translate(bytes(row).ljust(256, b"\0"))


def flags(mask: int, n: int) -> bytes:
    """A mask below 2**n as n bytes: b"1" at each member, b"0" elsewhere."""
    return bin(mask | 1 << n)[:2:-1].encode()


class RawTables:
    """Unvalidated input for :func:`validate`; order rows are bitmask ints."""

    def __init__(self, name, element_names, leq, prod, bottom, top,
                 res_claims=None):
        self.name = name
        self.element_names = element_names
        self.leq = leq          # per i: bitmask int, bit j iff i <= j
        self.prod = prod        # n x n element indices, read as prod[i][j]
        self.bottom = bottom
        self.top = top
        self.res_claims = [] if res_claims is None else res_claims


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
        return dot_digraph(self.name, self.names, self.cover_pairs())

    def __repr__(self):
        return f"ResiduatedLattice({self.name!r}, n={self.n})"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_digraph(name: str, nodes, edges) -> str:
    """Graphviz text for a digraph drawn bottom to top: one node per text in
    ``nodes``, one edge per index pair in ``edges``; every id is quoted with
    its backslashes and double quotes escaped."""
    ids = [_dot_quote(t) for t in nodes]
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;",
             "  node [shape=plaintext];"]
    lines += [f"  {i};" for i in ids]
    lines += [f"  {ids[x]} -> {ids[y]};" for x, y in edges]
    lines.append("}")
    return "\n".join(lines)


def transpose(rows, width: int) -> tuple[int, ...]:
    """Bitmask rows of the converse relation: row j holds the i with bit j
    set in ``rows[i]``, for j below ``width``."""
    out = [0] * width
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            out[j] |= 1 << i
    return tuple(out)


def _lower_covers(up, down, n: int) -> list[list[int]]:
    """The lower covers of each element, from the order's bitmask rows."""
    out = []
    for y in range(n):
        strict = down[y] & ~(1 << y)
        out.append([c for c in iter_bits(strict)
                    if not strict & up[c] & ~(1 << c)])
    return out


def _index_fault(v, n: int) -> str | None:
    """Why ``v`` is not an element index below ``n``; None when it is one."""
    try:
        k = as_index(v)
    except TypeError:
        return f"{v!r} is not an integer"
    return None if 0 <= k < n else f"{k} outside 0..{n - 1}"


def validate(raw: RawTables) -> ResiduatedLattice | ValidationReport:
    """Check every axiom; return the lattice, or a report of all violations.

    The residuum table is always derived from the order and the product;
    any res rows supplied in the input are cross-checked, never trusted.
    Each check compares whole rows or tables, and only a check that fails
    looks for its first witness in index order (row-major).

    The residuum rests on one lemma.  Let S(x, y) = {z | x*z <= y}.  Then
    x->y exists with x*z <= y iff z <= x->y for every z (adjunction at
    (x, y)) exactly when S(x, y) is a principal downset down(j), and then
    x->y = j.  So each cell is one lookup of S(x, y) among the downsets,
    and only a cell that misses is diagnosed: S(x, y) is empty, has no
    maximum, or has a maximum j but is not down(j) (adjunction fails).
    """
    rep = ValidationReport(raw.name)
    names = raw.element_names
    n = len(names)

    if not (2 <= n <= MAX_ELEMENTS):
        rep.add("Bounds", f"element count {n} outside 2..{MAX_ELEMENTS}")
        return rep
    # the name and the tokens must read back from an .rlat file, whose lines
    # split into words at whitespace and end at a '#' comment
    words = [raw.name, *names]
    line = " ".join(map(str, words))
    if line.split() != words or "#" in line or len(set(names)) < n:
        bad = next((i for i, w in enumerate(words) if not isinstance(w, str)
                    or w.split() != [w] or "#" in w), None)
        if bad is not None:
            what = "element token" if bad else "lattice name"
            rep.add("Bounds", f"{what} {words[bad]!r} is not a nonempty string "
                    "without whitespace or '#'", words[bad:bad + 1] if bad else ())
        dup = next((w for i, w in enumerate(names) if w in names[:i]), None)
        if dup is not None:
            rep.add("Bounds", f"element token {dup!r} is repeated", (dup,))
    # shapes and indices first: every later check indexes by them.  Refused:
    # an order row that is not an int, is negative or has a bit at or past
    # n, and a product row of another length (length_hint reads none as 0)
    pows = [1 << j for j in range(n)]
    up = list(raw.leq)
    if len(up) != n or set(map(type, up)) != {int} or min(up) < 0 or max(up) >> n:
        rep.add("Bounds", f"leq is not {n}x{n}")
    if len(raw.prod) != n or set(map(length_hint, raw.prod)) != {n}:
        rep.add("Bounds", f"prod is not {n}x{n}")
    for what, v in (("bottom", raw.bottom), ("top", raw.top)):
        fault = _index_fault(v, n)
        if fault:
            rep.add("Bounds", f"{what} index {fault}")
    if not rep.ok:
        return rep
    # bytes() reads each entry through __index__ and refuses one outside
    # 0..255; from here on the product is its rows as bytes
    try:
        prod = list(map(bytes, raw.prod))
        ok = max(map(max, prod)) < n
    except (TypeError, ValueError):
        ok = False
    if not ok:
        x, y, fault = next((x, y, f) for x in range(n) for y in range(n)
                           if (f := _index_fault(raw.prod[x][y], n)))
        rep.add("Bounds", f"product {names[x]}*{names[y]} = {fault}",
                (names[x], names[y]))
        return rep
    bottom, top = as_index(raw.bottom), as_index(raw.top)
    full = (1 << n) - 1
    down = transpose(up, n)

    # partial order: reflexive, antisymmetric (up[i] & down[i] is {i} at
    # most), and transitive (the rows that up[i] reaches stay inside it)
    if not all(map(and_, up, pows)):
        i = next(i for i in range(n) if not up[i] >> i & 1)
        rep.add("Order", f"{names[i]} not reflexive", (names[i],))
    if list(map(or_, map(and_, up, down), pows)) != pows:
        i = next(i for i in range(n) if up[i] & down[i] & ~pows[i])
        j = iter_bits(up[i] & down[i] & ~pows[i])[0]
        rep.add("Order", f"antisymmetry fails at ({names[i]},{names[j]})",
                (names[i], names[j]))
    reach = [reduce(or_, map(up.__getitem__, iter_bits(u)), u) for u in up]
    if reach != up:
        i = next(i for i in range(n) if reach[i] != up[i])
        j = iter_bits(reach[i] & ~up[i])[0]
        rep.add("Order", f"transitivity fails reaching {names[j]} from {names[i]}",
                (names[i], names[j]))
    if not rep.ok:
        return rep

    # bounded lattice with all joins/meets: the upper bounds of {x, y} have
    # a least member j exactly when they form the row up[j].  The tables are
    # built flat, cell x*n + y, then cut into rows
    up_of = {row: i for i, row in enumerate(up)}
    down_of = {row: i for i, row in enumerate(down)}
    join = [up_of.get(u & v) for u in up for v in up]
    meet = [down_of.get(d & e) for d in down for e in down]
    if None in join or None in meet:
        for x in range(n):
            for y in range(x, n):
                if join[x * n + y] is None:
                    rep.add("NotALattice", f"{names[x]} v {names[y]} has no "
                            "least upper bound", (names[x], names[y]))
                if meet[x * n + y] is None:
                    rep.add("NotALattice", f"{names[x]} ^ {names[y]} has no "
                            "greatest lower bound", (names[x], names[y]))
        return rep
    join, meet = list(zip(*[iter(join)] * n)), list(zip(*[iter(meet)] * n))

    if up[bottom] != full:
        x = iter_bits(full & ~up[bottom])[0]
        rep.add("Bounds", f"declared bottom {names[bottom]} is not below {names[x]}",
                (names[bottom], names[x]))
    if down[top] != full:
        x = iter_bits(full & ~down[top])[0]
        rep.add("Bounds", f"declared top {names[top]} is not above {names[x]}",
                (names[top], names[x]))
    if not rep.ok:
        return rep

    # commutative monoid with unit top: the columns of the flat table, cut
    # with stride n, are its rows, and column top is the identity
    flat = b"".join(prod)
    cols = [flat[x::n] for x in range(n)]
    if cols != prod:
        x, y = next((x, y) for x in range(n) for y in range(n)
                    if prod[x][y] != prod[y][x])
        rep.add("NotMonoid", f"product not commutative at ({names[x]},{names[y]})",
                (names[x], names[y]))
    if cols[top] != bytes(range(n)):
        x = next(x for x in range(n) if prod[x][top] != x)
        rep.add("NotMonoid",
                f"{names[x]} * 1 = {names[prod[x][top]]} instead of {names[x]}",
                (names[x],))
    # associativity over all triples at once: cell (x, y, z) of lhs is cell z
    # of row x*y, (x*y)*z; of rhs, the flat table read through row x,
    # x*(y*z).  The first difference is the row-major witness
    lhs = b"".join(map(prod.__getitem__, flat))
    rhs = b"".join([read_through(flat, r) for r in prod])
    if lhs != rhs:
        p = next(p for p in range(n ** 3) if lhs[p] != rhs[p])
        x, y, z = p // (n * n), p // n % n, p % n
        rep.add("NotMonoid",
                f"associativity fails at ({names[x]},{names[y]},{names[z]})",
                (names[x], names[y], names[z]))

    # residuum, by the lemma.  The flat table read through the flags of
    # down[y], cut into rows of n bytes, holds S(x, y) as the flags of its z
    # at row x.  One cut serves every y; its cells, grouped by y, transpose
    flag_of = {flags(d, n): y for y, d in enumerate(down)}
    cells = unpack(f"{n}s" * n * n, b"".join([read_through(flat, f) for f in flag_of]))
    res = list(zip(*zip(*[iter(map(flag_of.get, cells))] * n)))
    gap, adjoint = False, None
    for x, y in [(x, y) for x, row in enumerate(res) if None in row
                 for y in range(n) if row[y] is None]:
        s = sum(pows[z] for z, v in enumerate(prod[x]) if down[y] >> v & 1)
        j = reduce(lambda a, b: join[a][b], iter_bits(s), bottom)
        if s and s >> j & 1:          # a maximum j, but S(x, y) is not down(j)
            adjoint = adjoint or (x, y, iter_bits(s ^ down[j])[0])
            continue
        gap = True
        rep.add("ResiduumGap", f"{{z | {names[x]}*z <= {names[y]}}} has no maximum"
                if s else f"no z at all with {names[x]}*z <= {names[y]}",
                (names[x], names[y]))
    if adjoint and not gap:
        rep.add("NotAdjoint", "adjunction fails at x={}, y={}, z={}".format(
            *(names[i] for i in adjoint)), tuple(names[i] for i in adjoint))
    # x*y <= x^y.  Adjunction makes z -> x*z monotone, so with the unit and
    # commutativity x*y <= x*1 = x and x*y = y*x <= y: looked at only when
    # one of them failed
    bad = None if rep.ok else next(((x, y) for x in range(n) for y in range(n)
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
                             bottom, top)


def parse_lattice_text(text: str, source: str = "<string>") -> RawTables:
    """Parse the line-oriented lattice file format into raw tables.

    Order input is Hasse covers; the reflexive-transitive closure is
    computed here, as one bitmask row per element.  Product rows involving
    the bottom default to bottom, rows involving the top default to the
    other operand, and every other unordered pair must appear exactly
    once.  A carrier past ``MAX_ELEMENTS`` raises :class:`SizeLimit` at its
    ``elements`` line.  The ``lattice``, ``elements``, ``bottom`` and
    ``top`` lines appear once.  The ``mul`` and ``cover`` lines, most of a
    file, are tested for first.
    """
    once: dict[str, list[str]] = {}     # the words after each once-only head
    index: dict[str, int] = {}
    up: list[int] = []                  # bit j of up[i] iff i <= j, as read
    mul_rows: dict[tuple[int, int], int] = {}     # (min, max) -> value
    res_claims: list[tuple[int, int, int]] = []
    lines = text.splitlines()
    ended = False
    for line_no, line in enumerate(lines, start=1):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        head = words[0]
        try:
            if head == "mul":
                if len(words) != 4:
                    raise ParseError(line_no, "expected: mul <x> <y> <tok>")
                x, y, v = index[words[1]], index[words[2]], index[words[3]]
                key = (x, y) if x <= y else (y, x)
                if key in mul_rows:
                    raise ParseError(line_no, "duplicate mul row for "
                                              f"({words[1]},{words[2]})")
                mul_rows[key] = v
            elif head == "cover":
                if len(words) != 3:
                    raise ParseError(line_no, "expected: cover <x> <y>")
                up[index[words[1]]] |= 1 << index[words[2]]
            elif head == "res":
                if len(words) != 4:
                    raise ParseError(line_no, "expected: res <x> <y> <tok>")
                res_claims.append((index[words[1]], index[words[2]],
                                   index[words[3]]))
            elif head in ("lattice", "elements", "bottom", "top"):
                if head in once:
                    raise ParseError(line_no, f"duplicate {head!r} line")
                args = once[head] = words[1:]
                if head != "elements":
                    if len(args) != 1:
                        raise ParseError(line_no, f"expected: {head} <"
                                         f"{'name' if head == 'lattice' else 'tok'}>")
                elif len(args) < 2:
                    raise ParseError(line_no, "need at least two elements")
                elif len(set(args)) != len(args):
                    raise ParseError(line_no, "element tokens must be distinct")
                elif len(args) > MAX_ELEMENTS:
                    raise SizeLimit(f"{once.get('lattice', [source])[0]}: "
                                    f"{len(args)} elements exceeds the cap "
                                    f"of {MAX_ELEMENTS}")
                else:
                    index = {tok: i for i, tok in enumerate(args)}
                    up = [1 << i for i in range(len(args))]
            elif head == "end":
                if len(words) != 1:
                    raise ParseError(line_no, "expected: end")
                for after, rest in enumerate(lines[line_no:], start=line_no + 1):
                    if rest.split("#", 1)[0].strip():
                        raise ParseError(after, "content after 'end'")
                ended = True
                break
            else:
                raise ParseError(line_no, f"unknown directive {head!r}")
        except KeyError as exc:
            raise ParseError(line_no, f"unknown element {exc.args[0]!r}") from None

    if "lattice" not in once:
        raise ParseError(None, f"{source}: missing 'lattice' line")
    if "elements" not in once:
        raise ParseError(None, f"{source}: missing 'elements' line")
    if not ended:
        raise ParseError(None, f"{source}: missing 'end'")
    if "bottom" not in once or "top" not in once:
        raise ParseError(None, f"{source}: bottom/top must be declared")
    bottom, top = index.get(once["bottom"][0]), index.get(once["top"][0])
    if bottom is None or top is None:
        raise ParseError(None, f"{source}: bottom/top must name declared elements")
    n = len(index)

    for k in range(n):                      # Warshall closure
        uk, bit = up[k], 1 << k
        up = [u | uk if u & bit else u for u in up]

    # the defaults (bottom absorbs, top is the unit), then the mul rows
    prod = [[None] * n for _ in range(n)]
    prod[top] = list(range(n))
    for x in range(n):
        prod[x][top] = x
        prod[x][bottom] = bottom
    prod[bottom] = [bottom] * n
    for (x, y), v in mul_rows.items():
        prod[x][y] = prod[y][x] = v
    names = once["elements"]
    for x, row in enumerate(prod):
        if None in row:
            y = row.index(None)
            raise ParseError(None, f"{source}: missing mul row for "
                                   f"({names[x]},{names[y]})")

    return RawTables(once["lattice"][0], names, up, prod, bottom, top,
                     res_claims)


def to_rlat_text(lat: ResiduatedLattice) -> str:
    """Serialize a lattice back into the line-oriented file format."""
    lines = [f"lattice {lat.name}",
             "elements " + " ".join(lat.names),
             f"bottom {lat.names[lat.bottom]}",
             f"top {lat.names[lat.top]}"]
    for x, y in lat.cover_pairs():
        lines.append(f"cover {lat.names[x]} {lat.names[y]}")
    for x in range(lat.n):
        for y in range(x, lat.n):
            if lat.bottom in (x, y) or lat.top in (x, y):
                continue
            lines.append(f"mul {lat.names[x]} {lat.names[y]} "
                         f"{lat.names[lat.prod[x][y]]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _validated(raw: RawTables) -> ResiduatedLattice:
    out = validate(raw)
    if isinstance(out, ValidationReport):
        raise ValidationFailure(out)
    return out


def load_lattice(path) -> ResiduatedLattice:
    """Parse and validate a lattice file; raise ValidationFailure if bad.
    A leading byte-order mark is dropped, as the utf-8-sig codec would."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError:
            raise ParseError(None, f"{path}: not UTF-8 text") from None
    return _validated(parse_lattice_text(text, source=str(path)))


def lattice_from_tables(name, names, leq, prod, bottom, top) -> ResiduatedLattice:
    """Validate tables (order rows as bitmask ints); raise ValidationFailure if bad."""
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
    # (x1, x2) <= (y1, y2) iff both parts are; y1 picks the block of b's row
    up = [sum(b.up[x2] << y1 * n2 for y1 in iter_bits(a.up[x1]))
          for x1, x2 in pairs]
    prod = [[a.prod[x1][y1] * n2 + b.prod[x2][y2] for y1, y2 in pairs]
            for x1, x2 in pairs]
    return _validated(RawTables(f"{a.name}x{b.name}", names, up, prod,
                                a.bottom * n2 + b.bottom, a.top * n2 + b.top))
