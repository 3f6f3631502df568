"""Loading, validating and inspecting a finite residuated lattice.

A lattice file gives the order as Hasse covers and the monoid product as
upper-triangular rows; everything else (joins, meets, the residuum) is
derived and every axiom is checked.  Run:  python demos/01_validate_and_inspect.py
"""

import importlib.resources

from reslat import load_lattice, parse_lattice_text, validate
from reslat.core import RawTables

FIXTURES = importlib.resources.files("reslat") / "fixtures"

# -- load one of the bundled six-element instances ---------------------------

b6 = load_lattice(FIXTURES / "b6.rlat")
print(f"loaded {b6.name}: {b6.n} elements {b6.names}")
print(f"bottom = {b6.names[b6.bottom]}, top = {b6.names[b6.top]}")

print("\ncover relations (the Hasse diagram):")
for x, y in b6.cover_pairs():
    print(f"  {b6.names[x]} < {b6.names[y]}")

# -- the derived residuum table ----------------------------------------------

print("\nresiduum table (row -> column):")
header = "    " + " ".join(f"{t:>2}" for t in b6.names)
print(header)
for x in range(b6.n):
    row = " ".join(f"{b6.names[b6.res[x][y]]:>2}" for y in range(b6.n))
    print(f"{b6.names[x]:>3} {row}")

c = b6.index("c")
print(f"\nnegation of c: {b6.names[b6.neg(c)]}")
print(f"second power of c: {b6.names[b6.power(c, 2)]}")

# -- validation catches every broken axiom with a witness --------------------

raw = RawTables("B6-broken", list(b6.names), list(b6.up),
                [list(r) for r in b6.prod], b6.bottom, b6.top)
a, d = b6.index("a"), b6.index("d")
raw.prod[a][d] = raw.prod[d][a] = b6.index("c")     # a*d was 0
report = validate(raw)
print(f"\ntampering with a*d gives: {report}")

# -- building from text works the same way -----------------------------------

three_chain = """
lattice Three
elements 0 m 1
bottom 0
top 1
cover 0 m
cover m 1
mul m m 0        # truncated product: the middle squares to the bottom
end
"""
lat = validate(parse_lattice_text(three_chain))
print(f"\nparsed inline chain: {lat.name}, m->0 = "
      f"{lat.names[lat.res[lat.index('m')][0]]} (so negation of m is m)")
