"""Filters: generation, the filter lattice, coannihilators, quotients.

Run:  python demos/02_filters_and_quotients.py
"""

import importlib.resources

from reslat import load_lattice
from reslat.filters import (coannihilator, enumerate_filters, generated_filter,
                            is_projection_flat, omega_filter, principal_ideal,
                            quotient, radical, x_perp)

FIXTURES = importlib.resources.files("reslat") / "fixtures"
a6 = load_lattice(FIXTURES / "a6.rlat")
b6 = load_lattice(FIXTURES / "b6.rlat")

# -- every filter, with the lattice structure they form ----------------------

fl = enumerate_filters(a6)
print(f"{a6.name} has {len(fl)} filters:")
for f in fl.filters:
    print("  ", a6.set_str(f))

b = a6.mask_of(["b"])
print(f"\nfilter generated by {{b}}: "
      f"{a6.set_str(generated_filter(a6, b))}   (b*b = a, then close upward)")

f, g = a6.mask_of(["a", "b", "d", "1"]), a6.mask_of(["c", "d", "1"])
print(f"join of {a6.set_str(f)} and {a6.set_str(g)}: "
      f"{a6.set_str(generated_filter(a6, f | g))}")
print(f"meet is plain intersection: {a6.set_str(f & g)}")

# -- coannihilators and radicals ----------------------------------------------

a = b6.index("a")
print(f"\nin {b6.name}, the coannulet of a is {b6.set_str(x_perp(b6, a))}")
print(f"(F:X) with F={{d,1}}, X={{a,b}}: "
      f"{b6.set_str(coannihilator(b6, b6.mask_of(['d','1']), b6.mask_of(['a','b'])))}")
print(f"radical of {{1}} in {a6.name}: "
      f"{a6.set_str(radical(a6, a6.mask_of(['1'])))}")
print(f"omega of the principal ideal below a in {b6.name}: "
      f"{b6.set_str(omega_filter(b6, principal_ideal(b6, a)))}")

# -- quotients: the congruence identifies x and y when both arrows land in F --

qr = quotient(a6, a6.mask_of(["d", "1"]))
print(f"\nquotient {a6.name}/{{d,1}} has {qr.quotient.n} classes:")
for c in qr.classes:
    print("  ", a6.set_str(c))
print("the quotient re-validates as a residuated lattice:",
      qr.quotient.name)

# -- flatness of the canonical projection distinguishes these two filters ----

for lat, tokens in ((b6, ["d", "1"]), (a6, ["d", "1"])):
    ok, witness = is_projection_flat(lat, lat.mask_of(tokens))
    if ok:
        print(f"\nprojection by {{d,1}} in {lat.name}: flat")
    else:
        gmask, elem, x = witness
        print(f"\nprojection by {{d,1}} in {lat.name}: NOT flat; "
              f"witness G={lat.set_str(gmask)}, a={lat.names[elem]}, "
              f"gap element {lat.names[x]}")
