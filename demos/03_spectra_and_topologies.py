"""Prime spectra, the D operator, hull-kernel topologies, stability.

Run:  python demos/03_spectra_and_topologies.py
"""

import importlib.resources

from reslat import load_lattice
from reslat.core import iter_bits
from reslat.spectra import (D_operator, min_space, prime_filters, spec_space,
                            spectrum, stability, support)
from reslat.topology import separation_report, specialization_dot

FIXTURES = importlib.resources.files("reslat") / "fixtures"
a6 = load_lattice(FIXTURES / "a6.rlat")
a8 = load_lattice(FIXTURES / "a8.rlat")

# -- the three spectra ---------------------------------------------------------

for lat in (a6, a8):
    print(f"{lat.name}:")
    for kind in ("prime", "maximal", "minimal_prime"):
        pts = spectrum(lat, kind)
        print(f"  {kind:<14} {[lat.set_str(p) for p in pts]}")

# -- D sends a prime to the intersection of the primes below it ---------------

for lat, toks in ((a6, ["a", "b", "d", "1"]), (a8, "acdef1")):
    p = lat.mask_of(toks)
    print(f"\nD({lat.set_str(p)}) in {lat.name} = "
          f"{lat.set_str(D_operator(lat, p))}")
print("a prime is minimal exactly when D fixes it:")
for q in spectrum(a6, "minimal_prime"):
    print(f"  D({a6.set_str(q)}) = {a6.set_str(D_operator(a6, q))}")

# -- hull-kernel topology: the generic point of Spec_h(A6) ---------------------

sh = spec_space(a6, "h")
rep = separation_report(sh)
print(f"\nSpec_h({a6.name}) is T0={rep['t0']} but T1={rep['t1']}: "
      "the minimal prime {1} is dense")
print("specialization order (DOT):")
print(specialization_dot(sh, "SpecA6", [a6.set_str(p) for p in sh.labels]))

# -- the dual flavor separates the two minimal primes of A8 --------------------

min_d = min_space(a8, "d")         # the minimal primes as a subspace of Spec_d
print(f"Min_d({a8.name}) has {len(min_d.opens)} opens "
      f"on {min_d.k} points (discrete)")

# -- stability: which subsets are closed under passing to super-primes ---------

spec = prime_filters(a6)
sub = 1 << spec.index(a6.mask_of(["1"]))
closure = stability(spec, sub)
print(f"\nS-closure of {{{{1}}}} in Spec({a6.name}): "
      f"{[a6.set_str(spec[i]) for i in iter_bits(closure)]} "
      f"(stable: {closure == sub})")

supp = support(a6, a6.mask_of(["d", "1"]))
print(f"support of {{d,1}}: {[a6.set_str(spec[i]) for i in iter_bits(supp)]}")
