"""Structural classification, certificates, and the theorem suite.

Run:  python demos/05_classification_and_theorem_suite.py
"""

import importlib.resources

from reslat import load_lattice
from reslat.classify import (boolean_center, classify, gelfand_structure,
                             grothendieck_check, mp_structure, NotApplicable)
from reslat.families import (acceptance_family, fixture, godel_chain,
                             lukasiewicz_chain, product_instance)
from reslat.harness import run_theorem_suite

FIXTURES = importlib.resources.files("reslat") / "fixtures"

# -- the four bundled instances span the classification grid -------------------

print(f"{'lattice':<8} {'gelfand':<8} {'mp':<6} {'hyperarch':<10} "
      f"{'indecomposable':<15} center")
for name in ("a6", "b6", "c6", "a8"):
    lat = fixture(name)
    rep = classify(lat)
    beta = boolean_center(lat)["elements"]
    print(f"{lat.name:<8} {str(rep.gelfand.value):<8} {str(rep.mp.value):<6} "
          f"{str(rep.hyperarchimedean.value):<10} "
          f"{str(rep.directly_indecomposable.value):<15} {lat.set_str(beta)}")

a6, a8 = fixture("a6"), fixture("a8")
print(f"\nwhy A6 is not Gelfand: {classify(a6).gelfand.witness}")
print(f"why A8 is not mp:      {classify(a8).mp.witness}")

# -- the Grothendieck-style correspondence --------------------------------------

b6 = fixture("b6")
g = grothendieck_check(b6)
print(f"\n{b6.name}: {len(g['pairs'])} central elements <-> "
      f"{g['clopen_count']} clopens of Spp")

# -- structure certificates run only where they apply ---------------------------

print(f"\nGelfand certificate for {b6.name}:")
for cid, note in gelfand_structure(b6)["clauses"]:
    print(f"  [ok] {cid}" + (f" ({note})" if note else ""))
try:
    gelfand_structure(a6)
except NotApplicable as exc:
    print(f"gelfand_structure(A6) refuses: {exc}")
print(f"mp certificate for {a6.name}: "
      f"{len(mp_structure(a6)['clauses'])} clauses pass")

# -- the executable theorem suite ------------------------------------------------

small = [fixture("a6"), fixture("b6"), godel_chain(4), lukasiewicz_chain(5),
         product_instance(godel_chain(2), lukasiewicz_chain(4))]
report = run_theorem_suite(small, "all")
print("\ntheorem suite over a small family:")
for line in report.text_lines():
    print(" ", line)
print("purely-prime = purely-maximal on every instance:",
      all(report.conjecture_spp_is_purely_maximal.values()))

# the acceptance family (fixtures + chains + pairwise products) is bigger:
family = acceptance_family()
print(f"\nacceptance family size: {len(family)} instances "
      f"(sizes 2..{max(l.n for l in family)})")
