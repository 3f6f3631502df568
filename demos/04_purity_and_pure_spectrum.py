"""The sink, pure filters, pure parts, and the pure spectrum.

Run:  python demos/04_purity_and_pure_spectrum.py
"""

import importlib.resources

from reslat import load_lattice
from reslat.core import iter_bits
from reslat.filters import enumerate_filters
from reslat.purity import (d_topology, is_pure, pure_filters,
                           pure_part_map_report, pure_spectrum, rho,
                           sigma_filter, sigma_formulas)
from reslat.spectra import prime_filters, spec_space
from reslat.topology import separation_report

FIXTURES = importlib.resources.files("reslat") / "fixtures"
a6 = load_lattice(FIXTURES / "a6.rlat")
b6 = load_lattice(FIXTURES / "b6.rlat")

# -- the sink of every filter, and its closed forms -----------------------------

print(f"sinks in {a6.name} (every closed form agrees):")
for f in enumerate_filters(a6).filters:
    s = sigma_filter(a6, f)
    assert set(sigma_formulas(a6, f).values()) == {s}
    mark = "pure" if s == f else "    "
    print(f"  sigma({a6.set_str(f):<14}) = {a6.set_str(s):<14} {mark}")

forms = sigma_formulas(b6, b6.mask_of(["d", "1"]))
print(f"\nformula ids available: {sorted(forms)}  "
      f"(all equal {b6.set_str(forms['f3'])})")

# -- pure filters and the pure part --------------------------------------------

for lat in (a6, b6):
    print(f"\npure filters of {lat.name}: "
          f"{[lat.set_str(f) for f in pure_filters(lat)]}")
f = a6.mask_of(["a", "b", "d", "1"])
print(f"pure part of {a6.set_str(f)} in {a6.name}: {a6.set_str(rho(a6, f))}")

# -- the pure spectrum and its topology -----------------------------------------

for lat in (a6, b6):
    spp = pure_spectrum(lat)
    rep = separation_report(spp.space)
    print(f"\nSpp({lat.name}): points "
          f"{[lat.set_str(p) for p in spp.points]}")
    print(f"  purely maximal: {spp.purely_maximal}, "
          f"purely minimal: {spp.purely_minimal}")
    print(f"  t0={rep['t0']} t1={rep['t1']} hausdorff={rep['hausdorff']} "
          f"sober={rep['sober']} connected={rep['connected']}")

# -- the D-topology is the pure shadow of the hull-kernel topology --------------

spec = prime_filters(a6)
dt = d_topology(a6)
print(f"\nD-topology on Spec({a6.name}): "
      f"{[[a6.set_str(spec[i]) for i in iter_bits(o)] for o in dt.sorted_opens()]}")
print(f"hull-kernel topology has {len(spec_space(a6, 'h').opens)} opens "
      f"(strictly finer here; they coincide exactly on hyperarchimedean "
      "instances like B6):", d_topology(b6).opens == spec_space(b6, "h").opens)

# -- the pure part map Spec -> Spp is continuous ---------------------------------

for lat in (a6, b6):
    rep = pure_part_map_report(lat)
    print(f"pure part map of {lat.name}: continuous={rep['continuous']}, "
          f"preimage identity={rep['preimages_match']}")
