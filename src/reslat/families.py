"""Instance families: the bundled fixtures, Goedel and Lukasiewicz chains,
componentwise products and the acceptance family.  Each constructor returns
the same object for the same call; ``FAMILIES`` holds the sized builders
that ``reslat gen --family`` offers."""

from __future__ import annotations

import os

from .core import (MAX_ELEMENTS, LatticeError, ResiduatedLattice, SizeLimit,
                   direct_product, lattice_from_tables, load_lattice)

FIXTURE_NAMES = ("a6", "b6", "c6", "a8")
# keyed by the lower-cased fixture name, (family, size) or the factors' names
_MEMO: dict[object, ResiduatedLattice] = {}


def fixture(name: str) -> ResiduatedLattice:
    """One of the four bundled instances (a6, b6, c6, a8)."""
    key = name.lower()
    if key not in FIXTURE_NAMES:
        raise LatticeError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    if key not in _MEMO:
        path = os.path.join(os.path.dirname(__file__), "fixtures", f"{key}.rlat")
        _MEMO[key] = load_lattice(path)
    return _MEMO[key]


def _chain(name: str, n: int, mul) -> ResiduatedLattice:
    """The n-element chain 0 < x1 < ... < 1 with product ``mul(i, j)``."""
    if not 2 <= n <= MAX_ELEMENTS:
        raise SizeLimit(f"chain size {n} outside 2..{MAX_ELEMENTS}")
    key = (name, n)
    if key not in _MEMO:
        up = [(1 << n) - (1 << i) for i in range(n)]      # bits i..n-1
        prod = [[mul(i, j) for j in range(n)] for i in range(n)]
        names = ["0"] + [f"x{i}" for i in range(1, n - 1)] + ["1"]
        _MEMO[key] = lattice_from_tables(f"{name}{n}", names, up, prod, 0, n - 1)
    return _MEMO[key]


def godel_chain(n: int) -> ResiduatedLattice:
    """Linear order 0 < x1 < ... < 1 with the product equal to the meet."""
    return _chain("Godel", n, min)


def lukasiewicz_chain(n: int) -> ResiduatedLattice:
    """Linear order with truncated index addition: i*j = max(0, i+j-(n-1))."""
    return _chain("Luk", n, lambda i, j: max(0, i + j - (n - 1)))


FAMILIES = {"godel": godel_chain, "lukasiewicz": lukasiewicz_chain}


def product_instance(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    key = (a.name, b.name)
    if key not in _MEMO:
        _MEMO[key] = direct_product(a, b)
    return _MEMO[key]


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
