import pytest

from reslat import families
from reslat.core import ResiduatedLattice, iter_bits


@pytest.fixture(scope="session")
def a6():
    return families.fixture("a6")


@pytest.fixture(scope="session")
def b6():
    return families.fixture("b6")


@pytest.fixture(scope="session")
def c6():
    return families.fixture("c6")


@pytest.fixture(scope="session")
def a8():
    return families.fixture("a8")


@pytest.fixture(scope="session")
def fixtures4(a6, b6, c6, a8):
    return (a6, b6, c6, a8)


@pytest.fixture(scope="session")
def family():
    return families.acceptance_family()


def tokset(lat, mask):
    return frozenset(lat.tokens_of(mask))


def toksets(lat, masks):
    return {frozenset(lat.tokens_of(m)) for m in masks}


def fresh(lat):
    """A copy of ``lat`` with an empty memo."""
    return ResiduatedLattice(lat.name, lat.names, lat.up, lat.down, lat.join,
                             lat.meet, lat.prod, lat.res, lat.bottom, lat.top)


def assert_preorder(space):
    """The rows of a space are a preorder: one row per point, p in U_p,
    every row inside the space, and q in U_p implies U_q inside U_p.
    ``FiniteSpace`` trusts its rows; this is the check it no longer makes."""
    k, rows = len(space.labels), space.nbhd
    assert len(rows) == k, "one row per point"
    for p, u in enumerate(rows):
        assert u >> p & 1, (p, "p is not in U_p")
        assert not u >> k, (p, "U_p leaves the space")
        for q in iter_bits(u):
            assert not rows[q] & ~u, (p, q, "q in U_p but U_q not inside U_p")
