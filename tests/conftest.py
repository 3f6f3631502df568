import pytest

from reslat import harness
from reslat.core import ResiduatedLattice


@pytest.fixture(scope="session")
def a6():
    return harness.fixture("a6")


@pytest.fixture(scope="session")
def b6():
    return harness.fixture("b6")


@pytest.fixture(scope="session")
def c6():
    return harness.fixture("c6")


@pytest.fixture(scope="session")
def a8():
    return harness.fixture("a8")


@pytest.fixture(scope="session")
def fixtures4(a6, b6, c6, a8):
    return (a6, b6, c6, a8)


@pytest.fixture(scope="session")
def family():
    return harness.acceptance_family()


def tokset(lat, mask):
    return frozenset(lat.tokens_of(mask))


def toksets(lat, masks):
    return {frozenset(lat.tokens_of(m)) for m in masks}


def fresh(lat):
    """A copy of ``lat`` with an empty memo."""
    return ResiduatedLattice(lat.name, lat.names, lat.up, lat.down, lat.join,
                             lat.meet, lat.prod, lat.res, lat.bottom, lat.top)
