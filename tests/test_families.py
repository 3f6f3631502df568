"""The instance families: one memo, one table of sized builders."""

from reslat import families, harness
from reslat.families import (FAMILIES, acceptance_family, fixture,
                             godel_chain, lukasiewicz_chain, product_instance)


def test_same_call_returns_the_same_object():
    assert fixture("A6") is fixture("a6")
    assert godel_chain(5) is godel_chain(5)
    assert lukasiewicz_chain(5) is lukasiewicz_chain(5)
    assert godel_chain(5) is not lukasiewicz_chain(5)
    a, b = fixture("b6"), godel_chain(3)
    assert product_instance(a, b) is product_instance(a, b)
    assert product_instance(a, b) is not product_instance(b, a)
    assert [lat.name for lat in (godel_chain(4), lukasiewicz_chain(4))] == \
        ["Godel4", "Luk4"]


def test_table_rows_are_the_chain_builders():
    assert FAMILIES == {"godel": godel_chain, "lukasiewicz": lukasiewicz_chain}
    assert all(FAMILIES[name](6).n == 6 for name in FAMILIES)


def test_a_new_row_leaves_the_acceptance_family_unchanged(monkeypatch):
    # acceptance_family names its two chain families itself
    names = [lat.name for lat in acceptance_family()]
    monkeypatch.setitem(FAMILIES, "boolean", lambda size: godel_chain(2))
    assert [lat.name for lat in acceptance_family()] == names
    assert len(names) == 67 and names[:4] == ["A6", "B6", "C6", "A8"]


def test_harness_reads_the_families_module():
    # the names the theorem suite and the benchmark's workloads read
    for name in ("FIXTURE_NAMES", "acceptance_family", "godel_chain",
                 "lukasiewicz_chain"):
        assert getattr(harness, name) is getattr(families, name)
