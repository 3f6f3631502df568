"""Filter generation, enumeration, coannihilators, quotients, flatness."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from reslat import filters as fi
from reslat.core import (MAX_ELEMENTS, LatticeError, RawTables,
                         ResiduatedLattice, iter_bits, mask_key, validate)
from reslat.families import godel_chain, lukasiewicz_chain, product_instance
from reslat.harness import FIXTURE_EXPECT, _subset_samples

from conftest import fresh, tokset, toksets


# -- definition-level oracles: subset sweeps and closure fixpoints ----------


def sweep_filters(lat):
    """Every subset that contains 1 and is an upset closed under products."""
    out = []
    for s in range(1 << lat.n):
        bits = list(iter_bits(s))
        if (s >> lat.top) & 1 \
                and not any(lat.up[i] & ~s for i in bits) \
                and all((s >> lat.prod[i][j]) & 1 for i in bits for j in bits):
            out.append(s)
    return sorted(out, key=mask_key)


def sweep_lattice_ideals(lat):
    """Every nonempty subset that is a downset closed under joins."""
    out = []
    for s in range(1, 1 << lat.n):
        bits = list(iter_bits(s))
        if not any(lat.down[i] & ~s for i in bits) \
                and all((s >> lat.join[i][j]) & 1 for i in bits for j in bits):
            out.append(s)
    return sorted(out, key=mask_key)


def closure_generated_filter(lat, mask):
    """Close under products until nothing new appears, then take the upset."""
    closed = mask | (1 << lat.top)
    while True:
        new = closed
        for i in iter_bits(closed):
            for j in iter_bits(closed):
                new |= 1 << lat.prod[i][j]
        if new == closed:
            out = 0
            for i in iter_bits(closed):
                out |= lat.up[i]
            return out
        closed = new


def fixpoint_ideal(lat, mask):
    """Add downsets and pairwise joins until nothing new appears."""
    out = mask
    while True:
        ext = out
        for i in iter_bits(out):
            ext |= lat.down[i]
            for j in iter_bits(out):
                ext |= 1 << lat.join[i][j]
        if ext == out:
            return out
        out = ext


# -- element-wise oracles: the per-element loops behind the table-driven
# primitives, compared on every acceptance instance, on the largest
# instances the cap admits (several 8-bit chunks) and on seeded random masks


def elementwise_coannihilator(lat, f_mask, x_mask):
    return sum(1 << a for a in range(lat.n)
               if all((f_mask >> lat.join[a][x]) & 1 for x in iter_bits(x_mask)))


def elementwise_omega(lat, ideal_mask):
    return sum(1 << a for a in range(lat.n)
               if any(lat.join[a][x] == lat.top for x in iter_bits(ideal_mask)))


def elementwise_generated_filter(lat, mask):
    p = lat.top
    for x in iter_bits(mask):
        p = lat.prod[p][x]
    while lat.prod[p][p] != p:
        p = lat.prod[p][p]
    return lat.up[p]


def elementwise_push(qr, mask):
    out = 0
    for x in iter_bits(mask):
        out |= 1 << qr.projection[x]
    return out


def _oracle_instances(family):
    power = lambda base, k: reduce(product_instance, [base] * k)
    n = MAX_ELEMENTS
    return list(family) + [godel_chain(n), lukasiewicz_chain(n),
                           power(godel_chain(2), 6), power(godel_chain(4), 3)]


def _random_masks(lat, k):
    rng = random.Random(lat.name)
    return [0, lat.all_mask] + [rng.getrandbits(lat.n) for _ in range(k)]


def _masks(lat, k):
    """0, the carrier, the singletons, the filters and k seeded random masks."""
    return ([1 << x for x in range(lat.n)]
            + list(fi.enumerate_filters(lat).filters) + _random_masks(lat, k))


def test_coannihilator_matches_elementwise_oracle(family):
    for lat in _oracle_instances(family):
        for f in list(fi.enumerate_filters(lat).filters) + _random_masks(lat, 4):
            for x in _random_masks(lat, 8):
                assert fi.coannihilator(lat, f, x) == \
                    elementwise_coannihilator(lat, f, x), (lat.name, f, x)
        unit = 1 << lat.top
        for x in range(lat.n):
            perp = elementwise_coannihilator(lat, unit, 1 << x)
            assert fi.x_perp(lat, x) == perp, (lat.name, x)
            assert fi.double_perp(lat, x) == \
                elementwise_coannihilator(lat, unit, perp), (lat.name, x)
    quotients = [fi.quotient(lat, f).quotient for lat in family
                 for f in fi.enumerate_filters(lat).filters]
    for lat in _oracle_instances(family) + quotients:
        table = fi.coannulet_table(lat)
        for f, row in zip(fi.enumerate_filters(lat).filters, table):
            assert row == tuple(elementwise_coannihilator(lat, f, 1 << a)
                                for a in range(lat.n)), lat.name


def test_omega_filter_matches_elementwise_oracle(family):
    for lat in _oracle_instances(family):
        for i in list(fi.lattice_ideals(lat)) + _masks(lat, 40):
            assert fi.omega_filter(lat, i) == elementwise_omega(lat, i), \
                (lat.name, i)


def test_generated_filter_matches_elementwise_oracle(family):
    for lat in _oracle_instances(family):
        for s in _masks(lat, 200):
            assert fi.generated_filter(lat, s) == \
                elementwise_generated_filter(lat, s), (lat.name, s)


def test_push_mask_matches_elementwise_oracle(family):
    for lat in _oracle_instances(family):
        masks = _masks(lat, 8)
        for f in fi.enumerate_filters(lat).filters:
            qr = fi.quotient(lat, f)
            for s in masks:
                assert qr.push_mask(s) == elementwise_push(qr, s), \
                    (lat.name, f, s)


def test_generated_filter_examples(a6):
    assert tokset(a6, fi.generated_filter(a6, a6.mask_of(["d"]))) == {"d", "1"}
    assert tokset(a6, fi.generated_filter(a6, 0)) == {"1"}
    assert tokset(a6, fi.generated_filter(a6, a6.mask_of(["b"]))) == \
        {"a", "b", "d", "1"}


def test_filter_tables_match_reference_sets(fixtures4):
    for lat in fixtures4:
        got = toksets(lat, fi.enumerate_filters(lat).filters)
        assert got == set(FIXTURE_EXPECT[lat.name]["filters"])


def test_subset_sweep_oracle_agrees(family):
    for lat in family:
        if lat.n > 12:
            continue
        fl = fi.enumerate_filters(lat)
        assert list(fl.filters) == sweep_filters(lat), lat.name
        assert list(fi.lattice_ideals(lat)) == sweep_lattice_ideals(lat), \
            lat.name
        for i, f in enumerate(fl.filters):
            for j, g in enumerate(fl.filters):
                assert f & g in fl.index
                assert fl.filters[fl.join_t[i][j]] == \
                    closure_generated_filter(lat, f | g)


def test_is_filter_matches_the_definition(fixtures4):
    # every subset of each fixture: holds 1, is an upset, is product-closed
    missed_upset = 0
    for lat in fixtures4:
        for s in range(1 << lat.n):
            bits = list(iter_bits(s))
            top = bool(s >> lat.top & 1)
            upset = all(s >> y & 1 for x in bits for y in range(lat.n)
                        if lat.leq(x, y))
            closed = all(s >> lat.prod[x][y] & 1 for x in bits for y in bits)
            assert fi.is_filter(lat, s) == (top and upset and closed), \
                (lat.name, lat.set_str(s))
            missed_upset += top and closed and not upset
    assert missed_upset      # the upset test alone refuses some subsets


def test_generated_filter_matches_closure_oracle(family):
    for lat in family:
        for s in _subset_samples(lat):
            assert fi.generated_filter(lat, s) == \
                closure_generated_filter(lat, s), (lat.name, s)


def test_ideal_generated_matches_fixpoint_oracle(family):
    for lat in family:
        for s in _subset_samples(lat):
            if s:
                assert fi.ideal_generated(lat, s) == fixpoint_ideal(lat, s), \
                    (lat.name, s)


def test_no_subset_sweep_at_the_cap(monkeypatch):
    calls = []
    real = fi.is_filter
    monkeypatch.setattr(fi, "is_filter",
                        lambda lat, mask: calls.append(mask) or real(lat, mask))
    n = MAX_ELEMENTS
    cases = [(godel_chain(n), n), (lukasiewicz_chain(n), 2),
             (product_instance(godel_chain(4), godel_chain(5)), 4 * 5)]
    for lat, n_fil in cases:
        lat = fresh(lat)
        assert len(fi.enumerate_filters(lat)) == n_fil, lat.name
        assert len(fi.lattice_ideals(lat)) == lat.n, lat.name
    assert calls == []


def test_per_lattice_memoizes_once_per_key(a6, monkeypatch):
    lat, calls, built = fresh(a6), [], []
    real = fi.cached
    monkeypatch.setattr(fi, "cached", lambda lat, key, build: (
        built.append(key), real(lat, key, build))[1])

    @fi.per_lattice("probe")
    def probe(lat, *args):
        calls.append(args)
        if args == ("boom",):
            raise LatticeError("boom")
        return ()

    assert probe(lat) == () and probe(lat) == ()      # a falsy value is a hit
    assert probe(lat, 1) == () and probe(lat, 1) == () and probe(lat, 2) == ()
    assert calls == [(), (1,), (2,)]
    assert built == ["probe", ("probe", 1), ("probe", 2)]   # a hit skips cached
    assert lat._cache == {"probe": (), ("probe", 1): (), ("probe", 2): ()}
    with pytest.raises(LatticeError):
        probe(lat, "boom")
    assert ("probe", "boom") not in lat._cache
    with pytest.raises(LatticeError):
        probe(lat, "boom")                             # and builds again
    assert calls[-2:] == [("boom",), ("boom",)]


def test_two_chain_has_two_filters():
    assert len(fi.enumerate_filters(godel_chain(2))) == 2


def test_meet_join_tables(fixtures4):
    for lat in fixtures4:
        fl = fi.enumerate_filters(lat)
        for i, f in enumerate(fl.filters):
            for j, g in enumerate(fl.filters):
                assert f & g in fl.index
                assert fl.filters[fl.join_t[i][j]] == \
                    fi.generated_filter(lat, f | g)


def test_filters_lattice_is_distributive(fixtures4):
    for lat in fixtures4:
        fl = fi.enumerate_filters(lat)
        for f in fl.filters:
            for g in fl.filters:
                for h in fl.filters:
                    lhs = f & fi.generated_filter(lat, g | h)
                    rhs = fi.generated_filter(lat, (f & g) | (f & h))
                    assert lhs == rhs


def test_generation_transport_identities(a6, b6):
    # F(F,x) n F(F,y) = F(F, x v y)  and  F(F,x) v F(F,y) = F(F, x * y)
    for lat in (a6, b6):
        fl = fi.enumerate_filters(lat)
        for f in fl.filters:
            for x in range(lat.n):
                fx = fi.generated_filter(lat, f | (1 << x))
                for y in range(lat.n):
                    fy = fi.generated_filter(lat, f | (1 << y))
                    assert fx & fy == fi.generated_filter(
                        lat, f | (1 << lat.join[x][y]))
                    assert fi.generated_filter(lat, fx | fy) == \
                        fi.generated_filter(lat, f | (1 << lat.prod[x][y]))


def test_every_filter_is_principal(fixtures4):
    for lat in fixtures4:
        for f in fi.enumerate_filters(lat).filters:
            gen = lat.top
            for x in iter_bits(f):
                gen = lat.prod[gen][x]
            assert fi.generated_filter(lat, 1 << gen) == f


def test_coannihilator_examples(a6, b6):
    unit6 = 1 << b6.top
    assert tokset(b6, fi.coannihilator(b6, unit6, b6.mask_of(["a"]))) == {"d", "1"}
    assert fi.coannihilator(a6, a6.mask_of(["d", "1"]), 0) == a6.all_mask
    assert tokset(a6, fi.coannihilator(a6, 1 << a6.top, a6.mask_of(["a"]))) == {"1"}


@settings(max_examples=200)
@given(data=st.data())
def test_coannihilator_is_filter(fixtures4, data):
    lat = data.draw(st.sampled_from(list(fixtures4)))
    f = data.draw(st.sampled_from(list(fi.enumerate_filters(lat).filters)))
    x = data.draw(st.integers(0, lat.all_mask))
    assert fi.is_filter(lat, fi.coannihilator(lat, f, x))


@settings(max_examples=200)
@given(data=st.data())
def test_generated_filter_is_prime_intersection(fixtures4, data):
    from reslat.spectra import prime_filters
    lat = data.draw(st.sampled_from(list(fixtures4)))
    x = data.draw(st.integers(0, lat.all_mask))
    inter = lat.all_mask
    for p in prime_filters(lat):
        if x & ~p == 0:
            inter &= p
    assert fi.generated_filter(lat, x) == inter


def test_coannulet_sublattice(fixtures4):
    # gamma_F sits inside Gamma_F closed under its meet and join
    for lat in fixtures4:
        for f in fi.enumerate_filters(lat).filters:
            gamma = {fi.coannihilator(lat, f, 1 << x) for x in range(lat.n)}
            for u in gamma:
                for v in gamma:
                    assert u & v in gamma
                    joined = fi.coannihilator(
                        lat, f, fi.coannihilator(lat, f, u | v))
                    assert joined in gamma


def test_radical_examples(a6, a8):
    assert tokset(a6, fi.radical(a6, a6.mask_of(["1"]))) == {"d", "1"}
    assert tokset(a8, fi.radical(a8, a8.mask_of(["1"]))) == \
        {"a", "c", "d", "e", "f", "1"}
    assert fi.radical(a6, a6.all_mask) == a6.all_mask


def test_quotient_by_unit_is_isomorphic(fixtures4):
    # A/{1} is the identity congruence: a separate lattice on A's own
    # tables that reads A's memo, so nothing A built is built again; the
    # result is not stored in that memo, which would make a reference cycle
    for lat in fixtures4:
        src = fresh(lat)
        qr = fi.quotient(src, 1 << lat.top)
        q = qr.quotient
        assert not qr.degenerate
        assert q.name == f"{lat.name}/{{1}}"
        assert q.n == lat.n and q.names == lat.names
        for table in ("join", "meet", "prod", "res", "up", "down"):
            assert getattr(q, table) == getattr(lat, table), table
        assert (q.bottom, q.top) == (lat.bottom, lat.top)
        assert qr.projection == tuple(range(lat.n))
        assert qr.classes == tuple(1 << x for x in range(lat.n))
        assert q is not src
        assert q._cache is src._cache
        assert all(v is not qr and v is not q for v in src._cache.values())
        assert fi.enumerate_filters(q) is fi.enumerate_filters(src)
        assert fi.quotient(src, 1 << lat.top) is not qr


def test_quotient_by_carrier_is_degenerate(a6):
    qr = fi.quotient(a6, a6.all_mask)
    assert qr.degenerate
    assert qr.quotient.n == 1
    assert qr.quotient.bottom == qr.quotient.top


def test_quotient_classes_example(a6):
    qr = fi.quotient(a6, a6.mask_of(["d", "1"]))
    assert toksets(a6, qr.classes) == \
        {frozenset("0"), frozenset(["a", "b"]), frozenset("c"),
         frozenset(["d", "1"])}
    top_class = qr.classes[qr.quotient.top]
    assert tokset(a6, top_class) == {"d", "1"}


def test_quotient_rejects_non_filter(a6):
    with pytest.raises(LatticeError):
        fi.quotient(a6, a6.mask_of(["d"]))


def test_quotient_rejects_upset_of_a_non_idempotent():
    # {x1,1} is up(x1), but x1*x1 = 0 leaves it
    luk3 = lukasiewicz_chain(3)
    with pytest.raises(LatticeError, match="not a filter"):
        fi.quotient(luk3, luk3.mask_of(["x1", "1"]))


def test_quotient_filters_are_images(fixtures4):
    for lat in fixtures4:
        fl = fi.enumerate_filters(lat)
        for f in fl.filters:
            qr = fi.quotient(lat, f)
            images = {qr.push_mask(g) for g in fl.filters if f & ~g == 0}
            assert images == set(fi.enumerate_filters(qr.quotient).filters)


def residuum_quotient(lat, f):
    """Classes {y : x->y and y->x in F} in mask order, and their order
    [i <= j iff rep_i -> rep_j in F] as up and down bitmask rows."""
    res = lat.res
    classes = sorted({sum(1 << y for y in range(lat.n)
                          if f >> res[x][y] & 1 and f >> res[y][x] & 1)
                      for x in range(lat.n)}, key=mask_key)
    reps = [iter_bits(m)[0] for m in classes]
    up = [sum(1 << j for j, rj in enumerate(reps) if f >> res[ri][rj] & 1)
          for ri in reps]
    down = [sum(1 << i for i, ri in enumerate(reps) if f >> res[ri][rj] & 1)
            for rj in reps]
    return tuple(classes), tuple(up), tuple(down)


def assert_quotients_match_residuum(lat):
    for f in fi.enumerate_filters(lat).filters:
        qr = fi.quotient(lat, f)
        assert (qr.classes, qr.quotient.up, qr.quotient.down) == \
            residuum_quotient(lat, f), (lat.name, lat.set_str(f))


def test_quotient_matches_residuum_definition(family):
    for lat in family:
        assert_quotients_match_residuum(lat)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_matches_residuum_definition_on_products(fixtures4, data):
    base = list(fixtures4) + [godel_chain(3), lukasiewicz_chain(3),
                              lukasiewicz_chain(4)]
    lat = data.draw(st.sampled_from(base))
    other = data.draw(st.sampled_from([None] + base))
    if other is not None and lat.n * other.n <= MAX_ELEMENTS:
        lat = product_instance(lat, other)
    assert_quotients_match_residuum(fresh(lat))


def _quotient_cases(fixtures4):
    lats = list(fixtures4) + [godel_chain(5), lukasiewicz_chain(6),
                              product_instance(fixtures4[1], godel_chain(2))]
    for lat in lats:
        for f in fi.enumerate_filters(lat).filters:
            yield lat, f, fi.quotient(lat, f)


def test_quotient_tables_match_validation(fixtures4):
    # the pushed tables equal what validation derives from leq and prod
    for lat, f, qr in _quotient_cases(fixtures4):
        q = qr.quotient
        if q.n < 2:
            continue
        raw = RawTables(q.name, list(q.names), list(q.up),
                        [list(r) for r in q.prod], q.bottom, q.top)
        v = validate(raw)
        assert isinstance(v, ResiduatedLattice), str(v)
        for op in ("join", "meet", "prod", "res"):
            assert getattr(v, op) == getattr(q, op), (q.name, op)


def test_quotient_projection_is_a_homomorphism_with_kernel_f(fixtures4):
    for lat, f, qr in _quotient_cases(fixtures4):
        q, proj = qr.quotient, qr.projection
        assert sum(bin(c).count("1") for c in qr.classes) == lat.n
        assert qr.pull_mask(q.all_mask) == lat.all_mask
        for op in ("join", "meet", "prod", "res"):
            src, dst = getattr(lat, op), getattr(q, op)
            for x in range(lat.n):
                for y in range(lat.n):
                    assert proj[src[x][y]] == dst[proj[x]][proj[y]], \
                        (q.name, op, lat.names[x], lat.names[y])
        assert proj[lat.bottom] == q.bottom and proj[lat.top] == q.top
        coker = sum(1 << x for x in range(lat.n) if proj[x] == q.top)
        assert coker == f == qr.classes[q.top]


def test_lattice_ideals_and_omega(b6, c6):
    ideals = fi.lattice_ideals(b6)
    for i in ideals:
        for x in iter_bits(i):
            assert b6.down[x] & ~i == 0
    down_a = fi.principal_ideal(b6, b6.index("a"))
    assert tokset(b6, fi.omega_filter(b6, down_a)) == {"d", "1"}
    assert fi.omega_filter(b6, fi.principal_ideal(b6, b6.bottom)) == 1 << b6.top
    assert fi.omega_filter(b6, b6.all_mask) == b6.all_mask
    assert set(fi.omega_filters(c6)) <= set(fi.enumerate_filters(c6).filters)


def test_coannulets_are_omega_filters(fixtures4):
    for lat in fixtures4:
        omega = set(fi.omega_filters(lat))
        for x in range(lat.n):
            assert fi.x_perp(lat, x) in omega


def test_alpha_filters_match_reference_sets(fixtures4):
    for lat in fixtures4:
        got = toksets(lat, fi.enumerate_alpha(lat))
        assert got == set(FIXTURE_EXPECT[lat.name]["alpha"])


def test_alpha_examples(a6):
    assert not fi.is_alpha_filter(a6, a6.mask_of(["d", "1"]))


def test_ideal_generated(b6):
    x, y = b6.index("a"), b6.index("b")
    gen = fi.ideal_generated(b6, (1 << x) | (1 << y))
    c = b6.index("c")
    assert gen == b6.down[c]
    with pytest.raises(LatticeError):
        fi.ideal_generated(b6, 0)


def test_projection_flatness_examples(a6, b6):
    ok, wit = fi.is_projection_flat(b6, b6.mask_of(["d", "1"]))
    assert ok and wit is None
    ok, wit = fi.is_projection_flat(a6, 1 << a6.top)
    assert ok
    ok, wit = fi.is_projection_flat(a6, a6.mask_of(["d", "1"]))
    assert not ok
    g, a, x = wit
    # the witness re-verifies: x lies in (G v F : a) but not in (G : a) v F
    f = a6.mask_of(["d", "1"])
    lhs = fi.coannihilator(a6, fi.generated_filter(a6, g | f), 1 << a)
    rhs = fi.generated_filter(
        a6, fi.coannihilator(a6, g, 1 << a) | f)
    assert (lhs >> x) & 1 and not (rhs >> x) & 1
