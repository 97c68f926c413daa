import copy
import gc
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from opwords.errors import ArityError
from opwords.finmap import (FinMap, all_maps, braid, branch, compose, f0,
                            f2, factorizations_from, factorizations_through,
                            identity, pad, tensor)

from conftest import (all_maps_upto, brute_force_left_factors,
                      clear_rules_caches)


def maps(max_ar=3):
    return st.tuples(st.integers(0, max_ar), st.integers(0, max_ar)).flatmap(
        lambda mn: st.tuples(
            st.just(mn[0] if mn[1] > 0 else 0), st.just(mn[1])).flatmap(
            lambda mn2: st.lists(st.integers(1, max(mn2[1], 1)),
                                 min_size=mn2[0], max_size=mn2[0]).map(
                lambda t: FinMap(mn2[0], mn2[1], tuple(t)))))


class TestConstructors:
    def test_identity(self):
        assert identity(3).table == (1, 2, 3)
        assert identity(0) == FinMap(0, 0, ())

    def test_identity_is_shared(self):
        assert identity(3) is identity(3)
        assert identity(3) == FinMap(3, 3, (1, 2, 3))

    def test_f2_f0(self):
        assert f2() == FinMap(2, 1, (1, 1))
        assert f0() == FinMap(0, 1, ())

    def test_braid_instances(self):
        assert braid(2, 1).table == (2, 3, 1)
        assert braid(1, 2).table == (3, 1, 2)
        assert braid(0, 3) == identity(3)
        assert braid(3, 0) == identity(3)

    def test_branch_instances(self):
        assert branch(2, 3).table == (1, 2, 3, 1, 2, 3)
        assert branch(3, 2).table == (1, 2, 1, 2, 1, 2)
        assert branch(1, 4) == identity(4)
        assert branch(0, 5) == FinMap(0, 5, ())

    def test_invalid_maps(self):
        with pytest.raises(ArityError):
            FinMap(1, 0, (1,))
        with pytest.raises(ArityError):
            FinMap(2, 1, (1, 2))
        with pytest.raises(ArityError):
            FinMap(2, 2, (1,))


class TestInterning:
    """One live object per (src, tgt, table): every constructor returns it,
    so equality and hashing are identity."""

    def test_every_constructor_returns_the_live_map(self):
        f = FinMap(3, 2, (2, 1, 2))
        assert FinMap(3, 2, (2, 1, 2)) is f
        assert FinMap._raw(3, 2, (2, 1, 2)) is f
        assert FinMap(src=3, tgt=2, table=(2, 1, 2)) is f
        assert compose(f, identity(2)) is f
        assert compose(FinMap(3, 3, (3, 2, 1)), FinMap(3, 2, (2, 1, 2))) is f
        assert pad(0, f, 0) is f
        assert pad(1, f, 0) is tensor(identity(1), f)
        assert tensor(f, FinMap(0, 0, ())) is f
        assert braid(1, 2) is FinMap(3, 3, (3, 1, 2))
        assert branch(2, 1) is f2()
        assert FinMap(2, 2, (1, 2)) is identity(2)
        assert f.replace(table=(2, 1, 2)) is f
        assert f.replace(tgt=3) is FinMap(3, 3, (2, 1, 2))
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_equality_is_identity(self):
        assert FinMap.__eq__ is object.__eq__
        assert FinMap.__hash__ is object.__hash__
        f = FinMap(2, 1, (1, 1))
        assert hash(f) == object.__hash__(f)
        assert {f: 1}[FinMap._raw(2, 1, (1, 1))] == 1

    def test_invalid_tables_are_refused_and_not_interned(self):
        for src, tgt, table in ((1, 0, (1,)), (2, 1, (1, 2)), (2, 2, (1,)),
                                (-1, 1, ())):
            with pytest.raises(ArityError):
                FinMap(src, tgt, table)
            assert all((f.src, f.tgt, f.table) != (src, tgt, table)
                       for f in FinMap._live.values())

    def test_a_map_nobody_holds_leaves_the_table(self):
        # the caches of move generation may hold maps of every word the
        # suite has searched, this one among them
        clear_rules_caches()
        f = FinMap(4, 40, (40, 4, 3, 5))
        assert FinMap._live[4, 40, (40, 4, 3, 5)] is f
        del f
        gc.collect()
        assert (4, 40, (40, 4, 3, 5)) not in FinMap._live


class TestComposeTensor:
    def test_compose_identity(self):
        assert compose(f2(), identity(1)) == f2()
        assert compose(identity(2), f2()) == f2()

    def test_braid_involution(self):
        assert compose(braid(1, 1), braid(1, 1)) == identity(2)
        assert compose(braid(2, 1), braid(1, 2)) == identity(3)

    def test_branch_compose_f2(self):
        # pointwise oracle: both sides send every input to 1
        lhs = compose(branch(2, 2), f2())
        assert lhs == branch(4, 1)
        for i in range(1, 5):
            assert lhs(i) == 1

    def test_tensor_instances(self):
        assert tensor(f2(), identity(1)) == FinMap(3, 2, (1, 1, 2))
        assert tensor(identity(0), f2()) == f2()
        assert tensor(f2(), identity(0)) == f2()
        assert tensor(braid(1, 1), f0()) == FinMap(2, 3, (2, 1))

    def test_compose_mismatch(self):
        with pytest.raises(ArityError):
            compose(f2(), f2())


class TestLawsExhaustive:
    def test_associativity_small(self):
        pool = list(all_maps_upto(2))
        for f in pool:
            for g in all_maps(f.tgt, 2):
                for h in all_maps(g.tgt, 2):
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_interchange_small(self):
        pool = list(all_maps_upto(2))
        for f in pool:
            for fp in pool:
                for g in all_maps(f.tgt, 2):
                    for gp in all_maps(fp.tgt, 2):
                        assert (compose(tensor(f, fp), tensor(g, gp))
                                == tensor(compose(f, g), compose(fp, gp)))

    def test_tensor_strictness(self):
        pool = list(all_maps_upto(2))
        for f in pool:
            assert tensor(identity(0), f) == f
            for g in pool:
                for h in pool:
                    assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))

    def test_braid_naturality(self):
        pool = list(all_maps_upto(2))
        for f in pool:
            for fp in pool:
                lhs = compose(tensor(f, fp), braid(f.tgt, fp.tgt))
                rhs = compose(braid(f.src, fp.src), tensor(fp, f))
                assert lhs == rhs


class TestFactorizations:
    def test_bijective_unique(self):
        b = braid(1, 1)
        assert factorizations_through(identity(2), b) == [b]

    def test_all_four(self):
        got = set(factorizations_through(f2(), f2()))
        assert got == set(all_maps(2, 2))

    def test_empty_target(self):
        assert factorizations_through(FinMap(1, 1, (1,)), f0()) == []

    def test_matches_brute_force(self):
        for h in all_maps_upto(3):
            for g in all_maps_upto(3):
                if h.tgt != g.tgt:
                    continue
                full = factorizations_through(h, g)
                assert set(full) == set(brute_force_left_factors(h, g))
                for u in full:
                    assert compose(u, g) == h
                # identity-like first: u(i) = i wherever g(i) = h(i)
                for i in range(1, min(h.src, g.src) + 1):
                    if full and g(i) == h(i):
                        assert full[0](i) == i
                for cap in (0, 1, 2, 5):
                    capped = factorizations_through(h, g, cap)
                    assert capped == full[:max(cap, 1)]

    def test_factorizations_from(self):
        for h in all_maps_upto(2):
            for f in all_maps_upto(2):
                if h.src != f.src:
                    continue
                got = list(itertools.islice(factorizations_from(h, f), 200))
                brute = [g for g in all_maps(f.tgt, h.tgt)
                         if compose(f, g) == h]
                assert set(got) == set(brute)
                assert len(got) == len(set(got))
                # identity-like first: g(j) = min(j, h.tgt) off the image
                # of f, then increasing lexicographic order
                if got:
                    image = set(f.table)
                    assert all(got[0](j) == min(j, h.tgt)
                               for j in range(1, f.tgt + 1)
                               if j not in image)
                    rest = [g.table for g in got[1:]]
                    assert rest == sorted(rest)
                if f == h:
                    assert got[0] == identity(f.tgt)


@given(maps(), st.integers(0, 3), st.integers(0, 3))
def test_pad_is_tensor_with_identities(f, q, p):
    assert pad(q, f, p) == tensor(tensor(identity(q), f), identity(p))


@given(maps(), maps())
def test_tensor_arities(f, g):
    t = tensor(f, g)
    assert (t.src, t.tgt) == (f.src + g.src, f.tgt + g.tgt)
    for i in range(1, f.src + 1):
        assert t(i) == f(i)
    for i in range(1, g.src + 1):
        assert t(f.src + i) == f.tgt + g(i)
