import itertools

import pytest
from hypothesis import given, strategies as st

from opwords.errors import ArityError
from opwords.finmap import (FinMap, all_maps, braid, branch, compose, f0, f2,
                            factorizations_from, factorizations_through,
                            identity, inverse, pad, tensor)

from conftest import all_maps_upto, brute_force_left_factors


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

    def test_inverse(self):
        for m, n in [(0, 0), (1, 2), (2, 2), (3, 1)]:
            b = braid(m, n)
            assert compose(b, inverse(b)) == identity(m + n)
        with pytest.raises(ArityError):
            inverse(f2())


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
