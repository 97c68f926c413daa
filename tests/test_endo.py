import itertools

import pytest
from hypothesis import given, settings, strategies as st

from opwords.endo import (Carrier, FinFunction, check_braiding,
                          check_branching, ff_compose, ff_identity, ff_tensor,
                          ff_tensor_power, pullback, tabulate)
from opwords.errors import ArityError
from opwords.finmap import FinMap, braid, compose, f2, identity, tensor

from conftest import all_maps_upto

Z2 = Carrier(2)
Z3 = Carrier(3)

XOR = tabulate(Z2, 2, 1, lambda xs: ((xs[0] + xs[1]) % 2,))
ADD3 = tabulate(Z3, 2, 1, lambda xs: ((xs[0] + xs[1]) % 3,))


def all_functions(carrier, m, n):
    rows = carrier.size ** m
    for flat in itertools.product(
            itertools.product(range(carrier.size), repeat=n), repeat=rows):
        yield FinFunction(carrier, m, n, flat)


class TestTables:
    def test_row_order_most_significant_first(self):
        f = tabulate(Z2, 2, 2, lambda xs: xs)
        assert f((0, 1)) == (0, 1)
        assert f.table[1] == (0, 1)  # row index 0*2+1

    def test_dump_format(self):
        assert XOR.dump().splitlines() == [
            "0 0 -> 0", "0 1 -> 1", "1 0 -> 1", "1 1 -> 0"]
        eta = tabulate(Z2, 0, 1, lambda xs: (1,))
        assert eta.dump() == "-> 1"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dump_matches_row_lookup(self, data):
        size = data.draw(st.integers(0, 3), label="carrier")
        src = data.draw(st.integers(0, 3), label="src")
        # carrier 0 has one (empty) input row at src = 0, and no values
        tgt = data.draw(st.integers(0, 0 if size == 0 and src == 0 else 3),
                        label="tgt")
        # no value is ever drawn at size 0
        row = st.tuples(*[st.integers(0, max(size - 1, 0))] * tgt)
        table = data.draw(st.lists(row, min_size=size ** src,
                                   max_size=size ** src), label="table")
        f = FinFunction(Carrier(size), src, tgt, tuple(table))
        lines = []
        for xs in f.carrier.tuples(src):
            left = " ".join(map(str, xs))
            right = " ".join(map(str, f(xs)))
            lines.append(f"{left} -> {right}".strip() if left
                         else f"-> {right}".rstrip())
        assert f.dump() == "\n".join(lines)

    def test_validation(self):
        with pytest.raises(ArityError):
            FinFunction(Z2, 1, 1, ((0,),))
        with pytest.raises(ArityError):
            FinFunction(Z2, 1, 1, ((0,), (2,)))


class TestComposeTensor:
    def test_compose_identity(self):
        assert ff_compose(XOR, ff_identity(Z2, 1)) == XOR
        assert ff_compose(ff_identity(Z2, 2), XOR) == XOR

    def test_tensor_table(self):
        t = ff_tensor(XOR, ff_identity(Z2, 1))
        for a, b, c in itertools.product(range(2), repeat=3):
            assert t((a, b, c)) == ((a + b) % 2, c)

    def test_diag_then_mult_squares(self):
        diag = pullback(f2(), Z3)
        sq = ff_compose(diag, ADD3)
        for x in range(3):
            assert sq((x,)) == ((2 * x) % 3,)

    def test_carrier_mismatch(self):
        with pytest.raises(ArityError):
            ff_compose(XOR, ff_identity(Z3, 1))


class TestPullback:
    def test_f2_is_diagonal(self):
        d = pullback(f2(), Z3)
        for x in range(3):
            assert d((x,)) == (x, x)

    def test_identity(self):
        assert pullback(identity(2), Z3) == ff_identity(Z3, 2)

    def test_braid_swaps(self):
        s = pullback(braid(1, 1), Z2)
        for a, b in itertools.product(range(2), repeat=2):
            assert s((a, b)) == (b, a)

    def test_contravariant_functorial(self):
        for size in (2, 3):
            c = Carrier(size)
            for f in all_maps_upto(2):
                from opwords.finmap import all_maps
                for g in all_maps(f.tgt, 2):
                    assert (pullback(compose(f, g), c)
                            == ff_compose(pullback(g, c), pullback(f, c)))

    def test_monoidal(self):
        for size in (2, 3):
            c = Carrier(size)
            pool = list(all_maps_upto(2))
            for f in pool:
                for g in pool:
                    assert (pullback(tensor(f, g), c)
                            == ff_tensor(pullback(f, c), pullback(g, c)))


class TestAxiomCheckers:
    def test_braiding_exhaustive_z2(self):
        fns = [f for m in range(3) for n in range(3)
               for f in all_functions(Z2, m, n)]
        small = [f for f in fns if f.src <= 1]
        for x in small:
            for x2 in small:
                assert check_braiding(x, x2)

    def test_braiding_includes_arity_two(self):
        two = list(all_functions(Z2, 2, 1))
        for x in two[:20]:
            for x2 in two[:20]:
                assert check_braiding(x, x2)

    def test_branching_zero_power(self):
        assert check_branching(0, XOR)

    def test_branching_small(self):
        for a in range(4):
            assert check_branching(a, XOR)
            assert check_branching(a, ADD3)

    def test_tensor_strict_monoid(self):
        fns = list(all_functions(Z2, 1, 1))
        unit = ff_identity(Z2, 0)
        for f in fns:
            assert ff_tensor(unit, f) == f
            assert ff_tensor(f, unit) == f
            for g in fns:
                for h in fns:
                    assert (ff_tensor(ff_tensor(f, g), h)
                            == ff_tensor(f, ff_tensor(g, h)))

    def test_power_is_iterated_tensor(self):
        assert ff_tensor_power(XOR, 2) == ff_tensor(XOR, XOR)
