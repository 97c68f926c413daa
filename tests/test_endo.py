import itertools

import pytest
from hypothesis import given, settings, strategies as st

from opwords.endo import (Carrier, FinFunction, _braiding_sides,
                          _branching_sides, check_braiding, check_branching,
                          ff_compose, ff_identity, ff_tensor, ff_tensor_power,
                          pullback, tabulate)
from opwords.errors import ArityError
from opwords.finmap import (FinMap, braid, branch, compose, f2, identity,
                            tensor)

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


@st.composite
def functions(draw, max_arity=2, sizes=(0, 3)):
    """A random tabulated function."""
    size = draw(st.integers(*sizes), label="carrier")
    src = draw(st.integers(0, max_arity), label="src")
    # carrier 0 has one (empty) input row at src = 0, and no values
    tgt = draw(st.integers(0, 0 if size == 0 and src == 0 else max_arity),
               label="tgt")
    # no value is ever drawn at size 0
    row = st.tuples(*[st.integers(0, max(size - 1, 0))] * tgt)
    table = draw(st.lists(row, min_size=size ** src, max_size=size ** src),
                 label="table")
    return FinFunction(Carrier(size), src, tgt, tuple(table))


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
        f = data.draw(functions(max_arity=3), label="f")
        lines = []
        for xs in f.carrier.tuples(f.src):
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


def _outcome(make):
    """The function built, or the message of the ArityError raised."""
    try:
        return make()
    except ArityError as exc:
        return str(exc)


class TestColumnCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_raises_where_the_row_constructor_does(self, data):
        f = data.draw(functions(max_arity=3), label="f")
        c, rows = f.carrier, len(f.table)
        # columns may repeat one object, as evaluation's boundary maps do
        pool = [list(col) for col in zip(*f.table)] if rows else [
            [] for _ in range(f.tgt)]
        picks = list(range(f.tgt))
        if f.tgt:
            picks = data.draw(st.lists(st.integers(0, f.tgt - 1),
                                       min_size=f.tgt, max_size=f.tgt),
                              label="picks")
        mutations = ["none", "extra column"]
        if f.tgt:
            mutations.append("missing column")
        if f.tgt and rows:
            mutations += ["short column", "value outside"]
        mutation = data.draw(st.sampled_from(mutations), label="mutation")
        if mutation == "short column":
            col = pool[data.draw(st.sampled_from(picks), label="col")]
            del col[data.draw(st.integers(0, rows - 1), label="cut"):]
        elif mutation == "value outside":
            for _ in range(data.draw(st.integers(1, 3), label="count")):
                col = pool[data.draw(st.sampled_from(picks), label="col")]
                col[data.draw(st.integers(0, rows - 1), label="row")] = (
                    data.draw(st.integers(-3, -1) | st.integers(c.size,
                                                                c.size + 3),
                              label="value"))
        cols = [tuple(pool[j]) for j in picks]
        if mutation == "extra column":
            cols.append(tuple(range(rows)))
        elif mutation == "missing column":
            cols.pop()
        row_table = tuple(zip(*cols)) if cols else ((),) * rows
        by_rows = _outcome(lambda: FinFunction(c, f.src, f.tgt, row_table))
        by_cols = _outcome(
            lambda: FinFunction.from_columns(c, f.src, f.tgt, cols))
        if mutation.endswith("column") and not rows:
            # no rows show the column count; the column check still sees it
            assert by_rows == FinFunction(c, f.src, f.tgt, ())
            assert by_cols == "output tuple length mismatch"
        else:
            assert by_cols == by_rows
            assert isinstance(by_cols, str) == (mutation != "none")

    def test_messages(self):
        cols = [(0, 1, 5, 0), (0, 7, 1, 1)]
        with pytest.raises(ArityError, match="^output value 7 outside"):
            FinFunction.from_columns(Z2, 2, 2, cols)
        with pytest.raises(ArityError, match="^table has 3 rows, expected 4"):
            FinFunction.from_columns(Z2, 2, 2, [(0, 1, 1, 0), (0, 1, 1)])
        with pytest.raises(ArityError, match="^output tuple length mismatch"):
            FinFunction.from_columns(Z2, 2, 3, [(0, 1, 1, 0)] * 2)


def _old_braiding_sides(x, x2):
    """The braiding sides composed from tabulated ff_* tables."""
    c = x.carrier
    return (ff_compose(pullback(braid(x.src, x2.src), c), ff_tensor(x, x2)),
            ff_compose(ff_tensor(x2, x), pullback(braid(x.tgt, x2.tgt), c)))


def _old_branching_sides(a, x):
    c = x.carrier
    return (ff_compose(pullback(branch(a, x.src), c), ff_tensor_power(x, a)),
            ff_compose(x, pullback(branch(a, x.tgt), c)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_axiom_sides_match_the_tabulated_sides(data):
    x = data.draw(functions(), label="x")
    x2 = data.draw(functions(sizes=(x.carrier.size,) * 2), label="x2")
    a = data.draw(st.integers(0, 3), label="a")
    braiding = _old_braiding_sides(x, x2)
    branching = _old_branching_sides(a, x)
    assert _braiding_sides(x, x2) == braiding
    assert _branching_sides(a, x) == branching
    assert check_braiding(x, x2) == (braiding[0] == braiding[1])
    assert check_branching(a, x) == (branching[0] == branching[1])
