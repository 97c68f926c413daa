"""Tabulated functions M^m -> M^n over a finite carrier.

Rows are indexed by the input tuple in mixed-radix order with the leftmost
coordinate most significant; elements are the opaque indices 0..size-1.
A table is stored as one column per output strand.
This is the evaluation target for words, and the home of the executable
braiding/branching axiom checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .alphabet import Generator
from .errors import ArityError, EvaluationSizeError
from .finmap import FinMap, braid, branch
from .record import Interned, Record
from .words import compose_words, gen_word, op_word, tensor_power, tensor_words


# Largest number of rows (carrier^src) a table may have.
MAX_ROWS = 2 ** 20


def table_rows(n: int, m: int) -> int:
    """The n^m rows of a table with m inputs on carrier n (n >= 0), or
    EvaluationSizeError when that is more than MAX_ROWS."""
    # a carrier above 1 passes the limit within bit_length(MAX_ROWS)
    # factors, so the power stays small whatever m is
    if n ** min(m, MAX_ROWS.bit_length()) > MAX_ROWS:
        raise EvaluationSizeError(
            f"a table with {m} inputs on carrier {n} has {n}^{m} rows, "
            f"more than the limit of {MAX_ROWS}")
    return n ** m


# Coordinate columns are kept for reuse only up to this many values per
# table, so that the columns of a large table die with the call that built
# them, and for at most _CACHED_COORDINATE_TABLES tables: at most 2^21 values
# are retained. Evaluation cycles over about 18 (carrier, inputs) pairs, the
# largest 3^8 rows of 8 columns (52,488 values), so all of them are kept.
_CACHED_COORDINATE_VALUES = 2 ** 16
_CACHED_COORDINATE_TABLES = 32


def _coordinates(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The m coordinate columns of n^m, rows in mixed-radix order.

    Each column is checked here, as it is built, so that the tables made
    from it need not check it again (`FinFunction.from_columns`, `checked`).
    """
    cols = []
    for j in range(m):
        # column j is n^j copies of a block of n runs, one per value
        block = tuple(itertools.chain.from_iterable(
            itertools.repeat(x, n ** (m - 1 - j)) for x in range(n)))
        col = block * n ** j
        if len(col) != n ** m or not set(block) <= set(range(n)):
            raise ArityError(f"coordinate column {j} of {n}^{m} is malformed")
        cols.append(col)
    return tuple(cols)


_cached_coordinates = lru_cache(
    maxsize=_CACHED_COORDINATE_TABLES)(_coordinates)


def coordinates(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The coordinate columns of n^m, from a small cache when they are few.

    Raises EvaluationSizeError, before building anything, past MAX_ROWS.
    """
    if table_rows(n, m) * m <= _CACHED_COORDINATE_VALUES:
        return _cached_coordinates(n, m)
    return _coordinates(n, m)


class Carrier(Interned):
    __slots__ = ("size",)
    size: int

    def __new__(cls, size: int):
        if size < 0:
            raise ArityError("carrier size must be >= 0")
        return cls._raw(size)

    def tuples(self, m: int):
        return itertools.product(range(self.size), repeat=m)


class FinFunction(Record):
    """A function M^src -> M^tgt, tabulated column by column.

    `columns` holds one tuple per output strand, each carrier^src long, with
    the rows in mixed-radix order. `FinFunction(carrier, src, tgt, rows)`
    builds one from its row table; `table` gives that row table back.
    """

    __slots__ = ("carrier", "src", "tgt", "columns")
    carrier: Carrier
    src: int
    tgt: int
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, carrier: Carrier, src: int, tgt: int,
                 table: Sequence[Sequence[int]]):
        n = carrier.size
        if len(table) != n ** src:
            raise ArityError(
                f"table has {len(table)} rows, expected {n ** src}")
        for row in table:
            if len(row) != tgt:
                raise ArityError("output tuple length mismatch")
            for v in row:
                if not 0 <= v < n:
                    raise ArityError(f"output value {v} outside carrier")
        _init(self, carrier, src, tgt,
              tuple(zip(*table)) if table else ((),) * tgt)

    @classmethod
    def from_columns(cls, carrier: Carrier, src: int, tgt: int,
                     columns: Sequence[Sequence[int]],
                     checked: Sequence[Sequence[int]] = ()) -> "FinFunction":
        """The function with these output columns, checked column by column.

        The checks are the row constructor's, with its messages: `tgt`
        columns, each carrier^src long, every value in the carrier. Each
        distinct column object is checked once, since callers may repeat a
        column by reference, and a column that is one of the objects in
        `checked` (columns the caller built and checked) is not checked
        again. The column count is checked even when there are no rows,
        where a row table could not show it.
        """
        n, rows = carrier.size, carrier.size ** src
        if len(columns) != tgt:
            raise ArityError("output tuple length mismatch")
        distinct = {id(col): col for col in columns}
        for col in checked:
            distinct.pop(id(col), None)
        wrong = set(map(len, distinct.values())) - {rows}
        if wrong:
            raise ArityError(f"table has {min(wrong)} rows, expected {rows}")
        values = set(itertools.chain.from_iterable(distinct.values()))
        if values and not (0 <= min(values) and max(values) < n):
            # the row constructor names the first value outside, in row order
            return cls(carrier, src, tgt, tuple(zip(*columns)))
        f = _new(cls)
        _init(f, carrier, src, tgt, tuple(map(tuple, columns)))
        return f

    # the constructor takes rows: replace, copies and pickles use columns
    _make = from_columns

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The row table: one output tuple per input tuple, in row order."""
        if self.columns:
            return tuple(zip(*self.columns))
        return ((),) * self.carrier.size ** self.src

    def row_index(self, xs: tuple[int, ...]) -> int:
        """The row of input tuple xs; ArityError unless xs is in M^src."""
        n = self.carrier.size
        if len(xs) != self.src or not all(0 <= x < n for x in xs):
            raise ArityError(f"input {xs} is not in {n}^{self.src}")
        idx = 0
        for x in xs:
            idx = idx * n + x
        return idx

    def __call__(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        i = self.row_index(xs)
        return tuple([col[i] for col in self.columns])

    def rows(self) -> Iterator[str]:
        """One line per input tuple, lazily: ``x1 .. xm -> y1 .. yn``."""
        names = [str(v) for v in range(self.carrier.size)]
        lefts = map(" ".join, itertools.product(names, repeat=self.src))
        if self.columns:
            rights = map(" ".join, zip(*[map(names.__getitem__, col)
                                         for col in self.columns]))
        else:
            rights = itertools.repeat("")
        for left, right in zip(lefts, rights):
            yield f"{left} -> {right}".strip() if left else f"-> {right}".rstrip()

    def dump(self) -> str:
        """The rows, one per line."""
        return "\n".join(self.rows())


# The slots' member descriptors set fields past the frozen __setattr__.
_new = object.__new__
_setters = tuple(FinFunction.__dict__[name].__set__
                 for name in FinFunction._fields)


def _init(f: FinFunction, *fields) -> None:
    for set_field, value in zip(_setters, fields):
        set_field(f, value)


def tabulate(carrier: Carrier, src: int, tgt: int,
             fn: Callable[[tuple[int, ...]], tuple[int, ...]]) -> FinFunction:
    table = tuple(tuple(fn(xs)) for xs in carrier.tuples(src))
    return FinFunction(carrier, src, tgt, table)


def ff_identity(carrier: Carrier, m: int) -> FinFunction:
    return tabulate(carrier, m, m, lambda xs: xs)


def ff_compose(f: FinFunction, g: FinFunction) -> FinFunction:
    if f.carrier != g.carrier:
        raise ArityError("carrier mismatch in composition")
    if f.tgt != g.src:
        raise ArityError(
            f"cannot compose ({f.src},{f.tgt}) with ({g.src},{g.tgt})")
    return FinFunction(f.carrier, f.src, g.tgt,
                       tuple(g(row) for row in f.table))


def ff_tensor(f: FinFunction, g: FinFunction) -> FinFunction:
    if f.carrier != g.carrier:
        raise ArityError("carrier mismatch in tensor")

    def fn(xs):
        return f(xs[:f.src]) + g(xs[f.src:])

    return tabulate(f.carrier, f.src + g.src, f.tgt + g.tgt, fn)


def ff_tensor_power(f: FinFunction, a: int) -> FinFunction:
    out = ff_identity(f.carrier, 0)
    for _ in range(a):
        out = ff_tensor(out, f)
    return out


def pullback(f: FinMap, carrier: Carrier) -> FinFunction:
    """Coordinate pullback: (x_1,..,x_n) goes to (x_{1f},..,x_{mf})."""
    return tabulate(carrier, f.tgt, f.src,
                    lambda xs: tuple(xs[v - 1] for v in f.table))


def _evaluate(functions: dict[Generator, FinFunction], *words):
    """Evaluate words over one assignment of `functions`."""
    from .evaluate import GeneratorAssignment, eval_word  # it imports endo
    carrier = next(iter(functions.values())).carrier
    assignment = GeneratorAssignment(carrier, functions)
    return tuple(eval_word(w, assignment) for w in words)


@lru_cache(maxsize=256)
def _braiding_words(m: int, n: int, m2: int, n2: int):
    """Generators x: (m,n) and x2: (m2,n2), and the braiding axiom's sides."""
    g, g2 = Generator("x", m, n), Generator("x2", m2, n2)
    lhs = compose_words(op_word(braid(m, m2)),
                        tensor_words(gen_word(g), gen_word(g2)))
    rhs = compose_words(tensor_words(gen_word(g2), gen_word(g)),
                        op_word(braid(n, n2)))
    return g, g2, lhs, rhs


@lru_cache(maxsize=256)
def _branching_words(a: int, m: int, n: int):
    """A generator x: (m,n) and the branching axiom's sides for a."""
    g = Generator("x", m, n)
    lhs = compose_words(op_word(branch(a, m)), tensor_power(gen_word(g), a))
    rhs = compose_words(gen_word(g), op_word(branch(a, n)))
    return g, lhs, rhs


def _braiding_sides(x: FinFunction,
                    x2: FinFunction) -> tuple[FinFunction, FinFunction]:
    """The two sides of the braiding axiom, each evaluated as one word."""
    if x.carrier != x2.carrier:
        raise ArityError("carrier mismatch")
    g, g2, lhs, rhs = _braiding_words(x.src, x.tgt, x2.src, x2.tgt)
    return _evaluate({g: x, g2: x2}, lhs, rhs)


def _branching_sides(a: int, x: FinFunction) -> tuple[FinFunction, FinFunction]:
    """The two sides of the branching axiom, each evaluated as one word."""
    g, lhs, rhs = _branching_words(a, x.src, x.tgt)
    return _evaluate({g: x}, lhs, rhs)


def check_braiding(x: FinFunction, x2: FinFunction) -> bool:
    """Block swap of inputs then x (x) x2 equals x2 (x) x then output swap."""
    lhs, rhs = _braiding_sides(x, x2)
    return lhs == rhs


def check_branching(a: int, x: FinFunction) -> bool:
    """Input fold then a-fold tensor power equals x then output fold."""
    lhs, rhs = _branching_sides(a, x)
    return lhs == rhs
