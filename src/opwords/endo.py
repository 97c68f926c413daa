"""Tabulated functions M^m -> M^n over a finite carrier.

Rows are indexed by the input tuple in mixed-radix order with the leftmost
coordinate most significant; elements are the opaque indices 0..size-1.
This is the evaluation target for words, and the home of the executable
braiding/branching axiom checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .alphabet import Generator
from .errors import ArityError
from .finmap import FinMap, braid, branch
from .words import compose_words, gen_word, op_word, tensor_power, tensor_words


@dataclass(frozen=True, slots=True)
class Carrier:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ArityError("carrier size must be >= 0")

    def tuples(self, m: int):
        return itertools.product(range(self.size), repeat=m)


@dataclass(frozen=True, slots=True)
class FinFunction:
    """A function M^src -> M^tgt, tabulated row by row."""

    carrier: Carrier
    src: int
    tgt: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.carrier.size
        if len(self.table) != n ** self.src:
            raise ArityError(
                f"table has {len(self.table)} rows, expected {n ** self.src}")
        for row in self.table:
            if len(row) != self.tgt:
                raise ArityError("output tuple length mismatch")
            for v in row:
                if not 0 <= v < n:
                    raise ArityError(f"output value {v} outside carrier")

    @classmethod
    def from_columns(cls, carrier: Carrier, src: int, tgt: int,
                     cols: Sequence[Sequence[int]]) -> "FinFunction":
        """The function with output columns `cols`, checked column by column.

        The checks are the row constructor's, with its messages: `tgt`
        columns, each carrier^src long, every value in the carrier. Each
        distinct column object is checked once, since callers may repeat a
        column by reference. The column count is checked even when there
        are no rows, where a row table could not show it.
        """
        n, rows = carrier.size, carrier.size ** src
        if len(cols) != tgt:
            raise ArityError("output tuple length mismatch")
        distinct = {id(col): col for col in cols}.values()
        wrong = set(map(len, distinct)) - {rows}
        if wrong:
            raise ArityError(f"table has {min(wrong)} rows, expected {rows}")
        values = set(itertools.chain.from_iterable(distinct))
        if not all(0 <= v < n for v in values):
            # the row constructor names the first value outside, in row order
            return cls(carrier, src, tgt, tuple(zip(*cols)))
        f = _new(cls)
        _set_carrier(f, carrier)
        _set_src(f, src)
        _set_tgt(f, tgt)
        _set_table(f, tuple(zip(*cols)) if cols else ((),) * rows)
        return f

    def row_index(self, xs: tuple[int, ...]) -> int:
        idx = 0
        for x in xs:
            idx = idx * self.carrier.size + x
        return idx

    def __call__(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        return self.table[self.row_index(xs)]

    def rows(self) -> Iterator[str]:
        """One line per input tuple, lazily: ``x1 .. xm -> y1 .. yn``."""
        names = [str(v) for v in range(self.carrier.size)]
        for xs, ys in zip(self.carrier.tuples(self.src), self.table):
            left = " ".join([names[x] for x in xs])
            right = " ".join([names[y] for y in ys])
            yield f"{left} -> {right}".strip() if left else f"-> {right}".rstrip()

    def dump(self) -> str:
        """The rows, one per line."""
        return "\n".join(self.rows())


# The slots' member descriptors set fields past the frozen __setattr__.
_new = object.__new__
_set_carrier, _set_src, _set_tgt, _set_table = (
    FinFunction.__dict__[name].__set__
    for name in ("carrier", "src", "tgt", "table"))


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
