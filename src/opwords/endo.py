"""Tabulated functions M^m -> M^n over a finite carrier.

Rows are indexed by the input tuple in mixed-radix order with the leftmost
coordinate most significant; elements are the opaque indices 0..size-1.
This is the evaluation target for words, and the home of the executable
braiding/branching axiom checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import ArityError
from .finmap import FinMap, braid, branch


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


def check_braiding(x: FinFunction, x2: FinFunction) -> bool:
    """Block swap of inputs then x (x) x2 equals x2 (x) x then output swap."""
    if x.carrier != x2.carrier:
        raise ArityError("carrier mismatch")
    c = x.carrier
    lhs = ff_compose(pullback(braid(x.src, x2.src), c), ff_tensor(x, x2))
    rhs = ff_compose(ff_tensor(x2, x), pullback(braid(x.tgt, x2.tgt), c))
    return lhs == rhs


def check_branching(a: int, x: FinFunction) -> bool:
    """Input fold then a-fold tensor power equals x then output fold."""
    c = x.carrier
    lhs = ff_compose(pullback(branch(a, x.src), c), ff_tensor_power(x, a))
    rhs = ff_compose(x, pullback(branch(a, x.tgt), c))
    return lhs == rhs
