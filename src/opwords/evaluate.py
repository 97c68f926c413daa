"""Evaluation of words on a finite carrier.

A word denotes the composite of coordinate pullbacks of its boundary maps
with the whiskered functions assigned to its letters, in standard
decomposition order. It is evaluated column by column: one column of
values per strand, each as long as carrier^src.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .alphabet import Alphabet, Generator
from .endo import Carrier, FinFunction
from .errors import AssignmentError, EvaluationSizeError
from .words import Word

# Largest number of input rows (carrier^src) an evaluation may tabulate.
MAX_ROWS = 2 ** 20


@dataclass(frozen=True)
class GeneratorAssignment:
    """One function per generator, all over the same carrier."""

    carrier: Carrier
    functions: dict[Generator, FinFunction]

    def __post_init__(self):
        for g, fn in self.functions.items():
            if fn.carrier != self.carrier:
                raise AssignmentError(f"{g.name}: carrier mismatch")
            if fn.src != g.src or fn.tgt != g.tgt:
                raise AssignmentError(
                    f"{g.name}: assigned ({fn.src},{fn.tgt}), "
                    f"declared ({g.src},{g.tgt})")

    def __getitem__(self, g: Generator) -> FinFunction:
        try:
            return self.functions[g]
        except KeyError:
            raise AssignmentError(f"no function assigned to {g.name}") from None

    def covers(self, alphabet: Alphabet) -> bool:
        return all(g in self.functions for g in alphabet)


def _coordinates(carrier: Carrier, m: int) -> list[tuple[int, ...]]:
    """The m coordinate columns of carrier^m, rows in mixed-radix order."""
    n = carrier.size
    return [tuple(chain.from_iterable(repeat(x, n ** (m - 1 - j))
                                      for x in range(n))) * n ** j
            for j in range(m)]


def eval_word(w: Word, assignment: GeneratorAssignment) -> FinFunction:
    """Push the columns of carrier^src through the word, one per strand.

    A boundary map only reorders, copies or drops columns; a letter looks up
    each row of its input columns in the assigned table and splices the
    output columns in their place. The cost is carrier^src rows per letter,
    whatever the width of the layers in between.
    """
    carrier = assignment.carrier
    rows = carrier.size ** w.src
    if rows > MAX_ROWS:
        raise EvaluationSizeError(
            f"evaluating a word with {w.src} inputs on carrier "
            f"{carrier.size} needs {carrier.size}^{w.src} rows, "
            f"more than the limit of {MAX_ROWS}")
    cols = _coordinates(carrier, w.src)
    cols = [cols[v - 1] for v in w.boundaries[0].table]
    for (l, g, r), b in zip(w.letters, w.boundaries[1:]):
        fn = assignment[g]
        lookup = dict(zip(carrier.tuples(g.src), fn.table)).__getitem__
        args = zip(*cols[l:l + g.src]) if g.src else repeat((), rows)
        outs = list(map(lookup, args))
        cols[l:l + g.src] = list(zip(*outs)) if outs else [()] * g.tgt
        cols = [cols[v - 1] for v in b.table]
    table = tuple(zip(*cols)) if cols else ((),) * rows
    return FinFunction(carrier, w.src, w.tgt, table)
