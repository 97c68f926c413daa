"""Evaluation of words on a finite carrier.

A word denotes the composite of coordinate pullbacks of its boundary maps
with the whiskered functions assigned to its letters, in standard
decomposition order. It is evaluated column by column: one column of
values per strand, each as long as carrier^src, and no row is ever built.
"""

from __future__ import annotations

from operator import add

from .alphabet import Generator
# MAX_ROWS is endo's, kept importable from here
from .endo import MAX_ROWS, Carrier, FinFunction, coordinates
from .errors import AssignmentError
from .record import Record
from .words import Word


class GeneratorAssignment(Record):
    """One function per generator, all over the same carrier."""

    carrier: Carrier
    functions: dict[Generator, FinFunction]

    def __init__(self, carrier: Carrier,
                 functions: dict[Generator, FinFunction]):
        for g, fn in functions.items():
            if fn.carrier != carrier:
                raise AssignmentError(f"{g.name}: carrier mismatch")
            if fn.src != g.src or fn.tgt != g.tgt:
                raise AssignmentError(
                    f"{g.name}: assigned ({fn.src},{fn.tgt}), "
                    f"declared ({g.src},{g.tgt})")
        # built for every probe and axiom check, so without the generic
        # __init__'s argument binding
        vars(self).update(carrier=carrier, functions=functions)

    def __getitem__(self, g: Generator) -> FinFunction:
        try:
            return self.functions[g]
        except KeyError:
            raise AssignmentError(f"no function assigned to {g.name}") from None

    def covers(self, generators) -> bool:
        return all(g in self.functions for g in generators)


def eval_word(w: Word, assignment: GeneratorAssignment) -> FinFunction:
    """Push the columns of carrier^src through the word, one per strand.

    A boundary map only reorders, copies or drops columns. A letter folds
    its input columns into one column of row indices into its assigned
    table, reads each output column at those indices, and splices the
    output columns in place of the inputs. The cost is carrier^src rows per
    letter, whatever the width of the layers in between.
    """
    carrier = assignment.carrier
    n = carrier.size
    coords = coordinates(n, w.src)  # refuses more than MAX_ROWS rows
    rows = n ** w.src
    cols = [coords[v - 1] for v in w.boundaries[0].table]
    for (l, g, r), b in zip(w.letters, w.boundaries[1:]):
        outs = assignment[g].columns
        if g.src:
            idx = cols[l]
            for col in cols[l + 1:l + g.src]:
                idx = list(map(add, map(n.__mul__, idx), col))
            cols[l:l + g.src] = [tuple(map(out.__getitem__, idx))
                                 for out in outs]
        else:
            # a letter without inputs has one row: its constants
            cols[l:l] = [out * rows for out in outs]
        cols = [cols[v - 1] for v in b.table]
    return FinFunction.from_columns(carrier, w.src, w.tgt, cols, coords)
