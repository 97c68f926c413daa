"""Maps between standard finite sets [1,m] -> [1,n], with strict monoidal structure.

Values are immutable dense tables, 1-based. Composition is diagrammatic:
``compose(f, g)`` applies f first. The opposite-direction reading used by the
word layer is a calling convention, not a separate type. Maps are
hash-consed (`record.Interned`): there is one object per distinct live map,
so equality and hashing are identity. ``FinMap._raw`` is the unvalidated
constructor for tables that are valid by construction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .errors import ArityError
from .record import Interned


class FinMap(Interned):
    """A total map [1,src] -> [1,tgt]; table[i-1] is the image of i."""

    __slots__ = ("src", "tgt", "table")
    src: int
    tgt: int
    table: tuple[int, ...]

    def __new__(cls, src: int, tgt: int, table: tuple[int, ...]):
        if src < 0 or tgt < 0:
            raise ArityError(f"negative arity in map ({src},{tgt})")
        if len(table) != src:
            raise ArityError(
                f"table length {len(table)} != source arity {src}")
        if tgt == 0 and src > 0:
            raise ArityError(f"no map [1,{src}] -> [1,0] exists")
        for v in table:
            if not 1 <= v <= tgt:
                raise ArityError(f"entry {v} outside [1,{tgt}]")
        return cls._raw(src, tgt, table)

    def __call__(self, i: int) -> int:
        return self.table[i - 1]

    def __repr__(self):
        entries = ",".join(str(v) for v in self.table)
        return f"fm[{self.src}->{self.tgt}: {entries}]"

    @property
    def is_identity(self) -> bool:
        return self is identity(self.src)


# every width's identity stays live, and is found without building its table
@lru_cache(maxsize=None)
def identity(m: int) -> FinMap:
    return FinMap._raw(m, m, tuple(range(1, m + 1)))


def compose(f: FinMap, g: FinMap) -> FinMap:
    """Diagrammatic composite: first f, then g."""
    if f.tgt != g.src:
        raise ArityError(
            f"cannot compose ({f.src},{f.tgt}) with ({g.src},{g.tgt})")
    gt = g.table
    return FinMap._raw(f.src, g.tgt, tuple([gt[v - 1] for v in f.table]))


def tensor(f: FinMap, g: FinMap) -> FinMap:
    """Block sum: i on the first block, tgt-shifted g past it."""
    table = f.table + tuple(f.tgt + v for v in g.table)
    return FinMap._raw(f.src + g.src, f.tgt + g.tgt, table)


def pad(q: int, f: FinMap, p: int) -> FinMap:
    """tensor(tensor(identity(q), f), identity(p)) in one pass."""
    if q == 0 and p == 0:
        return f
    mid = q + f.tgt
    table = (*range(1, q + 1), *[q + v for v in f.table],
             *range(mid + 1, mid + p + 1))
    return FinMap._raw(q + f.src + p, mid + p, table)


def braid(m: int, m2: int) -> FinMap:
    """Block swap on [1, m+m2]: the first m strands jump over the last m2."""
    table = tuple(i + m2 for i in range(1, m + 1)) + tuple(range(1, m2 + 1))
    return FinMap._raw(m + m2, m + m2, table)


def branch(a: int, m: int) -> FinMap:
    """Fold [1, a*m] -> [1, m] by residue: i goes to the unique j with m | i-j."""
    table = tuple((i - 1) % m + 1 for i in range(1, a * m + 1))
    return FinMap._raw(a * m, m, table)


def f2() -> FinMap:
    """The unique map (2,1)."""
    return FinMap(2, 1, (1, 1))


def f0() -> FinMap:
    """The unique map (0,1)."""
    return FinMap(0, 1, ())


def all_maps(src: int, tgt: int) -> Iterator[FinMap]:
    """Every map [1,src] -> [1,tgt], lexicographic by table (none when
    tgt = 0 < src, as the product of no choices is empty)."""
    for table in itertools.product(range(1, tgt + 1), repeat=src):
        yield FinMap._raw(src, tgt, table)


def factorizations_through(h: FinMap, g: FinMap,
                           cap: int | None = None) -> list[FinMap]:
    """All u with compose(u, g) = h, solved fiberwise, identity-like first.

    u(i) may be any preimage of h(i) under g; each fiber lists i itself first
    when g(i) = h(i), then the rest in increasing order. The result is the
    product of those fibers, empty when some fiber is empty, and its first
    max(cap, 1) maps when a cap is given.
    """
    if h.tgt != g.tgt:
        raise ArityError("factorization targets differ")
    preimages: dict[int, list[int]] = {}
    for j, v in enumerate(g.table, start=1):
        preimages.setdefault(v, []).append(j)
    fibers = []
    for i, v in enumerate(h.table, start=1):
        fiber = preimages.get(v)
        if fiber is None:
            return []
        if fiber[0] != i and i in fiber:
            fiber = [i] + [j for j in fiber if j != i]
        fibers.append(fiber)
    choices = itertools.product(*fibers)
    if cap is not None:
        choices = itertools.islice(choices, max(cap, 1))
    return [FinMap._raw(h.src, g.src, choice) for choice in choices]


def factorizations_from(h: FinMap, f: FinMap) -> Iterator[FinMap]:
    """All g with compose(f, g) = h (f applied first), lazily.

    g is forced on the image of f and free elsewhere. The identity-like
    filling comes first, sending each free j to min(j, h.tgt); the other
    fillings follow in increasing lexicographic order.
    """
    if h.src != f.src:
        raise ArityError("factorization sources differ")
    forced: dict[int, int] = {}  # g(f(i)) = h(i); a clash leaves no g
    for v, want in zip(f.table, h.table):
        if forced.setdefault(v, want) != want:
            return
    free = [j for j in range(1, f.tgt + 1) if j not in forced]
    if free and h.tgt == 0:
        return
    table = [0] * f.tgt
    for j, v in forced.items():
        table[j - 1] = v

    def build(filling):
        for j, v in zip(free, filling):
            table[j - 1] = v
        return FinMap._raw(f.tgt, h.tgt, tuple(table))

    natural = tuple(min(j, h.tgt) for j in free)
    yield build(natural)
    for filling in itertools.product(range(1, h.tgt + 1), repeat=len(free)):
        if filling != natural:
            yield build(filling)
