"""Generator alphabets: named symbols with source and target arities.

Generators are hash-consed (`record.Interned`), so equal generators are one
object, and a word's hash calls no Python method per letter.
"""

from __future__ import annotations

from .errors import ArityError, UnknownGeneratorError
from .record import Interned, Record


class Generator(Interned):
    __slots__ = ("name", "src", "tgt")
    name: str
    src: int
    tgt: int

    def __new__(cls, name: str, src: int, tgt: int):
        if src < 0 or tgt < 0:
            raise ArityError(f"generator {name} has negative arity")
        return cls._raw(name, src, tgt)

    def __repr__(self):
        return f"{self.name}:{self.src}->{self.tgt}"


class Alphabet(Record):
    """An ordered collection of generators with pairwise distinct names."""

    generators: tuple[Generator, ...]

    def __init__(self, generators):
        gens = tuple(generators)
        by_name: dict[str, Generator] = {}
        for g in gens:
            if g.name in by_name:
                raise ArityError(f"duplicate generator name {g.name!r}")
            by_name[g.name] = g
        vars(self).update(generators=gens, _by_name=by_name)

    def lookup(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def extend(self, *extra: Generator) -> "Alphabet":
        """A new alphabet with fresh symbols appended."""
        return Alphabet(self.generators + tuple(extra))

    def __repr__(self):
        return f"Alphabet({', '.join(map(repr, self.generators))})"
