"""Generator alphabets: named symbols with source and target arities."""

from __future__ import annotations

from .errors import ArityError, UnknownGeneratorError
from .record import Record


# Sets the slots past the frozen __setattr__.
_setattr = object.__setattr__


class Generator(Record):
    # _hash is cached: every hash of a word hashes each of its letters'
    # generators
    __slots__ = ("name", "src", "tgt", "_hash")
    name: str
    src: int
    tgt: int

    def __init__(self, name: str, src: int, tgt: int):
        if src < 0 or tgt < 0:
            raise ArityError(f"generator {name} has negative arity")
        _setattr(self, "name", name)
        _setattr(self, "src", src)
        _setattr(self, "tgt", tgt)
        _setattr(self, "_hash", hash((name, src, tgt)))

    # written out: matching compares the generators of letters
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.src, self.tgt)
                == (other.name, other.src, other.tgt))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.name}:{self.src}->{self.tgt}"


class Alphabet:
    """An ordered collection of generators with pairwise distinct names."""

    def __init__(self, generators):
        gens = tuple(generators)
        by_name: dict[str, Generator] = {}
        for g in gens:
            if g.name in by_name:
                raise ArityError(f"duplicate generator name {g.name!r}")
            by_name[g.name] = g
        self.generators = gens
        self._by_name = by_name

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
