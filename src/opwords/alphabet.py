"""Generator alphabets: named symbols with source and target arities."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArityError, UnknownGeneratorError


@dataclass(frozen=True, slots=True)
class Generator:
    name: str
    src: int
    tgt: int
    # cached: every hash of a word hashes each of its letters' generators
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.src < 0 or self.tgt < 0:
            raise ArityError(f"generator {self.name} has negative arity")
        object.__setattr__(self, "_hash",
                           hash((self.name, self.src, self.tgt)))

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

    def lookup_arities(self, name: str) -> tuple[int, int]:
        g = self.lookup(name)
        return g.src, g.tgt

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
