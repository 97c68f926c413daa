"""Words over a generator alphabet: alternating boundary maps and padded letters.

A word of length k holds k+1 boundary maps and k letters. Boundary maps are
stored in the plain map direction and read in the opposite direction, so a
word runs src -> tgt while each stored map runs the other way. Adjacent
boundary maps merge eagerly on composition, so words of length 0 are single
maps and structural equality absorbs the composition of opposite maps.
"""

from __future__ import annotations

from .alphabet import Generator
from .errors import ArityError
from .finmap import FinMap, compose, identity, pad
from .record import Record

Letter = tuple[int, Generator, int]


class Word(Record):
    __slots__ = ("boundaries", "letters", "_hash")
    boundaries: tuple[FinMap, ...]
    letters: tuple[Letter, ...]

    def __init__(self, boundaries: tuple[FinMap, ...],
                 letters: tuple[Letter, ...]):
        if len(boundaries) != len(letters) + 1:
            raise ArityError("a word of length k needs k+1 boundary maps")
        for i, (l, g, r) in enumerate(letters):
            if l < 0 or r < 0:
                raise ArityError("negative letter pad")
            if boundaries[i].src != l + g.src + r:
                raise ArityError(
                    f"boundary {i} feeds {boundaries[i].src} strands into "
                    f"letter {i} which takes {l + g.src + r}")
            if boundaries[i + 1].tgt != l + g.tgt + r:
                raise ArityError(
                    f"letter {i} emits {l + g.tgt + r} strands but boundary "
                    f"{i + 1} consumes {boundaries[i + 1].tgt}")
        _set_boundaries(self, boundaries)
        _set_letters(self, letters)
        _set_hash(self, hash((boundaries, letters)))

    @staticmethod
    def _raw(boundaries: tuple[FinMap, ...],
             letters: tuple[Letter, ...]) -> "Word":
        """Unvalidated constructor for words that are valid by construction."""
        w = _new(Word)
        _set_boundaries(w, boundaries)
        _set_letters(w, letters)
        _set_hash(w, hash((boundaries, letters)))
        return w

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Word):
            return NotImplemented
        return (self._hash == other._hash
                and self.letters == other.letters
                and self.boundaries == other.boundaries)

    @property
    def src(self) -> int:
        return self.boundaries[0].tgt

    @property
    def tgt(self) -> int:
        return self.boundaries[-1].src

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        parts = [repr(self.boundaries[0])]
        for (l, g, r), b in zip(self.letters, self.boundaries[1:]):
            parts.append(f"({l},{g.name},{r})")
            parts.append(repr(b))
        return "Word[" + " ".join(parts) + "]"


# The slots' member descriptors set fields past the frozen __setattr__.
_new = object.__new__
_set_boundaries, _set_letters, _set_hash = (
    Word.__dict__[name].__set__ for name in ("boundaries", "letters", "_hash"))


def word_width(w: Word) -> int:
    """The most strands of any boundary map, so of any letter or end."""
    return max(max(b.src, b.tgt) for b in w.boundaries)


def op_word(f: FinMap) -> Word:
    """The length-0 word of a map read in the opposite direction."""
    return Word._raw((f,), ())


def identity_word(m: int) -> Word:
    return Word._raw((identity(m),), ())


def letter_word(l: int, g: Generator, r: int) -> Word:
    return Word((identity(l + g.src + r), identity(l + g.tgt + r)),
                ((l, g, r),))


def gen_word(g: Generator) -> Word:
    return letter_word(0, g, 0)


def compose_words(w: Word, w2: Word) -> Word:
    """Concatenate, merging the two seam maps into one."""
    if w.tgt != w2.src:
        raise ArityError(
            f"cannot compose word ({w.src},{w.tgt}) with ({w2.src},{w2.tgt})")
    seam = compose(w2.boundaries[0], w.boundaries[-1])
    return Word._raw(w.boundaries[:-1] + (seam,) + w2.boundaries[1:],
                     w.letters + w2.letters)


def compose_many(*ws: Word) -> Word:
    """Concatenate left to right in one pass, merging each seam once."""
    bounds, letters = list(ws[0].boundaries), list(ws[0].letters)
    for w in ws[1:]:
        if bounds[-1].src != w.src:
            raise ArityError(
                f"cannot compose word ({bounds[0].tgt},{bounds[-1].src}) "
                f"with ({w.src},{w.tgt})")
        bounds[-1] = compose(w.boundaries[0], bounds[-1])
        bounds += w.boundaries[1:]
        letters += w.letters
    return Word._raw(tuple(bounds), tuple(letters))


def whisker(q: int, w: Word, p: int) -> Word:
    """Pad with q identity strands on the left and p on the right."""
    if q < 0 or p < 0:
        raise ArityError("negative whisker pad")
    if q == 0 and p == 0:
        return w
    bounds = tuple([pad(q, f, p) for f in w.boundaries])
    letters = tuple([(q + l, g, r + p) for (l, g, r) in w.letters])
    return Word._raw(bounds, letters)


def tensor_words(w: Word, w2: Word) -> Word:
    """Canonical representative of the monoidal product of two words."""
    return compose_words(whisker(0, w, w2.src), whisker(w.tgt, w2, 0))


def tensor_many_words(*ws: Word) -> Word:
    out = identity_word(0)
    for w in ws:
        out = tensor_words(out, w)
    return out


def tensor_power(w: Word, a: int) -> Word:
    if a < 0:
        raise ArityError("negative tensor power")
    if a == 0:
        return identity_word(0)
    return compose_many(*(whisker(j * w.tgt, w, (a - 1 - j) * w.src)
                          for j in range(a)))


def standard_decomposition(w: Word) -> list[Word]:
    """Alternating length-0 and length-1 factors that recompose to w."""
    parts: list[Word] = [op_word(w.boundaries[0])]
    for letter, b in zip(w.letters, w.boundaries[1:]):
        parts.append(letter_word(*letter))
        parts.append(op_word(b))
    return parts
