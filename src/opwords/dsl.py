"""Expression language for words.

Grammar (``.`` binds loosest, then ``*``, then ``^``):

    expr    := tens ('.' tens)*
    tens    := power (('*' | U+22A0) power)*
    power   := whisk ('^' INT)*
    whisk   := (INT U+25C1)* primary (U+25B7 INT)*
    primary := 'gen' NAME | 'id' '(' INT ')' | 'dup' | 'del'
             | 'braid' '(' INT ',' INT ')' | 'branch' '(' INT ',' INT ')'
             | 'fm' '[' INT '->' INT ':' [INT (',' INT)*] ']'
             | 'pad' '(' INT ',' expr ',' INT ')' | '(' expr ')'

The parser builds the word of each rule as it reads it; nothing else is
kept. Map atoms denote length-0 words read in the opposite direction, so
``dup`` is a word 1 -> 2 and ``del`` a word 1 -> 0. Unicode operators are
accepted on input and never printed. ``print_word`` writes a word as its
decomposition: the boundary maps and padded letters joined by ``.``, an
identity map between two letters left out.

Limits, each a ParseError raised before anything is allocated:
no construct may build a word wider than ``MAX_STRANDS`` strands, and the
error quotes the construct as written; parentheses and ``pad`` nest at
most ``MAX_NESTING`` levels deep, so parsing stays within Python's
recursion limit, and one power chain has at most ``MAX_NESTING`` ``^``,
since each ``^`` builds its word anew; an integer has at most as many
digits as ``int()`` reads (4,300 by default).
"""

from __future__ import annotations

import re

from .alphabet import Alphabet
from .errors import ArityError, OpwordsError, ParseError
from .finmap import FinMap, braid, branch, f0, f2
from .words import (Word, compose_many, gen_word, identity_word, op_word,
                    tensor_power, tensor_words, whisker)


# A power of k copies is a word of k letters whose k + 1 boundaries are each
# k strands wide, so building it takes time and memory in the square of k.
# On a 2-core Xeon VM (Python 3.11), `tensor_power` of `gen omega` takes
# 0.006 s and 0.6 MB at 256 copies, 0.03 s and 6.5 MB at 512 and 0.15 s and
# 34 MB at 1024; parsing `gen omega^256` takes 0.006 s. The search and the
# evaluator then work over those boundaries too, so the limit keeps one
# expression small. Words in the tests and lemmas are under 20 strands wide.
MAX_STRANDS = 256

# Each level of parentheses or pad costs the parser six stack frames, so 100
# levels stay well inside Python's default recursion limit of 1000. Words in
# the tests and lemmas nest a few levels.
MAX_NESTING = 100

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<int>[0-9]+)
  | (?P<name>{_NAME.pattern})
  | (?P<sym>[.*^(),\[\]:⊠◁▷])
""", re.VERBOSE)

_TOO_DEEP = f"expression nested more than {MAX_NESTING} levels deep"

_KEYWORDS = {"gen", "id", "dup", "del", "braid", "branch", "fm", "pad"}


def check_generator_name(name: str, line: str) -> None:
    """Refuse a generator name that no ``gen NAME`` expression can write."""
    if _NAME.fullmatch(name) is None or name in _KEYWORDS:
        raise ParseError(f"{name!r} cannot be written after 'gen': {line!r}")


_INT = re.compile(r"-?[0-9]+")


def _integer(text: str, position: int | None = None) -> int:
    """int(text) for an optional minus and ASCII digits: the one integer
    reader of expressions and file lines. int() refuses more digits than
    the interpreter's limit (4,300 by default) with a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long",
                         position) from None


def read_int(text: str, line: str) -> int:
    """An integer field of a file line: an optional minus and ASCII digits."""
    if _INT.fullmatch(text) is None:
        raise ParseError(f"expected an integer, found {text!r} in {line!r}")
    try:
        return _integer(text)
    except ParseError as exc:
        raise ParseError(f"{exc} in {line!r}") from None


def read_word(text: str, alphabet: Alphabet, line: str) -> Word:
    """parse_word for a field of a file line: its errors end with the line."""
    try:
        return parse_word(text, alphabet)
    except OpwordsError as exc:
        raise type(exc)(f"{exc} in {line!r}") from None


def read_lines(text: str, what: str, keywords, once=(), rows: bool = False):
    """(keyword, rest, line) per stripped line, split at ``\\n``, but blank and
    ``#`` lines. A keyword is a whole first field; a line with none is a row
    (None, line, line) if rows, else refused. Once keywords head one line."""
    seen = set()
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first, *rest = line.split(None, 1)
        if first in once and first in seen:
            raise ParseError(f"repeated {what} header {first!r}: {line!r}")
        if first in keywords:
            seen.add(first)
            yield first, rest[0] if rest else "", line
        elif rows:
            yield None, line, line
        else:
            raise ParseError(f"unrecognized {what} line: {line!r}")


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over the tokens; each rule returns its word."""

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end'!r}", pos)

    def written(self, start: int) -> str:
        """The text from position start to the end of the last token read."""
        kind, text, pos = self.toks[self.i - 1]
        return self.text[start:pos + len(text)]

    def check_strands(self, n: int, start: int) -> None:
        """Refuse a construct, begun at start and read up to here, whose
        word would be n > MAX_STRANDS strands wide."""
        if n > MAX_STRANDS:
            raise ParseError(f"{self.written(start)!r} exceeds the size limit "
                             f"({n} > {MAX_STRANDS} strands)")

    def enclosed(self, pos: int, closing: str) -> Word:
        """An expression in parentheses or pad, one nesting level down."""
        if self.depth == MAX_NESTING:
            raise ParseError(_TOO_DEEP, pos)
        self.depth += 1
        w = self.expr()
        self.depth -= 1
        self.expect(closing)
        return w

    def integer(self) -> int:
        kind, text, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected an integer, found {text!r}", pos)
        return _integer(text, pos)

    def expr(self) -> Word:
        words = [self.tens()]
        while self.peek()[1] == ".":
            self.next()
            start = self.peek()[2]
            w = self.tens()
            if words[-1].tgt != w.src:
                raise ArityError(
                    f"cannot compose onto {self.written(start)!r}: "
                    f"{words[-1].tgt} strands meet {w.src}")
            words.append(w)
        return compose_many(*words)

    def tens(self) -> Word:
        start = self.peek()[2]
        w = self.power()
        while self.peek()[1] in ("*", "⊠"):
            self.next()
            w2 = self.power()
            self.check_strands(max(w.src + w2.src, w.tgt + w2.tgt), start)
            w = tensor_words(w, w2)
        return w

    def power(self) -> Word:
        start = self.peek()[2]
        w = self.whisk()
        chain = 0
        while self.peek()[1] == "^":
            pos = self.next()[2]
            if chain == MAX_NESTING:
                raise ParseError(_TOO_DEEP, pos)
            chain += 1
            k = self.integer()
            self.check_strands(k * max(w.src, w.tgt, 1), start)
            w = tensor_power(w, k)
        return w

    def padded(self, q: int, w: Word, p: int, start: int) -> Word:
        self.check_strands(q + max(w.src, w.tgt) + p, start)
        return whisker(q, w, p)

    def whisk(self) -> Word:
        start = self.peek()[2]
        q = 0
        while (self.peek()[0] == "int"
               and self.toks[self.i + 1][1] == "◁"):
            q += self.integer()
            self.next()
        w = self.primary()
        p = 0
        while self.peek()[1] == "▷":
            self.next()
            p += self.integer()
        return self.padded(q, w, p, start) if q or p else w

    def primary(self) -> Word:
        kind, text, pos = self.next()
        if text == "(":
            return self.enclosed(pos, ")")
        if text == "gen":
            kind2, name, pos2 = self.next()
            if kind2 != "name" or name in _KEYWORDS:
                raise ParseError("expected a generator name after 'gen'", pos2)
            g = self.alphabet.lookup(name)
            self.check_strands(max(g.src, g.tgt), pos)
            return gen_word(g)
        if text == "id":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            self.check_strands(n, pos)
            return identity_word(n)
        if text == "dup":
            return op_word(f2())
        if text == "del":
            return op_word(f0())
        if text in ("braid", "branch"):
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(")")
            if text == "braid":
                self.check_strands(a + b, pos)
                return op_word(braid(a, b))
            self.check_strands(max(a * b, b), pos)
            return op_word(branch(a, b))
        if text == "pad":
            self.expect("(")
            q = self.integer()
            self.expect(",")
            w = self.enclosed(pos, ",")
            p = self.integer()
            self.expect(")")
            return self.padded(q, w, p, pos)
        if text == "fm":
            self.expect("[")
            src = self.integer()
            self.expect("->")
            tgt = self.integer()
            self.expect(":")
            table = []
            if self.peek()[0] == "int":
                table.append(self.integer())
                while self.peek()[1] == ",":
                    self.next()
                    table.append(self.integer())
            self.expect("]")
            self.check_strands(max(src, tgt), pos)
            return op_word(FinMap(src, tgt, tuple(table)))
        raise ParseError(f"unexpected token {text or 'end'!r}", pos)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    p = _Parser(text, alphabet)
    w = p.expr()
    kind, tok, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos)
    return w


def map_text(f: FinMap) -> str:
    """A map atom's text: ``id(n)`` for an identity, else the literal."""
    return f"id({f.src})" if f.is_identity else repr(f)


def print_word(w: Word) -> str:
    """The decomposition of w, which parses back to w: its boundary maps and
    padded letters joined by ``.``, an identity map between two letters
    (or before the first, or after the last) left out."""
    first, *rest = w.boundaries
    parts = [] if w.letters and first.is_identity else [map_text(first)]
    for (l, g, r), b in zip(w.letters, rest):
        parts.append(f"pad({l}, gen {g.name}, {r})" if l or r
                     else f"gen {g.name}")
        if not b.is_identity:
            parts.append(map_text(b))
    return " . ".join(parts)
