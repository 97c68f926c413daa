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

Map atoms denote length-0 words read in the opposite direction, so ``dup``
is a word 1 -> 2 and ``del`` a word 1 -> 0. Unicode operators are accepted
on input and never printed. No construct may build a word wider than
``MAX_STRANDS`` strands; the limit is checked before anything is allocated.
Parentheses, ``pad`` and ``^`` may nest at most ``MAX_NESTING`` levels deep,
so parsing, elaboration and printing stay within Python's recursion limit.
"""

from __future__ import annotations

import re

from .alphabet import Alphabet
from .errors import ArityError, OpwordsError, ParseError
from .finmap import FinMap, braid, branch, f0, f2
from .record import Record
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


class Expr(Record):
    """A node of a parsed expression."""


class EGen(Expr):
    name: str


class EId(Expr):
    n: int


class EMap(Expr):
    src: int
    tgt: int
    table: tuple[int, ...]


class EBraid(Expr):
    m: int
    m2: int


class EBranch(Expr):
    a: int
    m: int


class EDup(Expr):
    pass


class EDel(Expr):
    pass


class ECompose(Expr):
    parts: tuple[Expr, ...]


class ETensor(Expr):
    parts: tuple[Expr, ...]


class EPower(Expr):
    base: Expr
    k: int


class EPad(Expr):
    q: int
    body: Expr
    p: int


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


def read_int(text: str, line: str) -> int:
    """An integer field of a file line: an optional minus and ASCII digits."""
    if _INT.fullmatch(text) is None:
        raise ParseError(f"expected an integer, found {text!r} in {line!r}")
    return int(text)


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
    def __init__(self, text: str):
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

    def enclosed(self, pos: int, closing: str) -> Expr:
        """An expression in parentheses or pad, one nesting level down."""
        if self.depth == MAX_NESTING:
            raise ParseError(_TOO_DEEP, pos)
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        self.expect(closing)
        return e

    def integer(self) -> int:
        kind, text, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected an integer, found {text!r}", pos)
        return int(text)

    def expr(self) -> Expr:
        parts = [self.tens()]
        while self.peek()[1] == ".":
            self.next()
            parts.append(self.tens())
        return parts[0] if len(parts) == 1 else ECompose(tuple(parts))

    def tens(self) -> Expr:
        parts = [self.power()]
        while self.peek()[1] in ("*", "⊠"):
            self.next()
            parts.append(self.power())
        return parts[0] if len(parts) == 1 else ETensor(tuple(parts))

    def power(self) -> Expr:
        e = self.whisk()
        while self.peek()[1] == "^":
            self.next()
            e = EPower(e, self.integer())
        return e

    def whisk(self) -> Expr:
        q = 0
        while (self.peek()[0] == "int"
               and self.toks[self.i + 1][1] == "◁"):
            q += self.integer()
            self.next()
        e = self.primary()
        p = 0
        while self.peek()[1] == "▷":
            self.next()
            p += self.integer()
        if q or p:
            return EPad(q, e, p)
        return e

    def primary(self) -> Expr:
        kind, text, pos = self.next()
        if text == "(":
            return self.enclosed(pos, ")")
        if text == "gen":
            kind2, name, pos2 = self.next()
            if kind2 != "name" or name in _KEYWORDS:
                raise ParseError("expected a generator name after 'gen'", pos2)
            return EGen(name)
        if text == "id":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return EId(n)
        if text == "dup":
            return EDup()
        if text == "del":
            return EDel()
        if text in ("braid", "branch"):
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(")")
            return EBraid(a, b) if text == "braid" else EBranch(a, b)
        if text == "pad":
            self.expect("(")
            q = self.integer()
            self.expect(",")
            e = self.enclosed(pos, ",")
            p = self.integer()
            self.expect(")")
            return EPad(q, e, p)
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
            return EMap(src, tgt, tuple(table))
        raise ParseError(f"unexpected token {text or 'end'!r}", pos)


def _height(e: Expr) -> int:
    """Levels of the expression tree, counted without recursion."""
    height, stack = 0, [(e, 1)]
    while stack:
        e, level = stack.pop()
        height = max(height, level)
        if isinstance(e, (ECompose, ETensor)):
            stack.extend((part, level + 1) for part in e.parts)
        elif isinstance(e, EPower):
            stack.append((e.base, level + 1))
        elif isinstance(e, EPad):
            stack.append((e.body, level + 1))
    return height


def parse(text: str) -> Expr:
    p = _Parser(text)
    e = p.expr()
    kind, tok, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos)
    # a chain x^a^b^... nests without parentheses
    if _height(e) > MAX_NESTING:
        raise ParseError(_TOO_DEEP)
    return e


_PREC_COMPOSE, _PREC_TENSOR, _PREC_POWER, _PREC_ATOM = 0, 1, 2, 3


def _prec(e: Expr) -> int:
    if isinstance(e, ECompose):
        return _PREC_COMPOSE
    if isinstance(e, ETensor):
        return _PREC_TENSOR
    if isinstance(e, EPower):
        return _PREC_POWER
    return _PREC_ATOM


def print_expr(e: Expr) -> str:
    if isinstance(e, EGen):
        return f"gen {e.name}"
    if isinstance(e, EId):
        return f"id({e.n})"
    if isinstance(e, EDup):
        return "dup"
    if isinstance(e, EDel):
        return "del"
    if isinstance(e, EBraid):
        return f"braid({e.m},{e.m2})"
    if isinstance(e, EBranch):
        return f"branch({e.a},{e.m})"
    if isinstance(e, EMap):
        return f"fm[{e.src}->{e.tgt}: {','.join(map(str, e.table))}]"
    if isinstance(e, EPad):
        return f"pad({e.q}, {print_expr(e.body)}, {e.p})"
    if isinstance(e, ECompose):
        return " . ".join(_child(part, _PREC_TENSOR) for part in e.parts)
    if isinstance(e, ETensor):
        return " * ".join(_child(part, _PREC_POWER) for part in e.parts)
    if isinstance(e, EPower):
        return f"{_child(e.base, _PREC_POWER)}^{e.k}"
    raise TypeError(f"not an expression: {e!r}")


def _child(e: Expr, need: int) -> str:
    text = print_expr(e)
    return f"({text})" if _prec(e) < need else text


def _check_strands(n: int, e: Expr) -> None:
    if n > MAX_STRANDS:
        raise ParseError(f"{print_expr(e)!r} exceeds the size limit "
                         f"({n} > {MAX_STRANDS} strands)")


def elaborate(e: Expr, alphabet: Alphabet) -> Word:
    if isinstance(e, EGen):
        g = alphabet.lookup(e.name)
        _check_strands(max(g.src, g.tgt), e)
        return gen_word(g)
    if isinstance(e, EId):
        _check_strands(e.n, e)
        return identity_word(e.n)
    if isinstance(e, EDup):
        return op_word(f2())
    if isinstance(e, EDel):
        return op_word(f0())
    if isinstance(e, EBraid):
        _check_strands(e.m + e.m2, e)
        return op_word(braid(e.m, e.m2))
    if isinstance(e, EBranch):
        _check_strands(max(e.a * e.m, e.m), e)
        return op_word(branch(e.a, e.m))
    if isinstance(e, EMap):
        _check_strands(max(e.src, e.tgt), e)
        return op_word(FinMap(e.src, e.tgt, e.table))
    if isinstance(e, EPad):
        body = elaborate(e.body, alphabet)
        _check_strands(e.q + max(body.src, body.tgt) + e.p, e)
        return whisker(e.q, body, e.p)
    if isinstance(e, EPower):
        base = elaborate(e.base, alphabet)
        _check_strands(e.k * max(base.src, base.tgt, 1), e)
        return tensor_power(base, e.k)
    if isinstance(e, ETensor):
        out = elaborate(e.parts[0], alphabet)
        for part in e.parts[1:]:
            nxt = elaborate(part, alphabet)
            _check_strands(max(out.src + nxt.src, out.tgt + nxt.tgt), e)
            out = tensor_words(out, nxt)
        return out
    if isinstance(e, ECompose):
        words = [elaborate(e.parts[0], alphabet)]
        for part in e.parts[1:]:
            nxt = elaborate(part, alphabet)
            if words[-1].tgt != nxt.src:
                raise ArityError(
                    f"cannot compose onto {print_expr(part)!r}: "
                    f"{words[-1].tgt} strands meet {nxt.src}")
            words.append(nxt)
        return compose_many(*words)
    raise TypeError(f"not an expression: {e!r}")


def parse_word(text: str, alphabet: Alphabet) -> Word:
    return elaborate(parse(text), alphabet)


def map_expr(f: FinMap) -> Expr:
    if f.is_identity:
        return EId(f.src)
    return EMap(f.src, f.tgt, f.table)


def word_expr(w: Word) -> Expr:
    """A canonical expression that elaborates back to w (its decomposition)."""
    parts: list[Expr] = []
    if len(w) == 0 or not w.boundaries[0].is_identity:
        parts.append(map_expr(w.boundaries[0]))
    for (l, g, r), b in zip(w.letters, w.boundaries[1:]):
        parts.append(EPad(l, EGen(g.name), r) if l or r else EGen(g.name))
        if not b.is_identity:
            parts.append(map_expr(b))
    if len(parts) == 1:
        return parts[0]
    return ECompose(tuple(parts))


def print_word(w: Word) -> str:
    return print_expr(word_expr(w))
