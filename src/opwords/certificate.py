"""Certificates: replayable chains of rewrite steps, with a text format.

A certificate file is read by ``dsl.read_lines``: a ``start:`` and an
``end:`` header, once each, and one ``step N:`` line per rewrite, numbered
1..n in order. A step line holds only ``key=value`` fields, each at most
once, named in ``STEP_FIELDS``; integer fields are ``dsl.read_int``
integers. Structured values (exprs and map literals) are double-quoted so
the lines round-trip bit-exactly through the expression grammar.
"""

from __future__ import annotations

import re

from .alphabet import Alphabet
from .dsl import (map_expr, parse_word, print_expr, print_word, read_int,
                  read_lines)
from .errors import ParseError, ReplayError
from .finmap import FinMap
from .record import Record
from .rules import RewriteStep, RuleContext, apply_step
from .words import Word


class Certificate(Record):
    start: Word
    steps: tuple[RewriteStep, ...]
    end: Word

    def replay(self, ctx: RuleContext | None = None) -> Word:
        """Run every step from start; raises ReplayError naming the culprit."""
        ctx = ctx if ctx is not None else RuleContext()
        w = self.start
        for n, step in enumerate(self.steps, start=1):
            try:
                w = apply_step(w, step, ctx)
            except ReplayError as exc:
                raise ReplayError(f"step {n}: {exc}") from None
        if w != self.end:
            raise ReplayError(
                f"replay ended at {print_word(w)}, expected {print_word(self.end)}")
        return w

    def reversed(self) -> "Certificate":
        steps = tuple(s.inverted() for s in reversed(self.steps))
        return Certificate(self.end, steps, self.start)

    def then(self, other: "Certificate") -> "Certificate":
        if self.end != other.start:
            raise ReplayError("certificates do not chain")
        return Certificate(self.start, self.steps + other.steps, other.end)


def _fm_text(f: FinMap) -> str:
    return print_expr(map_expr(f)) if f.is_identity else repr(f)


def encode_step(step: RewriteStep, n: int) -> str:
    fields = [f"rule={step.rule}", f"dir={step.direction}",
              f"split={step.split}", f"a={step.a}", f"q={step.q}",
              f"p={step.p}"]
    if step.v is not None:
        fields.append(f'v="{print_word(step.v)}"')
    if step.v2 is not None:
        fields.append(f'v2="{print_word(step.v2)}"')
    fields.append(f'seamL="{_fm_text(step.seam_left)}"')
    fields.append(f'seamR="{_fm_text(step.seam_right)}"')
    return f"step {n}: " + " ".join(fields)


def encode(cert: Certificate) -> str:
    lines = [f"start: {print_word(cert.start)}", f"end: {print_word(cert.end)}"]
    lines.extend(encode_step(s, n) for n, s in enumerate(cert.steps, start=1))
    return "\n".join(lines) + "\n"


def step_key(step: RewriteStep) -> str:
    """Deterministic total order on steps, used to break ties."""
    return encode_step(step, 0)


# a step line's fields: key=value or key="value", each then a space or the end
_FIELD = re.compile(r'(\w+)=(?:"([^"]*)"|([^\s"]+))(?=\s|$)')
_FIELDS = re.compile(rf"(?:\s*{_FIELD.pattern})*\s*")
STEP_FIELDS = "rule dir split a q p v v2 seamL seamR".split()


def _parse_step(body: str, line: str, alphabet: Alphabet) -> RewriteStep:
    if _FIELDS.fullmatch(body) is None:
        raise ParseError(f"stray text in step line: {line!r}")
    fields: dict[str, str] = {}
    for key, quoted, bare in _FIELD.findall(body):
        if key not in STEP_FIELDS or key in fields:
            what = "repeated" if key in fields else "unknown"
            raise ParseError(f"{what} step field {key!r}: {line!r}")
        fields[key] = quoted or bare

    def word_field(key):
        return parse_word(fields[key], alphabet) if key in fields else None

    def map_field(key):
        w = parse_word(fields[key], alphabet)
        if len(w) != 0:
            raise ParseError(f"{key} must be a map literal")
        return w.boundaries[0]

    try:
        return RewriteStep(
            fields["rule"], fields["dir"],
            *(read_int(fields[key], line) for key in ("split", "a", "q", "p")),
            word_field("v"), word_field("v2"),
            map_field("seamL"), map_field("seamR"))
    except KeyError as exc:
        raise ParseError(f"step line missing field {exc}: {line!r}") from None


def decode(text: str, alphabet: Alphabet) -> Certificate:
    ends, steps = {}, []
    for keyword, rest, line in read_lines(text, "certificate",
                                          ("start:", "end:", "step"),
                                          once=("start:", "end:")):
        if keyword == "step":
            n, _, body = rest.partition(":")
            if read_int(n.strip(), line) != len(steps) + 1:
                raise ParseError(f"expected step {len(steps) + 1}: {line!r}")
            steps.append(_parse_step(body, line, alphabet))
        else:
            ends[keyword] = parse_word(rest, alphabet)
    if len(ends) != 2:
        raise ParseError("certificate needs start: and end: headers")
    return Certificate(ends["start:"], tuple(steps), ends["end:"])
