"""Certificates: replayable chains of rewrite steps, with a text format.

A certificate file is line oriented: a ``start:`` and ``end:`` header
followed by one ``step n:`` line per rewrite. Structured values (exprs and
map literals) are double-quoted so the lines round-trip bit-exactly through
the expression grammar.
"""

from __future__ import annotations

import re

from .alphabet import Alphabet
from .dsl import map_expr, parse_word, print_expr, print_word
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


_FIELD = re.compile(r'(\w+)=("([^"]*)"|\S+)')


def _parse_step(line: str, alphabet: Alphabet) -> RewriteStep:
    fields: dict[str, str] = {}
    _, colon, body = line.partition(":")
    if not colon:
        raise ParseError(f"step line needs 'step N:': {line!r}")
    for m in _FIELD.finditer(body):
        fields[m.group(1)] = m.group(3) if m.group(3) is not None else m.group(2)

    def word_field(key):
        return parse_word(fields[key], alphabet) if key in fields else None

    def map_field(key):
        w = parse_word(fields[key], alphabet)
        if len(w) != 0:
            raise ParseError(f"{key} must be a map literal")
        return w.boundaries[0]

    def int_field(key):
        try:
            return int(fields[key])
        except ValueError:
            raise ParseError(f"{key} must be an integer, found "
                             f"{fields[key]!r}") from None

    try:
        return RewriteStep(
            rule=fields["rule"], direction=fields["dir"],
            split=int_field("split"), a=int_field("a"),
            q=int_field("q"), p=int_field("p"),
            v=word_field("v"), v2=word_field("v2"),
            seam_left=map_field("seamL"), seam_right=map_field("seamR"))
    except KeyError as exc:
        raise ParseError(f"step line missing field {exc}") from None


def decode(text: str, alphabet: Alphabet) -> Certificate:
    start = end = None
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start:"):
            start = parse_word(line[len("start:"):].strip(), alphabet)
        elif line.startswith("end:"):
            end = parse_word(line[len("end:"):].strip(), alphabet)
        elif line.startswith("step"):
            steps.append(_parse_step(line, alphabet))
        else:
            raise ParseError(f"unrecognized certificate line: {line!r}")
    if start is None or end is None:
        raise ParseError("certificate needs start: and end: headers")
    return Certificate(start, tuple(steps), end)
