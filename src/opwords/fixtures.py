"""Built-in certificates for the group presentation's lemmas.

Each fixture replays a named equational fact as an explicit rewrite chain.
The chains ship as package data in ``lemmas/``, one ``<name>.cert`` file per
lemma, and are decoded and replayed under their context on first use, so a
fixture that is returned has been validated. Conditional facts (uniqueness
of the unit and of the inverse) extend the alphabet with a fresh symbol and
add the hypothesis as an extra relation, which makes the statement
replayable as stated; that context ships as a presentation file. When a
certificate fails to decode or to replay, the error names its lemma.
``scripts/replay_lemmas.py`` regenerates the files.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from .certificate import Certificate, decode
from .errors import OpwordsError
from .present import GROUP_ALPHABET, load_presentation, parse_presentation
from .record import Record
from .rules import RuleContext


class LemmaFixture(Record):
    name: str
    certificate: Certificate
    context: RuleContext
    statement: str


# (name, context, statement). The context is None for the free calculus,
# @group or @group-Z for a built-in presentation, or the name of a
# presentation file in lemmas/.
LEMMAS = (
    ("dup-assoc", None, "splitting twice associates either way"),
    ("dup-assoc-square", None,
     "a double split factors through nested single splits"),
    ("dup-counit", None,
     "splitting then discarding either copy is the identity"),
    ("omega-split-dup", None,
     "inverting both copies equals inverting before the split"),
    ("omega-drop", None, "inverting a discarded strand just discards it"),
    ("eta-unique", "eta-unique.pres",
     "a second left unit symbol collapses onto the unit"),
    ("omega-unique", "omega-unique.pres",
     "a second left inverse symbol collapses onto the inverse"),
    ("eta-omega", "@group", "inverting the unit gives the unit"),
    ("omega-involution", "@group", "inverting twice is the identity"),
    ("ZG-claim1", "@group-Z",
     "right-inverse follows from the three left axioms"),
    ("ZG-claim2", "@group-Z",
     "right-neutrality follows from the three left axioms"),
)


def _read(name: str) -> str:
    return (files(__package__) / "lemmas" / name).read_text(encoding="utf-8")


def load_lemma(name: str, source: str | None,
               statement: str) -> LemmaFixture:
    """Decode one lemma's certificate and replay it under its context."""
    if source is None:
        alphabet, ctx = GROUP_ALPHABET, RuleContext()
    else:
        pres = (load_presentation(source) if source.startswith("@")
                else parse_presentation(_read(source)))
        alphabet, ctx = pres.alphabet, pres.context()
    cert = decode(_read(f"{name}.cert"), alphabet)
    cert.replay(ctx)
    return LemmaFixture(name, cert, ctx, statement)


@lru_cache(maxsize=1)
def lemma_fixtures() -> tuple[LemmaFixture, ...]:
    out = []
    for entry in LEMMAS:
        try:
            out.append(load_lemma(*entry))
        except OpwordsError as exc:
            raise type(exc)(f"lemma {entry[0]}: {exc}") from None
    return tuple(out)
