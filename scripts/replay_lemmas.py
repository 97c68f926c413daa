#!/usr/bin/env python3
"""Regenerate the built-in lemma certificates shipped in src/opwords/lemmas.

Each certificate chains small bounded searches between waypoint words taken
from an equational proof of the lemma, so the certificates depend on the
search. The waypoints mark only the proof lines that the search does not
bridge by itself: without them it finds no chain, another chain, or the same
chain only after visiting many more words. Every certificate is replayed
forwards and backwards and decoded back from its text before it is written
as <name>.cert. The conditional lemmas (uniqueness of the unit and of the
inverse) extend the alphabet with a fresh symbol and add the hypothesis as
relation 5; that context is written as <name>.pres in the presentation file
format.

Usage (from the repository root):
    PYTHONPATH=src python scripts/replay_lemmas.py [outdir]

outdir defaults to src/opwords/lemmas.
"""

import sys
import time
from pathlib import Path

from opwords.alphabet import Generator
from opwords.certificate import Certificate, decode, encode
from opwords.dsl import print_word
from opwords.errors import OpwordsError
from opwords.finmap import compose, f0, f2, pad
from opwords.fixtures import LEMMAS
from opwords.present import (ETA, GROUP_ALPHABET, MU, OMEGA, Presentation,
                             builtin_group, builtin_group_Z, group_relations,
                             parse_presentation)
from opwords.rules import RewriteStep, RuleContext, apply_step, step_sides
from opwords.search import SearchBudget, _certificate_search
from opwords.words import (Word, compose_many, gen_word, identity_word,
                           op_word, tensor_many_words, whisker)

LEMMA_DIR = (Path(__file__).resolve().parent.parent / "src" / "opwords"
             / "lemmas")


def connect(a: Word, b: Word, ctx: RuleContext, name: str = "") -> Certificate:
    """A certificate for one hop between adjacent waypoints."""
    if a == b:
        return Certificate(a, (), b)
    max_len = max(len(a), len(b)) + 3
    for max_steps in (4_000, 60_000, 400_000):
        budget = SearchBudget(max_steps=max_steps, max_word_len=max_len)
        cert, _ = _certificate_search(a, b, ctx, budget)
        if cert is not None:
            return cert
    raise OpwordsError(f"fixture hop {name!r} not connected: {a!r} ~ {b!r}")


def chain(waypoints, ctx: RuleContext, name: str) -> Certificate:
    cert = Certificate(waypoints[0], (), waypoints[0])
    for i in range(1, len(waypoints)):
        cert = cert.then(connect(cert.end, waypoints[i], ctx,
                                 name=f"{name}[{i}]"))
    cert.replay(ctx)
    return cert


def transport(cert: Certificate, q: int, p: int, left: Word, right: Word,
              ctx: RuleContext) -> Certificate:
    """Map a certificate through the context left . (q <| w |> p) . right."""

    def embed(x: Word) -> Word:
        return compose_many(left, whisker(q, x, p), right)

    steps = []
    w = cert.start
    for st in cert.steps:
        pat, _ = step_sides(st, ctx)
        k = len(pat)
        g_u = pad(q, st.seam_left, p)
        if st.split == 0:
            g_u = compose(g_u, left.boundaries[-1])
        g_v = pad(q, st.seam_right, p)
        if st.split + k == len(w):
            g_v = compose(right.boundaries[0], g_v)
        if st.rule == "M1":
            new = RewriteStep("M1", st.direction, st.split + len(left),
                              v=whisker(q, st.v, 0), v2=whisker(0, st.v2, p),
                              seam_left=g_u, seam_right=g_v)
        else:
            new = RewriteStep(st.rule, st.direction, st.split + len(left),
                              a=st.a, q=st.q + q, p=st.p + p, v=st.v,
                              v2=st.v2, seam_left=g_u, seam_right=g_v)
        steps.append(new)
        w = apply_step(w, st, ctx)
    out = Certificate(embed(cert.start), tuple(steps), embed(cert.end))
    out.replay(ctx)
    return out


# ---------------------------------------------------------------------------
# The chains: one row (name, presentation, waypoints) per chain, in the order
# of opwords.fixtures.LEMMAS; the presentation is None for the free calculus.
# A proof line is left out where the search bridges its neighbours by itself
# with the same bytes at about the same cost. ZG-claim2 is two rows, its head
# and its tail, which build_lemmas() joins through ZG-claim1 whiskered by dup
# and mu.

C = compose_many
T = tensor_many_words


def _context(pres):
    return pres.context() if pres is not None else RuleContext()


def _hypothesis(symbol: Generator, lhs: Word, rhs: Word) -> Presentation:
    return Presentation(GROUP_ALPHABET.extend(symbol),
                        group_relations() + ((lhs, rhs),))


def _chains():
    mu, eta, om = gen_word(MU), gen_word(ETA), gen_word(OMEGA)
    i1, dup, drop = identity_word(1), op_word(f2()), op_word(f0())
    eta2_g, om2_g = Generator("eta2", 0, 1), Generator("omega2", 1, 1)
    eta2, om2 = gen_word(eta2_g), gen_word(om2_g)
    group, group_z = builtin_group(), builtin_group_Z()
    b5 = C(dup, T(i1, om))
    return [
        ("dup-assoc", None, [C(dup, T(dup, i1)), C(dup, T(i1, dup))]),
        ("dup-assoc-square", None,
         [C(dup, T(dup, dup)), C(dup, T(dup, i1), T(i1, dup, i1))]),
        ("dup-counit", None, [C(dup, T(drop, i1)), C(dup, T(i1, drop))]),
        ("omega-split-dup", None, [C(dup, T(om, om)), C(om, dup)]),
        ("omega-drop", None, [C(om, drop), drop]),
        ("eta-unique", _hypothesis(eta2_g, C(T(eta2, i1), mu), i1),
         [eta2, eta]),
        ("omega-unique",
         _hypothesis(om2_g, C(dup, T(om2, i1), mu), C(drop, eta)), [
             om2,
             C(dup, T(om2, drop)),
             C(dup, T(om2, i1), T(i1, C(dup, T(i1, om), mu)), mu),
             C(dup, T(C(dup, T(om2, i1), mu), om), mu),
             om,
         ]),
        ("eta-omega", group, [C(eta, om), C(eta, drop, eta), eta]),
        ("omega-involution", group, [
            C(om, om),
            C(dup, T(i1, dup), T(i1, om, i1), T(C(om, om), i1, i1),
              T(i1, mu), mu),
            C(dup, T(i1, dup), T(C(om, om), om, i1), T(i1, mu), mu),
            C(dup, T(dup, i1), T(om, om, i1), T(om, i1, i1), T(mu, i1), mu),
            C(dup, T(om, i1), T(C(drop, eta), i1), mu),
            i1,
        ]),
        ("ZG-claim1", group_z, [
            C(dup, T(i1, om), mu),
            C(dup, T(drop, dup), T(eta, i1, om), T(mu, i1), mu),
            C(dup, T(C(om, drop, eta), b5), T(mu, i1), mu),
            C(dup, T(C(dup, T(C(om, om), om), mu), b5), T(mu, i1), mu),
            C(dup, T(dup, dup), T(C(om, om), om, i1, om),
              T(C(T(mu, i1), mu), i1), mu),
            C(dup, T(dup, dup), T(C(om, om), om, i1, om),
              T(C(T(i1, mu), mu), i1), mu),
            C(dup, T(dup, i1), T(C(om, om), C(dup, T(om, i1), mu), om),
              T(mu, i1), mu),
            C(dup, T(dup, i1), T(C(om, om), C(drop, eta), om), T(i1, mu), mu),
            C(dup, T(dup, i1), T(C(om, om), drop, om), mu),
            C(dup, T(C(om, om), om), mu),
            C(om, drop, eta),
            C(drop, eta),
        ]),
        ("ZG-claim2-head", group_z, [
            C(T(i1, eta), mu),
            C(dup, whisker(0, C(dup, T(i1, om), mu), 1), mu),
        ]),
        ("ZG-claim2-tail", group_z,
         [C(dup, whisker(0, C(drop, eta), 1), mu), i1]),
    ]


def build_lemmas():
    built = [(name, chain(waypoints, _context(pres), name), pres)
             for name, pres, waypoints in _chains()]
    (_, claim1, pres), (_, head, _), (_, tail, _) = built[-3:]
    ctx = pres.context()
    middle = transport(claim1, 0, 1, op_word(f2()), gen_word(MU), ctx)
    claim2 = head.then(middle).then(tail)
    claim2.replay(ctx)
    return built[:-2] + [("ZG-claim2", claim2, pres)]


def presentation_text(pres: Presentation) -> str:
    lines = [f"generator {g.name} {g.src} {g.tgt}" for g in pres.alphabet]
    lines += [f"relation {print_word(l)} == {print_word(r)}"
              for l, r in pres.relations]
    return "\n".join(lines) + "\n"


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else LEMMA_DIR
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    lemmas = build_lemmas()
    names = [name for name, _, _ in lemmas]
    if names != [name for name, _, _ in LEMMAS]:
        raise SystemExit(f"built {names}, but opwords.fixtures lists "
                         f"{[name for name, _, _ in LEMMAS]}")
    for (name, cert, pres), (_, source, _) in zip(lemmas, LEMMAS):
        ctx = _context(pres)
        cert.replay(ctx)
        cert.reversed().replay(ctx)
        text = encode(cert)
        alphabet = pres.alphabet if pres is not None else GROUP_ALPHABET
        if decode(text, alphabet) != cert:
            raise SystemExit(f"{name}: certificate text does not round-trip")
        (outdir / f"{name}.cert").write_text(text)
        if source is not None and not source.startswith("@"):
            pres_text = presentation_text(pres)
            if parse_presentation(pres_text).context() != ctx:
                raise SystemExit(f"{name}: presentation does not round-trip")
            (outdir / source).write_text(pres_text)
        print(f"{name:20s} {len(cert.steps):3d} steps")
    print(f"{len(lemmas)} certificates built, replayed and written to "
          f"{outdir} in {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
