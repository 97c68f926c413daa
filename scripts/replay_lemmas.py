#!/usr/bin/env python3
"""Regenerate the built-in lemma certificates shipped in src/opwords/lemmas.

Each chain follows an equational proof line by line: its waypoint words are
connected by small bounded searches, so the certificates depend on the
search. Every certificate is replayed forwards and backwards and decoded
back from its text before it is written as <name>.cert. The conditional
lemmas (uniqueness of the unit and of the inverse) extend the alphabet with
a fresh symbol and add the hypothesis as relation 5; that context is written
as <name>.pres in the presentation file format.

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
from opwords.finmap import compose, f0, f2, identity, pad, tensor
from opwords.fixtures import LEMMAS
from opwords.present import (ETA, GROUP_ALPHABET, MU, OMEGA, Presentation,
                             builtin_group, builtin_group_Z, group_relations,
                             parse_presentation)
from opwords.rules import RewriteStep, RuleContext, apply_step, step_sides
from opwords.search import SearchBudget, _certificate_search, word_width
from opwords.words import (Word, compose_many, gen_word, identity_word,
                           op_word, tensor_many_words, whisker)

LEMMA_DIR = (Path(__file__).resolve().parent.parent / "src" / "opwords"
             / "lemmas")


def connect(a: Word, b: Word, ctx: RuleContext, name: str = "") -> Certificate:
    """A certificate for one hop between adjacent waypoints."""
    if a == b:
        return Certificate(a, (), b)
    width = max(word_width(a), word_width(b)) + 2
    max_len = max(len(a), len(b)) + 3
    for max_steps in (4_000, 60_000, 400_000):
        budget = SearchBudget(max_steps=max_steps, max_width=width,
                              max_word_len=max_len)
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
        elif st.rule == "CARD":
            raise OpwordsError("CARD steps do not transport through whiskering")
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
# The chains. Waypoints follow the equational proofs line by line; lines that
# are equal as words collapse to zero-step hops. Each builder appends
# (name, certificate, presentation), where the presentation is None for the
# free calculus with collapse moves.

C = compose_many
T = tensor_many_words


def _vocab():
    return (gen_word(MU), gen_word(ETA), gen_word(OMEGA), identity_word(1),
            op_word(f2()), op_word(f0()))


def _context(pres):
    return pres.context() if pres is not None else RuleContext(allow_card=True)


def _map_identities(out):
    mu, eta, om, i1, dup, drop = _vocab()
    ctx = _context(None)
    pairs = [
        ("dup-assoc", C(dup, T(dup, i1)), C(dup, T(i1, dup))),
        ("dup-assoc-square",
         C(dup, T(dup, dup)), C(dup, T(dup, i1), T(i1, dup, i1))),
        ("dup-counit", C(dup, T(drop, i1)), C(dup, T(i1, drop))),
        ("omega-split-dup", C(dup, T(om, om)), C(om, dup)),
        ("omega-drop", C(om, drop), drop),
    ]
    for name, lhs, rhs in pairs:
        out.append((name, chain([lhs, rhs], ctx, name), None))


def _hypothesis(symbol: Generator, lhs: Word, rhs: Word) -> Presentation:
    return Presentation(GROUP_ALPHABET.extend(symbol),
                        group_relations() + ((lhs, rhs),))


def _eta_unique(out):
    mu, eta, om, i1, dup, drop = _vocab()
    eta2_g = Generator("eta2", 0, 1)
    eta2 = gen_word(eta2_g)
    pres = _hypothesis(eta2_g, C(T(eta2, i1), mu), i1)
    waypoints = [
        eta2,
        C(eta2, T(i1, eta), mu),
        C(eta, T(eta2, i1), mu),
        eta,
    ]
    out.append(("eta-unique",
                chain(waypoints, pres.context(), "eta-unique"), pres))


def _omega_unique(out):
    mu, eta, om, i1, dup, drop = _vocab()
    om2_g = Generator("omega2", 1, 1)
    om2 = gen_word(om2_g)
    pres = _hypothesis(om2_g, C(dup, T(om2, i1), mu), C(drop, eta))
    b_inner = C(dup, T(i1, om), mu)
    waypoints = [
        om2,
        C(dup, T(om2, drop)),
        C(dup, T(om2, drop), T(i1, eta), mu),
        C(dup, T(om2, i1), T(i1, b_inner), mu),
        C(dup, op_word(tensor(identity(1), f2())), T(om2, i1, om),
          T(i1, mu), mu),
        C(dup, op_word(tensor(f2(), identity(1))), T(om2, i1, om),
          T(mu, i1), mu),
        C(dup, T(C(dup, T(om2, i1), mu), om), mu),
        C(dup, T(C(drop, eta), om), mu),
        C(om, T(eta, i1), mu),
        om,
    ]
    out.append(("omega-unique",
                chain(waypoints, pres.context(), "omega-unique"), pres))


def _eta_omega(out):
    mu, eta, om, i1, dup, drop = _vocab()
    pres = builtin_group()
    waypoints = [
        C(eta, om),
        C(eta, om, T(i1, eta), mu),
        C(T(eta, eta), T(om, i1), mu),
        C(eta, dup, T(om, i1), mu),
        C(eta, drop, eta),
        eta,
    ]
    out.append(("eta-omega", chain(waypoints, pres.context(), "eta-omega"),
                pres))


def _omega_involution(out):
    mu, eta, om, i1, dup, drop = _vocab()
    pres = builtin_group()
    waypoints = [
        C(om, om),
        C(om, om, T(i1, eta), mu),
        C(dup, op_word(tensor(identity(1), f2())), T(C(om, om), om, i1),
          T(i1, mu), mu),
        C(dup, op_word(tensor(f2(), identity(1))), T(C(om, om), om, i1),
          T(mu, i1), mu),
        C(dup, op_word(tensor(f2(), identity(1))), T(om, om, i1),
          T(om, i1, i1), T(mu, i1), mu),
        C(dup, T(C(om, dup), i1), T(om, i1, i1), T(mu, i1), mu),
        C(dup, T(om, i1), T(C(dup, T(om, i1), mu), i1), mu),
        C(dup, T(om, i1), T(C(drop, eta), i1), mu),
        C(T(eta, i1), mu),
        i1,
    ]
    out.append(("omega-involution",
                chain(waypoints, pres.context(), "omega-involution"), pres))


def _zg_claims(out):
    mu, eta, om, i1, dup, drop = _vocab()
    pres = builtin_group_Z()
    ctx = pres.context()
    b5 = C(dup, T(i1, om))
    claim1_waypoints = [
        C(dup, T(i1, om), mu),
        C(dup, op_word(tensor(f0(), f2())), T(C(T(eta, i1), mu), om), mu),
        C(dup, op_word(tensor(f0(), f2())), T(eta, i1, om), T(mu, i1), mu),
        C(dup, T(C(drop, eta), b5), T(mu, i1), mu),
        C(dup, T(C(om, drop, eta), b5), T(mu, i1), mu),
        C(dup, T(C(om, dup, T(om, i1), mu), b5), T(mu, i1), mu),
        C(dup, T(C(dup, T(om, om), T(om, i1), mu), b5), T(mu, i1), mu),
        C(dup, T(C(dup, T(C(om, om), om), mu), b5), T(mu, i1), mu),
        C(dup, op_word(tensor(f2(), f2())), T(C(om, om), om, i1, om),
          T(C(T(mu, i1), mu), i1), mu),
        C(dup, op_word(tensor(f2(), f2())), T(C(om, om), om, i1, om),
          T(C(T(i1, mu), mu), i1), mu),
        C(dup, op_word(tensor(f2(), identity(1))),
          T(C(om, om), C(dup, T(om, i1), mu), om), T(mu, i1), mu),
        C(dup, op_word(tensor(f2(), identity(1))),
          T(C(om, om), C(drop, eta), om), T(mu, i1), mu),
        C(dup, op_word(tensor(f2(), identity(1))),
          T(C(om, om), C(drop, eta), om), T(i1, mu), mu),
        C(dup, op_word(tensor(f2(), identity(1))), T(C(om, om), drop, om),
          mu),
        C(dup, T(C(om, om), om), mu),
        C(dup, T(om, om), T(om, i1), mu),
        C(om, dup, T(om, i1), mu),
        C(om, drop, eta),
        C(drop, eta),
    ]
    claim1 = chain(claim1_waypoints, ctx, "ZG-claim1")
    out.append(("ZG-claim1", claim1, pres))

    t_start = C(dup, whisker(0, claim1.start, 1), mu)
    t_end = C(dup, whisker(0, claim1.end, 1), mu)
    head = chain([
        C(T(i1, eta), mu),
        C(dup, T(i1, C(dup, T(om, i1), mu)), mu),
        t_start,
    ], ctx, "ZG-claim2-head")
    middle = transport(claim1, 0, 1, dup, mu, ctx)
    tail = chain([t_end, i1], ctx, "ZG-claim2-tail")
    claim2 = head.then(middle).then(tail)
    claim2.replay(ctx)
    out.append(("ZG-claim2", claim2, pres))


def build_lemmas():
    out = []
    for build in (_map_identities, _eta_unique, _omega_unique, _eta_omega,
                  _omega_involution, _zg_claims):
        build(out)
    return out


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
