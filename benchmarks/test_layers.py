"""Per-layer benchmarks, one case per layer of the word calculus.

Run from the repository root (pytest-benchmark is needed):

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # smoke

The inputs are fixed: the maps below, the words along the shipped lemma
certificates (under each lemma's own rule context, or evaluated under the
carrier-3 probe battery), and seeded random carrier-3 functions for the
axiom checks. These cases are not part of the test suite (pytest's
testpaths name tests/ only).
"""

import random
from functools import lru_cache

import pytest

from opwords.alphabet import Alphabet
from opwords.certificate import decode, encode
from opwords.endo import Carrier, FinFunction, check_braiding, check_branching
from opwords.evaluate import eval_word
from opwords.finmap import FinMap, compose, pad, tensor
from opwords.fixtures import lemma_fixtures
from opwords.present import GROUP_ALPHABET
from opwords.rules import RuleBounds, Tally, apply_step, build_m1, moves
from opwords.search import (SearchBudget, _Lane, _lane_bounds,
                            find_refutation, probe_assignments,
                            word_generators)
from opwords.words import Word, gen_word, whisker

F = FinMap(8, 6, (1, 2, 3, 3, 4, 5, 6, 6))
G = FinMap(6, 8, (2, 1, 4, 3, 8, 7))
FAMILIES = ("M1", "M2", "M3", "M4", "REL", "CARD")


@lru_cache(maxsize=1)
def lemma_chains():
    """(fixture, the words along its certificate) per shipped lemma."""
    out = []
    for fx in lemma_fixtures():
        words = [fx.certificate.start]
        for step in fx.certificate.steps:
            words.append(apply_step(words[-1], step, fx.context))
        out.append((fx, words))
    return out


def lemma_words():
    """(word, context) for every word along every shipped certificate."""
    return [(w, fx.context) for fx, words in lemma_chains() for w in words]


def longest_word():
    return max((w for w, _ in lemma_words()), key=len)


def test_finmap_compose(benchmark):
    benchmark(compose, F, G)


def test_finmap_tensor(benchmark):
    benchmark(tensor, F, G)


def test_finmap_pad(benchmark):
    benchmark(pad, 3, F, 2)


def test_word_construction(benchmark):
    w = longest_word()
    benchmark(Word, w.boundaries, w.letters)


def test_word_whisker(benchmark):
    benchmark(whisker, 2, longest_word(), 3)


@pytest.mark.parametrize("family", FAMILIES)
def test_moves(benchmark, family):
    bounds = RuleBounds(seam_cap=8, families=(family,))
    cases = lemma_words()

    def successors():
        return sum(1 for w, ctx in cases for _ in moves(w, ctx, bounds))

    assert benchmark(successors) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_moves_in_lane_bounds(benchmark, family):
    """test_moves with the length and width bounds of a lane of the lemma.

    Successors out of bounds are counted by moves(), not built.
    """
    cases = [(w, fx.context, _lane_bounds(words[0], words[-1],
                                          SearchBudget(), (family,), 8))
             for fx, words in lemma_chains() for w in words]

    def successors():
        tally = Tally()
        built = sum(1 for w, ctx, bounds in cases
                    for _ in moves(w, ctx, bounds, tally))
        return built, tally.pruned

    built, pruned = benchmark(successors)
    assert built + pruned > 0


@lru_cache(maxsize=1)
def certificate_cases():
    """(certificate, its text, its alphabet, its context) per shipped lemma."""
    return [(fx.certificate, encode(fx.certificate),
             Alphabet(word_generators(*words)), fx.context)
            for fx, words in lemma_chains()]


def test_certificate_encode(benchmark):
    cases = certificate_cases()
    texts = benchmark(lambda: [encode(cert) for cert, *_ in cases])
    assert texts == [text for _, text, *_ in cases]


def test_certificate_decode(benchmark):
    cases = certificate_cases()
    certs = benchmark(lambda: [decode(text, alphabet)
                               for _, text, alphabet, _ in cases])
    assert certs == [cert for cert, *_ in cases]


def test_certificate_replay(benchmark):
    cases = certificate_cases()
    ends = benchmark(lambda: [cert.replay(ctx) for cert, _, _, ctx in cases])
    assert ends == [cert.end for cert, *_ in cases]


def test_lane_to_final_cap(benchmark):
    fx = next(f for f in lemma_fixtures() if f.name == "omega-involution")
    cert = fx.certificate

    def run():
        lane = _Lane(cert.start, cert.end, fx.context, SearchBudget(), None,
                     2000, 8)
        lane.advance(2000)
        return lane

    lane = benchmark(run)
    assert lane.done


def test_find_refutation(benchmark):
    # the two sides of an interchange are equal: every probe is evaluated
    mu, omega = GROUP_ALPHABET.lookup("mu"), GROUP_ALPHABET.lookup("omega")
    w, w2 = build_m1(gen_word(mu), gen_word(omega))
    probes = probe_assignments(word_generators(w, w2), SearchBudget())
    assert benchmark(find_refutation, w, w2, probes) is None


@lru_cache(maxsize=1)
def eval_cases():
    """(word, assignment): each shipped-certificate word under each
    assignment of the carrier-3 probe battery."""
    budget = SearchBudget(probe_carriers=(3,))
    return [(w, asg) for w, _ in lemma_words()
            for asg in probe_assignments(word_generators(w), budget)]


def test_eval_word(benchmark):
    cases = eval_cases()
    tables = benchmark(lambda: [eval_word(w, asg) for w, asg in cases])
    assert [t.tgt for t in tables] == [w.tgt for w, _ in cases]


@lru_cache(maxsize=1)
def axiom_cases():
    """(x, x2, a) batches like criterion 2's sampled family: random
    carrier-3 functions of arity <= 2, seeded."""
    rng, z3 = random.Random(0), Carrier(3)

    def function():
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        return FinFunction(z3, m, n, tuple(
            tuple(rng.randrange(3) for _ in range(n)) for _ in range(3 ** m)))

    return [(function(), function(), rng.randint(0, 3)) for _ in range(200)]


def test_axiom_checks(benchmark):
    cases = axiom_cases()
    assert all(benchmark(lambda: [check_braiding(x, x2)
                                  and check_branching(a, x)
                                  for x, x2, a in cases]))
