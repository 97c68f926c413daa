"""Per-layer benchmarks, one case per layer of the word calculus.

Run from the repository root (pytest-benchmark is needed):

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # smoke

The inputs are fixed: the maps below and the words along the shipped lemma
certificates, under each lemma's own rule context. These cases are not part
of the test suite (pytest's testpaths name tests/ only).
"""

from functools import lru_cache

import pytest

from opwords.finmap import FinMap, compose, pad, tensor
from opwords.fixtures import lemma_fixtures
from opwords.present import GROUP_ALPHABET
from opwords.rules import RuleBounds, apply_step, build_m1, moves
from opwords.search import (SearchBudget, _Lane, find_refutation,
                            probe_assignments, word_generators)
from opwords.words import Word, gen_word, whisker

F = FinMap(8, 6, (1, 2, 3, 3, 4, 5, 6, 6))
G = FinMap(6, 8, (2, 1, 4, 3, 8, 7))
FAMILIES = ("M1", "M2", "M3", "M4", "REL", "CARD")


@lru_cache(maxsize=1)
def lemma_words():
    """(word, context) for every word along every shipped certificate."""
    out = []
    for fx in lemma_fixtures():
        w = fx.certificate.start
        out.append((w, fx.context))
        for step in fx.certificate.steps:
            w = apply_step(w, step, fx.context)
            out.append((w, fx.context))
    return out


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

    def successors():
        return sum(1 for w, ctx in lemma_words()
                   for _ in moves(w, ctx, bounds))

    assert benchmark(successors) > 0


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
