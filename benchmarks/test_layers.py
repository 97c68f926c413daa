"""Per-layer benchmarks, one case per layer of the word calculus.

Run from the repository root (pytest-benchmark is needed):

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # smoke

The inputs are fixed: the maps below, the words along the shipped lemma
certificates (under each lemma's own rule context, or evaluated under the
carrier-3 probe battery), the shipped and built-in presentations and small
groups' tables as file text for the file readers, and seeded random
carrier-3 functions for the axiom checks. These cases are not part of the
test suite (pytest's testpaths name tests/ only).
"""

import operator
import random
from functools import lru_cache

import pytest

from opwords.alphabet import Alphabet
from opwords.certificate import decode, encode
from opwords.cli import load_assignment
from opwords.dsl import print_word
from opwords.endo import Carrier, FinFunction, check_braiding, check_branching
from opwords.evaluate import eval_word
from opwords import finmap, rules
from opwords.finmap import FinMap, compose, pad, tensor
from opwords.fixtures import LEMMAS, _read, lemma_fixtures
from opwords.present import (GROUP_ALPHABET, algebra_from_group, builtin_group,
                             builtin_group_Z, cyclic_group, equivalent_mod,
                             parse_presentation, symmetric_group_3)
from opwords.rules import RuleBounds, Tally, apply_step, build_m1, moves
from opwords.search import (Proved, SearchBudget, _Lane, _cached_battery,
                            _lane_bounds, find_refutation, probe_assignments,
                            word_generators)
from opwords.terms import read_word
from opwords.words import (Word, compose_many, gen_word, standard_decomposition,
                            whisker)

F = FinMap(8, 6, (1, 2, 3, 3, 4, 5, 6, 6))
G = FinMap(6, 8, (2, 1, 4, 3, 8, 7))
FAMILIES = ("M1", "M2", "M3", "M4", "REL")


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


def test_finmap_existing(benchmark):
    # F is live, so the validating constructor returns it from the weak table
    assert benchmark(FinMap, 8, 6, F.table) is F


def test_word_construction(benchmark):
    w = longest_word()
    benchmark(Word, w.boundaries, w.letters)


def test_word_whisker(benchmark):
    benchmark(whisker, 2, longest_word(), 3)


def test_word_equality(benchmark):
    # two equal words built apart: every map and tuple rebuilt
    w = longest_word()
    w2 = compose_many(*standard_decomposition(w))
    assert w2 is not w and w2.boundaries is not w.boundaries
    assert benchmark(operator.eq, w, w2)


def test_read_word(benchmark):
    # a fresh table each round, so every term is interned anew
    w = longest_word()
    terms = benchmark(lambda: read_word(w, {})[0])
    assert len(terms) == w.tgt


@pytest.mark.parametrize("family", FAMILIES)
def test_moves(benchmark, family):
    bounds = RuleBounds(seam_cap=8, families=(family,))
    cases = lemma_words()

    def successors():
        return sum(1 for w, ctx in cases for _ in moves(w, ctx, bounds))

    assert benchmark(successors) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_moves_along_a_chain(benchmark, family):
    """test_moves along each lemma's chain, on rules caches warm from the
    same chains, as a search finds them warm from its earlier lanes and
    queries."""
    bounds = RuleBounds(seam_cap=8, families=(family,))
    chains = lemma_chains()

    def successors():
        return sum(1 for fx, words in chains for w in words
                   for _ in moves(w, fx.context, bounds))

    warm = successors()
    assert benchmark(successors) == warm


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


@lru_cache(maxsize=1)
def presentation_cases():
    """(presentation file text, its relations): the shipped lemma
    presentations, and @group and @group-Z written out as files."""
    cases = [(_read(source), fx.context.relations)
             for (_, source, _), fx in zip(LEMMAS, lemma_fixtures())
             if source is not None and source.endswith(".pres")]
    for pres in (builtin_group(), builtin_group_Z()):
        lines = [f"generator {g.name} {g.src} {g.tgt}" for g in pres.alphabet]
        lines += [f"relation {print_word(lhs)} == {print_word(rhs)}"
                  for lhs, rhs in pres.relations]
        cases.append(("\n".join(lines) + "\n", pres.relations))
    return cases


def test_presentation_parse(benchmark):
    cases = presentation_cases()
    parsed = benchmark(lambda: [parse_presentation(text)
                                for text, _ in cases])
    assert [p.relations for p in parsed] == [rels for _, rels in cases]


@lru_cache(maxsize=1)
def assignment_cases():
    """(assignment, its file text) for the cyclic groups of order 2 to 5
    and the symmetric group S3 as (mu, eta, omega) tables."""
    cases = []
    for tables in (*map(cyclic_group, range(2, 6)), symmetric_group_3()):
        asg = algebra_from_group(tables)
        lines = [f"carrier {tables.size}"]
        for g, fn in asg.functions.items():
            lines += [f"gen {g.name}", *fn.rows()]
        cases.append((asg, "\n".join(lines) + "\n"))
    return cases


def test_assignment_load(benchmark, tmp_path):
    paths = []
    for i, (_, text) in enumerate(assignment_cases()):
        paths.append(tmp_path / f"{i}.assign")
        paths[-1].write_text(text)
    loaded = benchmark(lambda: [load_assignment(str(path), None)
                                for path in paths])
    assert loaded == [asg for asg, _ in assignment_cases()]


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


def short_step_query():
    """eta-omega's M1 step under @group as an equivalent_mod query that
    searches: one short lemma step, like those of lemma_search."""
    words = next(words for fx, words in lemma_chains()
                 if fx.name == "eta-omega")
    pres = builtin_group()
    return lambda: equivalent_mod(words[1], words[2], pres,
                                  SearchBudget(max_steps=1000),
                                  consult_builtin=False)


def test_query_warm_memo(benchmark):
    """One short step, with the rules caches warm from the query before."""
    ask = short_step_query()
    ask()
    assert isinstance(benchmark(ask), Proved)


def clear_rules_caches():
    """Empty every cache of move generation (the lru_caches that rules
    defines; finmap's identity, which rules imports, stays)."""
    for name, f in vars(rules).items():
        if hasattr(f, "cache_clear") and f is not getattr(finmap, name, None):
            f.cache_clear()


def test_query_cold_memo(benchmark):
    """One short step, with every rules cache emptied before each round."""
    result = benchmark.pedantic(short_step_query(),
                                setup=clear_rules_caches, rounds=200)
    assert isinstance(result, Proved)


def test_find_refutation(benchmark):
    # the two sides of an interchange are equal: every probe is evaluated
    mu, omega = GROUP_ALPHABET.lookup("mu"), GROUP_ALPHABET.lookup("omega")
    w, w2 = build_m1(gen_word(mu), gen_word(omega))
    probes = probe_assignments(word_generators(w, w2), SearchBudget())
    assert benchmark(find_refutation, w, w2, probes) is None


@pytest.mark.parametrize("size", (2, 3))
def test_probe_assignments(benchmark, size):
    """The battery built afresh: its cache is emptied before each round."""
    gens = word_generators(*(w for w, _ in lemma_words()))
    budget = SearchBudget(probe_carriers=(size,))
    probes = benchmark.pedantic(probe_assignments, (gens, budget),
                                setup=_cached_battery.cache_clear,
                                rounds=200)
    assert len(probes) == 3 + budget.probe_assignments


def test_dump_rows(benchmark):
    # 2^16 rows of 4 inputs and 3 outputs on carrier 16
    rng, c = random.Random(0), Carrier(16)
    f = FinFunction(c, 4, 3, tuple(
        tuple(rng.randrange(16) for _ in range(3)) for _ in range(16 ** 4)))
    assert benchmark(lambda: sum(1 for _ in f.rows())) == 2 ** 16


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
