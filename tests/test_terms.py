"""The free terms of words, and the lane filter and probe skip built on them."""

import random

import pytest

from opwords.alphabet import Alphabet, Generator
from opwords.dsl import parse_word
from opwords.present import GROUP_ALPHABET, builtin_group, builtin_group_Z
from opwords.rules import RuleBounds, RuleContext, moves
from opwords.search import (_KEEPS, SearchBudget, _certificate_search,
                            _differences, _may_connect, find_refutation,
                            probe_assignments, word_generators)
from opwords.terms import word_terms

from conftest import GENS, random_word


def group_word(text):
    return parse_word(text, GROUP_ALPHABET)


@pytest.mark.parametrize("lhs, rhs, same", [
    # interchange, braid naturality, copying and deleting keep the terms
    ("(gen omega * id(1)) . (id(1) * gen omega)",
     "(id(1) * gen omega) . (gen omega * id(1))", True),
    ("braid(1,1) . (gen omega * id(1))", "(id(1) * gen omega) . braid(1,1)",
     True),
    ("gen omega . dup", "dup . (gen omega * gen omega)", True),
    ("gen omega . del", "del", True),
    ("gen eta . del", "id(0)", True),
    # the arguments of mu in the other order, and omega applied twice
    ("gen mu", "braid(1,1) . gen mu", False),
    ("gen omega . gen omega", "id(1)", False),
    ("dup . gen mu", "dup . (gen omega * id(1)) . gen mu", False),
])
def test_same_terms(lhs, rhs, same):
    table = {}
    assert (word_terms(group_word(lhs), table)
            == word_terms(group_word(rhs), table)) is same


def test_terms_are_hash_consed_in_one_table():
    table = {}
    w = group_word("dup . (gen omega * gen omega) . gen mu")
    assert word_terms(w, table) == (2,)
    # x_0, then omega#0(x_0) once for both copies, then mu#0 of it twice
    assert table == {0: 0,
                     (GROUP_ALPHABET.lookup("omega"), 0, (0,)): 1,
                     (GROUP_ALPHABET.lookup("mu"), 0, (1, 1)): 2}
    assert word_terms(group_word("gen omega . dup . gen mu"), table) == (2,)
    assert len(table) == 3


def test_terms_key_the_generator_not_its_name():
    # g : 1 -> 1 against the first output of another g : 1 -> 2
    w = parse_word("gen g", Alphabet((Generator("g", 1, 1),)))
    w2 = parse_word("gen g . (id(1) * del)",
                    Alphabet((Generator("g", 1, 2),)))
    w3 = parse_word("gen g", Alphabet((Generator("g", 1, 1),)))
    table = {}
    assert word_terms(w, table) != word_terms(w2, table)
    assert word_terms(w, table) == word_terms(w3, table)


# ---------------------------------------------------------------------------
# What each rule family keeps

CONTEXTS = {
    "free": (RuleContext(), GENS),
    "@group": (builtin_group().context(), GROUP_ALPHABET.generators),
    "@group-Z": (builtin_group_Z().context(), GROUP_ALPHABET.generators),
}


@pytest.mark.parametrize("name", CONTEXTS)
def test_every_move_keeps_what_its_family_keeps(name):
    # every step of M1-M4 keeps the free terms, M1 the multiset of the
    # letters' generators with their argument terms, and M2/M3 the letters
    # in order, each with its passing strands too; a relation step keeps
    # none of these, and changes the terms often
    ctx, gens = CONTEXTS[name]
    bounds = RuleBounds(a_max=2, pad_max=2, seam_cap=4, max_len=5,
                        max_width=6)
    rng = random.Random(0)
    steps, broken, rel_changed = {}, [], 0
    for _ in range(150):
        w = random_word(rng, max_len=3, gens=gens)
        for step, succ in moves(w, ctx, bounds):
            family = "REL" if step.rule.startswith("REL:") else step.rule
            steps[family] = steps.get(family, 0) + 1
            differ = _differences(w, succ)
            if differ & _KEEPS[family]:
                broken.append((w, step))
            rel_changed += family == "REL" and "terms" in differ
    assert broken == []
    assert all(steps.get(family, 0) > 400 for family in ("M1", "M2", "M3",
                                                         "M4"))
    assert (rel_changed > 500) == bool(ctx.relations)


def test_lane_filter_reads_the_families():
    free, group = RuleContext(), builtin_group().context()
    assert not _may_connect(("M2", "M3"), free, {"sequence"})
    assert _may_connect(("M1",), free, {"sequence"})
    assert not _may_connect(("M1",), free, {"sequence", "multiset"})
    assert _may_connect(("M4",), free, {"sequence", "multiset"})
    assert not _may_connect(("M4",), free, {"terms"})
    # REL keeps nothing when there are relations, and everything without
    assert not _may_connect(None, free, {"terms"})
    assert _may_connect(None, group, {"terms"})
    assert not _may_connect(("REL", "M1"), free, {"sequence", "multiset"})
    assert _may_connect(("REL", "M1"), group, {"sequence", "multiset"})
    assert all(_may_connect(families, ctx, set())
               for families in (("M2", "M3"), ("M4",), ("REL", "M1"),
                                ("M1",), None)
               for ctx in (free, group))


@pytest.mark.parametrize("lhs, rhs, alphabet", [
    # one letter c, passed by 2 strands on the left and by 3 on the right
    ("fm[4->3: 2,1,1,3] . pad(1, gen c, 2) . fm[4->4: 3,2,4,4]",
     "fm[5->3: 2,1,1,3,3] . pad(1, gen c, 3) . fm[4->5: 3,2,4,5]",
     Alphabet(GENS)),
    # omega, omega in both, but the first letter applies to x_0 on the
    # left and to x_1 on the right
    ("(gen omega * id(1)) . (id(1) * gen omega)",
     "(id(1) * gen omega) . (gen omega * id(1))", GROUP_ALPHABET),
])
def test_braid_lane_reads_widths_and_arguments(lhs, rhs, alphabet):
    # the same generators in the same order, yet no M2/M3 move keeps the
    # letters' passing strands or argument terms apart, while interchange
    # may still connect the two
    differ = _differences(parse_word(lhs, alphabet), parse_word(rhs, alphabet))
    assert not _may_connect(("M2", "M3"), RuleContext(), differ)
    assert _may_connect(("M1",), RuleContext(), differ)


def test_different_free_terms_run_no_lane():
    w, w2 = group_word("gen mu"), group_word("braid(1,1) . gen mu")
    assert _certificate_search(w, w2, RuleContext(), SearchBudget()) \
        == (None, 0)
    # modulo the group relations the REL lanes still run
    cert, visited = _certificate_search(w, w2, builtin_group().context(),
                                        SearchBudget(max_steps=200))
    assert cert is None and visited > 0


# ---------------------------------------------------------------------------
# Equal terms mean equal evaluation: what lets `equivalent` skip the probes


def _same_arity_pairs(rng):
    """Random pairs of one arity, then pairs a few moves apart."""
    for _ in range(300):
        w = random_word(rng)
        for _ in range(50):
            w2 = random_word(rng)
            if (w.src, w.tgt) == (w2.src, w2.tgt):
                yield w, w2
                break
    bounds = RuleBounds(seam_cap=2, max_len=4, max_width=5)
    for _ in range(200):
        w = w2 = random_word(rng)
        for _ in range(rng.randint(1, 3)):
            succs = [succ for _, succ in moves(w2, RuleContext(), bounds)]
            if not succs:
                break
            w2 = rng.choice(succs)
        yield w, w2


def test_equal_terms_are_never_refuted():
    counts = {True: [0, 0], False: [0, 0]}   # same terms -> [pairs, refuted]
    for w, w2 in _same_arity_pairs(random.Random(2)):
        probes = probe_assignments(word_generators(w, w2), SearchBudget())
        refuted = find_refutation(w, w2, probes) is not None
        table = {}
        tally = counts[word_terms(w, table) == word_terms(w2, table)]
        tally[0] += 1
        tally[1] += refuted
    pairs, refuted = counts[True]
    assert pairs > 250 and refuted == 0
    # on this sample the battery also separates every pair whose terms
    # differ: the probes tell apart exactly the pairs the terms do
    pairs, refuted = counts[False]
    assert pairs > 150 and refuted == pairs
