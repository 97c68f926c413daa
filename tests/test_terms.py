"""The free terms of words, and the lane filter and probe skip built on them."""

import random

import pytest

from opwords.alphabet import Alphabet, Generator
from opwords.dsl import parse_word
from opwords.present import GROUP_ALPHABET, builtin_group, builtin_group_Z
from opwords.rules import RuleBounds, RuleContext, build_m1, moves
from opwords.search import (_KEEPS, SearchBudget, Unknown,
                            _certificate_search, _differences, _may_connect,
                            equivalent, find_refutation, probe_assignments,
                            word_generators)
from opwords.terms import live_order, read_word
from opwords.words import gen_word

from conftest import GENS, random_word

F, K, MU = Generator("f", 1, 1), Generator("k", 1, 0), Generator("mu", 2, 1)
FKMU = Alphabet((F, K, MU))


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
    assert (read_word(group_word(lhs), table)[0]
            == read_word(group_word(rhs), table)[0]) is same


def test_terms_are_hash_consed_in_one_table():
    table = {}
    w = group_word("dup . (gen omega * gen omega) . gen mu")
    assert read_word(w, table)[0] == (2,)
    # x_0, then omega#0(x_0) once for both copies, then mu#0 of it twice
    assert table == {0: 0,
                     (GROUP_ALPHABET.lookup("omega"), 0, (0,)): 1,
                     (GROUP_ALPHABET.lookup("mu"), 0, (1, 1)): 2}
    assert read_word(group_word("gen omega . dup . gen mu"), table)[0] == (2,)
    assert len(table) == 3


def test_terms_key_the_generator_not_its_name():
    # g : 1 -> 1 against the first output of another g : 1 -> 2
    w = parse_word("gen g", Alphabet((Generator("g", 1, 1),)))
    w2 = parse_word("gen g . (id(1) * del)",
                    Alphabet((Generator("g", 1, 2),)))
    w3 = parse_word("gen g", Alphabet((Generator("g", 1, 1),)))
    table = {}
    assert read_word(w, table)[0] != read_word(w2, table)[0]
    assert read_word(w, table)[0] == read_word(w3, table)[0]


# ---------------------------------------------------------------------------
# The live order


@pytest.mark.parametrize("text, live", [
    # a letter whose output is deleted is dead
    ("gen f . del", []),
    ("(gen f * gen f) . (id(1) * del)", [0]),
    # the first f feeds only the second, whose output is deleted
    ("(gen f * id(1)) . (gen f * id(1)) . (del * gen f)", [2]),
    ("gen f . gen f", [0, 1]),
    # a letter with no outputs is dead, and so is what feeds it
    ("gen k", []),
    ("gen f . gen k", []),
    ("gen k * gen f", [1]),
    # mu reads two live copies of f(x_0), written once
    ("dup . (gen f * gen f) . gen mu", [0, 2]),
])
def test_live_letters(text, live):
    # the live order is the keys of the letters listed in `live`
    w = parse_word(text, FKMU)
    keys = read_word(w, {})[1]
    assert live_order(w, keys) == tuple(keys[i] for i in live)


@pytest.mark.parametrize("text, order_len", [
    # two copies of f on x_0 side by side are written once
    ("dup . (gen f * gen f)", 1),
    ("fm[3->2: 1,1,2] . (gen f * gen f * gen f)", 2),
    # f on x_0, then on x_1, then on x_0 again: no run to merge
    ("fm[3->2: 1,2,1] . (gen f * gen f * gen f)", 3),
    # a dead letter between two copies leaves them adjacent
    ("fm[3->2: 1,2,1] . (gen f * gen k * gen f)", 1),
])
def test_live_order_writes_runs_of_equal_keys_once(text, order_len):
    w = parse_word(text, FKMU)
    assert len(live_order(w, read_word(w, {})[1])) == order_len


# ---------------------------------------------------------------------------
# What each rule family keeps

CONTEXTS = {
    # letters with no inputs, no outputs and two outputs, and wider ones
    "free": (RuleContext(), GENS + (K, Generator("s", 2, 2))),
    "@group": (builtin_group().context(), GROUP_ALPHABET.generators),
    "@group-Z": (builtin_group_Z().context(), GROUP_ALPHABET.generators),
}


@pytest.mark.parametrize("name", CONTEXTS)
def test_every_move_keeps_what_its_family_keeps(name):
    # every step of M1-M4 keeps the free terms, M1 the multiset of the
    # letters' generators with their argument terms, M2/M3 the letters in
    # order, each with its passing strands too, and M2-M4 the order of the
    # live letters; a relation step keeps none of these, and changes the
    # terms often
    ctx, gens = CONTEXTS[name]
    bounds = RuleBounds(a_max=2, pad_max=2, seam_cap=4, max_len=5,
                        max_width=6)
    rng = random.Random(0)
    steps, broken, rel_changed = {}, [], 0
    for _ in range(150):
        w = random_word(rng, max_len=4, gens=gens)
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
    # only M1 (and REL, with relations) changes the order of live letters
    assert not _may_connect(("M4",), free, {"order"})
    assert not _may_connect(("M4",), group, {"order"})
    assert not _may_connect(("M2", "M3"), free, {"order"})
    assert _may_connect(("M1",), free, {"sequence", "order"})
    assert _may_connect(None, free, {"sequence", "multiset", "order"})
    assert not _may_connect(("REL", "M1"), free, {"multiset", "order"})
    assert _may_connect(("REL", "M1"), group, {"multiset", "order"})
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


def test_interchange_of_live_letters_skips_the_m4_lane(built_lanes):
    # two live letters swapped: only M1 can reorder them, so the M2/M3 and
    # M4 lanes are skipped and the M1 and final lanes run
    for v2 in (gen_word(MU), gen_word(F)):
        lhs, rhs = build_m1(gen_word(MU), v2)
        assert _differences(lhs, rhs) == {"sequence", "order"}
    lhs, rhs = build_m1(gen_word(MU), gen_word(MU))
    outcome = equivalent(lhs, rhs, budget=SearchBudget(max_steps=50))
    assert built_lanes == [(("M1",), 2, 2), (None, 64, 2)]
    assert outcome == Unknown(4)


def test_interchange_past_a_dead_letter_builds_the_m4_lane(built_lanes):
    # k has no outputs, and f's output is deleted: either way the swapped
    # letter is dead, both words have the one live letter mu, and the M4
    # lane, which may delete the dead letter, runs before the M1 lane
    # proves the pair
    dead = (gen_word(K), parse_word("gen f . del", FKMU))
    for v2 in dead:
        lhs, rhs = build_m1(gen_word(MU), v2)
        assert _differences(lhs, rhs) == {"sequence"}
    lhs, rhs = build_m1(gen_word(MU), dead[0])
    outcome = equivalent(lhs, rhs, budget=SearchBudget(max_steps=200))
    assert built_lanes == [(("M4",), 2, 64), (("M1",), 2, 6)]
    assert [step.rule for step in outcome.certificate.steps] == ["M1"]


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
        tally = counts[read_word(w, table)[0] == read_word(w2, table)[0]]
        tally[0] += 1
        tally[1] += refuted
    pairs, refuted = counts[True]
    assert pairs > 250 and refuted == 0
    # on this sample the battery also separates every pair whose terms
    # differ: the probes tell apart exactly the pairs the terms do
    pairs, refuted = counts[False]
    assert pairs > 150 and refuted == pairs
