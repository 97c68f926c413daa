import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from opwords import rules
from opwords.alphabet import Alphabet, Generator
from opwords.certificate import encode
from opwords.dsl import parse_word
from opwords.endo import Carrier, tabulate
from opwords.evaluate import eval_word
from opwords.finmap import braid, branch
from opwords.fixtures import lemma_fixtures
from opwords.present import builtin_group, equivalent_mod
from opwords.rules import RuleBounds, RuleContext, apply_step, build_m1, moves
from opwords.search import (_CACHED_BATTERY_VALUES, Disproved, Proved,
                            SearchBudget, Unknown, Witness, _Lane,
                            _cached_battery, _constant, _cyclic_project,
                            _lane_bounds, _search_pass, _shift_sum,
                            equivalent, find_refutation, probe_assignments,
                            probe_fields, validate_witness, word_generators)
from opwords.words import (compose_many, compose_words, gen_word,
                           identity_word, op_word, tensor_power, whisker)

from conftest import (GENS, arity_outcome, clear_rules_caches, random_word,
                      rules_caches)

MU = Generator("mu", 2, 1)


class TestTrivial:
    def test_reflexive(self, rng):
        w = random_word(rng)
        res = equivalent(w, w)
        assert isinstance(res, Proved)
        assert res.certificate.steps == ()

    def test_arity_mismatch(self):
        res = equivalent(identity_word(1), identity_word(2))
        assert isinstance(res, Disproved)
        assert res.witness.kind == "arity"


def _tabulated_probe(maker, c, m, n):
    """The probe table `maker` stands for, built row by row by tabulate."""
    if maker is _cyclic_project and m:
        return tabulate(c, m, n, lambda xs: tuple(xs[j % m] for j in range(n)))
    if maker is _shift_sum and c.size:
        return tabulate(c, m, n, lambda xs: tuple((sum(xs) + j) % c.size
                                                  for j in range(n)))
    if maker is _shift_sum:
        return tabulate(c, m, n, lambda xs: ())
    return tabulate(c, m, n, lambda xs: (0,) * n)


def test_probe_tables_match_the_tabulated_ones():
    # every carrier 0-3 and arity 0-3, so every case, valid or refused
    for size, m, n in itertools.product(range(4), repeat=3):
        c = Carrier(size)
        for maker in (_cyclic_project, _constant, _shift_sum):
            got = arity_outcome(lambda: maker(c, m, n))
            want = arity_outcome(lambda: _tabulated_probe(maker, c, m, n))
            assert got == want, (maker.__name__, size, m, n)


BATTERY_GENS = [(), (MU,), GENS, (Generator("k", 0, 0),),
                (Generator("y", 3, 0), Generator("z", 0, 2))]


class TestProbeBatteryCache:
    @pytest.mark.parametrize("carriers", [(2, 3), (0,), (1, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_cached_battery_is_the_fresh_build(self, carriers, seed):
        budget = SearchBudget(probe_carriers=carriers, seed=seed)
        _cached_battery.cache_clear()
        for gens in BATTERY_GENS:
            fresh = _cached_battery.__wrapped__(gens, probe_fields(budget))
            assert probe_assignments(gens, budget) == list(fresh)
            assert probe_assignments(gens, budget) == list(fresh)
        assert _cached_battery.cache_info()[:2] == (len(BATTERY_GENS),) * 2

    def test_each_call_gets_its_own_list(self):
        gens = (MU,)
        first = probe_assignments(gens, SearchBudget())
        want = list(first)
        first.clear()
        second = probe_assignments(gens, SearchBudget())
        assert second == want != [] and second is not first
        second.pop()
        assert probe_assignments(gens, SearchBudget()) == want

    def test_only_the_generators_and_probe_fields_key_the_battery(self):
        _cached_battery.cache_clear()
        base = probe_assignments((MU,), SearchBudget(max_steps=10, seed=5))
        same = probe_assignments((MU,), SearchBudget(max_steps=900,
                                                     max_word_len=3, seed=5))
        assert _cached_battery.cache_info()[:2] == (1, 1)   # hits, misses
        assert same == base
        assert all(a is b for a, b in zip(same, base))
        probe_assignments((MU,), SearchBudget(seed=6))
        probe_assignments(GENS, SearchBudget(seed=5))
        probe_assignments((MU,), SearchBudget(probe_carriers=[2, 3], seed=5))
        assert _cached_battery.cache_info()[:2] == (2, 3)

    def test_a_wide_battery_is_built_on_every_call(self):
        # 8 tables of 2^12 rows on carrier 2: 32,768 values
        gens, budget = (Generator("h", 12, 1),), SearchBudget(
            probe_carriers=(2,))
        _cached_battery.cache_clear()
        probe_assignments((MU,), budget)
        before = _cached_battery.cache_info()
        first = probe_assignments(gens, budget)
        again = probe_assignments(gens, budget)
        assert _cached_battery.cache_info() == before
        assert len(first) == 8 and first == again
        assert not any(a is b for a, b in zip(first, again))
        assert sum(len(col) for a in first for f in a.functions.values()
                   for col in f.columns) == 32_768 > _CACHED_BATTERY_VALUES


class TestDisproved:
    def test_mu_vs_swapped_mu(self):
        mu = gen_word(MU)
        swapped = compose_words(op_word(braid(1, 1)), mu)
        res = equivalent(mu, swapped)
        assert isinstance(res, Disproved)
        wit = res.witness
        assert wit.kind == "evaluation"
        assert validate_witness(mu, swapped, wit)
        t1, t2 = eval_word(mu, wit.assignment), eval_word(swapped, wit.assignment)
        assert t1(wit.input_tuple) != t2(wit.input_tuple)

    def test_generators_that_share_a_name(self):
        # g : 1 -> 1 against the first output of another g : 1 -> 2: each
        # gets its own probe table
        w = parse_word("gen g", Alphabet((Generator("g", 1, 1),)))
        w2 = parse_word("gen g . (id(1) * del)",
                        Alphabet((Generator("g", 1, 2),)))
        assert word_generators(w2, w) == (Generator("g", 1, 1),
                                          Generator("g", 1, 2))
        res = equivalent(w, w2)
        assert isinstance(res, Disproved)
        assert validate_witness(w, w2, res.witness)

    def test_witness_is_first_differing_row(self, rng):
        refuted = 0
        for _ in range(300):
            w, w2 = random_word(rng), random_word(rng)
            if (w.src, w.tgt) != (w2.src, w2.tgt):
                continue
            probes = probe_assignments(word_generators(w, w2), SearchBudget())
            expected = None
            for asg in probes:
                t1, t2 = eval_word(w, asg), eval_word(w2, asg)
                rows = [xs for xs in asg.carrier.tuples(w.src)
                        if t1(xs) != t2(xs)]
                if rows:
                    xs = rows[0]
                    expected = Witness("evaluation", asg, xs, (t1(xs), t2(xs)))
                    break
            assert find_refutation(w, w2, probes) == expected
            refuted += expected is not None
        assert refuted > 10


class TestProved:
    def test_interchange_small(self, rng):
        for _ in range(8):
            w = random_word(rng, max_len=1)
            w2 = random_word(rng, max_len=1)
            lhs, rhs = build_m1(w, w2)
            res = equivalent(lhs, rhs)
            assert isinstance(res, Proved)
            res.certificate.replay(RuleContext())

    def test_certificate_reverse_replays(self, rng):
        for _ in range(6):
            w = random_word(rng, max_len=1)
            w2 = random_word(rng, max_len=1)
            lhs, rhs = build_m1(w, w2)
            res = equivalent(lhs, rhs)
            if isinstance(res, Proved):
                rev = res.certificate.reversed()
                assert rev.start == rhs and rev.end == lhs
                rev.replay(RuleContext())

    def test_branch_zero(self):
        w = gen_word(MU)
        lhs = compose_words(op_word(branch(0, w.src)), tensor_power(w, 0))
        rhs = compose_words(w, op_word(branch(0, w.tgt)))
        res = equivalent(lhs, rhs)
        assert isinstance(res, Proved)

    def test_determinism(self, rng):
        w = random_word(rng, max_len=1)
        w2 = random_word(rng, max_len=1)
        lhs, rhs = build_m1(w, w2)
        r1 = equivalent(lhs, rhs)
        r2 = equivalent(lhs, rhs)
        assert isinstance(r1, Proved) and isinstance(r2, Proved)
        assert encode(r1.certificate) == encode(r2.certificate)


class TestUnknown:
    def test_budget_exhaustion_is_honest(self):
        # equal terms, so every lane may run, but merging the three copied
        # letters takes three M4 steps, more than a budget of 50 reaches
        a, b, c = (Generator("a", 2, 1), Generator("b", 1, 1),
                   Generator("c", 1, 1))
        alphabet = Alphabet((a, b, c))
        w = parse_word("dup . (gen c * gen c) . (gen b * gen b) "
                       ". (gen c * gen c) . gen a", alphabet)
        w2 = parse_word("gen c . gen b . gen c . dup . gen a", alphabet)
        res = equivalent(w, w2, SearchBudget(max_steps=50,
                                             probe_carriers=(),
                                             probe_assignments=0))
        assert isinstance(res, Unknown)
        # the letters differ in generators, so only the M4 and
        # all-families lanes run, and the M4 lane's floor of 64 visited
        # words can overshoot a tiny budget slightly
        assert 0 < res.visited < 200
        assert isinstance(equivalent(w, w2, SearchBudget(max_steps=5000)),
                          Proved)

    def test_different_terms_run_no_lane(self):
        # a free generator vs an unrelated compound: their terms differ,
        # so no lane can connect them, and with no probe nothing refutes
        a = Generator("a", 1, 1)
        b = Generator("b", 1, 1)
        w = gen_word(a)
        w2 = compose_words(gen_word(b), gen_word(b))
        res = equivalent(w, w2, SearchBudget(max_steps=50,
                                             probe_carriers=(),
                                             probe_assignments=0))
        assert res == Unknown(0)


# ---------------------------------------------------------------------------
# The search schedule: resumable lanes and schedule-independent outcomes

LANES = (("M2", "M3"), ("M4",), ("REL", "M1"), ("M1",), None)


def _walk(rng, w, ctx, steps):
    """The end of a random chain of up to `steps` moves from w."""
    bounds = RuleBounds(seam_cap=2)
    for _ in range(steps):
        succs = [succ for _, succ in moves(w, ctx, bounds)]
        if not succs:
            break
        w = rng.choice(succs)
    return w


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lane_resumption_is_exact(data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if data.draw(st.booleans(), label="modulo @group"):
        group = builtin_group()
        ctx, gens = group.context(), group.alphabet.generators
    else:
        ctx, gens = RuleContext(), GENS
    w = random_word(rng, max_len=2, gens=gens)
    if data.draw(st.booleans(), label="connected pair"):
        w2 = _walk(rng, w, ctx, rng.randint(1, 3))
    else:
        w2 = random_word(rng, max_len=2, gens=gens)
    families = data.draw(st.sampled_from(LANES), label="families")
    seam_cap = data.draw(st.sampled_from((1, 2, 4, 8)), label="seam cap")
    final = data.draw(st.integers(2, 250), label="final cap")
    caps = sorted(set(data.draw(st.lists(st.integers(0, final), max_size=6),
                                label="caps"))) + [final]
    budget = SearchBudget()
    lane = _Lane(w, w2, ctx, budget, families, final, seam_cap)
    for cap in caps:
        lane.advance(cap)
    assert lane.done
    cert, visited = _search_pass(w, w2, ctx, budget, families, final, seam_cap)
    assert ((None if lane.cert is None else encode(lane.cert)), lane.visited) \
        == ((None if cert is None else encode(cert)), visited)


def test_lane_checks_its_cap_before_the_first_level():
    lhs, rhs = build_m1(gen_word(MU), gen_word(MU))
    lane = _Lane(lhs, rhs, RuleContext(), SearchBudget(), None, 100)
    assert lane.advance(2) is None
    assert (lane.visited, lane.work, lane.done) == (2, 0, False)
    assert lane.advance(100) is not None
    assert _search_pass(lhs, rhs, RuleContext(), SearchBudget(), None, 2) \
        == (None, 2)


def test_lane_stops_a_node_at_the_other_root():
    # the right word is one M1 move from the left one; the pass stops
    # generating the left word's successors once it reaches it, instead of
    # visiting all 17 of them
    lhs, rhs = build_m1(gen_word(MU), gen_word(MU))
    lane = _Lane(lhs, rhs, RuleContext(), SearchBudget(), None, 100)
    cert = lane.advance(100)
    assert [step.rule for step in cert.steps] == ["M1"]
    assert (cert.start, cert.end, lane.visited) == (lhs, rhs, 3)


def test_schedule_is_tight_lanes_then_one_final_lane(built_lanes):
    # at 50 steps no lane certifies this M1 pair: the M4 and M1 lanes run,
    # the M2/M3 lane is skipped, and the final all-families lane runs alone;
    # each lane stops at its final cap, even inside a node. The swapped
    # letter k has no outputs, so both words have one live letter, mu, and
    # the M4 lane is not skipped (tests/test_terms.py)
    lhs, rhs = build_m1(gen_word(MU), gen_word(Generator("k", 1, 0)))
    outcome = equivalent(lhs, rhs, budget=SearchBudget(max_steps=50))
    assert built_lanes == [(("M4",), 2, 64), (("M1",), 2, 2), (None, 64, 2)]
    assert outcome == Unknown(68)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_search_visits_at_most_max_steps(data):
    # one-strand letters on distinct strands of a word 8 or 40 strands
    # wide, against the same letters in reverse order: they commute, and
    # every node of the search yields hundreds of successors, so a lane
    # that finished its node past the final cap would overrun it
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    width = data.draw(st.sampled_from((8, 40)), label="width")
    omega = builtin_group().alphabet.lookup("omega")
    letters = [whisker(i, gen_word(omega), width - 1 - i)
               for i in rng.sample(range(width), rng.randint(4, 8))]
    lhs, rhs = compose_many(*letters), compose_many(*letters[::-1])
    ctx = (builtin_group().context()
           if data.draw(st.booleans(), label="modulo @group") else None)
    max_steps = data.draw(st.integers(200, 1000), label="max steps")
    outcome = equivalent(lhs, rhs, SearchBudget(max_steps=max_steps), ctx=ctx)
    assert not isinstance(outcome, Disproved)
    if isinstance(outcome, Unknown):
        assert outcome.visited <= max_steps


def _outcome_corpus():
    """Criterion 4's and 5's query generators, then every lemma step."""
    free = RuleContext()
    rng = random.Random(4)
    for _ in range(30):
        w, w2 = random_word(rng, max_len=2), random_word(rng, max_len=2)
        yield (compose_words(whisker(0, w, w2.src), whisker(w.tgt, w2, 0)),
               compose_words(whisker(w.src, w2, 0), whisker(0, w, w2.tgt)),
               free, SearchBudget())
    rng = random.Random(5)
    for _ in range(100):
        w, p = random_word(rng, max_len=2), rng.randint(0, 2)
        yield (compose_words(op_word(braid(w.src, p)), whisker(0, w, p)),
               compose_words(whisker(p, w, 0), op_word(braid(w.tgt, p))),
               free, SearchBudget())
    for _ in range(100):
        w, a = random_word(rng, max_len=1), rng.randint(0, 2)
        yield (compose_words(op_word(branch(a, w.src)), tensor_power(w, a)),
               compose_words(w, op_word(branch(a, w.tgt))),
               free, SearchBudget())
    budget = SearchBudget(max_steps=1000)
    for fx in lemma_fixtures():
        ctx = fx.context or free
        words = [fx.certificate.start]
        for step in fx.certificate.steps:
            words.append(apply_step(words[-1], step, ctx))
        for a, b in zip(words, words[1:]):
            yield a, b, ctx, budget


def test_every_certificate_step_is_one_lane_move():
    # a lane searching between the two ends of a shipped step reaches the
    # other end in one move, from at least one side
    missed = []
    for fx in lemma_fixtures():
        words = [fx.certificate.start]
        for step in fx.certificate.steps:
            words.append(apply_step(words[-1], step, fx.context))
        for i, (a, b) in enumerate(zip(words, words[1:])):
            if not any(succ == y for x, y in ((a, b), (b, a))
                       for _, succ in moves(x, fx.context, _lane_bounds(
                           x, y, SearchBudget(), None))):
                missed.append((fx.name, i))
    assert missed == []


# SHA-256, count and verdict classes of the outcomes of the corpus above:
# each query's verdict class, and the visited count of an Unknown. A change
# to the search schedule must keep it; which certificate a Proved query
# returns is not part of it.
OUTCOMES = ("a1dcd7d489c52a295fda25da956d9371b5690805f8e36294de9692fa91bfcb15",
            325, {"Proved": 325})

# SHA-256 of the encoded certificates of the Proved queries above, with
# their count and total steps. A change that only skips search work must
# keep it; a change to which certificate comes back changes it.
CERTIFICATES = (
    "00e95866a98e8bdcf86ce08f145087d5aefab3e0bb1ba30c6e37ab4fe8046df0",
    325, 217)


def test_outcome_digest():
    # the corpus in its order, then in reverse, with the digests taken in
    # corpus order: the second pass meets the rules caches the first left
    # warm, which must change no answer
    corpus = list(_outcome_corpus())
    for results in ([equivalent(lhs, rhs, budget, ctx=ctx)
                     for lhs, rhs, ctx, budget in corpus],
                    [equivalent(lhs, rhs, budget, ctx=ctx)
                     for lhs, rhs, ctx, budget in corpus[::-1]][::-1]):
        digest, count, classes = hashlib.sha256(), 0, {}
        certs, proved, steps = hashlib.sha256(), 0, 0
        for res in results:
            name = type(res).__name__
            visited = res.visited if isinstance(res, Unknown) else ""
            digest.update(f"{name} {visited}\n".encode())
            count += 1
            classes[name] = classes.get(name, 0) + 1
            if isinstance(res, Proved):
                certs.update(encode(res.certificate).encode())
                proved += 1
                steps += len(res.certificate.steps)
        assert (digest.hexdigest(), count, classes) == OUTCOMES
        assert (certs.hexdigest(), proved, steps) == CERTIFICATES


class TestOneCache:
    """Move generation keeps one process-wide cache per pure function, all
    of one size, shared by every lane and every query."""

    def test_a_second_identical_query_adds_no_entries(self):
        fx = next(f for f in lemma_fixtures() if f.name == "eta-omega")
        words = [fx.certificate.start]
        for step in fx.certificate.steps[:2]:
            words.append(apply_step(words[-1], step, fx.context))

        def ask():
            return equivalent_mod(words[1], words[2], builtin_group(),
                                  SearchBudget(max_steps=1000),
                                  consult_builtin=False)

        def entries():
            return sum(f.cache_info().currsize
                       for f in rules_caches().values())

        clear_rules_caches()
        first = ask()
        filled = entries()
        assert isinstance(first, Proved) and filled > 0
        assert ask() == first
        assert entries() == filled

    def test_every_rules_cache_has_one_size(self):
        caches = rules_caches()
        assert {"unpad", "untensor", "_seam_adjacent", "_letter_factor",
                "_lefts", "_rights", "_empty_seams", "_m4_rhs_ends",
                "_compose", "build_m1", "build_m2", "build_m3", "build_m4",
                "build_rel"} <= caches.keys()
        assert {f.cache_parameters()["maxsize"] for f in caches.values()} \
            == {rules._CACHE_SIZE}
