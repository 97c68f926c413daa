import hashlib
import random

import pytest

from opwords.alphabet import Generator
from opwords.certificate import step_key
from opwords.errors import ReplayError
from opwords.evaluate import eval_word
from opwords.finmap import FinMap
from opwords.fixtures import lemma_fixtures
from opwords.present import builtin_group
from opwords.rules import (RewriteStep, RuleBounds, RuleContext, apply_step,
                           build_m1, build_m2, build_m3, build_m4,
                           canonical_word, moves, rule_instances_matching)
from opwords.search import probe_assignments, SearchBudget, word_generators
from opwords.words import (compose_words, gen_word, identity_word, op_word,
                           tensor_words)

from conftest import random_word

MU = Generator("mu", 2, 1)
OMEGA = Generator("omega", 1, 1)


def assignments_for(*ws, n_random=3, seed=0):
    budget = SearchBudget(probe_assignments=n_random, seed=seed)
    return probe_assignments(word_generators(*ws), budget)


def assert_instance_sound(lhs, rhs, rng):
    assert (lhs.src, lhs.tgt) == (rhs.src, rhs.tgt)
    for asg in assignments_for(lhs, rhs):
        assert eval_word(lhs, asg) == eval_word(rhs, asg)


class TestSchemaBuilders:
    def test_random_instances_sound(self, rng):
        for _ in range(120):
            v = random_word(rng, max_len=1)
            v2 = random_word(rng, max_len=1)
            a = rng.randint(0, 3)
            q, p = rng.randint(0, 2), rng.randint(0, 2)
            lhs, rhs = build_m1(v, v2)
            assert_instance_sound(lhs, rhs, rng)
            for build in (build_m2, build_m3, build_m4):
                lhs, rhs = build(v, a, q, p)
                assert_instance_sound(lhs, rhs, rng)

    def test_m4_zero_power(self):
        v = gen_word(OMEGA)
        lhs, rhs = build_m4(v, 0, 0, 0)
        assert len(lhs) == 0 and lhs.tgt == 0
        assert len(rhs) == 1


class TestMatching:
    def test_interchange_instance_found(self):
        w = tensor_words(gen_word(MU), gen_word(OMEGA))
        _, swapped = build_m1(gen_word(MU), gen_word(OMEGA))
        successors = {succ for _, succ in rule_instances_matching(w)}
        assert swapped in successors

    def test_identity_word_has_no_two_letter_instances(self):
        for step, _ in rule_instances_matching(identity_word(1)):
            assert step.rule != "M1" or len(step_pattern_letters(step)) < 2

    def test_braid_instance_found(self):
        v = gen_word(OMEGA)
        lhs, rhs = build_m2(v, 1, 0, 0)
        successors = {succ for _, succ in rule_instances_matching(lhs)}
        assert rhs in successors

    def test_moves_sound_and_replayable(self, rng):
        ctx = RuleContext()
        bounds = RuleBounds(a_max=3, pad_max=4, seam_cap=6)
        for _ in range(50):
            w = random_word(rng)
            probes = assignments_for(w, n_random=2)
            for step, succ in list(moves(w, ctx, bounds))[:40]:
                assert apply_step(w, step, ctx) == succ
                back = apply_step(succ, step.inverted(), ctx)
                assert back == w
                for asg in probes[:3]:
                    assert eval_word(w, asg) == eval_word(succ, asg)

    def test_bad_replay_raises(self):
        w = tensor_words(gen_word(MU), gen_word(OMEGA))
        step, succ = rule_instances_matching(w)[0]
        bogus = RewriteStep(step.rule, step.direction, split=len(w),
                            a=step.a, q=step.q, p=step.p, v=step.v,
                            v2=step.v2, seam_left=step.seam_left,
                            seam_right=step.seam_right)
        with pytest.raises(ReplayError):
            apply_step(w, bogus, RuleContext())


def step_pattern_letters(step):
    from opwords.rules import step_sides
    pat, _ = step_sides(step, RuleContext())
    return pat.letters


class TestCanonicalWord:
    def test_types(self):
        assert canonical_word(0, 0) == identity_word(0)
        w = canonical_word(1, 0)
        assert (w.src, w.tgt) == (1, 0)

    def test_card_collapses(self):
        from opwords.present import builtin_group
        eta = gen_word(Generator("eta", 0, 1))
        drop = op_word(FinMap(0, 1, ()))
        w = compose_words(eta, drop)
        ctx = RuleContext(allow_card=True)
        succs = {succ for step, succ in moves(w, ctx, RuleBounds())
                 if step.rule == "CARD"}
        assert identity_word(0) in succs


# SHA-256 and length of the successor stream of the corpus below, in order.
# Any change to which moves are generated, their parameters or their order
# changes it; a refactor of rules.py must keep it.
MOVES_STREAM = (
    "0055d2bd60d0cb365fabbefe262a2a4a04eecf13b113bc97813ae2a50bf5fa31", 70462)


def test_moves_stream_digest():
    rng = random.Random(0)
    free = [random_word(rng) for _ in range(40)]
    for _ in range(4):
        w, w2 = random_word(rng), random_word(rng)
        free.extend(build_m1(w, w2))
    for a in (1, 2, 3):
        for build in (build_m2, build_m3, build_m4):
            v = random_word(rng, max_len=1)
            free.extend(build(v, a, rng.randint(0, 1), rng.randint(0, 1)))
    # three-copy folds: the only spans whose middle seam M4 reads as two
    # blocks that leave part of it uncovered
    for _ in range(4):
        v = random_word(rng, max_len=1, max_ar=2)
        free.extend(build_m4(v, 3, 0, 0))
    lemmas = [w for fx in lemma_fixtures()
              for w in (fx.certificate.start, fx.certificate.end)]
    digest, count, rules = hashlib.sha256(), 0, set()
    for cap in (2, 64):
        bounds = RuleBounds(seam_cap=cap)
        for corpus, ctx in ((free, RuleContext()),
                            (lemmas, builtin_group().context())):
            for w in corpus:
                for step, succ in moves(w, ctx, bounds):
                    digest.update(step_key(step).encode())
                    digest.update(repr(succ).encode())
                    count += 1
                    rules.add(step.rule.split(":")[0])
    assert rules == {"M1", "M2", "M3", "M4", "REL", "CARD"}
    assert (digest.hexdigest(), count) == MOVES_STREAM
