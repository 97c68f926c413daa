from opwords.alphabet import Generator
from opwords.certificate import encode
from opwords.evaluate import eval_word
from opwords.finmap import braid, branch
from opwords.rules import RuleContext, build_m1
from opwords.search import (Disproved, Proved, SearchBudget, Unknown,
                            Witness, equivalent, find_refutation,
                            probe_assignments, validate_witness,
                            word_generators)
from opwords.words import (compose_words, gen_word, identity_word, op_word,
                           tensor_power)

from conftest import random_word

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
        # distinct generators that no probe separates within a tiny budget,
        # and no chain connects: a free generator vs an unrelated compound
        a = Generator("a", 1, 1)
        b = Generator("b", 1, 1)
        w = gen_word(a)
        w2 = compose_words(gen_word(b), gen_word(b))
        res = equivalent(w, w2, SearchBudget(max_steps=50,
                                             probe_carriers=(),
                                             probe_assignments=0))
        assert isinstance(res, Unknown)
        # tier floors can overshoot a tiny budget slightly
        assert res.visited < 200
