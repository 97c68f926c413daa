import itertools

import pytest
from hypothesis import given, settings, strategies as st

from opwords.alphabet import Generator
from opwords.endo import (Carrier, FinFunction, ff_compose, ff_identity,
                          ff_tensor, pullback, tabulate)
from opwords.errors import AssignmentError, EvaluationSizeError
from opwords.evaluate import MAX_ROWS, GeneratorAssignment, eval_word
from opwords.finmap import FinMap
from opwords.words import (Word, compose_many, gen_word, identity_word,
                           letter_word, op_word, tensor_power, tensor_words,
                           whisker)

from conftest import GENS, random_map, random_word

MU = Generator("mu", 2, 1)
ETA = Generator("eta", 0, 1)


def cyclic_assignment(n):
    c = Carrier(n)
    return GeneratorAssignment(c, {
        MU: tabulate(c, 2, 1, lambda xs: ((xs[0] + xs[1]) % n,)),
        ETA: tabulate(c, 0, 1, lambda xs: (0,)),
    })


def random_assignment(rng, gens, size):
    c = Carrier(size)
    fns = {}
    for g in gens:
        rows = tuple(tuple(rng.randrange(size) for _ in range(g.tgt))
                     for _ in range(size ** g.src))
        from opwords.endo import FinFunction
        fns[g] = FinFunction(c, g.src, g.tgt, rows)
    return GeneratorAssignment(c, fns)


class TestEval:
    def test_identity_word(self):
        asg = cyclic_assignment(2)
        assert eval_word(identity_word(3), asg) == ff_identity(Carrier(2), 3)

    def test_mu_is_xor_on_z2(self):
        asg = cyclic_assignment(2)
        t = eval_word(gen_word(MU), asg)
        assert t.dump().splitlines() == [
            "0 0 -> 0", "0 1 -> 1", "1 0 -> 1", "1 1 -> 0"]

    def test_left_assoc_three_way_sum(self):
        asg = cyclic_assignment(3)
        w = compose_many(tensor_words(gen_word(MU), identity_word(1)),
                         gen_word(MU))
        t = eval_word(w, asg)
        for xs in itertools.product(range(3), repeat=3):
            assert t(xs) == (sum(xs) % 3,)

    def test_missing_generator(self):
        asg = cyclic_assignment(2)
        with pytest.raises(AssignmentError):
            eval_word(gen_word(Generator("nu", 1, 1)), asg)

    def test_row_limit(self):
        asg = GeneratorAssignment(Carrier(4), {})
        drop = [op_word(FinMap(0, m, ())) for m in (10, 11)]  # 4^10 == MAX_ROWS
        assert len(eval_word(drop[0], asg).table) == MAX_ROWS
        with pytest.raises(EvaluationSizeError):
            eval_word(drop[1], asg)
        # carriers 0 and 1 never reach the limit
        for n in (0, 1):
            t = eval_word(identity_word(200), GeneratorAssignment(Carrier(n), {}))
            assert len(t.table) == n ** 200

    def test_empty_carrier(self):
        c = Carrier(0)
        nu, zero = Generator("nu", 1, 0), Generator("zero", 0, 0)
        asg = GeneratorAssignment(c, {MU: tabulate(c, 2, 1, lambda xs: xs[:1]),
                                      nu: tabulate(c, 1, 0, lambda xs: ()),
                                      zero: tabulate(c, 0, 0, lambda xs: ())})
        assert eval_word(compose_many(gen_word(MU), gen_word(nu)), asg).table == ()
        # a word with no inputs has one row even over the empty carrier
        assert eval_word(gen_word(zero), asg).table == ((),)
        assert eval_word(identity_word(0), asg).table == ((),)

    def test_constant_letter_and_no_outputs(self):
        asg = cyclic_assignment(3)
        # eta * eta . mu: a word with no inputs
        w = compose_many(tensor_words(gen_word(ETA), gen_word(ETA)),
                         gen_word(MU))
        assert eval_word(w, asg).table == ((0,),)
        # drop both inputs: nine rows of nothing
        assert eval_word(op_word(FinMap(0, 2, ())), asg).table == ((),) * 9
        # eta whiskered between two strands, then mu on the right pair
        w = compose_many(letter_word(1, ETA, 1), letter_word(1, MU, 0))
        assert eval_word(w, asg).table == tuple(
            (x, y) for x in range(3) for y in range(3))

    def test_arity_mismatch_rejected(self):
        c = Carrier(2)
        with pytest.raises(AssignmentError):
            GeneratorAssignment(c, {MU: ff_identity(c, 2)})


class TestFunctoriality:
    def test_compose(self, rng):
        for _ in range(25):
            w = random_word(rng)
            w2 = random_word(rng)
            if w.tgt != w2.src:
                continue
            asg = random_assignment(rng, GENS, 2)
            lhs = eval_word(compose_many(w, w2), asg)
            assert lhs == ff_compose(eval_word(w, asg), eval_word(w2, asg))

    def test_tensor(self, rng):
        for _ in range(25):
            w = random_word(rng, max_len=1)
            w2 = random_word(rng, max_len=1)
            asg = random_assignment(rng, GENS, 2)
            lhs = eval_word(tensor_words(w, w2), asg)
            assert lhs == ff_tensor(eval_word(w, asg), eval_word(w2, asg))

    def test_whisker(self, rng):
        for _ in range(25):
            w = random_word(rng, max_len=1)
            asg = random_assignment(rng, GENS, 2)
            c = asg.carrier
            lhs = eval_word(whisker(2, w, 1), asg)
            rhs = ff_tensor(ff_identity(c, 2),
                            ff_tensor(eval_word(w, asg), ff_identity(c, 1)))
            assert lhs == rhs

    def test_tensor_power(self, rng):
        for _ in range(15):
            w = random_word(rng, max_len=1)
            asg = random_assignment(rng, GENS, 2)
            for a in (0, 2, 3):
                lhs = eval_word(tensor_power(w, a), asg)
                rhs = ff_identity(asg.carrier, 0)
                for _ in range(a):
                    rhs = ff_tensor(rhs, eval_word(w, asg))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Differential check against the layer-tabulating evaluator


def eval_word_by_layers(w, assignment):
    """The former evaluator: tabulate every whiskered layer and compose."""
    carrier = assignment.carrier
    out = pullback(w.boundaries[0], carrier)
    for (l, g, r), b in zip(w.letters, w.boundaries[1:]):
        layer = ff_tensor(ff_identity(carrier, l),
                          ff_tensor(assignment[g], ff_identity(carrier, r)))
        out = ff_compose(ff_compose(out, layer), pullback(b, carrier))
    return out


# arity 0 on either side, and both
DIFF_GENS = GENS + (Generator("d", 2, 0), Generator("k", 0, 2),
                    Generator("z", 0, 0))


def any_word(rng, gens, max_len=4, max_pad=2, max_ar=3):
    """A random word whose layers may be empty: after a layer with no
    strands, only a letter without inputs and pads can follow."""
    width = rng.randint(0, max_ar)
    bounds, letters = [], []
    for _ in range(rng.randint(0, max_len)):
        if width:
            g = rng.choice(gens)
            l, r = rng.randint(0, max_pad), rng.randint(0, max_pad)
        else:
            g, l, r = rng.choice([g for g in gens if g.src == 0]), 0, 0
        bounds.append(random_map(rng, l + g.src + r, width))
        letters.append((l, g, r))
        width = l + g.tgt + r
    bounds.append(random_map(rng, rng.randint(0, max_ar) if width else 0, width))
    return Word(tuple(bounds), tuple(letters))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_matches_layer_evaluator(rng, size):
    # over the empty carrier only generators with inputs or no outputs exist
    gens = tuple(g for g in DIFF_GENS if size or g.src or not g.tgt)
    w = any_word(rng, gens)
    asg = random_assignment(rng, gens, size)
    assert eval_word(w, asg) == eval_word_by_layers(w, asg)
