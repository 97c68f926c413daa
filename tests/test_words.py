import pytest

from opwords.alphabet import Generator
from opwords.errors import ArityError
from opwords.finmap import FinMap, braid, identity
from opwords.words import (Word, compose_many, compose_words, gen_word,
                           identity_word, letter_word, op_word,
                           standard_decomposition, tensor_power, tensor_words,
                           whisker)

from conftest import random_word

MU = Generator("mu", 2, 1)
ETA = Generator("eta", 0, 1)
OMEGA = Generator("omega", 1, 1)


class TestConstruction:
    def test_word_arity_chain_checked(self):
        with pytest.raises(ArityError):
            Word((identity(1), identity(1)), ((0, MU, 0),))
        with pytest.raises(ArityError):
            Word((identity(2), identity(2)), ((0, MU, 0),))
        w = Word((identity(2), identity(1)), ((0, MU, 0),))
        assert (w.src, w.tgt) == (2, 1)

    def test_op_word_reverses(self):
        w = op_word(FinMap(2, 1, (1, 1)))
        assert (w.src, w.tgt) == (1, 2)

    def test_identity_word(self):
        w = identity_word(3)
        assert len(w) == 0 and w.src == w.tgt == 3


class TestCompose:
    def test_identity_units(self, rng):
        for _ in range(30):
            w = random_word(rng)
            assert compose_words(identity_word(w.src), w) == w
            assert compose_words(w, identity_word(w.tgt)) == w

    def test_seam_merge_braids(self):
        w = compose_words(op_word(braid(1, 1)), op_word(braid(1, 1)))
        assert w == identity_word(2)

    def test_length_two_over_group_alphabet(self):
        w = compose_words(gen_word(MU), gen_word(OMEGA))
        assert len(w) == 2
        assert w.boundaries[1] == identity(1)

    def test_associative(self, rng):
        for _ in range(30):
            w = random_word(rng, max_len=3)
            parts = standard_decomposition(w)
            if len(parts) < 3:
                continue
            a, b = parts[0], parts[1]
            c = compose_many(*parts[2:])
            assert (compose_words(compose_words(a, b), c)
                    == compose_words(a, compose_words(b, c)))

    def test_mismatch(self):
        with pytest.raises(ArityError):
            compose_words(gen_word(ETA), gen_word(MU))

    def test_compose_many_mismatch(self):
        with pytest.raises(ArityError):
            compose_many(gen_word(MU), gen_word(OMEGA), gen_word(MU))


class TestWhisker:
    def test_zero_pads_identity(self, rng):
        for _ in range(20):
            w = random_word(rng)
            assert whisker(0, w, 0) == w

    def test_pad_accumulation(self, rng):
        for _ in range(20):
            w = random_word(rng)
            assert whisker(2, whisker(1, w, 0), 0) == whisker(3, w, 0)
            assert whisker(0, whisker(0, w, 1), 2) == whisker(0, w, 3)
            assert whisker(1, whisker(0, w, 2), 0) == whisker(1, w, 2)

    def test_length_preserved(self, rng):
        for _ in range(20):
            w = random_word(rng)
            assert len(whisker(2, w, 1)) == len(w)

    def test_arities(self, rng):
        for _ in range(20):
            w = random_word(rng)
            p = whisker(2, w, 3)
            assert (p.src, p.tgt) == (2 + w.src + 3, 2 + w.tgt + 3)

    def test_distributes_over_compose(self, rng):
        for _ in range(20):
            w = random_word(rng)
            w2 = random_word(rng)
            if w.tgt != w2.src:
                continue
            lhs = compose_words(whisker(2, w, 1), whisker(2, w2, 1))
            assert lhs == whisker(2, compose_words(w, w2), 1)

    def test_single_letter(self):
        w = whisker(1, gen_word(MU), 2)
        assert w.letters == ((1, MU, 2),)
        assert w.boundaries[0] == identity(5)
        assert w.boundaries[1] == identity(4)


class TestTensor:
    def test_identity_tensor(self):
        assert tensor_words(identity_word(2), identity_word(3)) == identity_word(5)

    def test_unit(self, rng):
        for _ in range(20):
            w = random_word(rng)
            assert tensor_words(w, identity_word(0)) == w
            assert tensor_words(identity_word(0), w) == w

    def test_two_letters(self):
        t = tensor_words(gen_word(MU), gen_word(OMEGA))
        assert (t.src, t.tgt) == (3, 2)
        assert len(t) == 2
        assert t.letters == ((0, MU, 1), (1, OMEGA, 0))


class TestTensorPower:
    def test_zero(self, rng):
        w = random_word(rng)
        assert tensor_power(w, 0) == identity_word(0)

    def test_one(self, rng):
        for _ in range(20):
            w = random_word(rng)
            assert tensor_power(w, 1) == w

    def test_identity_word_power(self):
        assert tensor_power(identity_word(1), 3) == identity_word(3)

    def test_arities_and_length(self, rng):
        for _ in range(10):
            w = random_word(rng)
            for a in (2, 3):
                p = tensor_power(w, a)
                assert (p.src, p.tgt) == (a * w.src, a * w.tgt)
                assert len(p) == a * len(w)

    def test_matches_stepwise_loop(self, rng):
        def stepwise(w, a):
            # the former implementation: re-whisker the whole power each step
            out = identity_word(0)
            for _ in range(a):
                out = compose_words(whisker(0, out, w.src),
                                    whisker(out.tgt, w, 0))
            return out

        for _ in range(40):
            w = random_word(rng, max_len=3, max_pad=2)
            for a in range(9):
                assert tensor_power(w, a) == stepwise(w, a)


class TestStructureWords:
    def test_identity_embeds(self):
        assert op_word(identity(3)) == identity_word(3)

    def test_tensor_of_embedded_maps_embeds_tensor(self, rng):
        from opwords.finmap import tensor
        from conftest import random_map
        for _ in range(25):
            f = random_map(rng, rng.randint(0, 3), rng.randint(1, 3))
            g = random_map(rng, rng.randint(0, 3), rng.randint(1, 3))
            assert (tensor_words(op_word(f), op_word(g))
                    == op_word(tensor(f, g)))

    def test_tensor_with_identities_is_padded_letter(self):
        got = tensor_words(identity_word(2),
                           tensor_words(gen_word(OMEGA), identity_word(1)))
        assert got == letter_word(2, OMEGA, 1)


class TestStandardDecomposition:
    def test_identity(self):
        parts = standard_decomposition(identity_word(4))
        assert parts == [identity_word(4)]

    def test_single_letter(self):
        parts = standard_decomposition(letter_word(1, OMEGA, 0))
        assert len(parts) == 3
        assert parts[0] == op_word(identity(2))
        assert parts[1] == letter_word(1, OMEGA, 0)

    def test_round_trip(self, rng):
        for _ in range(40):
            w = random_word(rng, max_len=3)
            parts = standard_decomposition(w)
            assert len(parts) == 2 * len(w) + 1
            assert compose_many(*parts) == w
