import functools
import random
import time

import pytest

from opwords.alphabet import Alphabet, Generator
from opwords.dsl import (MAX_STRANDS, EBraid, EBranch, ECompose, EDel, EDup,
                         EGen, EId, EMap, EPad, EPower, ETensor,
                         check_generator_name, elaborate, parse, parse_word,
                         print_expr, print_word)
from opwords.errors import ArityError, ParseError
from opwords.words import compose_words
from conftest import random_word

ALPHABET = Alphabet((Generator("mu", 2, 1), Generator("eta", 0, 1),
                     Generator("omega", 1, 1)))


class TestParse:
    def test_left_assoc_relation(self):
        e = parse("(gen mu * id(1)) . gen mu")
        assert e == ECompose((ETensor((EGen("mu"), EId(1))), EGen("mu")))
        w = elaborate(e, ALPHABET)
        assert (w.src, w.tgt) == (3, 1)

    def test_atoms(self):
        assert parse("id(0)") == EId(0)
        assert parse("dup") == EDup()
        assert parse("del") == EDel()
        assert parse("braid(2,1)") == EBraid(2, 1)
        assert parse("branch(3,2)") == EBranch(3, 2)
        assert parse("fm[2->1: 1,1]") == EMap(2, 1, (1, 1))
        assert parse("fm[0->1:]") == EMap(0, 1, ())

    def test_power_and_pad(self):
        assert parse("gen omega^2") == EPower(EGen("omega"), 2)
        assert parse("pad(1, gen mu, 2)") == EPad(1, EGen("mu"), 2)

    @pytest.mark.parametrize("name", ["e", "eta", "eta2", "g", "h", "m", "mu",
                                      "omega", "omega2", "u"])
    def test_generator_names_that_gen_can_write(self, name):
        check_generator_name(name, f"generator {name} 1 1")
        assert parse(f"gen {name}") == EGen(name)

    @pytest.mark.parametrize("name", ["id", "gen", "pad", "a-b", "1x", "é"])
    def test_generator_names_that_gen_cannot_write(self, name):
        with pytest.raises(ParseError, match="cannot be written after 'gen'"):
            check_generator_name(name, f"generator {name} 1 1")
        with pytest.raises(ParseError):
            parse(f"gen {name}")

    @pytest.mark.parametrize("expr", ["id(١)", "id(２)"])
    def test_integers_are_ascii_digits(self, expr):
        with pytest.raises(ParseError, match="unexpected character"):
            parse(expr)

    def test_unicode_aliases(self):
        assert parse("gen mu ⊠ id(1)") == parse("gen mu * id(1)")
        padded = parse("1 ◁ gen mu ▷ 2")
        assert padded == EPad(1, EGen("mu"), 2)
        assert "◁" not in print_expr(padded)

    def test_precedence(self):
        e = parse("gen mu * gen omega . gen mu")
        assert isinstance(e, ECompose)
        assert isinstance(e.parts[0], ETensor)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse("gen mu . . gen mu")
        with pytest.raises(ParseError):
            parse("braid(2,)")
        with pytest.raises(ParseError):
            parse("gen mu ]")

    def test_elaborate_arity_error_names_subterm(self):
        with pytest.raises(ArityError) as err:
            parse_word("gen eta . gen mu", ALPHABET)
        assert "gen mu" in str(err.value)

    def test_long_compose_chain(self):
        parts = ["gen omega", "dup", "gen mu", "fm[1->1: 1]"] * 1000
        t0 = time.perf_counter()
        w = parse_word(" . ".join(parts), ALPHABET)
        elapsed = time.perf_counter() - t0
        stepwise = functools.reduce(
            compose_words, [parse_word(p, ALPHABET) for p in parts])
        assert w == stepwise
        assert elapsed < 1.0

    def test_strand_limit(self):
        n = MAX_STRANDS
        cases = [(f"id({n})", f"id({n + 1})"),
                 (f"braid({n - 1},1)", f"braid({n},1)"),
                 (f"branch(2,{n // 2})", f"branch(2,{n // 2 + 1})"),
                 (f"fm[0->{n}:]", f"fm[0->{n + 1}:]"),
                 (f"pad(1, id({n - 2}), 1)", f"pad(1, id({n - 1}), 1)"),
                 (f"gen eta^{n}", f"gen eta^{n + 1}"),
                 (f"id({n - 1}) * gen eta", f"id({n}) * gen eta")]
        for fits, too_wide in cases:
            w = parse_word(fits, ALPHABET)
            assert max(w.src, w.tgt) == n
            with pytest.raises(ParseError):
                parse_word(too_wide, ALPHABET)


def random_expr(rng, depth=3):
    atoms = [
        lambda: EGen(rng.choice(["mu", "eta", "omega"])),
        lambda: EId(rng.randint(0, 3)),
        lambda: EDup(),
        lambda: EDel(),
        lambda: EBraid(rng.randint(0, 2), rng.randint(0, 2)),
        lambda: EBranch(rng.randint(0, 2), rng.randint(1, 2)),
        lambda: EMap(2, 2, (rng.randint(1, 2), rng.randint(1, 2))),
    ]
    if depth == 0:
        return rng.choice(atoms)()
    kind = rng.randint(0, 4)
    if kind == 0:
        return rng.choice(atoms)()
    if kind == 1:
        return ECompose(tuple(random_expr(rng, depth - 1)
                              for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return ETensor(tuple(random_expr(rng, depth - 1)
                             for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return EPower(random_expr(rng, depth - 1), rng.randint(0, 3))
    return EPad(rng.randint(0, 2), random_expr(rng, depth - 1),
                rng.randint(0, 2))


class TestRoundTrip:
    def test_parse_print_identity_on_asts(self):
        rng = random.Random(0)
        for _ in range(500):
            e = random_expr(rng)
            assert parse(print_expr(e)) == e

    def test_word_expr_round_trip(self, rng):
        for _ in range(60):
            w = random_word(rng, max_len=3)
            text = print_word(w)
            back = parse_word(text, Alphabet(sorted(
                {g for _, g, _ in w.letters}, key=lambda g: g.name)))
            assert back == w

    def test_dup_word_prints(self):
        w = parse_word("dup . (gen omega * id(1)) . gen mu", ALPHABET)
        again = parse_word(print_word(w), ALPHABET)
        assert again == w
