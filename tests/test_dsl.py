import functools
import random
import time

import pytest

from opwords.alphabet import Alphabet, Generator
from opwords.dsl import (MAX_NESTING, MAX_STRANDS, check_generator_name,
                         parse_word, print_word)
from opwords.errors import ArityError, ParseError
from opwords.finmap import FinMap, braid, branch, f0, f2
from opwords.words import (compose_many, compose_words, gen_word,
                           identity_word, op_word, tensor_power, tensor_words,
                           whisker)
from conftest import random_word

MU, ETA, OMEGA = (Generator("mu", 2, 1), Generator("eta", 0, 1),
                  Generator("omega", 1, 1))
ALPHABET = Alphabet((MU, ETA, OMEGA))


def parse(text):
    return parse_word(text, ALPHABET)


class TestParse:
    def test_left_assoc_relation(self):
        w = parse("(gen mu * id(1)) . gen mu")
        assert w == compose_words(tensor_words(gen_word(MU), identity_word(1)),
                                  gen_word(MU))
        assert (w.src, w.tgt) == (3, 1)

    def test_atoms(self):
        assert parse("id(0)") == identity_word(0)
        assert parse("dup") == op_word(f2())
        assert parse("del") == op_word(f0())
        assert parse("braid(2,1)") == op_word(braid(2, 1))
        assert parse("branch(3,2)") == op_word(branch(3, 2))
        assert parse("fm[2->1: 1,1]") == op_word(FinMap(2, 1, (1, 1)))
        assert parse("fm[0->1:]") == op_word(FinMap(0, 1, ()))

    def test_power_and_pad(self):
        assert parse("gen omega^2") == tensor_power(gen_word(OMEGA), 2)
        assert parse("pad(1, gen mu, 2)") == whisker(1, gen_word(MU), 2)

    @pytest.mark.parametrize("name", ["e", "eta", "eta2", "g", "h", "m", "mu",
                                      "omega", "omega2", "u"])
    def test_generator_names_that_gen_can_write(self, name):
        check_generator_name(name, f"generator {name} 1 1")
        g = Generator(name, 1, 1)
        assert parse_word(f"gen {name}", Alphabet((g,))) == gen_word(g)

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
        assert padded == whisker(1, gen_word(MU), 2)
        assert "◁" not in print_word(padded)

    def test_precedence(self):
        assert (parse("gen mu * gen omega . gen mu")
                == parse("(gen mu * gen omega) . gen mu"))
        assert (parse("gen omega * gen omega^2")
                == parse("gen omega * (gen omega^2)")
                != parse("(gen omega * gen omega)^2"))

    def test_errors_carry_position(self):
        for text, position in [("gen mu . . gen mu", 9), ("braid(2,)", 8),
                               ("gen mu ]", 7)]:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.position == position

    def test_elaborate_arity_error_names_subterm(self):
        with pytest.raises(ArityError) as err:
            parse("gen eta . gen mu")
        assert "gen mu" in str(err.value)
        # the part is quoted as written
        with pytest.raises(ArityError, match=r"onto '\(gen mu\)': 1 strands"):
            parse("gen eta . (gen mu)")

    def test_long_compose_chain(self):
        parts = ["gen omega", "dup", "gen mu", "fm[1->1: 1]"] * 1000
        t0 = time.perf_counter()
        w = parse(" . ".join(parts))
        elapsed = time.perf_counter() - t0
        stepwise = functools.reduce(compose_words, [parse(p) for p in parts])
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
            w = parse(fits)
            assert max(w.src, w.tgt) == n
            with pytest.raises(ParseError):
                parse(too_wide)

    def test_size_error_quotes_the_construct_as_written(self):
        with pytest.raises(ParseError) as err:
            parse("(id(1)^256)^2")
        assert str(err.value) == (
            "'(id(1)^256)^2' exceeds the size limit (512 > 256 strands)")
        with pytest.raises(ParseError, match=r"^'1 ◁ id\(255\) ▷ 1' exceeds"):
            parse("gen omega . 1 ◁ id(255) ▷ 1")

    def test_power_chain_limit(self):
        assert parse("id(1)" + "^1" * MAX_NESTING) == identity_word(1)
        with pytest.raises(ParseError,
                           match=f"nested more than {MAX_NESTING} levels"):
            parse("id(1)" + "^1" * (MAX_NESTING + 1))

    def test_nesting_counts_parentheses_and_pad_only(self):
        # 180 levels of composition and tensor, 60 of parentheses
        text = "id(1) . id(0) * (" * 60 + "id(1)" + ")" * 60
        assert parse(text) == identity_word(1)

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError,
                           match=r"integer of 5000 digits is too long "
                                 r"\(at position 3\)"):
            parse("id(" + "9" * 5000 + ")")


def _bridge(rng, m, n):
    """(text, word) of a word m -> n: a map literal, or gen eta^n if m = 0."""
    if m == 0:
        return f"gen eta^{n}", tensor_power(gen_word(ETA), n)
    table = tuple(rng.randint(1, m) for _ in range(n))
    f = FinMap(n, m, table)
    return repr(f), op_word(f)


# binding strengths: an operand binding less tightly than its operator
# needs is parenthesised
_COMPOSE, _TENSOR, _POWER, _ATOM = 0, 1, 2, 3


def _operand(part, need):
    text, word, prec = part
    return f"({text})" if prec < need else text


def _random_atom(rng):
    """(text, word) of a random primary that is not a parenthesis or pad."""
    kind = rng.randrange(7)
    if kind == 0:
        g = rng.choice([MU, ETA, OMEGA])
        return f"gen {g.name}", gen_word(g)
    if kind == 1:
        n = rng.randint(0, 3)
        return f"id({n})", identity_word(n)
    if kind == 2:
        return "dup", op_word(f2())
    if kind == 3:
        return "del", op_word(f0())
    if kind == 4:
        m, m2 = rng.randint(0, 2), rng.randint(0, 2)
        return f"braid({m},{m2})", op_word(braid(m, m2))
    if kind == 5:
        a, m = rng.randint(0, 2), rng.randint(1, 2)
        return f"branch({a},{m})", op_word(branch(a, m))
    return _bridge(rng, 2, 2)


def _random_part(rng, depth):
    """(text, word, binding strength) of a random expression."""
    kind = rng.randint(0, 5) if depth else 0
    if kind == 0:
        return (*_random_atom(rng), _ATOM)
    if kind == 1:
        parts = [_random_part(rng, depth - 1)]
        for _ in range(rng.randint(1, 2)):
            nxt = _random_part(rng, depth - 1)
            if parts[-1][1].tgt != nxt[1].src:
                parts.append((*_bridge(rng, parts[-1][1].tgt, nxt[1].src),
                              _POWER))
            parts.append(nxt)
        return (" . ".join(_operand(p, _TENSOR) for p in parts),
                compose_many(*(p[1] for p in parts)), _COMPOSE)
    if kind == 2:
        parts = [_random_part(rng, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        text = _operand(parts[0], _POWER) + "".join(
            rng.choice([" * ", " ⊠ "]) + _operand(p, _POWER)
            for p in parts[1:])
        return (text, functools.reduce(tensor_words, (p[1] for p in parts)),
                _TENSOR)
    if kind == 3:
        base, k = _random_part(rng, depth - 1), rng.randint(0, 3)
        return (f"{_operand(base, _POWER)}^{k}", tensor_power(base[1], k),
                _POWER)
    # padding: kind 4 writes pad(q, x, p), kind 5 the q ◁ x ▷ p form
    q, body = rng.randint(0, 2), _random_part(rng, depth - 1)
    p = rng.randint(0, 2)
    word = whisker(q, body[1], p)
    if kind == 4 or not (q or p):
        return f"pad({q}, {body[0]}, {p})", word, _ATOM
    text = ((f"{q} ◁ " if q else "") + _operand(body, _ATOM)
            + (f" ▷ {p}" if p else ""))
    return text, word, _POWER


def random_expr(rng, depth=3):
    """(text, word): a random expression over mu, eta and omega that uses
    every construct of the grammar, and the word it denotes, built with the
    words API."""
    text, word, _ = _random_part(rng, depth)
    return text, word


class TestRoundTrip:
    def test_random_expressions_denote_their_words(self):
        rng = random.Random(0)
        for _ in range(500):
            text, word = random_expr(rng)
            assert parse(text) == word
            assert parse(print_word(word)) == word

    def test_printed_random_words_parse_back(self, rng):
        for _ in range(60):
            w = random_word(rng, max_len=3)
            text = print_word(w)
            back = parse_word(text, Alphabet(sorted(
                {g for _, g, _ in w.letters}, key=lambda g: g.name)))
            assert back == w

    def test_dup_word_prints(self):
        w = parse("dup . (gen omega * id(1)) . gen mu")
        again = parse(print_word(w))
        assert again == w

    def test_print_word_leaves_out_identity_maps(self):
        assert print_word(identity_word(2)) == "id(2)"
        assert print_word(op_word(f2())) == "fm[2->1: 1,1]"
        assert print_word(op_word(FinMap(0, 1, ()))) == "fm[0->1: ]"
        assert print_word(parse("1 ◁ gen mu . gen mu")) == (
            "pad(1, gen mu, 0) . gen mu")
        assert print_word(parse("gen eta . dup . gen omega * gen omega")) == (
            "gen eta . fm[2->1: 1,1] . pad(0, gen omega, 1) "
            ". pad(1, gen omega, 0)")
