import pytest
from hypothesis import given, settings, strategies as st

from opwords.endo import Carrier, FinFunction, tabulate
from opwords.errors import OpwordsError, UnknownGeneratorError
from opwords.evaluate import GeneratorAssignment, eval_word
from opwords.present import (ETA, MU, OMEGA,
                             algebra_from_group, builtin_group,
                             builtin_group_Z, check_algebra, cyclic_group,
                             equivalent_mod, group_from_algebra,
                             parse_presentation, symmetric_group_3,
                             verify_group)
from opwords.search import Disproved, Proved, SearchBudget
from opwords.words import gen_word, identity_word


class TestBuiltins:
    def test_group_shape(self):
        pres = builtin_group()
        assert len(pres.relations) == 5
        assert [g.name for g in pres.alphabet] == ["mu", "eta", "omega"]
        assert pres.alphabet.lookup_arities("mu") == (2, 1)
        assert pres.alphabet.lookup_arities("eta") == (0, 1)
        lhs, rhs = pres.relations[0]
        assert (lhs.src, lhs.tgt) == (3, 1) == (rhs.src, rhs.tgt)
        for lhs, rhs in pres.relations[1:]:
            assert (lhs.src, lhs.tgt) == (1, 1) == (rhs.src, rhs.tgt)

    def test_left_inverse_relation_shape(self):
        lhs, rhs = builtin_group().relations[3]
        assert len(lhs) == 2 and len(rhs) == 1
        assert lhs.letters[0][1] is OMEGA or lhs.letters[0][1] == OMEGA

    def test_z_subset(self):
        z = builtin_group_Z()
        y = builtin_group()
        assert len(z.relations) == 3
        assert z.relations == (y.relations[0], y.relations[1], y.relations[3])

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            builtin_group().alphabet.lookup("nu")

    def test_duplicate_names_rejected(self):
        from opwords.alphabet import Alphabet, Generator
        from opwords.errors import ArityError
        with pytest.raises(ArityError):
            Alphabet((Generator("m", 2, 1), Generator("m", 1, 1)))

    def test_alphabet_extension(self):
        from opwords.alphabet import Generator
        extended = builtin_group().alphabet.extend(Generator("eta2", 0, 1))
        assert extended.lookup_arities("eta2") == (0, 1)
        assert extended.lookup_arities("mu") == (2, 1)


class TestGroups:
    def test_cyclic_and_symmetric_verify(self):
        for n in range(1, 7):
            verify_group(cyclic_group(n))
        verify_group(symmetric_group_3())

    def test_round_trip(self):
        for tables in [cyclic_group(4), symmetric_group_3()]:
            asg = algebra_from_group(tables)
            back = group_from_algebra(asg)
            assert back == tables

    def test_check_algebra_passes_for_groups(self):
        for n in range(1, 7):
            report = check_algebra(algebra_from_group(cyclic_group(n)),
                                   builtin_group())
            assert report.passed
        assert check_algebra(algebra_from_group(symmetric_group_3()),
                             builtin_group()).passed


def broken_magma_assignment():
    """Non-associative table: (0*0)*1 != 0*(0*1)."""
    c = Carrier(3)
    table = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    return GeneratorAssignment(c, {
        MU: tabulate(c, 2, 1, lambda xs: (table[xs[0]][xs[1]],)),
        ETA: tabulate(c, 0, 1, lambda xs: (0,)),
        OMEGA: tabulate(c, 1, 1, lambda xs: (xs[0],)),
    })


def wrong_unit_z4():
    c = Carrier(4)
    return GeneratorAssignment(c, {
        MU: tabulate(c, 2, 1, lambda xs: ((xs[0] + xs[1]) % 4,)),
        ETA: tabulate(c, 0, 1, lambda xs: (1,)),
        OMEGA: tabulate(c, 1, 1, lambda xs: ((-xs[0]) % 4,)),
    })


def wrong_inverse_z5():
    c = Carrier(5)
    return GeneratorAssignment(c, {
        MU: tabulate(c, 2, 1, lambda xs: ((xs[0] + xs[1]) % 5,)),
        ETA: tabulate(c, 0, 1, lambda xs: (0,)),
        OMEGA: tabulate(c, 1, 1, lambda xs: (xs[0],)),
    })


class TestCheckAlgebraFailures:
    def test_non_associative_magma_located(self):
        report = check_algebra(broken_magma_assignment(), builtin_group())
        fail = report.checks[0]
        assert not fail.passed
        assert fail.input_tuple is not None
        assert fail.lhs_out != fail.rhs_out

    def test_wrong_unit_fails_left_unit(self):
        report = check_algebra(wrong_unit_z4(), builtin_group())
        assert not report.checks[1].passed

    def test_trivial_group_passes(self):
        assert check_algebra(algebra_from_group(cyclic_group(1)),
                             builtin_group()).passed

    def test_group_from_algebra_rejects(self):
        with pytest.raises(OpwordsError):
            group_from_algebra(wrong_unit_z4())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_failing_row_is_the_first_differing_row(self, data):
        size = data.draw(st.integers(1, 3), label="carrier")
        c = Carrier(size)
        values = st.integers(0, size - 1)
        functions = {
            g: FinFunction(c, g.src, 1, tuple(
                (data.draw(values, label=g.name),)
                for _ in range(size ** g.src)))
            for g in (MU, ETA, OMEGA)}
        assignment = GeneratorAssignment(c, functions)
        pres = builtin_group()
        report = check_algebra(assignment, pres)
        for check, (lhs, rhs) in zip(report.checks, pres.relations):
            # oracle: the first row, in row order, where the sides differ
            t1, t2 = eval_word(lhs, assignment), eval_word(rhs, assignment)
            expected = next(
                ((xs, t1(xs), t2(xs)) for xs in c.tuples(lhs.src)
                 if t1(xs) != t2(xs)), None)
            assert check.passed == (expected is None)
            if expected is not None:
                assert (check.input_tuple, check.lhs_out,
                        check.rhs_out) == expected


class TestEquivalentMod:
    def test_each_relation_one_step(self):
        for pres in (builtin_group(), builtin_group_Z()):
            for lhs, rhs in pres.relations:
                res = equivalent_mod(lhs, rhs, pres)
                assert isinstance(res, Proved)
                assert len(res.certificate.steps) == 1
                res.certificate.replay(pres.context())

    def test_reflexivity(self):
        pres = builtin_group()
        res = equivalent_mod(gen_word(MU), gen_word(MU), pres)
        assert isinstance(res, Proved) and res.certificate.steps == ()

    def test_autonomous_search_never_refutes_a_relation(self):
        z = builtin_group_Z()
        lhs, rhs = builtin_group().relations[2]  # right unit, not in Z
        res = equivalent_mod(lhs, rhs, z, SearchBudget(max_steps=500),
                             consult_builtin=False)
        assert not isinstance(res, Disproved)

    def test_builtin_certificate_replays_under_the_query(self, monkeypatch):
        import opwords.present
        from opwords.certificate import Certificate
        from opwords.errors import ReplayError
        w, w2 = gen_word(OMEGA), identity_word(1)
        monkeypatch.setattr(opwords.present, "known_certificates",
                            lambda pres: {(w, w2): Certificate(w, (), w2)})
        with pytest.raises(ReplayError):
            equivalent_mod(w, w2, builtin_group())

    def test_omega_not_identity(self):
        pres = builtin_group()
        res = equivalent_mod(gen_word(OMEGA), identity_word(1), pres)
        assert isinstance(res, Disproved)
        wit = res.witness
        assert check_algebra(wit.assignment, pres).passed
        t1 = eval_word(gen_word(OMEGA), wit.assignment)
        t2 = eval_word(identity_word(1), wit.assignment)
        assert t1(wit.input_tuple) != t2(wit.input_tuple)


class TestPresentationFiles:
    def test_parse_round(self, tmp_path):
        text = """
# a tiny monoid-like presentation
generator m 2 1
generator u 0 1
relation (gen u * id(1)) . gen m == id(1)
"""
        pres = parse_presentation(text)
        assert len(pres.alphabet) == 2
        assert len(pres.relations) == 1
        lhs, rhs = pres.relations[0]
        assert (lhs.src, lhs.tgt) == (1, 1)

    def test_relation_arity_mismatch(self):
        text = """
generator m 2 1
relation gen m == id(1)
"""
        from opwords.errors import ArityError
        with pytest.raises(ArityError):
            parse_presentation(text)
