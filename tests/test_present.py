from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opwords.endo import Carrier, FinFunction, tabulate
from opwords.errors import (AssignmentError, OpwordsError,
                            UnknownGeneratorError)
from opwords.evaluate import GeneratorAssignment, eval_word
from opwords.present import (ETA, GROUP_ALPHABET, MU, OMEGA, Presentation,
                             _battery, algebra_from_group, builtin_group,
                             builtin_group_Z, check_algebra, cyclic_group,
                             equivalent_mod, group_from_algebra,
                             load_presentation, parse_presentation,
                             satisfying_probes, symmetric_group_3,
                             verify_group)
from opwords.search import (Disproved, Proved, SearchBudget,
                            probe_assignments)
from opwords.words import gen_word, identity_word


class TestBuiltins:
    def test_group_shape(self):
        pres = builtin_group()
        assert len(pres.relations) == 5
        assert [g.name for g in pres.alphabet] == ["mu", "eta", "omega"]
        mu, eta = pres.alphabet.lookup("mu"), pres.alphabet.lookup("eta")
        assert (mu.src, mu.tgt, eta.src, eta.tgt) == (2, 1, 0, 1)
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
        eta2, mu = extended.lookup("eta2"), extended.lookup("mu")
        assert (eta2.src, eta2.tgt, mu.src, mu.tgt) == (0, 1, 2, 1)


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


OMEGA_UNIQUE = str(Path(__file__).resolve().parents[1] / "src" / "opwords"
                   / "lemmas" / "omega-unique.pres")


class TestSatisfyingProbes:
    @pytest.mark.parametrize("source", ["@group", "@group-Z", OMEGA_UNIQUE])
    def test_battery_is_unchanged_when_every_generator_is_used(self, source):
        # the relations use every generator, so a query's battery is the
        # whole alphabet's, table for table and draw for draw
        pres = load_presentation(source)
        budget = SearchBudget(probe_carriers=(0, 1, 2, 3), seed=7)
        whole = [a for a in probe_assignments(tuple(pres.alphabet), budget)
                 if check_algebra(a, pres).passed]
        got = satisfying_probes(pres, budget,
                                (gen_word(OMEGA), identity_word(1)))
        assert got == satisfying_probes(pres, budget)
        assert got[:len(whole)] == whole
        assert {tuple(a.functions) for a in got} == {tuple(pres.alphabet)}

    def test_unused_generators_get_no_table(self):
        pres = parse_presentation("generator h 1 1\ngenerator u 2 1\n"
                                  "generator g 30 1\n"
                                  "relation gen u . gen h == gen u\n")
        h = gen_word(pres.alphabet.lookup("h"))
        probes = satisfying_probes(pres, SearchBudget(), (h, h))
        assert probes
        assert {tuple(g.name for g in a.functions) for a in probes} \
            == {("h", "u")}

    def test_carrier_0_is_skipped_for_the_whole_alphabet(self):
        # e has no strands and h has one: no table sends carrier^0 into an
        # empty carrier, so h has no model there though no query uses it
        pres = parse_presentation("generator e 0 0\ngenerator h 0 1\n")
        e = gen_word(pres.alphabet.lookup("e"))
        budget = SearchBudget(probe_carriers=(0, 2))
        assert {a.carrier.size for a in probe_assignments(
            (pres.alphabet.lookup("e"),), budget)} == {0, 2}
        assert {a.carrier.size for a in satisfying_probes(
            pres, budget, (e, e))} == {2}

    def test_check_algebra_fails_the_empty_carrier_for_untabled_strands(self):
        pres = parse_presentation("generator e 0 0\ngenerator h 0 1\n"
                                  "generator u 1 1\n")
        e, h, u = (pres.alphabet.lookup(n) for n in "ehu")
        c = Carrier(0)
        fe = tabulate(c, 0, 0, lambda xs: ())
        fu = tabulate(c, 1, 1, lambda xs: xs)
        report = check_algebra(GeneratorAssignment(c, {e: fe}), pres)
        assert not report.passed and report.untabled == (h, u)
        # a table for every stranded generator leaves nothing to rule out
        pres_u = parse_presentation("generator e 0 0\ngenerator u 1 1\n")
        assert check_algebra(GeneratorAssignment(c, {e: fe, u: fu}),
                             pres_u).passed
        assert check_algebra(GeneratorAssignment(Carrier(2), {}),
                             pres).passed

    def test_check_algebra_needs_the_relations_generators_only(self):
        pres = parse_presentation("generator m 2 1\ngenerator u 1 1\n"
                                  "relation gen m == gen m\n")
        c = Carrier(2)
        m = pres.alphabet.lookup("m")
        fm = tabulate(c, 2, 1, lambda xs: (xs[0],))
        assert check_algebra(GeneratorAssignment(c, {m: fm}), pres).passed
        with pytest.raises(AssignmentError):
            check_algebra(GeneratorAssignment(c, {}), pres)


def _probe_fields(budget):
    return SearchBudget(probe_carriers=budget.probe_carriers,
                        probe_assignments=budget.probe_assignments,
                        seed=budget.seed)


def _fresh_battery(pres, budget, words=()):
    """The battery built without the cache."""
    return list(_battery.__wrapped__(pres, pres.used_generators(*words),
                                     _probe_fields(budget)))


class TestBatteryCache:
    @pytest.mark.parametrize("source", ["@group", "@group-Z", OMEGA_UNIQUE])
    def test_cached_battery_is_the_fresh_build(self, source):
        pres = load_presentation(source)
        budget = SearchBudget(probe_carriers=(0, 1, 2, 3), seed=5)
        words = (gen_word(OMEGA), identity_word(1))
        _battery.cache_clear()
        first = satisfying_probes(pres, budget, words)
        again = satisfying_probes(pres, budget, words)
        assert _battery.cache_info()[:2] == (1, 1)   # hits, misses
        assert first == again == _fresh_battery(pres, budget, words)

    def test_only_the_probe_fields_key_the_battery(self):
        # no relations: every random table survives, so seeds differ
        pres = parse_presentation("generator h 1 1\n")
        h = (gen_word(pres.alphabet.lookup("h")),)
        _battery.cache_clear()
        base = satisfying_probes(pres, SearchBudget(max_steps=10, seed=5), h)
        same = satisfying_probes(pres, SearchBudget(max_steps=900,
                                                    max_word_len=3, seed=5), h)
        assert _battery.cache_info()[:2] == (1, 1)
        assert same == base
        other = satisfying_probes(pres, SearchBudget(max_steps=10, seed=6), h)
        assert _battery.cache_info()[:2] == (1, 2)
        assert other != base
        assert other == _fresh_battery(pres, SearchBudget(seed=6), h)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_presentations_on_one_alphabet_keep_their_own_battery(self,
                                                                  reverse):
        # associativity alone admits tables (mu = first input) that the
        # group relations refute
        assoc = Presentation(GROUP_ALPHABET, builtin_group().relations[:1])
        order = [builtin_group(), builtin_group_Z(), assoc]
        if reverse:
            order.reverse()
        budget = SearchBudget(probe_carriers=(1, 2, 3))
        _battery.cache_clear()
        got = [(pres, satisfying_probes(pres, budget)) for pres in order]
        assert _battery.cache_info()[:2] == (0, 3)
        for pres, probes in got:
            assert probes == _fresh_battery(pres, budget)
            assert all(check_algebra(a, pres).passed for a in probes)
        by_count = {len(pres.relations): probes for pres, probes in got}
        assert len(by_count[1]) > len(by_count[5])

    def test_returned_list_is_the_callers_own(self):
        pres, budget = builtin_group(), SearchBudget()
        probes = satisfying_probes(pres, budget)
        want = list(probes)
        probes.clear()
        assert satisfying_probes(pres, budget) == want != []


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

    def test_builtin_lemmas_answer_under_reordered_relations(self):
        # a shipped lemma answers under every presentation that lists all
        # of its relations, in any order, with its REL steps renumbered
        from opwords.fixtures import lemma_fixtures
        z = builtin_group_Z()
        pres = Presentation(z.alphabet, z.relations[::-1])
        claim1 = next(f for f in lemma_fixtures() if f.name == "ZG-claim1")
        start, end = claim1.certificate.start, claim1.certificate.end
        for w, w2 in ((start, end), (end, start)):
            res = equivalent_mod(w, w2, pres)
            assert isinstance(res, Proved)
            assert res.certificate.replay(pres.context()) == w2

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
