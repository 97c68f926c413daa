"""Acceptance suite: one test per criterion, each printing a PASS line."""

import itertools
import random
import time

from opwords.alphabet import Generator
from opwords.cli import main as cli_main
from opwords.endo import (Carrier, FinFunction, check_braiding,
                          check_branching, ff_compose, ff_tensor, pullback)
from opwords.evaluate import eval_word
from opwords.finmap import (all_maps, braid, branch, compose, identity,
                            tensor)
from opwords.fixtures import lemma_fixtures
from opwords.present import (algebra_from_group, builtin_group,
                             builtin_group_Z, check_algebra, cyclic_group,
                             equivalent_mod, symmetric_group_3)
from opwords.rules import (RuleContext, build_m1, build_m2, build_m3,
                           build_m4)
from opwords.search import (Disproved, Proved, SearchBudget, Unknown,
                            equivalent, probe_assignments, validate_witness,
                            word_generators)
from opwords.words import (compose_words, op_word, tensor_power, whisker)

import io
from contextlib import redirect_stdout

from conftest import random_word

DISPROVED_LOG = []


def report(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def maps_upto(k):
    out = []
    for m in range(k + 1):
        for n in range(k + 1):
            out.extend(all_maps(m, n))
    return out


def test_criterion_1_map_law_suite():
    t0 = time.monotonic()
    cases = 0
    pool3 = maps_upto(3)
    for f in pool3:
        assert compose(identity(f.src), f) == f == compose(f, identity(f.tgt))
        cases += 2
        for g in all_maps(f.tgt, 3):
            for h in all_maps(g.tgt, 3):
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
                cases += 1
    pool2 = maps_upto(2)
    for f in pool2:
        assert tensor(identity(0), f) == f == tensor(f, identity(0))
        cases += 2
        for g in pool2:
            lhs = compose(tensor(f, g), braid(f.tgt, g.tgt))
            assert lhs == compose(braid(f.src, g.src), tensor(g, f))
            cases += 1
            for h in pool2:
                assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))
                cases += 1
    for f in pool2:
        for fp in pool2:
            for g in all_maps(f.tgt, 2):
                for gp in all_maps(fp.tgt, 2):
                    assert (compose(tensor(f, fp), tensor(g, gp))
                            == tensor(compose(f, g), compose(fp, gp)))
                    cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report(1, f"map law suite, {cases} cases in {elapsed:.1f}s")


def _all_functions(carrier, m, n):
    rows = carrier.size ** m
    for flat in itertools.product(
            itertools.product(range(carrier.size), repeat=n), repeat=rows):
        yield FinFunction(carrier, m, n, flat)


def _random_function(rng, carrier, m, n):
    rows = tuple(tuple(rng.randrange(carrier.size) for _ in range(n))
                 for _ in range(carrier.size ** m))
    return FinFunction(carrier, m, n, rows)


def test_criterion_2_endo_axiom_suite():
    t0 = time.monotonic()
    braid_cases = branch_cases = 0
    z2 = Carrier(2)
    fns2 = [f for m in range(3) for n in range(3)
            for f in _all_functions(z2, m, n)]
    for x in fns2:
        for x2 in fns2:
            assert check_braiding(x, x2)
            braid_cases += 1
        for a in range(4):
            assert check_branching(a, x)
            branch_cases += 1
    z3 = Carrier(3)
    fns3 = [f for m in range(2) for n in range(3)
            for f in _all_functions(z3, m, n)]
    partners = [f for f in fns3 if f.tgt <= 1]
    for x in fns3:
        for x2 in partners:
            assert check_braiding(x, x2)
            assert check_braiding(x2, x)
            braid_cases += 2
        for a in range(4):
            assert check_branching(a, x)
            branch_cases += 1
    # the (2,2)-at-size-3 family is astronomically large; sample it
    rng = random.Random(2)
    for _ in range(2000):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        m2, n2 = rng.randint(0, 2), rng.randint(0, 2)
        x = _random_function(rng, z3, m, n)
        x2 = _random_function(rng, z3, m2, n2)
        assert check_braiding(x, x2)
        assert check_branching(rng.randint(0, 3), x)
        braid_cases += 1
        branch_cases += 1
    # pullback contravariant functoriality, exhaustive arities <= 2
    functor_cases = 0
    for size in (2, 3):
        c = Carrier(size)
        for f in maps_upto(2):
            for g in all_maps(f.tgt, 2):
                assert (pullback(compose(f, g), c)
                        == ff_compose(pullback(g, c), pullback(f, c)))
                functor_cases += 1
            for g in maps_upto(2):
                assert (pullback(tensor(f, g), c)
                        == ff_tensor(pullback(f, c), pullback(g, c)))
                functor_cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(2, f"braiding x{braid_cases}, branching x{branch_cases}, "
              f"functoriality x{functor_cases} in {elapsed:.1f}s")


def _seeded_alphabet(rng):
    gens = []
    for name in ("g0", "g1", "g2"):
        gens.append(Generator(name, rng.randint(0, 2), rng.randint(0, 2)))
    if all(g.tgt == 0 for g in gens):
        gens[0] = Generator("g0", gens[0].src, 1)
    return tuple(gens)


def test_criterion_3_rule_soundness():
    rng = random.Random(3)
    gens = _seeded_alphabet(rng)
    budget = SearchBudget(probe_carriers=(2, 3), probe_assignments=2, seed=3)
    checked = 0
    while checked < 1000:
        v = random_word(rng, max_len=1, gens=gens)
        v2 = random_word(rng, max_len=1, gens=gens)
        a = rng.randint(0, 3)
        q, p = rng.randint(0, 2), rng.randint(0, 2)
        kind = rng.randint(1, 4)
        if kind == 1:
            lhs, rhs = build_m1(v, v2)
        elif kind == 2:
            lhs, rhs = build_m2(v, a, q, p)
        elif kind == 3:
            lhs, rhs = build_m3(v, a, q, p)
        else:
            lhs, rhs = build_m4(v, a, q, p)
        assert (lhs.src, lhs.tgt) == (rhs.src, rhs.tgt)
        assignments = probe_assignments(word_generators(lhs, rhs), budget)
        assert len(assignments) >= 10
        for asg in assignments:
            assert eval_word(lhs, asg) == eval_word(rhs, asg)
        checked += 1
    report(3, f"{checked} schema instances evaluated equal under "
              f"{len(assignments)} assignments each")


def _record_result(res, w, w2):
    if isinstance(res, Disproved):
        DISPROVED_LOG.append((w, w2, res.witness))
    return res


def test_criterion_4_interchange_lemma():
    rng = random.Random(4)
    t0 = time.monotonic()
    proved = 0
    for _ in range(200):
        w = random_word(rng, max_len=2)
        w2 = random_word(rng, max_len=2)
        lhs = compose_words(whisker(0, w, w2.src), whisker(w.tgt, w2, 0))
        rhs = compose_words(whisker(w.src, w2, 0), whisker(0, w, w2.tgt))
        res = _record_result(equivalent(lhs, rhs), lhs, rhs)
        assert isinstance(res, Proved), f"interchange not proved for {w!r}, {w2!r}"
        res.certificate.replay(RuleContext())
        proved += 1
    report(4, f"{proved}/200 interchange instances proved "
              f"in {time.monotonic() - t0:.0f}s, zero unknown")


def test_criterion_5_braid_and_branch_lemmas():
    rng = random.Random(5)
    t0 = time.monotonic()
    for _ in range(100):
        w = random_word(rng, max_len=2)
        p = rng.randint(0, 2)
        lhs = compose_words(op_word(braid(w.src, p)), whisker(0, w, p))
        rhs = compose_words(whisker(p, w, 0), op_word(braid(w.tgt, p)))
        res = _record_result(equivalent(lhs, rhs), lhs, rhs)
        assert isinstance(res, Proved), f"braid lemma not proved for {w!r}, p={p}"
    braid_t = time.monotonic() - t0
    t0 = time.monotonic()
    for _ in range(100):
        w = random_word(rng, max_len=1)
        a = rng.randint(0, 2)
        lhs = compose_words(op_word(branch(a, w.src)), tensor_power(w, a))
        rhs = compose_words(w, op_word(branch(a, w.tgt)))
        res = _record_result(equivalent(lhs, rhs), lhs, rhs)
        assert isinstance(res, Proved), f"branch lemma not proved for {w!r}, a={a}"
    report(5, f"100 braid cases ({braid_t:.0f}s) and 100 branch cases "
              f"({time.monotonic() - t0:.0f}s) proved, zero unknown")


def _broken_assignments():
    from opwords.endo import tabulate
    from opwords.evaluate import GeneratorAssignment
    from opwords.present import ETA, MU, OMEGA
    c3, c4, c5 = Carrier(3), Carrier(4), Carrier(5)
    magma = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]  # (0*0)*1 != 0*(0*1)
    non_assoc = GeneratorAssignment(c3, {
        MU: tabulate(c3, 2, 1, lambda xs: (magma[xs[0]][xs[1]],)),
        ETA: tabulate(c3, 0, 1, lambda xs: (0,)),
        OMEGA: tabulate(c3, 1, 1, lambda xs: (xs[0],))})
    wrong_unit = GeneratorAssignment(c4, {
        MU: tabulate(c4, 2, 1, lambda xs: ((xs[0] + xs[1]) % 4,)),
        ETA: tabulate(c4, 0, 1, lambda xs: (1,)),
        OMEGA: tabulate(c4, 1, 1, lambda xs: ((-xs[0]) % 4,))})
    wrong_inverse = GeneratorAssignment(c5, {
        MU: tabulate(c5, 2, 1, lambda xs: ((xs[0] + xs[1]) % 5,)),
        ETA: tabulate(c5, 0, 1, lambda xs: (0,)),
        OMEGA: tabulate(c5, 1, 1, lambda xs: (xs[0],))})
    return [("non-associative magma", non_assoc, 0),
            ("wrong-unit Z/4", wrong_unit, 1),
            ("wrong-inverse Z/5", wrong_inverse, 4)]


def test_criterion_6_group_algebra_theorems():
    t0 = time.monotonic()
    pres = builtin_group()
    passing = 0
    for n in range(1, 7):
        assert check_algebra(algebra_from_group(cyclic_group(n)), pres).passed
        passing += 1
    assert check_algebra(algebra_from_group(symmetric_group_3()), pres).passed
    passing += 1
    located = []
    for name, asg, expect_idx in _broken_assignments():
        report_ = check_algebra(asg, pres)
        assert not report_.passed
        fail = report_.failures()[0]
        assert fail.input_tuple is not None and fail.lhs_out != fail.rhs_out
        assert not report_.checks[expect_idx].passed
        located.append(name)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(6, f"{passing} group assignments pass; counterexamples located for "
              f"{', '.join(located)}; {elapsed:.1f}s")


GROUP_ASSIGNMENTS = None


def _group_assignments():
    global GROUP_ASSIGNMENTS
    if GROUP_ASSIGNMENTS is None:
        GROUP_ASSIGNMENTS = [algebra_from_group(cyclic_group(n))
                             for n in range(1, 7)]
        GROUP_ASSIGNMENTS.append(algebra_from_group(symmetric_group_3()))
    return GROUP_ASSIGNMENTS


def test_criterion_7_lemma_fixtures():
    fixtures = lemma_fixtures()
    assert len(fixtures) == 11
    base_names = {g.name for g in builtin_group().alphabet}
    eval_checked = 0
    for f in fixtures:
        f.certificate.replay(f.context)
        f.certificate.reversed().replay(f.context)
        letters = f.certificate.start.letters + f.certificate.end.letters
        if {g.name for _, g, _ in letters} <= base_names:
            for asg in _group_assignments():
                assert (eval_word(f.certificate.start, asg)
                        == eval_word(f.certificate.end, asg))
                eval_checked += 1
    report(7, f"{len(fixtures)} fixtures replay forward and backward; "
              f"{eval_checked} endpoint evaluations agree on group models")


def test_criterion_8_z_sufficiency():
    z = builtin_group_Z()
    y = builtin_group().relations
    fixtures = {f.name: f for f in lemma_fixtures()}
    # fixture replay proves both dropped relations from the three left axioms
    for name, rel in (("ZG-claim1", y[4]), ("ZG-claim2", y[2])):
        cert = fixtures[name].certificate
        assert (cert.start, cert.end) == rel
        cert.replay(z.context())
    # autonomous search: Proved is accepted, Unknown is reported, never a failure
    outcomes = []
    for rel in (y[2], y[4]):
        res = equivalent_mod(rel[0], rel[1], z,
                             SearchBudget(max_steps=200_000, seed=0),
                             consult_builtin=False)
        assert isinstance(res, (Proved, Unknown))
        outcomes.append("proved" if isinstance(res, Proved)
                        else f"unknown after {res.visited} visited (accepted)")
    # the CLI reports an exhausted search as exit code 2, never a failure
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["equiv", "--pres", "@group-Z", "--max-steps", "400",
                         "(id(1) * gen eta) . gen mu",
                         "(gen eta * id(1)) . gen mu"])
    assert code in (0, 2)
    report(8, f"fixture replay proves y3 and y5 from the left axioms; "
              f"search: {outcomes[0]}, {outcomes[1]}; budget exhaustion "
              f"reported as exit {code}")


def test_criterion_9_refutation_soundness():
    # witnesses collected during this run re-validate
    for w, w2, witness in DISPROVED_LOG:
        assert validate_witness(w, w2, witness)
    checked = len(DISPROVED_LOG)
    # presentation-mod refutations: witness must satisfy every relation
    pres = builtin_group()
    from opwords.words import compose_many, gen_word, identity_word
    mu = gen_word(pres.alphabet.lookup("mu"))
    omega = gen_word(pres.alphabet.lookup("omega"))
    swap = op_word(braid(1, 1))
    mod_pairs = [
        (omega, identity_word(1)),
        (mu, compose_words(swap, mu)),
        (compose_many(mu, omega), mu),
        (compose_many(omega, omega, omega), identity_word(1)),
    ]
    for w, w2 in mod_pairs:
        res = equivalent_mod(w, w2, pres, SearchBudget(max_steps=2000))
        assert isinstance(res, Disproved), (w, w2)
        wit = res.witness
        assert check_algebra(wit.assignment, pres).passed
        t1, t2 = eval_word(w, wit.assignment), eval_word(w2, wit.assignment)
        assert (t1(wit.input_tuple), t2(wit.input_tuple)) == wit.outputs
        assert wit.outputs[0] != wit.outputs[1]
        checked += 1
    # free refutations over random words with a generator swapped
    rng = random.Random(9)
    attempts = 0
    while attempts < 40:
        w = random_word(rng, max_len=2)
        if len(w) == 0:
            continue
        attempts += 1
        i = rng.randrange(len(w))
        l, g, r = w.letters[i]
        other = Generator("swapped_" + g.name, g.src, g.tgt)
        w2 = type(w)(w.boundaries,
                     w.letters[:i] + ((l, other, r),) + w.letters[i + 1:])
        res = equivalent(w, w2, SearchBudget(max_steps=300))
        if isinstance(res, Disproved) and res.witness.kind == "evaluation":
            assert validate_witness(w, w2, res.witness)
            checked += 1
    assert checked >= 10
    report(9, f"{checked} refutation witnesses re-validated")


def test_criterion_10_cli_contract():
    from test_dsl import ALPHABET, random_expr
    from opwords.dsl import parse_word
    rng = random.Random(10)
    for _ in range(500):
        text, word = random_expr(rng)
        assert parse_word(text, ALPHABET) == word
    # exit codes: 0 proved, 1 disproved, 2 unknown, 3 usage
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["equiv", "--pres", "@group",
                         "(gen eta * id(1)) . gen mu", "id(1)"]) == 0
        assert cli_main(["equiv", "--pres", "@group", "gen omega",
                         "id(1)"]) == 1
        assert cli_main(["equiv", "--pres", "@group-Z", "--max-steps", "400",
                         "(id(1) * gen eta) . gen mu",
                         "(gen eta * id(1)) . gen mu"]) == 2
        assert cli_main(["equiv", "--pres", "@group", "gen mu . ."]) == 3
        assert cli_main(["equiv"]) == 3
    t0 = time.monotonic()
    with redirect_stdout(buf):
        assert cli_main(["lemmas"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(10, f"500 expressions denote their words; exit codes 0/1/2/3 "
               f"verified; lemmas in {elapsed:.1f}s")
