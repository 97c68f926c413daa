import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import opwords.rules as rules_module
from opwords.alphabet import Generator
from opwords.certificate import step_key
from opwords.errors import ArityError, ReplayError
from opwords.evaluate import eval_word
from opwords.finmap import FinMap, identity
from opwords.fixtures import lemma_fixtures
from opwords.present import builtin_group
from opwords.rules import (RewriteStep, RuleBounds, RuleContext, Tally,
                           _Cut, _m4_rhs, _m4_rhs_ends, _reads, _seam_adjacent,
                           _seam_count, _seams, apply_step, build_m1,
                           build_m2, build_m3, build_m4, moves, step_sides)
from opwords.search import (Proved, _lane_bounds, equivalent,
                            probe_assignments, SearchBudget, word_generators,
                            word_width)
from opwords.words import (Word, compose_words, gen_word, identity_word,
                           op_word, tensor_words)

from conftest import GENS, clear_rules_caches, random_word, rules_caches

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
        successors = {succ for _, succ in
                      list(moves(w, RuleContext(), RuleBounds()))}
        assert swapped in successors

    def test_identity_word_has_no_two_letter_instances(self):
        for step, _ in list(moves(identity_word(1), RuleContext(),
                                  RuleBounds())):
            assert step.rule != "M1" or len(step_pattern_letters(step)) < 2

    def test_braid_instance_found(self):
        v = gen_word(OMEGA)
        lhs, rhs = build_m2(v, 1, 0, 0)
        successors = {succ for _, succ in
                      list(moves(lhs, RuleContext(), RuleBounds()))}
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

    @pytest.mark.parametrize("seam", ["seam_left", "seam_right"])
    def test_replay_rejects_seams_that_do_not_fit(self, seam):
        # moves() builds successors without validation; replay must not
        w = tensor_words(gen_word(MU), gen_word(OMEGA))
        ctx = RuleContext()
        for step, _ in list(moves(w, RuleContext(), RuleBounds())):
            g = getattr(step, seam)
            wide = identity(max(g.src, g.tgt) + 1)
            with pytest.raises((ReplayError, ArityError)):
                apply_step(w, step.replace(**{seam: wide}), ctx)

    def test_bad_replay_raises(self):
        w = tensor_words(gen_word(MU), gen_word(OMEGA))
        step, succ = list(moves(w, RuleContext(), RuleBounds()))[0]
        bogus = RewriteStep(step.rule, step.direction, split=len(w),
                            a=step.a, q=step.q, p=step.p, v=step.v,
                            v2=step.v2, seam_left=step.seam_left,
                            seam_right=step.seam_right)
        with pytest.raises(ReplayError):
            apply_step(w, bogus, RuleContext())


def step_pattern_letters(step):
    pat, _ = step_sides(step, RuleContext())
    return pat.letters


def test_eta_drop_collapses_by_an_m4_deletion():
    """A factor of type (0,0) collapses to the empty word by M4 with a = 0,
    free and modulo @group alike."""
    eta = gen_word(Generator("eta", 0, 1))
    w = compose_words(eta, op_word(FinMap(0, 1, ())))
    for ctx in (RuleContext(), builtin_group().context()):
        assert any(succ == identity_word(0) and
                   (step.rule, step.direction, step.a) == ("M4", "bwd", 0)
                   for step, succ in moves(w, ctx, RuleBounds()))


# SHA-256 and length of the successor stream of the corpus below, in order.
# Any change to which moves are generated, their parameters or their order
# changes it; a refactor of rules.py must keep it.
MOVES_STREAM = (
    "188f41d0f412d4d25461ed817844d1e92b5db62a5c26212c3ec7629e09ec5878", 70658)


def _stream_corpus():
    """(words, context) pairs of the moves() stream digest: free words,
    then the ends of every shipped certificate under @group."""
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
    return ((free, RuleContext()), (lemmas, builtin_group().context()))


def _lemma_steps():
    """(x, y, context) for each step x -> y of every shipped certificate."""
    for fx in lemma_fixtures():
        words = [fx.certificate.start]
        for step in fx.certificate.steps:
            words.append(apply_step(words[-1], step, fx.context))
        for x, y in zip(words, words[1:]):
            yield x, y, fx.context


@functools.cache
def _stream_digests():
    """One enumeration of the corpus's moves() stream at seam caps 2 and
    64, read by both stream digest tests: the rule families seen, then
    (SHA-256, count) of the whole stream and of its single-letter part."""
    digest, count, rules = hashlib.sha256(), 0, set()
    single, single_count = hashlib.sha256(), 0
    for cap in (2, 64):
        bounds = RuleBounds(seam_cap=cap)
        for corpus, ctx in _stream_corpus():
            for w in corpus:
                for step, succ in moves(w, ctx, bounds):
                    key = (step_key(step) + repr(succ)).encode()
                    digest.update(key)
                    count += 1
                    rules.add(step.rule.split(":")[0])
                    if not _is_whole_word_step(step):
                        single.update(key)
                        single_count += 1
    return (rules, (digest.hexdigest(), count),
            (single.hexdigest(), single_count))


def test_moves_stream_digest():
    rules, stream, _ = _stream_digests()
    assert rules == {"M1", "M2", "M3", "M4", "REL"}
    assert stream == MOVES_STREAM


# MOVES_STREAM as it stood before interchange of whole words: the stream
# above without the M1 steps whose two parameter words have 3 or more
# letters between them.
SINGLE_LETTER_STREAM = (
    "b7161f9beaf1f392640684b201731856351d3f97c2f690037be24b8d412873c7", 70472)


def _is_whole_word_step(step):
    return step.rule == "M1" and len(step.v) + len(step.v2) >= 3


def test_single_letter_moves_stream_digest():
    assert _stream_digests()[2] == SINGLE_LETTER_STREAM


def test_unbounded_moves_are_the_far_bounded_moves():
    """moves() takes one path, bounded or not: without bounds its cut
    prunes nothing, and the stream is the one under bounds that no word of
    the corpus comes near."""
    far = 10 ** 9
    for cap in (2, 64):
        bounds = RuleBounds(seam_cap=cap)
        for corpus, ctx in _stream_corpus():
            for w in corpus:
                tally = Tally()
                stream = list(moves(w, ctx, bounds, tally))
                assert tally.pruned == 0
                assert stream == list(moves(
                    w, ctx, bounds.replace(max_len=far, max_width=far)))


def test_generation_agrees_with_replay():
    """Each family hands _emit the sides it builds itself; replay rebuilds
    them from the step's fields (step_sides). Every move of the stream
    corpus at seam cap 2, in each family and direction, REL under @group
    included, replays to the successor it was yielded with."""
    seen, bounds = set(), RuleBounds(seam_cap=2)
    for corpus, ctx in _stream_corpus():
        for w in corpus:
            for step, succ in moves(w, ctx, bounds):
                assert apply_step(w, step, ctx) == succ
                seen.add((step.rule.split(":")[0], step.direction))
    assert seen == set(itertools.product(("M1", "M2", "M3", "M4", "REL"),
                                         ("fwd", "bwd")))


def test_rel_span_emits_match_every_letter(monkeypatch):
    """A relation side's first letter fixes the pads q and p; _rel_spans
    compares its later letters, whiskered by q and p, before it emits, so
    every REL span that reaches _emit passes _emit's letter check."""
    emit, checked = rules_module._emit, []

    def spy(w, s, rule, direction, sides, bounds, cut, **params):
        if rule.startswith("REL:"):
            pat = sides[0] if direction == "fwd" else sides[1]
            if len(pat):
                checked.append(w.letters[s:s + len(pat)] == pat.letters)
        return emit(w, s, rule, direction, sides, bounds, cut, **params)

    monkeypatch.setattr(rules_module, "_emit", spy)
    for x, _, ctx in _lemma_steps():
        list(moves(x, ctx, RuleBounds()))
    assert len(checked) > 100 and all(checked)


def test_shared_memo_keeps_the_moves_stream(monkeypatch):
    """moves() gives the same stream, steps and successors in order with
    the same pruned count, with every rules cache cleared before each call
    and with the caches warm from every shipped lemma chain, in the
    chain's lanes of seam cap 2 and 64. The cached values are tuples, maps
    and words, which no caller can change."""
    values = {}
    for name, cached in rules_caches().items():
        def record(*args, fn=cached.__wrapped__, name=name):
            value = fn(*args)
            values.setdefault(name, []).append(value)
            return value
        monkeypatch.setattr(rules_module, name, functools.lru_cache(
            cached.cache_parameters()["maxsize"])(record))
    cases = []
    for fx in lemma_fixtures():
        words = [fx.certificate.start]
        for step in fx.certificate.steps:
            words.append(apply_step(words[-1], step, fx.context))
        cases += [(w, fx.context, _lane_bounds(words[0], words[-1],
                                               SearchBudget(), None, cap))
                  for w in words for cap in (2, 64)]

    def stream(w, ctx, bounds):
        tally = Tally()
        return list(moves(w, ctx, bounds, tally)), tally.pruned

    cold = []
    for case in cases:
        clear_rules_caches()
        cold.append(stream(*case))
    for _ in range(2):
        assert [stream(*case) for case in cases] == cold
    assert sum(len(succs) for succs, _ in cold) > 0
    assert values.keys() == rules_caches().keys()
    for seen in values.values():
        for value in seen:
            assert value is None or isinstance(value, (tuple, FinMap, Word))
    for name in ("untensor", "_seam_adjacent", "_lefts", "_rights",
                 "_empty_seams", "build_m1", "build_m2", "build_m3",
                 "build_m4", "build_rel", "_m4_rhs_ends"):
        assert all(isinstance(value, tuple) for value in values[name]
                   if value is not None)


def test_lower_seam_cap_moves_are_cap_64_moves():
    """Seams are listed identity-first and a cap only truncates the lists,
    so an all-families lane at seam cap 8 would visit nothing that the
    cap-64 lane cannot reach in the same number of moves."""
    cases = [(w, ctx, RuleBounds(seam_cap=8), RuleBounds(seam_cap=64))
             for corpus, ctx in _stream_corpus() for w in corpus]
    cases += [(x, ctx, _lane_bounds(x, y, SearchBudget(), None, 8),
               _lane_bounds(x, y, SearchBudget(), None, 64))
              for x, y, ctx in _lemma_steps()]
    fewer = 0
    for w, ctx, low, high in cases:
        low_moves = set(moves(w, ctx, low))
        high_moves = set(moves(w, ctx, high))
        assert low_moves <= high_moves
        fewer += len(low_moves) < len(high_moves)
    assert fewer > 0


def _m4_cases():
    """(w, context, unbounded rule bounds) over the stream corpus and over
    the lane bounds of every shipped certificate step."""
    for corpus, ctx in _stream_corpus():
        for w in corpus:
            yield w, ctx, RuleBounds()
    for x, y, ctx in _lemma_steps():
        bounds = _lane_bounds(x, y, SearchBudget(), None)
        yield x, ctx, bounds.replace(max_len=None, max_width=None)


def test_m4_deletion_read_check_is_the_seam_count():
    """_m4_bwd skips deleting letter s when the boundary after it reads an
    unpadded output; that is exactly when the deletion has no seam."""
    seen = set()
    for w, _, bounds in _m4_cases():
        for s, (lam, x, rho) in enumerate(w.letters):
            for q in range(min(lam, bounds.pad_max) + 1):
                for p in range(min(rho, bounds.pad_max) + 1):
                    l, r = lam - q, rho - p
                    sig, tau = l + x.src + r, l + x.tgt + r
                    reads = _reads(w.boundaries[s + 1], q, q + tau)
                    for c0 in _seam_adjacent(w.boundaries[s], sig, q, p):
                        v = Word((c0, identity(tau)), ((l, x, r),))
                        pat = _m4_rhs(v, 0, q, p)
                        for cap in (1, 64):
                            assert reads == (
                                _seam_count(w, s, pat, cap) == 0)
                        seen.add(reads)
    assert seen == {True, False}


def test_m4_duplication_width_is_the_built_width():
    """The closed-form width that prunes a duplication before build_m4
    equals the width of every successor it would have built, and the
    outer maps it is counted from are those of the built one-letter side."""
    checked = 0
    for w, ctx, bounds in _m4_cases():
        cut = _Cut(w, bounds, Tally())
        for step, succ in moves(w, ctx, bounds.replace(families=("M4",))):
            if step.direction == "bwd" and step.a >= 2:
                assert word_width(succ) == cut.duplication_width(
                    step.split, step.v, step.a)
                side = _m4_rhs(step.v, step.a, step.q, step.p)
                assert _m4_rhs_ends(step.v, step.a, step.q, step.p) == (
                    side.boundaries[0], side.boundaries[-1])
                checked += 1
    assert checked > 0


def _walk_tallies(w, ctx, bounds, expand):
    """(successors yielded, successors pruned) of each moves() call of a
    breadth-first walk from w that expands `expand` words."""
    seen, queue, tally, out = {w}, [w], Tally(), []
    for node in itertools.islice(queue, expand):
        n = 0
        for _, succ in moves(node, ctx, bounds, tally):
            n += 1
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
        out.append((n, tally.pruned))
        tally.pruned = 0
    return out


# SHA-256 of the per-call (yielded, pruned) pairs of the walks below, with
# the number of calls and the totals yielded and pruned. A lane counts both
# as work, so its pause points, and with them which certificate comes back
# and an Unknown's visited count, move if either does.
PRUNED_TALLIES = (
    "8c0fbcc9cfebe4ea5e8f68c0c78e57621eb3d80a0b733646c9fe677d34bbd896",
    707, 36864, 189734)


def test_pruned_tally_digest():
    digest, calls, yielded, pruned = hashlib.sha256(), 0, 0, 0
    lanes = ((("M4",), 2), (None, 64))
    for x, y, ctx in _lemma_steps():
        # the default length bound, and one at the longer end's length,
        # where every duplication breaks it
        for budget in (SearchBudget(),
                       SearchBudget(max_word_len=max(len(x), len(y)))):
            for families, seam_cap in lanes:
                bounds = _lane_bounds(x, y, budget, families, seam_cap)
                for n, cut in _walk_tallies(x, ctx, bounds, 2):
                    digest.update(f"{n} {cut}\n".encode())
                    calls += 1
                    yielded += n
                    pruned += cut
    assert (digest.hexdigest(), calls, yielded, pruned) == PRUNED_TALLIES


def _drawn_words(data):
    """Random words, free or modulo @group, with their rule context."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if data.draw(st.booleans(), label="modulo @group"):
        group = builtin_group()
        ctx, gens = group.context(), group.alphabet.generators
    else:
        ctx, gens = RuleContext(), GENS
    if data.draw(st.booleans(), label="interchange pair"):
        words = build_m1(random_word(rng, max_len=1, gens=gens),
                         random_word(rng, max_len=1, gens=gens))
    else:
        words = (random_word(rng, gens=gens),)
    return words, ctx


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_successors_are_valid_and_new(data):
    """moves() builds successors unvalidated: the validating rebuild agrees."""
    words, ctx = _drawn_words(data)
    bounds = RuleBounds(seam_cap=data.draw(st.sampled_from((1, 2, 8)),
                                           label="seam cap"))
    for w in words:
        for step, succ in moves(w, ctx, bounds):
            assert succ == Word(succ.boundaries, succ.letters)
            assert succ != w


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_stream_is_the_filtered_stream(data):
    """Bounds leave out exactly the out-of-bounds successors, and count them.

    The bounds sit near each word's own length and width, so some words
    break them themselves (their successors of equal size are built to
    leave out w) and some do not.
    """
    words, ctx = _drawn_words(data)
    full = RuleBounds(seam_cap=data.draw(st.sampled_from((1, 2, 8)),
                                         label="seam cap"))
    offsets = st.one_of(st.none(), st.integers(-1, 2))
    len_off = data.draw(offsets, label="max_len - len(w)")
    width_off = data.draw(offsets, label="max_width - width(w)")
    for w in words:
        max_len = None if len_off is None else max(0, len(w) + len_off)
        max_width = None if width_off is None else word_width(w) + width_off
        bounded = full.replace(max_len=max_len, max_width=max_width)
        stream = list(moves(w, ctx, full))
        kept = [(step, succ) for step, succ in stream
                if (max_len is None or len(succ) <= max_len)
                and (max_width is None or word_width(succ) <= max_width)]
        tally = Tally()
        assert list(moves(w, ctx, bounded, tally)) == kept
        assert tally.pruned == len(stream) - len(kept)


def test_seam_counts_match_the_solvers(rng):
    """The seam count, read off the seam lists' lengths, against the
    listed seams, hits or not."""
    ctx = builtin_group().context()
    gens = builtin_group().alphabet.generators
    words = [random_word(rng, max_len=3, gens=gens) for _ in range(40)]
    for _ in range(10):
        words.extend(build_m1(random_word(rng, max_len=1, gens=gens),
                              random_word(rng, max_len=1, gens=gens)))
    bounds = RuleBounds(seam_cap=2)
    patterns = {step_sides(step, ctx)[0] for w in words[::4]
                for step, _ in moves(w, ctx, bounds)}
    checked = set()
    for w in words:
        for pat in patterns:
            k = len(pat)
            for s in range(len(w) - k + 1):
                if w.letters[s:s + k] != pat.letters:
                    continue
                for cap in (1, 2, 8, 64):
                    n = _seam_count(w, s, pat, cap)
                    assert n == len(list(_seams(w, s, pat, cap)))
                    checked.add((k == 0, n > 0))
    assert checked == {(True, True), (True, False), (False, True),
                       (False, False)}


def test_interchange_of_lettered_words_is_one_move():
    """Criterion 4's pairs whose two words both have letters: the two sides
    are one M1 move apart, and the search returns a one-step certificate."""
    rng, checked = random.Random(4), 0
    while checked < 100:
        w, w2 = random_word(rng, max_len=2), random_word(rng, max_len=2)
        if len(w) == 0 or len(w2) == 0:
            continue
        lhs, rhs = build_m1(w, w2)
        bounds = _lane_bounds(lhs, rhs, SearchBudget(), None)
        assert lhs == rhs or any(
            succ == rhs for _, succ in moves(lhs, RuleContext(), bounds))
        res = equivalent(lhs, rhs)
        assert isinstance(res, Proved) and len(res.certificate.steps) <= 1
        checked += 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_whole_word_steps_replay(data):
    """Every M1 step with 3 or more letters in its parameter words matches
    all of w (split 0, every letter and interior boundary), and replays;
    the interchange of two words with letters is among them."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    v, v2 = random_word(rng, max_len=3), random_word(rng, max_len=3)
    lhs, rhs = build_m1(v, v2)
    ctx, bounds = RuleContext(), RuleBounds(families=("M1",), seam_cap=8)
    for w, other in ((lhs, rhs), (rhs, lhs), (random_word(rng, 4), None)):
        found = False
        for step, succ in moves(w, ctx, bounds):
            if not _is_whole_word_step(step):
                continue
            pat, _ = step_sides(step, ctx)
            assert step.split == 0 and pat.letters == w.letters
            assert pat.boundaries[1:-1] == w.boundaries[1:-1]
            assert apply_step(w, step, ctx) == succ
            assert apply_step(succ, step.inverted(), ctx) == w
            found = found or succ == other
        if (other is not None and len(v) and len(v2)
                and len(v) + len(v2) >= 3 and lhs != rhs):
            assert found
