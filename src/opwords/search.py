"""Word equivalence: bidirectional search for a certificate, evaluation
probes for a refutation, and an honest Unknown when the budget runs out.

A Proved result carries a replayable certificate. A Disproved result
carries a witness assignment that is re-validated (tables really differ at
the reported input, and for presentation queries the witness satisfies
every relation) before it is returned.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import compress, count, islice
from operator import add, attrgetter, ne

from .alphabet import Generator
from .certificate import Certificate, step_key
from .endo import Carrier, FinFunction, coordinates, table_rows
from .errors import EvaluationSizeError, OpwordsError
from .evaluate import GeneratorAssignment, eval_word
from .record import Record
from .rules import RewriteStep, RuleBounds, RuleContext, Tally, moves
from .terms import live_order, read_word
from .words import Word, word_width


class SearchBudget(Record):
    """The limits of one query.

    max_steps bounds the words a search visits: every lane stops at its
    final cap (_certificate_search), and the caps add up to at most
    max_steps from about 140 steps on. A smaller budget can visit more,
    because the tight M2/M3 and M4 lanes each get at least
    pre = max(64, max_steps // 256) words whatever the budget.
    """

    max_steps: int = 100_000
    max_word_len: int | None = None      # default: len(w) + len(w2) + 4
    probe_carriers: tuple[int, ...] = (2, 3)
    probe_assignments: int = 5
    seed: int = 0


class Witness(Record):
    """Evidence that two words differ: an assignment and a separating input."""

    kind: str                            # "arity" or "evaluation"
    assignment: GeneratorAssignment | None = None
    input_tuple: tuple[int, ...] | None = None
    outputs: tuple[tuple[int, ...], tuple[int, ...]] | None = None


class Proved(Record):
    certificate: Certificate


class Disproved(Record):
    witness: Witness


class Unknown(Record):
    visited: int


def word_generators(*ws: Word) -> tuple[Generator, ...]:
    """The distinct generators of ws' letters, by name, then src and tgt:
    two generators that share a name are two generators."""
    seen = {g for w in ws for _, g, _ in w.letters}
    return tuple(sorted(seen, key=attrgetter("name", "src", "tgt")))


# ---------------------------------------------------------------------------
# Probe assignments


def _cyclic_project(c: Carrier, m: int, n: int) -> FinFunction:
    """Output j is input j mod m; zeros when there are no inputs."""
    if m == 0:
        return _constant(c, m, n)
    coords = coordinates(c.size, m)
    return FinFunction.from_columns(c, m, n, [coords[j % m] for j in range(n)],
                                    coords)


def _constant(c: Carrier, m: int, n: int) -> FinFunction:
    return FinFunction.from_columns(c, m, n, [(0,) * c.size ** m] * n)


def _shift_sum(c: Carrier, m: int, n: int) -> FinFunction:
    """Output j is the sum of the inputs plus j, modulo the carrier."""
    if c.size == 0:
        # no values to sum: every row is empty
        return FinFunction(c, m, n, ((),) * c.size ** m)
    total = (0,) * c.size ** m
    for col in coordinates(c.size, m):
        total = tuple(map(add, total, col))
    return FinFunction.from_columns(
        c, m, n, [tuple(map(c.size.__rmod__, map(j.__add__, total)))
                  for j in range(n)])


def _random_fn(c: Carrier, m: int, n: int, rng: random.Random) -> FinFunction:
    rows = tuple(tuple(rng.randrange(c.size) for _ in range(n))
                 for _ in range(c.size ** m))
    return FinFunction(c, m, n, rows)


def probe_fields(budget: SearchBudget) -> SearchBudget:
    """The budget with only its probe fields kept, every other field at its
    default: a probe battery depends on nothing else of a budget, so this
    keys every cache of batteries."""
    return SearchBudget(probe_carriers=tuple(budget.probe_carriers),
                        probe_assignments=budget.probe_assignments,
                        seed=budget.seed)


def _probe_carriers(gens: tuple[Generator, ...],
                    budget: SearchBudget) -> list[Carrier]:
    """The carriers a battery has tables on, in the budget's order."""
    out = []
    for size in budget.probe_carriers:
        c = Carrier(size)
        if size == 0 and any(g.src > 0 or g.tgt > 0 for g in gens):
            continue
        try:
            table_rows(size, max((g.src for g in gens), default=0))
        except EvaluationSizeError:
            continue
        out.append(c)
    return out


def _battery_values(gens: tuple[Generator, ...], budget: SearchBudget) -> int:
    """The values in all of a battery's tables, counted from the arities."""
    return sum((3 + (budget.probe_assignments if c.size else 0))
               * sum(c.size ** g.src * g.tgt for g in gens)
               for c in _probe_carriers(gens, budget))


def _build_battery(gens: tuple[Generator, ...],
                   budget: SearchBudget) -> tuple[GeneratorAssignment, ...]:
    rng = random.Random(budget.seed)
    out = []
    for c in _probe_carriers(gens, budget):
        for maker in (_cyclic_project, _constant, _shift_sum):
            out.append(GeneratorAssignment(
                c, {g: maker(c, g.src, g.tgt) for g in gens}))
        for _ in range(budget.probe_assignments if c.size else 0):
            out.append(GeneratorAssignment(
                c, {g: _random_fn(c, g.src, g.tgt, rng) for g in gens}))
    return tuple(out)


# A battery is kept for reuse only up to this many table values in all, and
# at most _CACHED_BATTERIES of them, so the cache retains at most 2^20
# values; a wider battery dies with the call that built it.
_CACHED_BATTERY_VALUES = 2 ** 13
_CACHED_BATTERIES = 128
_cached_battery = lru_cache(maxsize=_CACHED_BATTERIES)(_build_battery)


def probe_assignments(gens: tuple[Generator, ...],
                      budget: SearchBudget) -> list[GeneratorAssignment]:
    """Deterministic battery plus seeded random tables, per carrier size.

    Skipped are carrier 0 when a generator has strands, and a carrier on
    which some generator's table would have more than MAX_ROWS rows.
    The battery depends only on gens and the budget's probe fields
    (probe_fields). One of at most _CACHED_BATTERY_VALUES table values,
    counted from the arities before anything is built, is built once per
    process and kept; a wider one is built on every call. Each call gets
    its own list of the assignments, which are shared and read-only.
    """
    probe = probe_fields(budget)
    if _battery_values(gens, probe) <= _CACHED_BATTERY_VALUES:
        return list(_cached_battery(gens, probe))
    return list(_build_battery(gens, probe))


def find_refutation(w: Word, w2: Word,
                    candidates: list[GeneratorAssignment]) -> Witness | None:
    """The first candidate on which w and w2 (of one arity) evaluate
    differently, with the first input row where they differ."""
    for assignment in candidates:
        t1, t2 = eval_word(w, assignment), eval_word(w2, assignment)
        if t1 != t2:
            # the first differing row is the earliest in any differing column
            i = min(next(compress(count(), map(ne, col1, col2)))
                    for col1, col2 in zip(t1.columns, t2.columns)
                    if col1 != col2)
            xs = next(islice(assignment.carrier.tuples(w.src), i, None))
            return Witness("evaluation", assignment, xs, (t1(xs), t2(xs)))
    return None


def validate_witness(w: Word, w2: Word, witness: Witness) -> bool:
    if witness.kind == "arity":
        return w.src != w2.src or w.tgt != w2.tgt
    t1 = eval_word(w, witness.assignment)
    t2 = eval_word(w2, witness.assignment)
    return (t1(witness.input_tuple), t2(witness.input_tuple)) == witness.outputs \
        and witness.outputs[0] != witness.outputs[1]


# ---------------------------------------------------------------------------
# Bidirectional certificate search


def _path(parents, node: Word) -> list[RewriteStep]:
    """The steps from node back to the root of its side, nearest first."""
    steps = []
    while True:
        node, step = parents[node]
        if node is None:
            return steps
        steps.append(step)


def _reconstruct(meet: Word, parents_l, parents_r, w: Word, w2: Word,
                 ctx: RuleContext) -> Certificate:
    steps = _path(parents_l, meet)[::-1] + [
        step.inverted() for step in _path(parents_r, meet)]
    cert = Certificate(w, tuple(steps), w2)
    cert.replay(ctx)
    return cert


# A lane pauses once visited >= cap or work >= _WORK_PER_VISIT * cap, where
# work counts every successor generated, including those moves() only
# counts for breaking the length or width bound: saturated components
# regenerate old successors endlessly, so the work of generating them is
# capped too. A round-robin starts every lane at _FIRST_CAP and grows the
# cap _CAP_GROWTH-fold per round, up to each lane's final cap. The final
# cap stops a lane even in the middle of a node (_Lane).
_WORK_PER_VISIT = 12
_FIRST_CAP = 16
_CAP_GROWTH = 4
# The seam cap of the widest lane, and of a lane given none.
_SEAM_CAP = 64

# What every move of a rule family keeps of a word: M2 and M3 move strands
# past a letter, so they keep its place, its generator, its number of
# passing strands and its argument terms ("sequence"); M1 interchanges
# letters, so it keeps the multiset of their generators with their argument
# terms ("multiset"); M4 copies, merges or deletes letters, and with M2 and
# M3 it keeps the order of the live letters ("order", terms.live_order);
# and all four keep the free terms (terms.py). A relation step keeps none
# of these.
_KEEPS = {"M1": {"multiset", "terms"},
          "M2": {"sequence", "multiset", "order", "terms"},
          "M3": {"sequence", "multiset", "order", "terms"},
          "M4": {"order", "terms"},
          "REL": set()}


def _differences(w: Word, w2: Word) -> set[str]:
    """The invariants of _KEEPS on which w and w2 differ.

    One terms.read_word pass per word, over one table, gives both words'
    terms and each letter's key (generator, argument term ids). The
    sequence is the letters' keys in order, each with its passing strands
    l + r; the multiset is that of the keys alone; the order is that of
    the live letters' keys (terms.live_order).
    """
    table: dict = {}
    terms, keys = read_word(w, table)
    terms2, keys2 = read_word(w2, table)
    seq = [(key, l + r) for key, (l, _, r) in zip(keys, w.letters)]
    seq2 = [(key, l + r) for key, (l, _, r) in zip(keys2, w2.letters)]
    differ = set()
    if seq != seq2:
        differ.add("sequence")
        if Counter(keys) != Counter(keys2):
            differ.add("multiset")
    if live_order(w, keys) != live_order(w2, keys2):
        differ.add("order")
    if terms != terms2:
        differ.add("terms")
    return differ


def _may_connect(families, ctx: RuleContext, differ: set[str]) -> bool:
    """Whether a lane's moves can join two words that differ in `differ`:
    not when every family keeps one of those invariants. Without relations
    REL makes no move, so it keeps every invariant."""
    kept = set().union(*_KEEPS.values())
    for family in families or _KEEPS:
        if ctx.relations or family != "REL":
            kept &= _KEEPS[family]
    return not kept & differ


def _certificate_search(w: Word, w2: Word, ctx: RuleContext,
                        budget: SearchBudget,
                        differ: set[str] | None = None):
    """Search in lanes, round-robin: (certificate or None, visited).

    A lane is a bidirectional pass with a set of rule families, a seam cap
    and a final cap on visited words. A shortest chain for one lemma
    family usually stays inside that family, so the tight lanes restrict
    the branching: M2/M3, M4, REL/M1 (with relations only) and M1, each
    at seam cap 2. The search has two stages. First the tight lanes run
    in one round-robin, in that order: every lane runs to cap 16, then to
    64, and so on (x4 per round) up to its final cap; a lane resumes where
    it paused. Then one final lane, all families at seam cap 64, runs
    alone, capped at about a third of the budget the tight lanes leave.
    The first certificate found is returned. There is no all-families
    lane at a lower seam cap: seams are enumerated identity-first and a
    seam cap only truncates each list, so every successor at a lower cap
    is also one at cap 64.

    A lane runs only if its families may connect w and w2: every lane
    whose families all keep an invariant on which the two differ (differ,
    computed here when not given) is skipped, as it could never find a
    chain. The invariants read each letter's generator and argument terms,
    and for M2/M3 its place and passing strands, so the M2/M3 lane runs
    only where the letters line up one to one. M2, M3 and M4 also keep the
    order of the live letters (terms.live_order), so the M4 lane runs only
    where the live letters come in the same order: never on a pair that
    only an interchange of two live letters with different keys joins.
    The caps are those of the full lane list all the same. Within a lane,
    a node stops generating successors once it reaches the other word
    itself (_Lane), which saves work and changes no certificate. Every
    lane, and every query, reads the boundary-map algebra from the caches
    of rules (rules._CACHE_SIZE), so a seam, pad strip or block split that
    one lane or query solved is not solved again; the cached values are
    the ones moves() would compute, so sharing them changes no move.
    Every lane is closed before the search returns, which drops the
    lanes' visited words.

    A lane paused at any cap is a prefix of the same deterministic pass
    run at once to its final cap. So a query is Proved exactly when some
    lane run alone to its final cap finds a chain, and an Unknown's
    visited count is the sum of the counts at their final caps of the
    lanes that run: both do not depend on the schedule. Only which
    certificate is returned, and the visited count that comes with it, do.
    """
    if differ is None:
        differ = _differences(w, w2)
    pre = max(64, budget.max_steps // 256)
    scan = max(2, budget.max_steps // 32)
    tight_lanes: list[tuple[tuple[str, ...] | None, int, int]] = [
        (("M2", "M3"), 2, pre),
        (("M4",), 2, pre)]
    if ctx.relations:
        tight_lanes.append((("REL", "M1"), 2, scan))
    tight_lanes.append((("M1",), 2, scan))
    rest = budget.max_steps - sum(cap for _, _, cap in tight_lanes)
    final_lane = [(None, _SEAM_CAP, max(2, rest // 3 + rest % 3))]
    total = 0
    for group in (tight_lanes, final_lane):
        lanes = [_Lane(w, w2, ctx, budget, families, cap, seam_cap)
                 for families, seam_cap, cap in group
                 if _may_connect(families, ctx, differ)]
        cert = _round_robin(lanes)
        for lane in lanes:
            lane.close()
        total += sum(lane.visited for lane in lanes)
        if cert is not None:
            return cert, total
    return None, total


def _round_robin(lanes: list[_Lane]) -> Certificate | None:
    cap = _FIRST_CAP
    while not all(lane.done for lane in lanes):
        for lane in lanes:
            if lane.advance(cap) is not None:
                return lane.cert
        cap *= _CAP_GROWTH
    return None


def _search_pass(w: Word, w2: Word, ctx: RuleContext, budget: SearchBudget,
                 families, max_steps: int, seam_cap: int | None = None):
    """One lane run to its final cap: (certificate or None, visited)."""
    lane = _Lane(w, w2, ctx, budget, families, max_steps, seam_cap)
    return lane.advance(max_steps), lane.visited


class _Lane:
    """One bidirectional pass that pauses at a cap and resumes at a larger one.

    The pass expands the smaller frontier one level at a time and stops at
    the first node that meets the other side. A node stops generating
    successors once one is the other side's root: every other meet of the
    node is deeper on that side, so the certificate is the same as if the
    node were expanded in full. The pass checks its cap before each level
    and after each expanded node; there `advance(cap)` pauses it, and the
    next `advance` resumes it with the next node of the same frontier. The
    final cap is exact: after every successor, duplicates included, a node
    that has met nothing yet stops the lane once it reaches the final cap
    on visited words or on work, so one wide node cannot overrun it. Only
    the final cap cuts a node short, since a pause inside a node at a
    smaller cap would change which lane finds a certificate first. The
    lane is done once it has found a certificate, exhausted both frontiers
    (no chain within the bounds) or reached its final cap. A done lane
    drops its frontiers and visited words.
    """

    def __init__(self, w: Word, w2: Word, ctx: RuleContext,
                 budget: SearchBudget, families, final_cap: int,
                 seam_cap: int | None = None):
        self.final_cap = final_cap
        self.cap = 0
        self.visited = 2
        self.work = 0
        self.cert: Certificate | None = None
        self.done = False
        self._run = self._pass(w, w2, ctx, budget, families, seam_cap)

    def advance(self, cap: int) -> Certificate | None:
        """Resume up to min(cap, final cap); the certificate or None."""
        if self.done:
            return self.cert
        self.cap = min(cap, self.final_cap)
        try:
            next(self._run)
        except StopIteration:
            self.done = True
        if self.done or self.cap >= self.final_cap:
            self.close()
        return self.cert

    def close(self) -> None:
        """Mark the lane done and drop its pass, with everything the pass
        holds. The pass refers to the lane, so a paused lane left to the
        garbage collector would hold all of it until a full collection."""
        self.done, self._run = True, None

    def _paused(self) -> bool:
        return (self.visited >= self.cap
                or self.work >= _WORK_PER_VISIT * self.cap)

    def _pass(self, w, w2, ctx, budget, families, seam_cap):
        bounds = _lane_bounds(w, w2, budget, families, seam_cap)
        # moves() counts the successors out of bounds here, unbuilt; they
        # are work all the same
        tally = Tally()
        final, final_work = self.final_cap, _WORK_PER_VISIT * self.final_cap
        parents_l: dict[Word, tuple[Word | None, RewriteStep | None]] = {w: (None, None)}
        parents_r: dict[Word, tuple[Word | None, RewriteStep | None]] = {w2: (None, None)}
        if w in parents_r:
            self.cert = _reconstruct(w, parents_l, parents_r, w, w2, ctx)
            return
        frontier_l, frontier_r = [w], [w2]
        while frontier_l or frontier_r:
            while self._paused():
                yield
            if not frontier_r:
                expand_left = True
            elif not frontier_l:
                expand_left = False
            else:
                expand_left = len(frontier_l) <= len(frontier_r)
            frontier = frontier_l if expand_left else frontier_r
            own = parents_l if expand_left else parents_r
            other = parents_r if expand_left else parents_l
            # the other side's root: a meet there is the shortest of its node
            root = w2 if expand_left else w
            next_frontier: list[Word] = []
            meets: list[Word] = []
            for node in frontier:
                for step, succ in moves(node, ctx, bounds, tally):
                    self.work += 1
                    if succ not in own:
                        own[succ] = (node, step)
                        next_frontier.append(succ)
                        self.visited += 1
                        if succ in other:
                            meets.append(succ)
                            if succ == root:
                                break
                    # the final cap, counting the node's pruned successors
                    if not meets and (self.visited >= final or self.work
                                      + tally.pruned >= final_work):
                        return
                self.work += tally.pruned
                tally.pruned = 0
                if meets:
                    break
                while self._paused():
                    yield
            if meets:
                best = min(meets, key=_meet_key(parents_l, parents_r))
                self.cert = _reconstruct(best, parents_l, parents_r, w, w2,
                                         ctx)
                return
            if expand_left:
                frontier_l = next_frontier
            else:
                frontier_r = next_frontier


def _lane_bounds(w: Word, w2: Word, budget: SearchBudget, families,
                 seam_cap: int | None = None) -> RuleBounds:
    """The rule bounds of a lane from w to w2, word length and width included:
    powers up to 3; pads up to the larger of w's arities (src + tgt), the
    widest boundary of w and of w2, and 2; and words at most 2 strands wider
    than the widest boundary of w and w2. Pads follow the width because a
    move inside a word that passes through k strands can pad by up to k,
    whatever the word's outer arities."""
    max_len = (budget.max_word_len if budget.max_word_len is not None
               else len(w) + len(w2) + 4)
    width = max(word_width(w), word_width(w2))
    return RuleBounds(a_max=3, pad_max=max(2, w.src + w.tgt, width),
                      seam_cap=seam_cap or _SEAM_CAP, families=families,
                      max_len=max_len, max_width=width + 2)


def _meet_key(parents_l, parents_r):
    def key(node: Word):
        steps = _path(parents_l, node) + _path(parents_r, node)
        return (len(steps), tuple(sorted(map(step_key, steps))))
    return key


# ---------------------------------------------------------------------------
# Public entry points


def equivalent(w: Word, w2: Word, budget: SearchBudget | None = None, *,
               ctx: RuleContext | None = None,
               probes: list[GeneratorAssignment] | None = None):
    """Decide w ~ w2: Proved(certificate), Disproved(witness), or Unknown."""
    budget = budget or SearchBudget()
    ctx = ctx if ctx is not None else RuleContext()
    if w.src != w2.src or w.tgt != w2.tgt:
        return Disproved(Witness("arity"))
    if w == w2:
        return Proved(Certificate(w, (), w2))
    differ = _differences(w, w2)
    # equal terms evaluate alike under every assignment, so no probe can
    # separate them
    if "terms" in differ:
        if probes is None:
            # with relations in play only assignments satisfying them may
            # refute; the caller must supply those (equivalent_mod does)
            probes = ([] if ctx.relations
                      else probe_assignments(word_generators(w, w2), budget))
        witness = find_refutation(w, w2, probes)
        if witness is not None:
            if not validate_witness(w, w2, witness):
                raise OpwordsError("refutation witness failed re-validation")
            return Disproved(witness)
    cert, visited = _certificate_search(w, w2, ctx, budget, differ)
    if cert is not None:
        return Proved(cert)
    return Unknown(visited)
