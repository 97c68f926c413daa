"""The rewrite moves generating word equivalence, with matching and replay.

Four schema families act on words: interchange of two independent layers
(M1), the two block-swap naturality forms (M2, M3), and fold naturality
(M4, which merges or duplicates a layer). Presentations add their relation
pairs, whiskered on both sides.

All finite-set maps belong to the free structure, so a fold of no copies
(M4 with a = 0) is the naturality of deletion: a letter whose outputs are
all discarded is deleted, leaving the discard of its inputs. Every such
step deletes one letter; a factor of several letters whose outputs are all
discarded goes one letter at a time, last letter first.

M1 instances come from three generators: the single swap of two adjacent
letters, one per parameter word; the slide of a boundary map block past
one letter, where one parameter word has no letters; and, in words of 3
letters or more, the swap of the whole word's two halves at an interior
boundary, every letter before it against every letter from it on. The
first and the third are one block swap, run on different blocks. So the
two sides of an interchange of lettered words are one move apart, however
many letters each has.

Every move rewrites a factor in context: the matched span's outer boundary
maps split into a pattern part and a context part. Matching enumerates
candidate instances, builds both schema sides from the candidate
parameters with the family's own builder, and verifies the pattern against
the word before yielding, so a slip in parameter inference cannot produce
an unsound step. Replay rebuilds the sides from a step's fields alone
(step_sides), so a certificate is checked without move generation.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import ArityError, ReplayError
from .finmap import (FinMap, branch, braid, compose, factorizations_from,
                     factorizations_through, identity, pad)
from .record import Record
from .words import Word, compose_words, op_word, tensor_power, whisker

M_RULES = ("M1", "M2", "M3", "M4")


class RuleBounds(Record):
    a_max: int = 3
    pad_max: int = 6
    seam_cap: int = 64
    families: tuple[str, ...] | None = None   # None = every family
    max_len: int | None = None     # None = no bound on successor length
    max_width: int | None = None   # None = no bound on successor width


class RuleContext(Record):
    """Rule environment: the relation pairs (may be empty)."""

    relations: tuple[tuple[Word, Word], ...] = ()


class RewriteStep(Record):
    rule: str
    direction: str
    split: int
    a: int = 0
    q: int = 0
    p: int = 0
    v: Word | None = None
    v2: Word | None = None
    seam_left: FinMap | None = None
    seam_right: FinMap | None = None

    def inverted(self) -> "RewriteStep":
        return self.replace(
            direction="bwd" if self.direction == "fwd" else "fwd")


# Move generation builds the same schema instances, strips the same pads,
# splits the same blocks and solves the same seams over and over. Each pure
# function of that work keeps its values in a process-wide LRU of one size:
# its arguments are maps (hashed by identity, since equal maps are one
# object), words, letters and integers, and its values are maps, words,
# tuples or None, which no caller can change, so a cache changes no move.
_CACHE_SIZE = 1 << 14
_cached = lru_cache(maxsize=_CACHE_SIZE)
_compose = _cached(compose)


# ---------------------------------------------------------------------------
# Schema instance builders


@_cached
def build_m1(v: Word, v2: Word) -> tuple[Word, Word]:
    lhs = compose_words(whisker(0, v, v2.src), whisker(v.tgt, v2, 0))
    rhs = compose_words(whisker(v.src, v2, 0), whisker(0, v, v2.tgt))
    return lhs, rhs


@_cached
def build_m2(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(braid(v.src, a)), whisker(0, v, a))
    rhs = compose_words(whisker(a, v, 0), op_word(braid(v.tgt, a)))
    return whisker(q, lhs, p), whisker(q, rhs, p)


@_cached
def build_m3(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(braid(a, v.src)), whisker(a, v, 0))
    rhs = compose_words(whisker(0, v, a), op_word(braid(a, v.tgt)))
    return whisker(q, lhs, p), whisker(q, rhs, p)


@_cached
def build_m4(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(branch(a, v.src)), tensor_power(v, a))
    return whisker(q, lhs, p), _m4_rhs(v, a, q, p)


def _m4_rhs(v: Word, a: int, q: int, p: int) -> Word:
    """M4's one-letter side: v, then the fold of a copies of its target."""
    return whisker(q, compose_words(v, op_word(branch(a, v.tgt))), p)


@_cached
def _m4_rhs_ends(v: Word, a: int, q: int, p: int) -> tuple[FinMap, FinMap]:
    """The first and last maps of _m4_rhs(v, a, q, p) for a one-letter v,
    without building it: v's first map, and the fold of a copies of v's
    target after v's last map, both padded by q and p."""
    c0, c1 = v.boundaries
    return pad(q, c0, p), pad(q, compose(branch(a, c1.src), c1), p)


@_cached
def build_rel(rl: Word, rr: Word, q: int, p: int) -> tuple[Word, Word]:
    """A relation pair whiskered by q strands on the left and p on the right."""
    return whisker(q, rl, p), whisker(q, rr, p)


def step_sides(step: RewriteStep, ctx: RuleContext) -> tuple[Word, Word]:
    """(pattern, replacement) for a step, rebuilt from its parameters."""
    if step.direction not in ("fwd", "bwd"):
        raise ReplayError(f"direction must be fwd or bwd, found "
                          f"{step.direction!r}")
    if step.v is None and step.rule in M_RULES:
        raise ReplayError(f"{step.rule} step needs v=")
    if step.rule == "M1":
        if step.v2 is None:
            raise ReplayError("M1 step needs v2=")
        lhs, rhs = build_m1(step.v, step.v2)
    elif step.rule == "M2":
        lhs, rhs = build_m2(step.v, step.a, step.q, step.p)
    elif step.rule == "M3":
        lhs, rhs = build_m3(step.v, step.a, step.q, step.p)
    elif step.rule == "M4":
        lhs, rhs = build_m4(step.v, step.a, step.q, step.p)
    elif step.rule.startswith("REL:"):
        text = step.rule[4:]
        idx = int(text) if text.isdecimal() else -1
        if not 0 <= idx < len(ctx.relations):
            raise ReplayError(f"relation index {text} out of range")
        lhs, rhs = build_rel(*ctx.relations[idx], step.q, step.p)
    else:
        raise ReplayError(f"unknown rule {step.rule!r}")
    return (lhs, rhs) if step.direction == "fwd" else (rhs, lhs)


# ---------------------------------------------------------------------------
# Span matching and substitution


def pattern_matches(w: Word, s: int, pat: Word, g_u: FinMap, g_v: FinMap) -> bool:
    k = len(pat)
    if s < 0 or s + k > len(w):
        return False
    if w.letters[s:s + k] != pat.letters:
        return False
    try:
        if k == 0:
            return w.boundaries[s] == compose(compose(g_v, pat.boundaries[0]),
                                              g_u)
        if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
            return False
        return (w.boundaries[s] == compose(pat.boundaries[0], g_u)
                and w.boundaries[s + k] == compose(g_v, pat.boundaries[-1]))
    except ArityError:
        return False


def _substitutions(w, s, span, repl, seams):
    """(g_u, g_v, substituted word) per seam pair, unvalidated.

    The part left of the right seam is built once per run of equal g_u.
    """
    letters = w.letters[:s] + repl.letters + w.letters[s + span:]
    pre, post = w.boundaries[:s], w.boundaries[s + span + 1:]
    if len(repl) == 0:
        only = repl.boundaries[0]
        for g_u, g_v in seams:
            merged = _compose(_compose(g_v, only), g_u)
            yield g_u, g_v, Word._raw(pre + (merged,) + post, letters)
        return
    first, mid, last = (repl.boundaries[0], repl.boundaries[1:-1],
                        repl.boundaries[-1])
    prev = None
    for g_u, g_v in seams:
        if g_u is not prev:
            prev, head = g_u, pre + (_compose(first, g_u),) + mid
        yield g_u, g_v, Word._raw(head + (_compose(g_v, last),) + post,
                                  letters)


def apply_step(w: Word, step: RewriteStep, ctx: RuleContext) -> Word:
    pat, repl = step_sides(step, ctx)
    if not pattern_matches(w, step.split, pat, step.seam_left, step.seam_right):
        raise ReplayError(
            f"{step.rule} {step.direction} does not match at letter {step.split}")
    # the successor move generation would build, validated
    _, _, succ = next(_substitutions(w, step.split, len(pat), repl,
                                     [(step.seam_left, step.seam_right)]))
    return Word(succ.boundaries, succ.letters)


# ---------------------------------------------------------------------------
# Block-structure helpers used by parameter inference


@_cached
def untensor(f: FinMap, src_split: int, tgt_split: int):
    """Split f as tensor(a, b) with the given block arities, or None."""
    if not (0 <= src_split <= f.src and 0 <= tgt_split <= f.tgt):
        return None
    head, tail = f.table[:src_split], f.table[src_split:]
    if (max(head, default=0) > tgt_split
            or min(tail, default=tgt_split + 1) <= tgt_split):
        return None
    return (FinMap._raw(src_split, tgt_split, head),
            FinMap._raw(f.src - src_split, f.tgt - tgt_split,
                        tuple(v - tgt_split for v in tail)))


@_cached
def unpad(f: FinMap, q: int, p: int) -> FinMap | None:
    """Strip identity pads: f = tensor(id_q, mid, id_p) gives mid, else None."""
    src, tgt = f.src - q - p, f.tgt - q - p
    if src < 0 or tgt < 0:
        return None
    if (f.table[:q] != tuple(range(1, q + 1))
            or f.table[q + src:] != tuple(range(q + tgt + 1, f.tgt + 1))):
        return None
    mid = tuple(v - q for v in f.table[q:q + src])
    if not all(0 < v <= tgt for v in mid):
        return None
    return FinMap._raw(src, tgt, mid)


def _extract_block(mid: FinMap, pre: int, width_src: int, tgt_lo: int,
                   width_tgt: int):
    """Read inputs pre+1..pre+width_src of mid as a map into a target block."""
    vals = tuple(v - tgt_lo for v in mid.table[pre:pre + width_src])
    if all(0 < v <= width_tgt for v in vals):
        return FinMap._raw(width_src, width_tgt, vals)
    return None


@_cached
def _letter_factor(c0: FinMap, letter, c1: FinMap) -> Word:
    return Word((c0, c1), (letter,))


# ---------------------------------------------------------------------------
# Move generation
#
# Candidate parameters come from the span's letters and interior boundaries;
# boundary maps of a parameter word that sit at a seam are tried as the
# identity and as an exact block extraction from the observed seam, the two
# shapes context absorption cannot supply. Seam context maps are enumerated
# identity-first under a deterministic cap.


def _emit(w, s, rule, direction, sides, bounds, cut, *, v, v2=None, a=0,
          q=0, p=0):
    """The (step, successor) pairs of one schema instance at letter s.

    The family passes the instance's sides (lhs, rhs), made by the builder
    that step_sides picks when the step is replayed, and direction orients
    them.
    """
    pat, repl = sides if direction == "fwd" else sides[::-1]
    # the seams solve the pattern's equations, so an unchanged factor
    # would give back w at every seam
    if pat == repl:
        return
    k = len(pat)
    if w.letters[s:s + k] != pat.letters:
        return
    if cut.prunes(s, pat, repl, bounds.seam_cap):
        return
    seams = _seams(w, s, pat, bounds.seam_cap)
    for g_u, g_v, succ in _substitutions(w, s, k, repl, seams):
        if succ != w:
            yield (RewriteStep(rule, direction, s, a, q, p, v, v2, g_u, g_v),
                   succ)


def _seams(w, s, pat, cap):
    """The (g_u, g_v) context maps of pattern pat matched at letter s."""
    if len(pat) == 0:
        return _empty_seams(w.boundaries[s], pat.boundaries[0], cap)
    k = len(pat)
    if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
        return ()
    lefts = _lefts(w.boundaries[s], pat.boundaries[0], cap)
    if not lefts:
        return ()
    return itertools.product(
        lefts, _rights(w.boundaries[s + k], pat.boundaries[-1], cap))


def _seam_count(w, s, pat, cap) -> int:
    """len(list(_seams(w, s, pat, cap))), from the lists' lengths."""
    if len(pat) == 0:
        return len(_empty_seams(w.boundaries[s], pat.boundaries[0], cap))
    k = len(pat)
    if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
        return 0
    return _outer_seam_count(w, s, k, pat.boundaries[0], pat.boundaries[-1],
                             cap)


def _outer_seam_count(w, s, k, first, last, cap) -> int:
    """The seams of a pattern of k >= 1 letters at letter s with outer maps
    first and last, its interior maps being w's."""
    n = len(_lefts(w.boundaries[s], first, cap))
    return n and n * len(_rights(w.boundaries[s + k], last, cap))


@_cached
def _lefts(obs: FinMap, pmap: FinMap, cap: int) -> tuple[FinMap, ...]:
    """The first max(cap, 1) left seams g_u with compose(pmap, g_u) = obs."""
    return tuple(itertools.islice(factorizations_from(obs, pmap),
                                  max(cap, 1)))


@_cached
def _rights(obs: FinMap, pmap: FinMap, cap: int) -> tuple[FinMap, ...]:
    """The first max(cap, 1) right seams g_v with compose(g_v, pmap) = obs."""
    return tuple(factorizations_through(obs, pmap, cap))


@_cached
def _empty_seams(obs, pmap, cap):
    """Length-0 pattern at a boundary: two canonical context families."""
    flush_down = pmap.tgt == obs.tgt
    out = []
    if flush_down:
        g_u = identity(obs.tgt)
        out += [(g_u, g_v) for g_v in _rights(obs, pmap, cap)]
    if pmap.src == obs.src:
        g_v = identity(obs.src)
        out += [(g_u, g_v) for g_u in _lefts(obs, pmap, cap)
                if not (flush_down and g_u.is_identity)]
    return tuple(out)


class Tally:
    """Successors that moves() left unbuilt for breaking a bound."""

    __slots__ = ("pruned",)

    def __init__(self):
        self.pruned = 0


class _Cut:
    """The length and width bounds of one moves() call, decided per emit.

    Every moves() call makes one; a bound of None is infinity, so a call
    without bounds prunes nothing.

    A successor has w's type, and a word's width is the largest of its
    source, its target and its letters' widths, since each boundary map
    sits between two letters or at an end. So an emit's successors all
    share one length and one width, read off the span and the replacement
    before any seam is solved: the letter widths of w before and after the
    span come from prefix and suffix maxima computed once per call.
    """

    __slots__ = ("w", "max_len", "max_width", "before", "after", "tally")

    def __init__(self, w: Word, bounds: RuleBounds, tally: Tally):
        self.w, self.tally = w, tally
        self.max_len = math.inf if bounds.max_len is None else bounds.max_len
        self.max_width = (math.inf if bounds.max_width is None
                          else bounds.max_width)
        ends = max(w.src, w.tgt)
        widths = [l + r + max(g.src, g.tgt) for l, g, r in w.letters]
        self.before = list(itertools.accumulate(widths, max, initial=ends))
        self.after = list(itertools.accumulate(reversed(widths), max,
                                               initial=ends))[::-1]

    def prunes(self, s: int, pat: Word, repl: Word, cap: int) -> bool:
        """True, with the successors counted, when they break a bound.

        All of them differ from w, and so would all be yielded, when their
        length or width differs from w's; otherwise w breaks the bound too
        and they are built to leave out the ones equal to w.
        """
        w, k, n = self.w, len(pat.letters), len(self.w.letters)
        length = n - k + len(repl.letters)
        # this runs for every emit, so it compares instead of calling max()
        width, after = self.before[s], self.after[s + k]
        if after > width:
            width = after
        for l, g, r in repl.letters:
            x = l + r + (g.src if g.src > g.tgt else g.tgt)
            if x > width:
                width = x
        if length <= self.max_len and width <= self.max_width:
            return False
        if length != n or width != self.before[-1]:
            self.tally.pruned += _seam_count(w, s, pat, cap)
        else:
            seams = _seams(w, s, pat, cap)
            self.tally.pruned += sum(
                succ != w for *_, succ in
                _substitutions(w, s, k, repl, seams))
        return True

    def duplication_width(self, s: int, v: Word, a: int) -> int:
        """The width of an M4 duplication's successors: letter s, as the
        one letter of v, becomes a copies of it, copy j padded by j copies
        of v's target and a - 1 - j of its source (see tensor_power)."""
        lam, x, rho = self.w.letters[s]
        width = lam + rho + max(x.src, x.tgt) + (a - 1) * max(v.src, v.tgt)
        return max(self.before[s], self.after[s + 1], width)

    def count_duplication(self, s: int, v: Word, a: int, q: int, p: int,
                          cap: int) -> None:
        """Count the successors of the one-letter side _m4_rhs(v, a, q, p)
        at letter s as pruned, from its two outer maps alone; all of them
        differ from w, since their length or width does."""
        self.tally.pruned += _outer_seam_count(
            self.w, s, 1, *_m4_rhs_ends(v, a, q, p), cap)


def _reads(f: FinMap, lo: int, hi: int) -> bool:
    """Whether some strand of f reads one of the strands lo+1..hi."""
    return any(lo < i <= hi for i in f.table)


@_cached
def _seam_adjacent(observed: FinMap | None, width: int, q: int,
                   p: int) -> tuple[FinMap, ...]:
    """Candidate boundary maps of a parameter word at a seam.

    The identity on `width` strands, then the observed seam map with identity
    pads q and p stripped, when it has them and differs from the first.
    """
    ident = identity(width)
    cand = None if observed is None else unpad(observed, q, p)
    return (ident,) if cand is None or cand == ident else (ident, cand)


def _m1_moves(w: Word, bounds, cut):
    n = len(w)
    # the halves of a 2-letter word are its two letters
    halves = _pad_minima(w) if n >= 3 else None
    for m in range(1, n):
        (l1, _, r1), (l2, _, r2) = w.letters[m - 1], w.letters[m]
        yield from _m1_swap(w, m - 1, m, m + 1, (l1, r1, l2, r2), bounds,
                            cut)
        if halves is not None:
            yield from _m1_swap(w, 0, m, n, halves[m], bounds, cut)
    for s in range(n):
        yield from _m1_slide(w, s, bounds, cut)


def _pad_minima(w: Word):
    """Per interior boundary m: the least left and right pads of the
    letters before m, then of the letters from m on (entry m, m = 1..n-1)."""
    lefts = [l for l, _, _ in w.letters]
    rights = [r for _, _, r in w.letters]

    def before(pads):
        return [None] + list(itertools.accumulate(pads, min))

    def after(pads):
        return list(itertools.accumulate(reversed(pads), min))[::-1]

    return list(zip(before(lefts), before(rights), after(lefts),
                    after(rights)))


def _unpadded(block, pads, left: bool):
    """Per k in pads: the block's (interior maps, letters) with k strands of
    pad stripped, on the left of each if left is true, else on the right;
    None where some interior map lacks the pad."""
    maps, letters = block
    out = {}
    for k in pads:
        if k == 0:
            out[k] = block
            continue
        q, p = (k, 0) if left else (0, k)
        inner = tuple([unpad(f, q, p) for f in maps])
        out[k] = None if None in inner else (
            inner, tuple([(l - q, x, r - p) for l, x, r in letters]))
    return out


def _m1_swap(w, s, m, e, pads, bounds, cut):
    """Interchange of the blocks of letters s..m-1 and m..e-1, each one
    parameter word; pads holds the least left and right pads of the
    letters in the first block, then in the second.

    One loop nest runs both directions. Forward, the pattern is
    (v |> v2.src) . (v.tgt <| v2): the first block makes v, stripped of k1
    strands of pad on its right, and the second makes v2, stripped of k2
    on its left. Backward, the pattern is (v.src <| v2) . (v |> v2.tgt):
    the first block makes v2, stripped on its left, and the second makes
    v, stripped on its right. Boundary m splits into the two blocks' seam
    maps, and the end seams at boundaries s and e are the identity /
    block-split candidate pair.
    """
    pm, bs = bounds.pad_max, w.boundaries
    first, mid, last = bs[s], bs[m], bs[e]
    blocks = (bs[s + 1:m], w.letters[s:m]), (bs[m + 1:e], w.letters[m:e])
    l1, r1, l2, r2 = pads
    for direction, k1_max, k2_max in (("fwd", r1, l2), ("bwd", l1, r2)):
        fwd = direction == "fwd"
        # each split as (the first block's last map, the second's first)
        splits = [(k1, k2, split if fwd else split[::-1])
                  for k1 in range(min(k1_max, pm) + 1)
                  for k2 in range(min(k2_max, pm) + 1)
                  if (split := untensor(mid, k2, mid.tgt - k1) if fwd
                      else untensor(mid, mid.src - k2, k1)) is not None]
        firsts = _unpadded(blocks[0], {k for k, _, _ in splits}, not fwd)
        seconds = _unpadded(blocks[1], {k for _, k, _ in splits}, fwd)
        for k1, k2, (end1, start2) in splits:
            if firsts[k1] is None or seconds[k2] is None:
                continue
            (inner1, letters1), (inner2, letters2) = firsts[k1], seconds[k2]
            for c0 in _seam_adjacent(first, first.src - k1,
                                     *((0, k1) if fwd else (k1, 0))):
                word1 = Word((c0, *inner1, end1), letters1)
                for c1 in _seam_adjacent(last, last.tgt - k2,
                                         *((k2, 0) if fwd else (0, k2))):
                    word2 = Word((start2, *inner2, c1), letters2)
                    v, v2 = (word1, word2) if fwd else (word2, word1)
                    yield from _emit(w, s, "M1", direction, build_m1(v, v2),
                                     bounds, cut, v=v, v2=v2)


def _m1_slide(w, s, bounds, cut):
    """Degenerate interchange: slide a boundary map block past a letter.

    One parameter word is the letter, the other the length-0 word of a map f
    on k strands after the letter (|v2| = 0) or before it (|v| = 0). f sits
    at the right seam going fwd with f after the letter or bwd with f before
    it, and at the left seam otherwise. That seam decomposes into two
    disjoint blocks (the letter's boundary map and f), so both are extracted
    exactly; the opposite seam keeps the identity / block-split candidate
    pair.
    """
    lam, x, rho = w.letters[s]
    pm = bounds.pad_max
    for after, direction in itertools.product((True, False), ("fwd", "bwd")):
        right = (direction == "fwd") == after
        slid, other = ((w.boundaries[s + 1], w.boundaries[s]) if right
                       else (w.boundaries[s], w.boundaries[s + 1]))
        for k in range(min(rho if after else lam, pm) + 1):
            l, r = (lam, rho - k) if after else (lam - k, rho)
            sig, tau = l + x.src + r, l + x.tgt + r
            near = (tau if right else sig) if after else k
            pads = (0, k) if after else (k, 0)
            for j in range(min(slid.src if right else slid.tgt, pm) + 1):
                split = (untensor(slid, j, near) if right
                         else untensor(slid, near, j))
                if split is None:
                    continue
                c, f = split if after else split[::-1]
                # sliding an identity block changes nothing: pattern and
                # replacement would be equal, and _emit would drop them
                if f.is_identity:
                    continue
                for c_other in _seam_adjacent(
                        other, sig if right else tau, *pads):
                    c0, c1 = (c_other, c) if right else (c, c_other)
                    letter = _letter_factor(c0, (l, x, r), c1)
                    v, v2 = ((letter, op_word(f)) if after
                             else (op_word(f), letter))
                    yield from _emit(w, s, "M1", direction, build_m1(v, v2),
                                     bounds, cut, v=v, v2=v2)


def _braid_moves(w: Word, bounds, cut, mirror: bool):
    """M2 (mirror False) and M3 (mirror True), both directions."""
    rule, build = ("M3", build_m3) if mirror else ("M2", build_m2)
    pm, am = bounds.pad_max, bounds.a_max
    for s, (lam, x, rho) in enumerate(w.letters):
        for a in range(1, am + 1):
            for direction in ("fwd", "bwd"):
                # pattern letter (q+l, x, r+a+p) when the a strands come
                # after it, (q+a+l, x, r+p) when they come before
                after = (direction == "fwd") != mirror
                lo, hi = (lam, rho - a) if after else (lam - a, rho)
                if lo < 0 or hi < 0:
                    continue
                for q in range(min(lo, pm) + 1):
                    for p in range(min(hi, pm) + 1):
                        yield from _braid_case(w, s, rule, build, direction,
                                               bounds, cut,
                                               (lo - q, x, hi - p),
                                               a, q, p, after)


def _braid_case(w, s, rule, build, direction, bounds, cut, letter, a, q,
                p, after):
    """One M2/M3 pattern letter with a strands after it (or before it).

    mid and midr are the seam maps on either side of letter s with the pads
    q and p stripped (None where they have no such pads). The block swap
    sits at the left seam going fwd and at the right seam going bwd; it is
    undone there before the seam maps are split.
    """
    l, x, r = letter
    mid, midr = unpad(w.boundaries[s], q, p), unpad(w.boundaries[s + 1], q, p)
    if direction == "fwd" and mid is not None and mid.tgt >= a:
        b = mid.tgt - a
        mid = compose(mid, braid(a, b) if after else braid(b, a))
    if direction == "bwd" and midr is not None and midr.src >= a:
        b = midr.src - a
        midr = compose(braid(b, a) if after else braid(a, b), midr)
    pads = (0, a) if after else (a, 0)
    c1s = _seam_adjacent(midr, l + x.tgt + r, *pads)
    for c0 in _seam_adjacent(mid, l + x.src + r, *pads):
        for c1 in c1s:
            v = _letter_factor(c0, letter, c1)
            yield from _emit(w, s, rule, direction, build(v, a, q, p),
                             bounds, cut, v=v, a=a, q=q, p=p)


def _m4_moves(w: Word, bounds, cut):
    yield from _m4_fwd(w, bounds, cut)
    yield from _m4_bwd(w, bounds, cut)


def _m4_fwd(w, bounds, cut):
    """Merge a consecutive letters produced by a fold into one.

    The middle seam fixes the merged letter.
    """
    n, pm = len(w), bounds.pad_max
    for a in range(2, bounds.a_max + 1):
        for s in range(n - a + 1):
            span = w.letters[s:s + a]
            x = span[0][1]
            if any(g != x for (_, g, _) in span):
                continue
            vt = span[1][0] - span[0][0]
            vs = span[0][2] - span[1][2]
            if vt < 0 or vs < 0:
                continue
            if any(span[j][0] - span[j - 1][0] != vt
                   or span[j - 1][2] - span[j][2] != vs
                   for j in range(1, a)):
                continue
            for q in range(min(span[0][0], pm) + 1):
                l = span[0][0] - q
                for p in range(min(span[-1][2], pm) + 1):
                    r = span[-1][2] - p
                    sig, tau = l + x.src + r, l + x.tgt + r
                    mid = unpad(w.boundaries[s + 1], q, p)
                    if mid is None:
                        continue
                    c1 = _extract_block(mid, 0, vt, 0, tau)
                    c0 = _extract_block(mid, vt, sig, tau, vs)
                    if c0 is None or c1 is None:
                        continue
                    v = _letter_factor(c0, (l, x, r), c1)
                    yield from _emit(w, s, "M4", "fwd", build_m4(v, a, q, p),
                                     bounds, cut, v=v, a=a, q=q, p=p)


def _m4_bwd(w, bounds, cut):
    """Duplicate a letter across a fold (a >= 2), or delete one (a = 0)."""
    pm = bounds.pad_max
    a_values = [0] + list(range(2, bounds.a_max + 1))
    for s, (lam, x, rho) in enumerate(w.letters):
        for q in range(min(lam, pm) + 1):
            l = lam - q
            for p in range(min(rho, pm) + 1):
                r = rho - p
                sig, tau = l + x.src + r, l + x.tgt + r
                c0s = _seam_adjacent(w.boundaries[s], sig, q, p)
                midr = unpad(w.boundaries[s + 1], q, p)
                for a in a_values:
                    # a deletion's pattern ends in a map that reads none of
                    # the letter's unpadded outputs: no right seam factors
                    # a boundary that reads one
                    if a == 0 and _reads(w.boundaries[s + 1], q, q + tau):
                        continue
                    c1s = [identity(tau)]
                    if a >= 2 and midr is not None and midr.src % a == 0:
                        vt = midr.src // a
                        c1 = FinMap._raw(vt, tau, midr.table[:vt])
                        if (not c1.is_identity
                                and compose(branch(a, vt), c1) == midr):
                            c1s.append(c1)
                    # a duplication past the length or width bound has its
                    # successors counted from the one-letter pattern's outer
                    # maps, before either side is built
                    longer = a >= 2 and len(w) - 1 + a > cut.max_len
                    for c0 in c0s:
                        for c1 in c1s:
                            v = _letter_factor(c0, (l, x, r), c1)
                            if a >= 2 and (longer or cut.duplication_width(
                                    s, v, a) > cut.max_width):
                                cut.count_duplication(s, v, a, q, p,
                                                      bounds.seam_cap)
                                continue
                            yield from _emit(w, s, "M4", "bwd",
                                             build_m4(v, a, q, p), bounds,
                                             cut, v=v, a=a, q=q, p=p)


def _rel_moves(w: Word, ctx: RuleContext, bounds, cut):
    for idx, rel in enumerate(ctx.relations):
        rule = f"REL:{idx}"
        for direction, pat_side in zip(("fwd", "bwd"), rel):
            gen = _rel_spans if len(pat_side) else _rel_insertions
            yield from gen(w, rule, direction, rel, pat_side, bounds, cut)


def _rel_spans(w, rule, direction, rel, pat_side, bounds, cut):
    """Emit the side at each span of w that matches it letter for letter.

    The side's first letter fixes the pads q and p, and each later letter
    of w must be the side's letter whiskered by q and p. _emit checks the
    same, but only on whiskered sides built for it.
    """
    k = len(pat_side)
    (pl0, px0, pr0), *rest = pat_side.letters
    for s in range(len(w) - k + 1):
        lam, x, rho = w.letters[s]
        if x != px0:
            continue
        q, p = lam - pl0, rho - pr0
        if q < 0 or p < 0 or q > bounds.pad_max or p > bounds.pad_max:
            continue
        if any(w.letters[s + i] != (l + q, g, r + p)
               for i, (l, g, r) in enumerate(rest, start=1)):
            continue
        yield from _emit(w, s, rule, direction, build_rel(*rel, q, p),
                         bounds, cut, v=None, q=q, p=p)


def _rel_insertions(w, rule, direction, rel, pat_side, bounds, cut):
    """Match the side, a map, at each boundary of w, padded by q + p =
    total strands to the boundary's target, then, when that takes another
    total, to its source."""
    pm = bounds.pad_max
    for bi, obs in enumerate(w.boundaries):
        for total in dict.fromkeys((obs.tgt - pat_side.src,
                                    obs.src - pat_side.tgt)):
            for q in range(max(total - pm, 0), min(total, pm) + 1):
                yield from _emit(w, bi, rule, direction,
                                 build_rel(*rel, q, total - q), bounds, cut,
                                 v=None, q=q, p=total - q)


def _card_moves(w: Word, bounds, cut):
    """Empty and uncalled: its multi-letter M4 deletions were chains of
    _m4_bwd's one-letter ones. perfbench's tracer wraps it by name."""
    yield from ()


def moves(w: Word, ctx: RuleContext, bounds: RuleBounds,
          tally: Tally | None = None):
    """All generated one-step successors of w under the context's rules.

    Every call goes through one _Cut, with its own Tally when the caller
    passes none. Successors longer than bounds.max_len or wider than
    bounds.max_width (None is no bound) are left out without solving their
    seams or building them; each one that would have been yielded adds 1
    to tally.pruned. The boundary-map algebra comes from the module's
    caches (_CACHE_SIZE), which every call shares, so the stream does not
    depend on what earlier calls solved.
    """
    cut = _Cut(w, bounds, tally or Tally())
    fams = bounds.families
    if fams is None or "M1" in fams:
        yield from _m1_moves(w, bounds, cut)
    if fams is None or "M2" in fams:
        yield from _braid_moves(w, bounds, cut, mirror=False)
    if fams is None or "M3" in fams:
        yield from _braid_moves(w, bounds, cut, mirror=True)
    if fams is None or "M4" in fams:
        yield from _m4_moves(w, bounds, cut)
    if ctx.relations and (fams is None or "REL" in fams):
        yield from _rel_moves(w, ctx, bounds, cut)

