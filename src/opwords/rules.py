"""The rewrite moves generating word equivalence, with matching and replay.

Four schema families act on words: interchange of two independent layers
(M1), the two block-swap naturality forms (M2, M3), and fold naturality
(M4, which merges or duplicates a layer). Presentations add their relation
pairs, whiskered on both sides, and a cardinality move (CARD) that collapses
any factor of type (1,0) or (0,0) to the canonical one.

Every move rewrites a factor in context: the matched span's outer boundary
maps split into a pattern part and a context part. Matching enumerates
candidate instances, rebuilds both schema sides from the candidate
parameters, and verifies the pattern against the word before yielding, so a
slip in parameter inference cannot produce an unsound step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import ArityError, ReplayError
from .finmap import (FinMap, branch, braid, compose,
                     count_factorizations_from, count_factorizations_through,
                     factorizations_from, factorizations_through, identity)
from .words import (Word, compose_words, identity_word, op_word, tensor_power,
                    whisker)

M_RULES = ("M1", "M2", "M3", "M4")
_new = object.__new__


@dataclass(frozen=True)
class RuleBounds:
    a_max: int = 3
    pad_max: int = 6
    seam_cap: int = 64
    families: tuple[str, ...] | None = None   # None = every family
    max_len: int | None = None     # None = no bound on successor length
    max_width: int | None = None   # None = no bound on successor width


@dataclass(frozen=True)
class RuleContext:
    """Rule environment: relation pairs (may be empty) and CARD availability."""

    relations: tuple[tuple[Word, Word], ...] = ()
    allow_card: bool = False


@dataclass(frozen=True)
class RewriteStep:
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
        return replace(self, direction="bwd" if self.direction == "fwd" else "fwd")


# ---------------------------------------------------------------------------
# Schema instance builders


@lru_cache(maxsize=1 << 16)
def build_m1(v: Word, v2: Word) -> tuple[Word, Word]:
    lhs = compose_words(whisker(0, v, v2.src), whisker(v.tgt, v2, 0))
    rhs = compose_words(whisker(v.src, v2, 0), whisker(0, v, v2.tgt))
    return lhs, rhs


@lru_cache(maxsize=1 << 14)
def build_m2(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(braid(v.src, a)), whisker(0, v, a))
    rhs = compose_words(whisker(a, v, 0), op_word(braid(v.tgt, a)))
    return whisker(q, lhs, p), whisker(q, rhs, p)


@lru_cache(maxsize=1 << 14)
def build_m3(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(braid(a, v.src)), whisker(a, v, 0))
    rhs = compose_words(whisker(0, v, a), op_word(braid(a, v.tgt)))
    return whisker(q, lhs, p), whisker(q, rhs, p)


@lru_cache(maxsize=1 << 14)
def build_m4(v: Word, a: int, q: int, p: int) -> tuple[Word, Word]:
    lhs = compose_words(op_word(branch(a, v.src)), tensor_power(v, a))
    rhs = compose_words(v, op_word(branch(a, v.tgt)))
    return whisker(q, lhs, p), whisker(q, rhs, p)


def canonical_word(src: int, tgt: int) -> Word:
    if (src, tgt) == (0, 0):
        return identity_word(0)
    if (src, tgt) == (1, 0):
        return op_word(FinMap(0, 1, ()))
    raise ArityError(f"no canonical word for type ({src},{tgt})")


def step_sides(step: RewriteStep, ctx: RuleContext) -> tuple[Word, Word]:
    """(pattern, replacement) for a step, rebuilt from its parameters."""
    if step.direction not in ("fwd", "bwd"):
        raise ReplayError(f"direction must be fwd or bwd, found "
                          f"{step.direction!r}")
    if step.v is None and step.rule in ("M1", "M2", "M3", "M4", "CARD"):
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
        rl, rr = ctx.relations[idx]
        lhs, rhs = whisker(step.q, rl, step.p), whisker(step.q, rr, step.p)
    elif step.rule == "CARD":
        if not ctx.allow_card:
            raise ReplayError("CARD step not permitted in this context")
        lhs, rhs = step.v, canonical_word(step.v.src, step.v.tgt)
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


def substitute(w: Word, s: int, span: int, repl: Word,
               g_u: FinMap, g_v: FinMap) -> Word:
    """w with the span's factor replaced by repl between the two seams."""
    _, _, succ = next(_substitutions(w, s, span, repl, [(g_u, g_v)]))
    return Word(succ.boundaries, succ.letters)


def _substitutions(w, s, span, repl, seams):
    """(g_u, g_v, substituted word) per seam pair, unvalidated.

    The part left of the right seam is built once per run of equal g_u.
    """
    letters = w.letters[:s] + repl.letters + w.letters[s + span:]
    pre, post = w.boundaries[:s], w.boundaries[s + span + 1:]
    if len(repl) == 0:
        only = repl.boundaries[0]
        for g_u, g_v in seams:
            merged = compose(compose(g_v, only), g_u)
            yield g_u, g_v, Word._raw(pre + (merged,) + post, letters)
        return
    first, mid, last = (repl.boundaries[0], repl.boundaries[1:-1],
                        repl.boundaries[-1])
    prev = None
    for g_u, g_v in seams:
        if g_u is not prev:
            prev, head = g_u, pre + (compose(first, g_u),) + mid
        yield g_u, g_v, Word._raw(head + (compose(g_v, last),) + post,
                                  letters)


def apply_step(w: Word, step: RewriteStep, ctx: RuleContext) -> Word:
    pat, repl = step_sides(step, ctx)
    if not pattern_matches(w, step.split, pat, step.seam_left, step.seam_right):
        raise ReplayError(
            f"{step.rule} {step.direction} does not match at letter {step.split}")
    return substitute(w, step.split, len(pat), repl,
                      step.seam_left, step.seam_right)


# ---------------------------------------------------------------------------
# Block-structure helpers used by parameter inference


def untensor(f: FinMap, src_split: int, tgt_split: int):
    """Split f as tensor(a, b) with the given block arities, or None."""
    if not (0 <= src_split <= f.src and 0 <= tgt_split <= f.tgt):
        return None
    for v in f.table[:src_split]:
        if v > tgt_split:
            return None
    for v in f.table[src_split:]:
        if v <= tgt_split:
            return None
    a = FinMap._raw(src_split, tgt_split, f.table[:src_split])
    b = FinMap._raw(f.src - src_split, f.tgt - tgt_split,
                    tuple(v - tgt_split for v in f.table[src_split:]))
    return a, b


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
    vals = mid.table[pre:pre + width_src]
    if all(tgt_lo < v <= tgt_lo + width_tgt for v in vals):
        return FinMap(width_src, width_tgt, tuple(v - tgt_lo for v in vals))
    return None


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


def _emit(w, s, rule, direction, ctx, bounds, cut, *, v, v2=None, a=0, q=0,
          p=0):
    step = RewriteStep(rule, direction, s, a, q, p, v, v2)
    try:
        pat, repl = step_sides(step, ctx)
    except (ArityError, ReplayError):
        return
    # the seams solve the pattern's equations, so an unchanged factor
    # would give back w at every seam
    if pat == repl:
        return
    k = len(pat)
    if w.letters[s:s + k] != pat.letters:
        return
    if cut is not None and cut.prunes(s, pat, repl, bounds.seam_cap):
        return
    seams = _seams(w, s, pat, bounds.seam_cap)
    for g_u, g_v, succ in _substitutions(w, s, k, repl, seams):
        if succ != w:
            yield _with_seams(step, g_u, g_v), succ


def _with_seams(step: RewriteStep, g_u: FinMap, g_v: FinMap) -> RewriteStep:
    """A copy of step with its seams set, without the dataclass __init__."""
    out = _new(RewriteStep)
    vars(out).update(vars(step), seam_left=g_u, seam_right=g_v)
    return out


def _seams(w, s, pat, cap):
    """The (g_u, g_v) context maps of pattern pat matched at letter s."""
    if len(pat) == 0:
        return _empty_seams(w.boundaries[s], pat.boundaries[0], cap)
    return _span_seams(w, s, pat, cap)


def _span_seams(w, s, pat, cap):
    """Context maps around a pattern of length k >= 1 matched at letter s."""
    k = len(pat)
    if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
        return []
    lefts = list(itertools.islice(
        factorizations_from(w.boundaries[s], pat.boundaries[0]), max(cap, 1)))
    if not lefts:
        return []
    rights = factorizations_through(w.boundaries[s + k], pat.boundaries[-1],
                                    cap)
    return itertools.product(lefts, rights)


def _empty_seams(obs, pmap, cap):
    """Length-0 pattern at a boundary: two canonical context families."""
    flush_down = pmap.tgt == obs.tgt
    if flush_down:
        g_u = identity(obs.tgt)
        for g_v in factorizations_through(obs, pmap, cap):
            yield g_u, g_v
    if pmap.src == obs.src:
        g_v = identity(obs.src)
        for g_u in itertools.islice(factorizations_from(obs, pmap),
                                    max(cap, 1)):
            if not (flush_down and g_u.is_identity):
                yield g_u, g_v


def _seam_count(w, s, pat, cap) -> int:
    """len(list(_seams(w, s, pat, cap))) from the fiber sizes alone.

    Of the length-0 pattern's two families, the second skips the identity,
    which is a solution exactly when the pattern's map is the observed one
    (and then it is the first one listed).
    """
    if len(pat) == 0:
        obs, pmap = w.boundaries[s], pat.boundaries[0]
        n = 0
        if pmap.tgt == obs.tgt:
            n += count_factorizations_through(obs, pmap, cap)
        if pmap.src == obs.src:
            n += count_factorizations_from(obs, pmap, cap) - (pmap == obs)
        return n
    k = len(pat)
    if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
        return 0
    return (count_factorizations_from(w.boundaries[s], pat.boundaries[0], cap)
            * count_factorizations_through(w.boundaries[s + k],
                                           pat.boundaries[-1], cap))


class Tally:
    """Successors that moves() left unbuilt for breaking a bound."""

    __slots__ = ("pruned",)

    def __init__(self):
        self.pruned = 0


class _Cut:
    """The length and width bounds of one moves() call, decided per emit.

    A successor has w's type, and a word's width is the largest of its
    source, its target and its letters' widths, since each boundary map
    sits between two letters or at an end. So an emit's successors all
    share one length and one width, read off the span and the replacement
    before any seam is solved: the letter widths of w before and after the
    span come from prefix and suffix maxima computed once per call.
    """

    __slots__ = ("w", "max_len", "max_width", "before", "after", "tally")

    def __init__(self, w: Word, bounds: RuleBounds, tally: Tally | None):
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
            count = _seam_count(w, s, pat, cap)
        else:
            seams = _seams(w, s, pat, cap)
            count = sum(succ != w for *_, succ in
                        _substitutions(w, s, k, repl, seams))
        if self.tally is not None:
            self.tally.pruned += count
        return True


def _seam_adjacent(observed: FinMap | None, width: int, q: int, p: int):
    """Candidate boundary maps of a parameter word at a seam.

    The identity on `width` strands, then the observed seam map with identity
    pads q and p stripped, when it has them and differs from the first.
    """
    ident = identity(width)
    yield ident
    cand = None if observed is None else unpad(observed, q, p)
    if cand is not None and cand != ident:
        yield cand


def _m1_moves(w: Word, ctx, bounds, cut):
    n = len(w)
    for s in range(n - 1):
        yield from _m1_two(w, s, ctx, bounds, cut)
    for s in range(n):
        yield from _m1_slide(w, s, ctx, bounds, cut)


def _m1_two(w, s, ctx, bounds, cut):
    (l1, x1, r1), (l2, x2, r2) = w.letters[s], w.letters[s + 1]
    pm = bounds.pad_max
    mid = w.boundaries[s + 1]
    # forward: pattern (v |> v2.src) . (v.tgt <| v2)
    for v2s in range(min(r1, pm) + 1):
        for vt in range(min(l2, pm) + 1):
            l, r = l1, r1 - v2s
            ll, rr = l2 - vt, r2
            split = untensor(mid, vt, l + x1.tgt + r)
            if split is None:
                continue
            c1, c20 = split
            for c0 in _seam_adjacent(w.boundaries[s], l + x1.src + r, 0, v2s):
                for c21 in _seam_adjacent(w.boundaries[s + 2],
                                          ll + x2.tgt + rr, vt, 0):
                    v = _letter_factor(c0, (l, x1, r), c1)
                    v2 = _letter_factor(c20, (ll, x2, rr), c21)
                    yield from _emit(w, s, "M1", "fwd", ctx, bounds, cut,
                                     v=v, v2=v2)
    # backward: pattern (v.src <| v2) . (v |> v2.tgt)
    for vs in range(min(l1, pm) + 1):
        for v2t in range(min(r2, pm) + 1):
            ll, rr = l1 - vs, r1
            l, r = l2, r2 - v2t
            split = untensor(mid, l + x2.src + r, vs)
            if split is None:
                continue
            c0, c21 = split
            for c20 in _seam_adjacent(w.boundaries[s], ll + x1.src + rr,
                                      vs, 0):
                for c1 in _seam_adjacent(w.boundaries[s + 2],
                                         l + x2.tgt + r, 0, v2t):
                    v = _letter_factor(c0, (l, x2, r), c1)
                    v2 = _letter_factor(c20, (ll, x1, rr), c21)
                    yield from _emit(w, s, "M1", "bwd", ctx, bounds, cut,
                                     v=v, v2=v2)


def _m1_slide(w, s, ctx, bounds, cut):
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
                for c_other in _seam_adjacent(other, sig if right else tau,
                                              *pads):
                    c0, c1 = (c_other, c) if right else (c, c_other)
                    letter = _letter_factor(c0, (l, x, r), c1)
                    v, v2 = ((letter, op_word(f)) if after
                             else (op_word(f), letter))
                    yield from _emit(w, s, "M1", direction, ctx, bounds, cut,
                                     v=v, v2=v2)


def _braid_moves(w: Word, ctx, bounds, cut, mirror: bool):
    """M2 (mirror False) and M3 (mirror True), both directions."""
    rule = "M3" if mirror else "M2"
    pm, am = bounds.pad_max, bounds.a_max
    for s, (lam, x, rho) in enumerate(w.letters):
        seams = {}  # (q, p) -> both seam maps of letter s, q and p unpadded
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
                        mids = seams.get((q, p))
                        if mids is None:
                            mids = seams[q, p] = (
                                unpad(w.boundaries[s], q, p),
                                unpad(w.boundaries[s + 1], q, p))
                        yield from _braid_case(w, s, rule, direction, ctx,
                                               bounds, cut,
                                               (lo - q, x, hi - p),
                                               a, q, p, after, *mids)


def _braid_case(w, s, rule, direction, ctx, bounds, cut, letter, a, q, p,
                after, mid, midr):
    """One M2/M3 pattern letter with a strands after it (or before it).

    mid and midr are the seam maps on either side of letter s with the pads
    q and p stripped (None where they have no such pads). The block swap
    sits at the left seam going fwd and at the right seam going bwd; it is
    undone there before the seam maps are split.
    """
    l, x, r = letter
    if direction == "fwd" and mid is not None and mid.tgt >= a:
        b = mid.tgt - a
        mid = compose(mid, braid(a, b) if after else braid(b, a))
    if direction == "bwd" and midr is not None and midr.src >= a:
        b = midr.src - a
        midr = compose(braid(b, a) if after else braid(a, b), midr)
    pads = (0, a) if after else (a, 0)
    c1s = list(_seam_adjacent(midr, l + x.tgt + r, *pads))
    for c0 in _seam_adjacent(mid, l + x.src + r, *pads):
        for c1 in c1s:
            v = _letter_factor(c0, letter, c1)
            yield from _emit(w, s, rule, direction, ctx, bounds, cut,
                             v=v, a=a, q=q, p=p)


def _m4_moves(w: Word, ctx, bounds, cut):
    yield from _m4_fwd(w, ctx, bounds, cut)
    yield from _m4_bwd(w, ctx, bounds, cut)


def _m4_fwd(w, ctx, bounds, cut):
    """Merge a consecutive letters produced by a fold into one."""
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
                    yield from _emit(w, s, "M4", "fwd", ctx, bounds, cut,
                                     v=v, a=a, q=q, p=p)


def _m4_bwd(w, ctx, bounds, cut):
    """Duplicate a letter across a fold (a >= 2), or delete one (a = 0)."""
    pm = bounds.pad_max
    a_values = [0] + list(range(2, bounds.a_max + 1))
    for s, (lam, x, rho) in enumerate(w.letters):
        for q in range(min(lam, pm) + 1):
            l = lam - q
            for p in range(min(rho, pm) + 1):
                r = rho - p
                sig, tau = l + x.src + r, l + x.tgt + r
                c0s = list(_seam_adjacent(w.boundaries[s], sig, q, p))
                midr = unpad(w.boundaries[s + 1], q, p)
                for a in a_values:
                    c1s = [identity(tau)]
                    if a >= 2 and midr is not None and midr.src % a == 0:
                        vt = midr.src // a
                        c1 = FinMap(vt, tau, midr.table[:vt])
                        if (not c1.is_identity
                                and compose(branch(a, vt), c1) == midr):
                            c1s.append(c1)
                    for c0 in c0s:
                        for c1 in c1s:
                            v = _letter_factor(c0, (l, x, r), c1)
                            yield from _emit(w, s, "M4", "bwd", ctx, bounds,
                                             cut, v=v, a=a, q=q, p=p)


def _rel_moves(w: Word, ctx: RuleContext, bounds, cut):
    for idx, (rl, rr) in enumerate(ctx.relations):
        rule = f"REL:{idx}"
        for direction, pat_side in (("fwd", rl), ("bwd", rr)):
            if len(pat_side) == 0:
                yield from _rel_insertions(w, rule, direction, pat_side,
                                           ctx, bounds, cut)
            else:
                yield from _rel_spans(w, rule, direction, pat_side,
                                      ctx, bounds, cut)


def _rel_spans(w, rule, direction, pat_side, ctx, bounds, cut):
    k = len(pat_side)
    pl0, px0, pr0 = pat_side.letters[0]
    for s in range(len(w) - k + 1):
        lam, x, rho = w.letters[s]
        if x != px0:
            continue
        q, p = lam - pl0, rho - pr0
        if q < 0 or p < 0 or q > bounds.pad_max or p > bounds.pad_max:
            continue
        yield from _emit(w, s, rule, direction, ctx, bounds, cut,
                         v=None, q=q, p=p)


def _rel_insertions(w, rule, direction, pat_side, ctx, bounds, cut):
    ws, wt = pat_side.src, pat_side.tgt
    for bi in range(len(w) + 1):
        obs = w.boundaries[bi]
        for q in range(min(obs.tgt - ws, bounds.pad_max) + 1):
            p = obs.tgt - ws - q
            if 0 <= p <= bounds.pad_max:
                yield from _emit(w, bi, rule, direction, ctx, bounds, cut,
                                 v=None, q=q, p=p)
        for q in range(min(obs.src - wt, bounds.pad_max) + 1):
            p = obs.src - wt - q
            if 0 <= p <= bounds.pad_max and q + ws + p != obs.tgt:
                yield from _emit(w, bi, rule, direction, ctx, bounds, cut,
                                 v=None, q=q, p=p)


def _card_moves(w: Word, ctx, bounds, cut):
    """Collapse whole-boundary factors of type (0,0) or (1,0)."""
    n = len(w)
    for i in range(n):
        if w.boundaries[i].tgt > 1:
            continue
        for j in range(i + 1, n + 1):
            if w.boundaries[j].src != 0:
                continue
            sub = Word(w.boundaries[i:j + 1], w.letters[i:j])
            yield from _emit(w, i, "CARD", "fwd", ctx, bounds, cut, v=sub)


def moves(w: Word, ctx: RuleContext, bounds: RuleBounds,
          tally: Tally | None = None):
    """All generated one-step successors of w under the context's rules.

    Successors longer than bounds.max_len or wider than bounds.max_width
    are left out without solving their seams or building them; each one
    that would have been yielded adds 1 to tally.pruned.
    """
    cut = (None if bounds.max_len is None and bounds.max_width is None
           else _Cut(w, bounds, tally))
    fams = bounds.families
    if fams is None or "M1" in fams:
        yield from _m1_moves(w, ctx, bounds, cut)
    if fams is None or "M2" in fams:
        yield from _braid_moves(w, ctx, bounds, cut, mirror=False)
    if fams is None or "M3" in fams:
        yield from _braid_moves(w, ctx, bounds, cut, mirror=True)
    if fams is None or "M4" in fams:
        yield from _m4_moves(w, ctx, bounds, cut)
    if ctx.relations and (fams is None or "REL" in fams):
        yield from _rel_moves(w, ctx, bounds, cut)
    if ctx.allow_card and (fams is None or "CARD" in fams):
        yield from _card_moves(w, ctx, bounds, cut)


def rule_instances_matching(w: Word, bounds: RuleBounds | None = None):
    """All (step, successor) pairs one schema move away from w."""
    bounds = bounds or RuleBounds()
    return list(moves(w, RuleContext(), bounds))
