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
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import ArityError, ReplayError
from .finmap import FinMap, branch, braid, compose, identity
from .words import (Word, compose_words, identity_word, op_word, tensor_power,
                    whisker)

M_RULES = ("M1", "M2", "M3", "M4")


@dataclass(frozen=True)
class RuleBounds:
    a_max: int = 3
    pad_max: int = 6
    seam_cap: int = 64
    families: tuple[str, ...] | None = None   # None = every family


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
    if len(repl) == 0:
        merged = compose(compose(g_v, repl.boundaries[0]), g_u)
        bounds = w.boundaries[:s] + (merged,) + w.boundaries[s + span + 1:]
    else:
        bounds = (w.boundaries[:s]
                  + (compose(repl.boundaries[0], g_u),)
                  + repl.boundaries[1:-1]
                  + (compose(g_v, repl.boundaries[-1]),)
                  + w.boundaries[s + span + 1:])
    letters = w.letters[:s] + repl.letters + w.letters[s + span:]
    return Word(bounds, letters)


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
    a = FinMap(src_split, tgt_split, f.table[:src_split])
    b = FinMap(f.src - src_split, f.tgt - tgt_split,
               tuple(v - tgt_split for v in f.table[src_split:]))
    return a, b


def unpad(f: FinMap, q: int, p: int) -> FinMap | None:
    """Strip identity pads: f = tensor(id_q, mid, id_p) gives mid, else None."""
    split = untensor(f, q, q)
    if split is None or not split[0].is_identity:
        return None
    mid_p = split[1]
    split2 = untensor(mid_p, mid_p.src - p, mid_p.tgt - p)
    if split2 is None or not split2[1].is_identity:
        return None
    return split2[0]


def _extract_block(mid: FinMap, pre: int, width_src: int, tgt_lo: int,
                   width_tgt: int):
    """Read inputs pre+1..pre+width_src of mid as a map into a target block."""
    vals = mid.table[pre:pre + width_src]
    if all(tgt_lo < v <= tgt_lo + width_tgt for v in vals):
        return FinMap(width_src, width_tgt, tuple(v - tgt_lo for v in vals))
    return None


def _left_seams(observed: FinMap, b0: FinMap, cap: int) -> list[FinMap]:
    """Context maps g with compose(b0, g) = observed; identity-like first."""
    if observed.src != b0.src:
        return []
    forced: dict[int, int] = {}
    for i in range(1, b0.src + 1):
        v = b0.table[i - 1]
        want = observed.table[i - 1]
        if forced.setdefault(v, want) != want:
            return []
    free = [j for j in range(1, b0.tgt + 1) if j not in forced]
    if free and observed.tgt == 0:
        return []

    def build(filling):
        table = [0] * b0.tgt
        for j, v in forced.items():
            table[j - 1] = v
        for j, v in zip(free, filling):
            table[j - 1] = v
        return FinMap(b0.tgt, observed.tgt, tuple(table))

    natural = tuple(min(j, observed.tgt) for j in free)
    out = [build(natural)]
    if len(out) < cap:
        for filling in itertools.product(range(1, observed.tgt + 1),
                                         repeat=len(free)):
            if filling == natural:
                continue
            out.append(build(filling))
            if len(out) >= cap:
                break
    return out


def _right_seams(observed: FinMap, blast: FinMap, cap: int) -> list[FinMap]:
    """Context maps g with compose(g, blast) = observed; identity-like first."""
    if observed.tgt != blast.tgt:
        return []
    fibers = []
    for i, v in enumerate(observed.table, start=1):
        fiber = [j for j in range(1, blast.src + 1) if blast.table[j - 1] == v]
        if not fiber:
            return []
        fiber.sort(key=lambda j, i=i: (j != i, j))
        fibers.append(fiber)
    out = []
    for choice in itertools.product(*fibers):
        out.append(FinMap(observed.src, blast.src, choice))
        if len(out) >= cap:
            break
    return out


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


def _emit(w, s, rule, direction, ctx, bounds, *, v, v2=None, a=0, q=0, p=0):
    step0 = RewriteStep(rule, direction, s, a=a, q=q, p=p, v=v, v2=v2)
    try:
        pat, repl = step_sides(step0, ctx)
    except (ArityError, ReplayError):
        return
    k = len(pat)
    if w.letters[s:s + k] != pat.letters:
        return
    if k == 0:
        yield from _emit_empty(w, s, step0, pat, repl, bounds)
        return
    if w.boundaries[s + 1:s + k] != pat.boundaries[1:-1]:
        return
    lefts = _left_seams(w.boundaries[s], pat.boundaries[0], bounds.seam_cap)
    if not lefts:
        return
    rights = _right_seams(w.boundaries[s + k], pat.boundaries[-1],
                          bounds.seam_cap)
    for g_u in lefts:
        for g_v in rights:
            step = replace(step0, seam_left=g_u, seam_right=g_v)
            succ = substitute(w, s, k, repl, g_u, g_v)
            if succ != w:
                yield step, succ


def _emit_empty(w, bi, step0, pat, repl, bounds):
    """Length-0 pattern at boundary bi: two canonical context families."""
    obs = w.boundaries[bi]
    pmap = pat.boundaries[0]
    flush_down = pmap.tgt == obs.tgt
    if flush_down:
        g_u = identity(obs.tgt)
        for g_v in _right_seams(obs, pmap, bounds.seam_cap):
            step = replace(step0, seam_left=g_u, seam_right=g_v)
            succ = substitute(w, bi, 0, repl, g_u, g_v)
            if succ != w:
                yield step, succ
    if pmap.src == obs.src:
        g_v = identity(obs.src)
        for g_u in _left_seams(obs, pmap, bounds.seam_cap):
            if flush_down and g_u.is_identity:
                continue
            step = replace(step0, seam_left=g_u, seam_right=g_v)
            succ = substitute(w, bi, 0, repl, g_u, g_v)
            if succ != w:
                yield step, succ


def _seam_adjacent(observed: FinMap, lo: int, hi: int, side: str):
    """Candidate boundary maps of a parameter word at a seam.

    left:     c over [1,lo], pattern starts with tensor(c, id_hi)
    left_lo:  c with pattern tensor(id_lo, c), c source [1,hi]
    right:    c with pattern tensor(id_lo, c), c target [1,hi]
    right_hi: c with pattern tensor(c, id_hi), c target [1,lo]
    """
    if side == "left":
        cands = [identity(lo)]
        split = untensor(observed, lo, observed.tgt - hi)
        if split is not None and split[1].is_identity:
            cands.append(split[0])
    elif side == "left_lo":
        cands = [identity(hi)]
        split = untensor(observed, lo, lo)
        if split is not None and split[0].is_identity:
            cands.append(split[1])
    elif side == "right":
        cands = [identity(hi)]
        split = untensor(observed, lo, lo)
        if split is not None and split[0].is_identity:
            cands.append(split[1])
    else:  # right_hi
        cands = [identity(lo)]
        split = untensor(observed, observed.src - hi, lo)
        if split is not None and split[1].is_identity:
            cands.append(split[0])
    seen = []
    for c in cands:
        if c not in seen:
            seen.append(c)
            yield c


def _m1_moves(w: Word, ctx, bounds):
    n = len(w)
    for s in range(n - 1):
        yield from _m1_two(w, s, ctx, bounds)
    for s in range(n):
        yield from _m1_slide(w, s, ctx, bounds)


def _m1_two(w, s, ctx, bounds):
    (l1, x1, r1), (l2, x2, r2) = w.letters[s], w.letters[s + 1]
    pm = bounds.pad_max
    # forward: pattern (v |> v2.src) . (v.tgt <| v2)
    for v2s in range(min(r1, pm) + 1):
        for vt in range(min(l2, pm) + 1):
            l, r = l1, r1 - v2s
            ll, rr = l2 - vt, r2
            tau = l + x1.tgt + r
            mid = w.boundaries[s + 1]
            c1 = _extract_block(mid, 0, vt, 0, tau)
            c20 = _extract_block(mid, vt, ll + x2.src + rr, tau, v2s)
            if c1 is None or c20 is None:
                continue
            for c0 in _seam_adjacent(w.boundaries[s], l + x1.src + r, v2s,
                                     "left"):
                for c21 in _seam_adjacent(w.boundaries[s + 2], vt,
                                          ll + x2.tgt + rr, "right"):
                    v = _letter_factor(c0, (l, x1, r), c1)
                    v2 = _letter_factor(c20, (ll, x2, rr), c21)
                    yield from _emit(w, s, "M1", "fwd", ctx, bounds, v=v, v2=v2)
    # backward: pattern (v.src <| v2) . (v |> v2.tgt)
    for vs in range(min(l1, pm) + 1):
        for v2t in range(min(r2, pm) + 1):
            ll, rr = l1 - vs, r1
            l, r = l2, r2 - v2t
            mid = w.boundaries[s + 1]
            c0 = _extract_block(mid, 0, l + x2.src + r, 0, vs)
            c21 = _extract_block(mid, l + x2.src + r, v2t, vs,
                                 ll + x1.tgt + rr)
            if c0 is None or c21 is None:
                continue
            for c20 in _seam_adjacent(w.boundaries[s], vs,
                                      ll + x1.src + rr, "left_lo"):
                for c1 in _seam_adjacent(w.boundaries[s + 2],
                                         l + x2.tgt + r, v2t, "right_hi"):
                    v = _letter_factor(c0, (l, x2, r), c1)
                    v2 = _letter_factor(c20, (ll, x1, rr), c21)
                    yield from _emit(w, s, "M1", "bwd", ctx, bounds, v=v, v2=v2)


def _m1_slide(w, s, ctx, bounds):
    """Degenerate interchange: slide a boundary map block past a letter.

    With one parameter word of length 0, the seam carrying the slid map f
    decomposes into two disjoint blocks (the other parameter word's adjacent
    boundary and f itself), so both are extracted exactly; the opposite seam
    keeps the identity / block-split candidate pair.
    """
    lam, x, rho = w.letters[s]
    pm = bounds.pad_max
    # |v2| = 0 forward: pattern (v |> v2s) . (v.tgt <| f op)
    for v2s in range(min(rho, pm) + 1):
        l, r = lam, rho - v2s
        tau = l + x.tgt + r
        fr = w.boundaries[s + 1]
        for vt in range(min(fr.src, pm) + 1):
            c1 = _extract_block(fr, 0, vt, 0, tau)
            f = _extract_block(fr, vt, fr.src - vt, tau, v2s)
            if c1 is None or f is None:
                continue
            for c0 in _seam_adjacent(w.boundaries[s], l + x.src + r, v2s,
                                     "left"):
                v = _letter_factor(c0, (l, x, r), c1)
                yield from _emit(w, s, "M1", "fwd", ctx, bounds,
                                 v=v, v2=op_word(f))
    # |v2| = 0 backward: pattern (v.src <| f op) . (v |> v2t)
    for v2t in range(min(rho, pm) + 1):
        l, r = lam, rho - v2t
        sig = l + x.src + r
        fl = w.boundaries[s]
        for vs in range(min(fl.tgt, pm) + 1):
            c0 = _extract_block(fl, 0, sig, 0, vs)
            f = _extract_block(fl, sig, v2t, vs, fl.tgt - vs)
            if c0 is None or f is None:
                continue
            for c1 in _seam_adjacent(w.boundaries[s + 1], l + x.tgt + r,
                                     v2t, "right_hi"):
                v = _letter_factor(c0, (l, x, r), c1)
                yield from _emit(w, s, "M1", "bwd", ctx, bounds,
                                 v=v, v2=op_word(f))
    # |v| = 0 forward: pattern (f op |> v2.src) . (f.src <| v2)
    for vt in range(min(lam, pm) + 1):
        ll, rr = lam - vt, rho
        sig2 = ll + x.src + rr
        fl = w.boundaries[s]
        for vs in range(min(fl.tgt, pm) + 1):
            f = _extract_block(fl, 0, vt, 0, vs)
            c20 = _extract_block(fl, vt, sig2, vs, fl.tgt - vs)
            if f is None or c20 is None:
                continue
            for c21 in _seam_adjacent(w.boundaries[s + 1], vt,
                                      ll + x.tgt + rr, "right"):
                v2 = _letter_factor(c20, (ll, x, rr), c21)
                yield from _emit(w, s, "M1", "fwd", ctx, bounds,
                                 v=op_word(f), v2=v2)
    # |v| = 0 backward: pattern (f.tgt <| v2) . (f op |> v2.tgt)
    for vs in range(min(lam, pm) + 1):
        ll, rr = lam - vs, rho
        tau2 = ll + x.tgt + rr
        fr = w.boundaries[s + 1]
        for vt in range(min(fr.src, pm) + 1):
            f = _extract_block(fr, 0, vt, 0, vs)
            c21 = _extract_block(fr, vt, fr.src - vt, vs, tau2)
            if f is None or c21 is None:
                continue
            for c20 in _seam_adjacent(w.boundaries[s], vs, ll + x.src + rr,
                                      "left_lo"):
                v2 = _letter_factor(c20, (ll, x, rr), c21)
                yield from _emit(w, s, "M1", "bwd", ctx, bounds,
                                 v=op_word(f), v2=v2)


def _braid_moves(w: Word, ctx, bounds, mirror: bool):
    """M2 (mirror False) and M3 (mirror True), both directions."""
    rule = "M3" if mirror else "M2"
    pm, am = bounds.pad_max, bounds.a_max
    for s, (lam, x, rho) in enumerate(w.letters):
        for a in range(1, am + 1):
            # forward pattern pads: M2 letter (q+l, x, r+a+p), M3 (q+a+l, x, r+p)
            if mirror:
                if lam >= a:
                    for q in range(min(lam - a, pm) + 1):
                        for p in range(min(rho, pm) + 1):
                            yield from _braid_fwd(w, s, rule, ctx, bounds, x,
                                                  lam - q - a, rho - p,
                                                  a, q, p, mirror)
            else:
                if rho >= a:
                    for q in range(min(lam, pm) + 1):
                        for p in range(min(rho - a, pm) + 1):
                            yield from _braid_fwd(w, s, rule, ctx, bounds, x,
                                                  lam - q, rho - a - p,
                                                  a, q, p, mirror)
            # backward pattern pads: M2 letter (q+a+l, x, r+p), M3 (q+l, x, r+a+p)
            if mirror:
                if rho >= a:
                    for q in range(min(lam, pm) + 1):
                        for p in range(min(rho - a, pm) + 1):
                            yield from _braid_bwd(w, s, rule, ctx, bounds, x,
                                                  lam - q, rho - a - p,
                                                  a, q, p, mirror)
            else:
                if lam >= a:
                    for q in range(min(lam - a, pm) + 1):
                        for p in range(min(rho, pm) + 1):
                            yield from _braid_bwd(w, s, rule, ctx, bounds, x,
                                                  lam - q - a, rho - p,
                                                  a, q, p, mirror)


def _braid_fwd(w, s, rule, ctx, bounds, x, l, r, a, q, p, mirror):
    if l < 0 or r < 0:
        return
    sig, tau = l + x.src + r, l + x.tgt + r
    c0s = [identity(sig)]
    mid = unpad(w.boundaries[s], q, p)
    if mid is not None and mid.tgt >= a:
        vs_guess = mid.tgt - a
        try:
            undone = compose(mid, braid(a, vs_guess) if not mirror
                             else braid(vs_guess, a))
        except ArityError:
            undone = None
        if undone is not None:
            split = (untensor(undone, sig, vs_guess) if not mirror
                     else untensor(undone, a, a))
            if split is not None:
                cand, ident = split if not mirror else (split[1], split[0])
                if ident.is_identity and cand not in c0s:
                    c0s.append(cand)
    c1s = [identity(tau)]
    midr = unpad(w.boundaries[s + 1], q, p)
    if midr is not None and midr.src >= a and midr.tgt >= a:
        split = (untensor(midr, midr.src - a, midr.tgt - a) if not mirror
                 else untensor(midr, a, a))
        if split is not None:
            cand, ident = split if not mirror else (split[1], split[0])
            if ident.is_identity and cand not in c1s:
                c1s.append(cand)
    for c0 in c0s:
        for c1 in c1s:
            v = _letter_factor(c0, (l, x, r), c1)
            yield from _emit(w, s, rule, "fwd", ctx, bounds, v=v, a=a, q=q, p=p)


def _braid_bwd(w, s, rule, ctx, bounds, x, l, r, a, q, p, mirror):
    if l < 0 or r < 0:
        return
    sig, tau = l + x.src + r, l + x.tgt + r
    c0s = [identity(sig)]
    mid = unpad(w.boundaries[s], q, p)
    if mid is not None and mid.src >= a and mid.tgt >= a:
        split = (untensor(mid, a, a) if not mirror
                 else untensor(mid, sig, mid.tgt - a))
        if split is not None:
            cand, ident = (split[1], split[0]) if not mirror else split
            if ident.is_identity and cand not in c0s:
                c0s.append(cand)
    c1s = [identity(tau)]
    midr = unpad(w.boundaries[s + 1], q, p)
    if midr is not None and midr.src >= a:
        vt_guess = midr.src - a
        try:
            undone = compose(braid(a, vt_guess) if not mirror
                             else braid(vt_guess, a), midr)
        except ArityError:
            undone = None
        if undone is not None:
            split = (untensor(undone, a, a) if not mirror
                     else untensor(undone, vt_guess, tau))
            if split is not None:
                cand, ident = (split[1], split[0]) if not mirror else split
                if ident.is_identity and cand not in c1s:
                    c1s.append(cand)
    for c0 in c0s:
        for c1 in c1s:
            v = _letter_factor(c0, (l, x, r), c1)
            yield from _emit(w, s, rule, "bwd", ctx, bounds, v=v, a=a, q=q, p=p)


def _m4_moves(w: Word, ctx, bounds):
    yield from _m4_fwd(w, ctx, bounds)
    yield from _m4_bwd(w, ctx, bounds)


def _m4_fwd(w, ctx, bounds):
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
                    yield from _emit(w, s, "M4", "fwd", ctx, bounds,
                                     v=v, a=a, q=q, p=p)


def _m4_bwd(w, ctx, bounds):
    """Duplicate a letter across a fold (a >= 2), or delete one (a = 0)."""
    pm = bounds.pad_max
    a_values = [0] + list(range(2, bounds.a_max + 1))
    for s, (lam, x, rho) in enumerate(w.letters):
        for q in range(min(lam, pm) + 1):
            l = lam - q
            for p in range(min(rho, pm) + 1):
                r = rho - p
                sig, tau = l + x.src + r, l + x.tgt + r
                c0s = [identity(sig)]
                mid = unpad(w.boundaries[s], q, p)
                if mid is not None and not mid.is_identity:
                    c0s.append(mid)
                midr = unpad(w.boundaries[s + 1], q, p)
                for a in a_values:
                    c1s = [identity(tau)]
                    if a >= 2 and midr is not None and midr.src % a == 0:
                        vt = midr.src // a
                        c1 = _extract_block(midr, 0, vt, 0, tau)
                        if (c1 is not None and not c1.is_identity
                                and compose(branch(a, vt), c1) == midr):
                            c1s.append(c1)
                    for c0 in c0s:
                        for c1 in c1s:
                            v = _letter_factor(c0, (l, x, r), c1)
                            yield from _emit(w, s, "M4", "bwd", ctx, bounds,
                                             v=v, a=a, q=q, p=p)


def _rel_moves(w: Word, ctx: RuleContext, bounds):
    for idx, (rl, rr) in enumerate(ctx.relations):
        rule = f"REL:{idx}"
        for direction, pat_side in (("fwd", rl), ("bwd", rr)):
            if len(pat_side) == 0:
                yield from _rel_insertions(w, rule, direction, pat_side,
                                           ctx, bounds)
            else:
                yield from _rel_spans(w, rule, direction, pat_side,
                                      ctx, bounds)


def _rel_spans(w, rule, direction, pat_side, ctx, bounds):
    k = len(pat_side)
    pl0, px0, pr0 = pat_side.letters[0]
    for s in range(len(w) - k + 1):
        lam, x, rho = w.letters[s]
        if x != px0:
            continue
        q, p = lam - pl0, rho - pr0
        if q < 0 or p < 0 or q > bounds.pad_max or p > bounds.pad_max:
            continue
        yield from _emit(w, s, rule, direction, ctx, bounds, v=None, q=q, p=p)


def _rel_insertions(w, rule, direction, pat_side, ctx, bounds):
    ws, wt = pat_side.src, pat_side.tgt
    for bi in range(len(w) + 1):
        obs = w.boundaries[bi]
        for q in range(min(obs.tgt - ws, bounds.pad_max) + 1):
            p = obs.tgt - ws - q
            if 0 <= p <= bounds.pad_max:
                yield from _emit(w, bi, rule, direction, ctx, bounds,
                                 v=None, q=q, p=p)
        for q in range(min(obs.src - wt, bounds.pad_max) + 1):
            p = obs.src - wt - q
            if 0 <= p <= bounds.pad_max and q + ws + p != obs.tgt:
                yield from _emit(w, bi, rule, direction, ctx, bounds,
                                 v=None, q=q, p=p)


def _card_moves(w: Word, ctx, bounds):
    """Collapse whole-boundary factors of type (0,0) or (1,0)."""
    n = len(w)
    for i in range(n):
        if w.boundaries[i].tgt > 1:
            continue
        for j in range(i + 1, n + 1):
            if w.boundaries[j].src != 0:
                continue
            sub = Word(w.boundaries[i:j + 1], w.letters[i:j])
            yield from _emit(w, i, "CARD", "fwd", ctx, bounds, v=sub)


def moves(w: Word, ctx: RuleContext, bounds: RuleBounds):
    """All generated one-step successors of w under the context's rules."""
    fams = bounds.families
    if fams is None or "M1" in fams:
        yield from _m1_moves(w, ctx, bounds)
    if fams is None or "M2" in fams:
        yield from _braid_moves(w, ctx, bounds, mirror=False)
    if fams is None or "M3" in fams:
        yield from _braid_moves(w, ctx, bounds, mirror=True)
    if fams is None or "M4" in fams:
        yield from _m4_moves(w, ctx, bounds)
    if ctx.relations and (fams is None or "REL" in fams):
        yield from _rel_moves(w, ctx, bounds)
    if ctx.allow_card and (fams is None or "CARD" in fams):
        yield from _card_moves(w, ctx, bounds)


def rule_instances_matching(w: Word, bounds: RuleBounds | None = None):
    """All (step, successor) pairs one schema move away from w."""
    bounds = bounds or RuleBounds()
    return list(moves(w, RuleContext(), bounds))
