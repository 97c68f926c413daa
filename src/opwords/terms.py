"""The free terms of words: what every M1-M4 move keeps.

A word m -> n denotes n terms in the m variables x_0 .. x_{m-1}: strand j
of the source starts as x_j, a boundary map copies, drops or permutes
terms, and a letter g turns its input terms t_1 .. t_k into g#i(t_1 .. t_k)
for each output i. Interchange (M1), braid naturality (M2, M3) and
naturality of copying and deleting (M4) keep these terms; relation steps
need not. Every evaluation factors through them, so two words with equal
terms evaluate alike under every assignment.

The same pass reads each letter's key: its generator and the ids of its
argument terms. M1 moves letters without changing what they apply to, so
it keeps the multiset of these keys; M2 and M3 also keep each letter's
place and its number of passing strands (search._differences).

A letter is live when one of its outputs reaches the word's target,
through boundary maps and the inputs of live letters. The live order is
the keys of the live letters in order, each run of equal adjacent keys
written once (live_order). M2 and M3 keep every letter's key and data
flow. M4 copies a letter into adjacent copies with its key, at least one
of them live exactly when it was, merges such copies, or deletes letters
whose outputs reach nothing. So M2, M3 and M4 keep the live order; only
M1 reorders letters.
"""

from __future__ import annotations

from .words import Word


def read_word(w: Word, table: dict) -> tuple[tuple[int, ...], list]:
    """w's output term ids and its letters' keys, pushed through the word
    like eval_word.

    The terms are hash-consed in table: variable x_j is the key j, and
    g#i(t_1 .. t_k) is the key (g, i, ids of t_1 .. t_k), keyed by the
    generator itself. Each new key gets the next id, so two words whose
    terms come from one table have equal terms exactly when their id
    tuples are equal. A letter's key is (g, ids of its argument terms),
    one per letter in order.
    """
    ids = table.setdefault
    terms = [ids(v - 1, len(table)) for v in w.boundaries[0].table]
    letters = []
    for (l, g, r), b in zip(w.letters, w.boundaries[1:]):
        args = tuple(terms[l:l + g.src])
        letters.append((g, args))
        terms[l:l + g.src] = [ids((g, i, args), len(table))
                              for i in range(g.tgt)]
        terms = [terms[v - 1] for v in b.table]
    return tuple(terms), letters


def live_order(w: Word, keys: list) -> tuple:
    """The keys of w's live letters in order, each run of equal adjacent
    keys written once; keys are w's letters' keys (read_word).

    One backward pass from the target strands: a letter is live when one
    of its output strands is, and then its input strands are live too; a
    strand passing a letter is live before it exactly when it is live
    after it; and a boundary map makes live each strand a live strand
    reads.
    """
    live = {v - 1 for v in w.boundaries[-1].table}
    order: list = []
    for (l, g, _), b, key in zip(w.letters[::-1], w.boundaries[-2::-1],
                                 keys[::-1]):
        out = l + g.tgt
        reads = {p for p in live if p < l}
        reads.update(p - g.tgt + g.src for p in live if p >= out)
        if not live.isdisjoint(range(l, out)):
            reads.update(range(l, l + g.src))
            if not order or order[-1] != key:
                order.append(key)
        live = {b.table[p] - 1 for p in reads}
    return tuple(order[::-1])
