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


def word_terms(w: Word, table: dict) -> tuple[int, ...]:
    """The ids of w's output terms in table (read_word)."""
    return read_word(w, table)[0]
