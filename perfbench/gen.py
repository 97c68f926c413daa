"""Seeded input generators, vendored so that edits under tests/ cannot change
what the benchmark measures.

The word generator and the instance generators follow the acceptance suite's
criteria 2, 3 and 4; every input is a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import random

from opwords.alphabet import Generator
from opwords.endo import Carrier, FinFunction
from opwords.finmap import FinMap
from opwords.rules import build_m1, build_m2, build_m3, build_m4
from opwords.words import Word, compose_words, whisker

GENS = (Generator("a", 2, 1), Generator("b", 1, 2), Generator("c", 1, 1),
        Generator("e", 0, 1))


def random_map(rng, src, tgt):
    if tgt == 0:
        src = 0
    return FinMap(src, tgt, tuple(rng.randint(1, tgt) for _ in range(src)))


def random_word(rng, max_len=2, max_pad=1, max_ar=3, gens=GENS):
    """A random well-typed word: letters first, then compatible boundaries."""
    k = rng.randint(0, max_len)
    letters = []
    for _ in range(k):
        g = rng.choice(gens)
        letters.append((rng.randint(0, max_pad), g, rng.randint(0, max_pad)))
    if k == 0:
        m = rng.randint(0, max_ar)
        n = rng.randint(0 if m == 0 else 1, max_ar)
        return Word((random_map(rng, m, n),), ())
    bounds = []
    for i in range(k + 1):
        if i == 0:
            l, g, r = letters[0]
            lo = 0 if l + g.src + r == 0 else 1
            bounds.append(random_map(rng, l + g.src + r, rng.randint(lo, max_ar)))
        elif i < k:
            l0, g0, r0 = letters[i - 1]
            l, g, r = letters[i]
            bounds.append(random_map(rng, l + g.src + r, l0 + g0.tgt + r0))
        else:
            l0, g0, r0 = letters[k - 1]
            bounds.append(random_map(rng, rng.randint(0, max_ar),
                                     l0 + g0.tgt + r0))
    return Word(tuple(bounds), tuple(letters))


def interchange_pair(rng):
    """Criterion 4: the two sides of the interchange law for random words."""
    w = random_word(rng, max_len=2)
    w2 = random_word(rng, max_len=2)
    lhs = compose_words(whisker(0, w, w2.src), whisker(w.tgt, w2, 0))
    rhs = compose_words(whisker(w.src, w2, 0), whisker(0, w, w2.tgt))
    return lhs, rhs


def seeded_alphabet(rng):
    """Criterion 3: three generators of random arity, at least one productive."""
    gens = []
    for name in ("g0", "g1", "g2"):
        gens.append(Generator(name, rng.randint(0, 2), rng.randint(0, 2)))
    if all(g.tgt == 0 for g in gens):
        gens[0] = Generator("g0", gens[0].src, 1)
    return tuple(gens)


def schema_instance(rng, gens):
    """Criterion 3: both sides of one M1-M4 instance with pads, a <= 3."""
    v = random_word(rng, max_len=1, gens=gens)
    v2 = random_word(rng, max_len=1, gens=gens)
    a = rng.randint(0, 3)
    q, p = rng.randint(0, 2), rng.randint(0, 2)
    kind = rng.randint(1, 4)
    if kind == 1:
        return "M1", build_m1(v, v2)
    if kind == 2:
        return "M2", build_m2(v, a, q, p)
    if kind == 3:
        return "M3", build_m3(v, a, q, p)
    return "M4", build_m4(v, a, q, p)


def random_function(rng, carrier: Carrier, m: int, n: int) -> FinFunction:
    rows = tuple(tuple(rng.randrange(carrier.size) for _ in range(n))
                 for _ in range(carrier.size ** m))
    return FinFunction(carrier, m, n, rows)


def axiom_case(rng):
    """Criterion 2's sampled family: random carrier-3 functions, arity <= 2."""
    z3 = Carrier(3)
    m, n = rng.randint(0, 2), rng.randint(0, 2)
    m2, n2 = rng.randint(0, 2), rng.randint(0, 2)
    x = random_function(rng, z3, m, n)
    x2 = random_function(rng, z3, m2, n2)
    return x, x2, rng.randint(0, 3)


def fingerprint(keys) -> str:
    """Digest of a workload's inputs, given as plain data (see canon)."""
    return digest("\n".join(repr(k) for k in keys).encode())


def canon(x):
    """Plain-data form of a word, map or tabulated function.

    Fingerprints hash this instead of the package's repr, so a change to how
    the package prints values does not read as a change of inputs.
    """
    if isinstance(x, FinMap):
        return ("map", x.src, x.tgt, x.table)
    if isinstance(x, Word):
        return ("word", tuple(canon(b) for b in x.boundaries),
                tuple((l, g.name, g.src, g.tgt, r) for l, g, r in x.letters))
    if isinstance(x, FinFunction):
        return ("fn", x.carrier.size, x.src, x.tgt, x.table)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]
