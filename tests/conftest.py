import itertools
import random

import pytest

from opwords import finmap, rules
from opwords.alphabet import Generator
from opwords.errors import ArityError
from opwords.finmap import FinMap
from opwords.search import _Lane
from opwords.words import Word


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def built_lanes(monkeypatch):
    """The (families, seam cap, final cap) of every search lane built, in
    the order built."""
    built = []
    init = _Lane.__init__

    def recording(self, w, w2, ctx, budget, families, final_cap,
                  seam_cap=None):
        built.append((families, seam_cap, final_cap))
        init(self, w, w2, ctx, budget, families, final_cap, seam_cap)

    monkeypatch.setattr(_Lane, "__init__", recording)
    return built


GENS = (Generator("a", 2, 1), Generator("b", 1, 2), Generator("c", 1, 1),
        Generator("e", 0, 1))


def random_map(rng, src, tgt):
    if tgt == 0:
        src = 0
    return FinMap(src, tgt, tuple(rng.randint(1, tgt) for _ in range(src)))


def random_word(rng, max_len=2, max_pad=1, max_ar=3, gens=GENS):
    """A random well-typed word: letters first, then compatible boundaries.

    A letter with no outputs and no pads leaves no strand for the next
    letter's inputs; such a draw is dropped and drawn again from rng.
    """
    while True:
        try:
            return _draw_word(rng, max_len, max_pad, max_ar, gens)
        except ArityError:
            pass


def _draw_word(rng, max_len, max_pad, max_ar, gens):
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


def all_maps_upto(limit):
    from opwords.finmap import all_maps
    for m in range(limit + 1):
        for n in range(limit + 1):
            yield from all_maps(m, n)


def brute_force_left_factors(h, g):
    """Oracle for factorizations_through: filter all candidate tables."""
    if h.src > 0 and g.src == 0:
        return []
    out = []
    for table in itertools.product(range(1, g.src + 1), repeat=h.src):
        u = FinMap(h.src, g.src, table)
        if tuple(g.table[v - 1] for v in u.table) == h.table:
            out.append(u)
    return out


def arity_outcome(make):
    """The value built, or the message of the ArityError raised."""
    try:
        return make()
    except ArityError as exc:
        return str(exc)


def rules_caches():
    """Every lru_cache that opwords.rules defines, by name: the caches of
    move generation (finmap's identity, which rules imports, stays out)."""
    return {name: f for name, f in vars(rules).items()
            if hasattr(f, "cache_clear")
            and f is not getattr(finmap, name, None)}


def clear_rules_caches():
    for f in rules_caches().values():
        f.cache_clear()
