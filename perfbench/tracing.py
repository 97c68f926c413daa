"""Outside-in tracing of the opwords layers.

Every wrapper is installed from the benchmark, never in the package: for a
function, each loaded ``opwords`` module whose attribute *is* that function
gets the wrapper, so calls through a name bound at import time (``search``
binds ``moves`` and ``eval_word``, ``rules`` binds ``compose``, ``cli``
binds ``decode``) are seen as well as calls through the defining module.

Spans are aggregated in memory per name: summed duration, self time (the
span minus the time its child spans cover) and call count. Generators are
timed per ``next()``, because their work happens while the consumer pulls.
Hot map and word operations get count-only wrappers to keep the overhead
bounded.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict

import opwords.certificate
import opwords.cli
import opwords.dsl
import opwords.endo
import opwords.evaluate
import opwords.finmap
import opwords.fixtures
import opwords.present
import opwords.rules
import opwords.search
import opwords.words

FAMILIES = ("M1", "M2", "M3", "M4", "REL", "CARD")
_FAMILY_GENS = {"_m1_moves": "M1", "_m4_moves": "M4", "_rel_moves": "REL",
                "_card_moves": "CARD"}


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        self.span_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _close(self, name, t0, child):
        dt = time.perf_counter() - t0
        self._stack[-1] += dt
        self.span_s[name] += dt
        self.self_s[name] += dt - child

    def span(self, name, fn, before=None, after=None):
        stack, calls = self._stack, self.calls

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            calls[name] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0, stack.pop())
            if after is not None:
                after(result)
            return result
        return wrapped

    def gen_span(self, name, fn, yields=None):
        """Time a generator per next(); count what it yields under `yields`."""
        stack, calls, counts = self._stack, self.calls, self.counts

        def wrapped(*args, **kwargs):
            calls[name] += 1
            label = yields(args, kwargs) if callable(yields) else yields
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0, stack.pop())
                if label is not None:
                    counts[label] += 1
                yield item
        return wrapped

    def counter(self, name, fn, rows=None):
        calls, counts = self.calls, self.counts

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if rows is not None:
                counts[name + ".rows"] += rows(args)
            return fn(*args, **kwargs)
        return wrapped

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "opwords" or mod_name.startswith("opwords.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original, wrapper))
                    setattr(mod, attr, wrapper)

    def _wrap(self, module, attr, make):
        original = getattr(module, attr)
        self._patch_everywhere(original, make(original))

    def install(self):
        r, s, e = opwords.rules, opwords.search, opwords.endo
        span = self.span

        def add_visited(result):
            self.counts["search.visited"] += result[1]

        def out_rows(args, kwargs):
            w, assignment = args[0], args[1]
            self.counts["evaluate.out_rows"] += assignment.carrier.size ** w.src

        self._wrap(s, "equivalent", lambda f: span("search.equivalent", f))
        self._wrap(s, "_search_pass",
                   lambda f: span("search._search_pass", f, after=add_visited))
        self._wrap(s, "find_refutation",
                   lambda f: span("search.find_refutation", f))
        self._wrap(s, "probe_assignments",
                   lambda f: span("search.probe_assignments", f))
        self._wrap(r, "moves", lambda f: self.gen_span("rules.moves", f))
        for attr, fam in _FAMILY_GENS.items():
            self._wrap(r, attr, lambda f, fam=fam: self.gen_span(
                f"rules.fam.{fam}", f, yields=f"rules.succ.{fam}"))
        self._wrap(r, "_braid_moves", lambda f: self._braid_family(f))
        self._wrap(r, "apply_step", lambda f: span("rules.apply_step", f))
        self._wrap(opwords.evaluate, "eval_word",
                   lambda f: span("evaluate.eval_word", f, before=out_rows))
        self._wrap(e, "tabulate", lambda f: self.counter(
            "endo.tabulate", f, rows=lambda a: a[0].size ** a[1]))
        self._wrap(e, "ff_compose", lambda f: self.counter(
            "endo.ff_compose", f, rows=lambda a: len(a[0].table)))
        self._wrap(e, "check_braiding",
                   lambda f: span("endo.check_braiding", f))
        self._wrap(e, "check_branching",
                   lambda f: span("endo.check_branching", f))
        self._wrap(opwords.fixtures, "lemma_fixtures",
                   lambda f: span("fixtures.lemma_fixtures", f))
        p = opwords.present
        for attr in ("known_certificates", "satisfying_probes",
                     "check_algebra"):
            self._wrap(p, attr, lambda f, a=attr: span(f"present.{a}", f))
        c = opwords.certificate
        self._wrap(c, "decode", lambda f: span("certificate.decode", f))
        self._wrap(c, "encode", lambda f: span("certificate.encode", f))
        replay = c.Certificate.replay
        wrapper = span("certificate.replay", replay)
        self._patched.append((c.Certificate, "replay", replay, wrapper))
        c.Certificate.replay = wrapper
        self._wrap(opwords.dsl, "parse_word",
                   lambda f: span("dsl.parse_word", f))
        fm, wd = opwords.finmap, opwords.words
        self._wrap(fm, "compose", lambda f: self.counter("finmap.compose", f))
        self._wrap(fm, "tensor", lambda f: self.counter("finmap.tensor", f))
        for attr in ("factorizations_through", "factorizations_from"):
            self._wrap(fm, attr,
                       lambda f: self.counter("finmap.factorizations", f))
        self._wrap(wd, "compose_words",
                   lambda f: self.counter("words.compose_words", f))
        self._wrap(wd, "whisker", lambda f: self.counter("words.whisker", f))

    def _braid_family(self, fn):
        def label(args, kwargs):
            mirror = kwargs.get("mirror", args[3] if len(args) > 3 else False)
            return "rules.succ.M3" if mirror else "rules.succ.M2"
        m2 = self.gen_span("rules.fam.M2", fn, yields="rules.succ.M2")
        m3 = self.gen_span("rules.fam.M3", fn, yields="rules.succ.M3")

        def wrapped(*args, **kwargs):
            gen = m3 if label(args, kwargs) == "rules.succ.M3" else m2
            return gen(*args, **kwargs)
        return wrapped

    def pause(self):
        """Put the originals back, e.g. while the benchmark checks a verdict."""
        for obj, attr, original, _ in reversed(self._patched):
            setattr(obj, attr, original)

    def resume(self):
        for obj, attr, _, wrapper in self._patched:
            setattr(obj, attr, wrapper)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"span_s": dict(self.span_s), "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (used for per-process CLI traces)."""
    for key in ("span_s", "self_s", "calls", "counts"):
        dst = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            dst[name] = dst.get(name, 0) + value


def layer_metrics(snap: dict) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""
    span, self_s = snap.get("span_s", {}), snap.get("self_s", {})
    calls, counts = snap.get("calls", {}), snap.get("counts", {})
    succ = {f: counts.get(f"rules.succ.{f}", 0) for f in FAMILIES}
    total_succ = sum(succ.values())
    out_rows = counts.get("evaluate.out_rows", 0)
    m = {
        "search.equivalent.s": span.get("search.equivalent", 0.0),
        "search.self_s": self_s.get("search._search_pass", 0.0),
        "search.find_refutation.s": span.get("search.find_refutation", 0.0),
        "search.probe_assignments.s":
            span.get("search.probe_assignments", 0.0),
        "search.visited": counts.get("search.visited", 0),
        "search.kept_ratio": (counts.get("search.visited", 0) / total_succ
                              if total_succ else 0.0),
        "rules.moves.calls": calls.get("rules.moves", 0),
        "rules.moves.s": span.get("rules.moves", 0.0),
        "rules.us_per_succ": (span.get("rules.moves", 0.0) / total_succ * 1e6
                              if total_succ else 0.0),
        "rules.apply_step.calls": calls.get("rules.apply_step", 0),
        "rules.apply_step.s": span.get("rules.apply_step", 0.0),
        "evaluate.eval_word.calls": calls.get("evaluate.eval_word", 0),
        "evaluate.eval_word.s": span.get("evaluate.eval_word", 0.0),
        "evaluate.out_rows": out_rows,
        "evaluate.us_per_out_row": (span.get("evaluate.eval_word", 0.0)
                                    / out_rows * 1e6 if out_rows else 0.0),
        "endo.tabulate.rows": counts.get("endo.tabulate.rows", 0),
        "endo.ff_compose.rows": counts.get("endo.ff_compose.rows", 0),
        "endo.check_braiding.s": span.get("endo.check_braiding", 0.0),
        "endo.check_branching.s": span.get("endo.check_branching", 0.0),
        "fixtures.lemma_fixtures.s": span.get("fixtures.lemma_fixtures", 0.0),
        "present.known_certificates.s":
            span.get("present.known_certificates", 0.0),
        "present.satisfying_probes.s":
            span.get("present.satisfying_probes", 0.0),
        "present.check_algebra.s": span.get("present.check_algebra", 0.0),
        "certificate.replay.calls": calls.get("certificate.replay", 0),
        "certificate.replay.s": span.get("certificate.replay", 0.0),
        "certificate.decode.s": span.get("certificate.decode", 0.0),
        "certificate.encode.s": span.get("certificate.encode", 0.0),
        "dsl.parse_word.calls": calls.get("dsl.parse_word", 0),
        "dsl.parse_word.s": span.get("dsl.parse_word", 0.0),
        "cli.main.s": span.get("cli.main", 0.0),
        "finmap.compose.calls": calls.get("finmap.compose", 0),
        "finmap.tensor.calls": calls.get("finmap.tensor", 0),
        "finmap.factorizations.calls": calls.get("finmap.factorizations", 0),
        "words.compose_words.calls": calls.get("words.compose_words", 0),
        "words.whisker.calls": calls.get("words.whisker", 0),
    }
    for f in FAMILIES:
        m[f"rules.succ.{f}"] = succ[f]
        m[f"rules.fam_s.{f}"] = span.get(f"rules.fam.{f}", 0.0)
    return m


# ---------------------------------------------------------------------------
# Kernel timings on a fixed seeded pool, measured with the wrappers removed


def _per_op(fn, pool, reps=5) -> float:
    """Median over reps of seconds per call across the pool."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for args in pool:
            fn(*args)
        samples.append((time.perf_counter() - t0) / len(pool))
    return statistics.median(samples)


def kernel_metrics(seed: int) -> dict:
    from gen import random_map, random_word

    fm, wd = opwords.finmap, opwords.words
    rng = random.Random(seed)
    maps = [random_map(rng, rng.randint(0, 4), rng.randint(1, 4))
            for _ in range(400)]
    composable = [(f, random_map(rng, f.tgt, rng.randint(1, 4)))
                  for f in maps]
    pairs = [(f, maps[(i * 7 + 3) % len(maps)]) for i, f in enumerate(maps)]
    through = []
    for f in maps:
        g = random_map(rng, rng.randint(1, 4), f.tgt)
        through.append((fm.compose(random_map(rng, rng.randint(0, 3), g.src),
                                   g), g))
    words = [random_word(rng, max_len=2) for _ in range(200)]
    chained = []
    for w in words:
        w2 = random_word(rng, max_len=2)
        if w2.src == w.tgt:
            chained.append((w, w2))
    pads = [(rng.randint(0, 2), w, rng.randint(0, 2)) for w in words]
    return {
        "finmap.compose.ns": _per_op(fm.compose, composable) * 1e9,
        "finmap.tensor.ns": _per_op(fm.tensor, pairs) * 1e9,
        "finmap.factorizations_through.us":
            _per_op(fm.factorizations_through, through) * 1e6,
        "words.compose_words.us": _per_op(wd.compose_words, chained) * 1e6,
        "words.whisker.us": _per_op(wd.whisker, pads) * 1e6,
    }
