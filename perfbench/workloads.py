"""The four workloads: seeded inputs, the timed call, and the verdict check.

Each workload turns ``(seed, seconds)`` into a fixed list of queries whose
size is set by ``seconds`` alone, never by how fast the program answers, so
two versions of the program answer the same queries. Query mixes are
stratified by a property that sets a query's cost (word length, evaluation
table size, kind of CLI call), with fixed shares per stratum; drawing the
strata in fixed proportions keeps the seed-to-seed spread of the totals
small. Why each workload exists is recorded in perfbench/README.md.

The program is reached through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import opwords.certificate as certificate
from opwords.alphabet import Alphabet
import opwords.cli as cli
import opwords.dsl as dsl
import opwords.endo as endo
import opwords.evaluate as evaluate
import opwords.present as present
import opwords.rules as rules
import opwords.search as search

import gen

BENCH_DIR = Path(__file__).resolve().parent
DATA = BENCH_DIR / "data"


@dataclass
class Query:
    kind: str
    args: tuple
    expect: str
    key: object = None            # canonical description, for the fingerprint
    asks_verdict: bool = True     # counted in decided_frac (Proved/Disproved)


@dataclass
class Verdict:
    ok: bool
    verdict: str                  # Proved / Disproved / Unknown / exit code
    decided: bool
    steps: int | None = None
    visited: int | None = None
    note: str = ""


def apportion(total: int, shares: dict) -> dict:
    """Split `total` into integer quotas proportional to `shares`."""
    weight = sum(shares.values())
    raw = {k: total * v / weight for k, v in shares.items()}
    out = {k: math.floor(v) for k, v in raw.items()}
    rest = sorted(raw, key=lambda k: (out[k] - raw[k], str(k)))
    for k in rest[:total - sum(out.values())]:
        out[k] += 1
    return out


def _check_certificate(cert, lhs, rhs, ctx) -> str:
    """Empty when cert proves lhs ~ rhs under ctx, forwards and backwards."""
    if (cert.start, cert.end) != (lhs, rhs):
        return "certificate endpoints differ from the query"
    try:
        cert.replay(ctx)
        cert.reversed().replay(ctx)
    except Exception as exc:  # any failure to replay is a wrong answer
        return f"certificate does not replay: {exc}"
    return ""


def _judge(result, lhs, rhs, ctx, want_proved=False) -> Verdict:
    """Check a search outcome; Disproved on a theorem is unsound."""
    if isinstance(result, search.Proved):
        bad = _check_certificate(result.certificate, lhs, rhs, ctx)
        return Verdict(not bad, "Proved", True,
                       steps=len(result.certificate.steps), note=bad)
    if isinstance(result, search.Disproved):
        return Verdict(False, "Disproved", True,
                       note="refuted a query known to be a theorem")
    if isinstance(result, search.Unknown):
        return Verdict(not want_proved, "Unknown", False,
                       visited=result.visited,
                       note="theorem left unproved" if want_proved else "")
    return Verdict(False, type(result).__name__, False, note="not an outcome")


# ---------------------------------------------------------------------------
# interchange: free search on criterion-4 interchange pairs


class Interchange:
    name = "interchange"
    per_second = 1.2
    # strata are word lengths, in the generator's natural frequencies. Pairs
    # whose two sides are literally the same word (about a fifth) are
    # skipped: `equivalent` answers them before any search, and their zero
    # latencies would put the median on the edge between two latency clusters
    shares = {1: 4, 2: 6, 3: 4, 4: 2}

    def inputs(self, seed: int, seconds: float) -> list[Query]:
        n = max(len(self.shares), round(self.per_second * seconds))
        quota = apportion(n, self.shares)
        rng = random.Random(seed)
        out = []
        while len(out) < n:
            lhs, rhs = gen.interchange_pair(rng)
            stratum = len(lhs)
            if lhs != rhs and quota.get(stratum, 0) > 0:
                quota[stratum] -= 1
                out.append(Query(f"len{stratum}", (lhs, rhs), "Proved",
                                 key=(gen.canon(lhs), gen.canon(rhs))))
        return out

    def answer(self, q: Query):
        return search.equivalent(*q.args)

    def check(self, q: Query, result) -> Verdict:
        lhs, rhs = q.args
        return _judge(result, lhs, rhs, rules.RuleContext(), want_proved=True)


# ---------------------------------------------------------------------------
# lemma_search: autonomous search modulo relations, without the built-ins

LEMMAS = {
    "omega-unique": "omega-unique.pres",
    "eta-omega": "@group",
    "omega-involution": "@group",
    "ZG-claim1": "@group-Z",
    "ZG-claim2": "@group-Z",
}


def load_pres(source: str):
    return present.load_presentation(
        source if source.startswith("@") else str(DATA / source))


def lemma_chains():
    """name -> (presentation, words along the committed certificate)."""
    chains = {}
    for name, source in LEMMAS.items():
        pres = load_pres(source)
        cert = certificate.decode((DATA / f"{name}.cert").read_text(),
                                  pres.alphabet)
        ctx = pres.context()
        words = [cert.start]
        for step in cert.steps:
            words.append(rules.apply_step(words[-1], step, ctx))
        if words[-1] != cert.end:
            raise SystemExit(f"committed certificate {name} does not replay")
        chains[name] = (pres, words)
    return chains


class LemmaSearch:
    name = "lemma_search"
    max_steps = 3000
    # Steps between words of 8 or more letters (the transported middle of
    # ZG-claim2) are where the search gives up on single steps; every run
    # takes all of them, in both directions, so the share of Unknown answers
    # does not depend on the seed and the tail percentile falls inside the
    # cluster of searches that exhaust every tier. Shorter steps are sampled.
    long_len = 8
    short_per_second = 1.2

    def inputs(self, seed: int, seconds: float) -> list[Query]:
        rng = random.Random(seed)
        # the seed picks inputs only; the search's own probe seed stays fixed
        budget = search.SearchBudget(max_steps=self.max_steps)
        chains = lemma_chains()
        out = []
        short = {}
        for name, (pres, words) in chains.items():
            out.append(Query(f"lemma:{name}",
                             (words[0], words[-1], pres, budget),
                             "Proved|Unknown",
                             key=(name, gen.canon(words[0]),
                                  gen.canon(words[-1]))))
            short[name] = []
            for i in range(len(words) - 1):
                a, b = words[i], words[i + 1]
                if max(len(a), len(b)) >= self.long_len:
                    out.extend(Query(f"long-step:{name}", (x, y, pres, budget),
                                     "Proved|Unknown",
                                     key=(name, i, gen.canon(x), gen.canon(y)))
                               for x, y in ((a, b), (b, a)))
                else:
                    short[name].append(i)
        # short steps in fixed shares per lemma, in proportion to its steps
        n = max(len(chains), round(self.short_per_second * seconds))
        quota = apportion(n, {k: len(v) for k, v in short.items()})
        for name, (pres, words) in chains.items():
            picked = rng.sample(short[name], min(quota[name], len(short[name])))
            out.extend(self._short_step(rng, name, pres, budget, words, i)
                       for i in picked)
        rng.shuffle(out)
        return out

    @staticmethod
    def _short_step(rng, name, pres, budget, words, i) -> Query:
        """Step i of a certificate as a query, in a seeded direction."""
        a, b = words[i], words[i + 1]
        if rng.random() < 0.5:
            a, b = b, a
        return Query(f"short-step:{name}", (a, b, pres, budget),
                     "Proved|Unknown",
                     key=(name, i, gen.canon(a), gen.canon(b)))

    def answer(self, q: Query):
        lhs, rhs, pres, budget = q.args
        return present.equivalent_mod(lhs, rhs, pres, budget,
                                      consult_builtin=False)

    def check(self, q: Query, result) -> Verdict:
        lhs, rhs, pres, _ = q.args
        return _judge(result, lhs, rhs, pres.context())


# ---------------------------------------------------------------------------
# soundness_eval: criterion-3 schema instances under the probe battery, and
# criterion-2 axiom checks on random carrier-3 functions


def eval_cost(w) -> int:
    """Table rows eval_word touches for w on carrier 3 (a cost estimate)."""
    c = 3
    rows = c ** w.src * (2 * len(w) + 1)
    rows += sum(2 * c ** (l + g.src + r) + c ** (l + g.tgt + r)
                for l, g, r in w.letters)
    return rows + sum(c ** b.tgt for b in w.boundaries)


class SoundnessEval:
    name = "soundness_eval"
    # strata: half-units of log3(rows touched), in the generator's natural
    # frequencies below the 3^10 cut (per 10000 instances; measured by
    # perfbench/strata.py over 40000 instances, seeds 0-199). Instances above
    # 3^10 rows (7.8% of them) are left out: their tables no longer fit in
    # cache, and on a shared host their times swing by a third from run to
    # run; one instance above 3^11 rows takes over 3 s on a 2-core x86 VM.
    # Axiom batches of 10 cases come one per 5 instances, the acceptance
    # suite's ratio (2000 sampled criterion-2 cases to 1000 criterion-3
    # instances).
    shares = {"axioms": 2000, "b<=5.5": 3171, "b6": 1488, "b6.5": 692,
              "b7": 1465, "b7.5": 753, "b8": 1067, "b8.5": 494, "b9": 576,
              "b9.5": 294}
    per_second = 34
    axiom_cases = 10
    budget = search.SearchBudget(probe_carriers=(2, 3), probe_assignments=2)

    @staticmethod
    def stratum(lhs, rhs) -> str | None:
        half = math.floor(2 * math.log(eval_cost(lhs) + eval_cost(rhs), 3))
        if half > 19:
            return None
        return "b<=5.5" if half <= 11 else f"b{half / 2:g}"

    def inputs(self, seed: int, seconds: float) -> list[Query]:
        n = max(len(self.shares), round(self.per_second * seconds))
        quota = apportion(n, self.shares)
        rng = random.Random(seed)
        out = []
        for _ in range(quota.pop("axioms")):
            cases = tuple(gen.axiom_case(rng) for _ in range(self.axiom_cases))
            out.append(Query("axioms", cases, "True",
                             key=tuple((gen.canon(x), gen.canon(x2), a)
                                       for x, x2, a in cases)))
        while any(quota.values()):
            gens = gen.seeded_alphabet(rng)
            rule, (lhs, rhs) = gen.schema_instance(rng, gens)
            stratum = self.stratum(lhs, rhs)
            if quota.get(stratum, 0) > 0:
                quota[stratum] -= 1
                out.append(Query(f"{rule}:{stratum}", (lhs, rhs), "equal",
                                 key=(rule, gen.canon(lhs), gen.canon(rhs))))
        rng.shuffle(out)
        return out

    def answer(self, q: Query):
        if q.kind == "axioms":
            return [endo.check_braiding(x, x2) and endo.check_branching(a, x)
                    for x, x2, a in q.args]
        lhs, rhs = q.args
        gens = search.word_generators(lhs, rhs)
        return [evaluate.eval_word(lhs, asg) == evaluate.eval_word(rhs, asg)
                for asg in search.probe_assignments(gens, self.budget)]

    def check(self, q: Query, result) -> Verdict:
        if len(result) < 10 and q.kind != "axioms":
            return Verdict(False, "few-probes", True,
                           note=f"only {len(result)} probe assignments")
        ok = all(result)
        return Verdict(ok, "sound" if ok else "UNSOUND", True,
                       note="" if ok else "sides evaluate differently")


# ---------------------------------------------------------------------------
# group_cli: fresh `opwords` processes over @group / @group-Z


# the lemmas the CLI can state: their presentations are built in
CLI_LEMMAS = {k: v for k, v in LEMMAS.items() if v.startswith("@")}


def _d(name: str) -> str:
    """A data file as the CLI is given it: relative to the checkout root,
    which is the working directory, so inputs do not depend on where the
    checkout lives."""
    return str((DATA / name).relative_to(BENCH_DIR.parent))


def _cli_catalogue():
    """(kind, argv, expected exit code) for every call the workload makes."""
    y = present.builtin_group().relations
    z = present.builtin_group_Z().relations
    calls = []
    for pres_name, rels in (("@group", y), ("@group-Z", z)):
        for lhs, rhs in rels:
            a, b = dsl.print_word(lhs), dsl.print_word(rhs)
            calls.append(("relation", ["equiv", "--pres", pres_name, a, b], 0))
            calls.append(("relation", ["equiv", "--pres", pres_name, b, a], 0))
    for name, pres_name in CLI_LEMMAS.items():
        text = (DATA / f"{name}.cert").read_text().splitlines()
        start = text[0].split(":", 1)[1].strip()
        end = text[1].split(":", 1)[1].strip()
        calls.append(("lemma", ["equiv", "--pres", pres_name, start, end], 0))
    for a, b in (("gen omega", "id(1)"),
                 ("gen mu", "braid(1,1) . gen mu"),
                 ("gen mu . gen omega", "gen mu"),
                 ("gen omega . gen omega . gen omega", "id(1)")):
        calls.append(("disproof", ["equiv", "--pres", "@group", a, b], 1))
    calls.append(("unknown", ["equiv", "--pres", "@group-Z", "--max-steps",
                              "400", "(id(1) * gen eta) . gen mu",
                              "(gen eta * id(1)) . gen mu"], 2))
    for name, pres_name in CLI_LEMMAS.items():
        calls.append(("verify-cert", ["verify-cert", "--pres", pres_name,
                                      _d(f"{name}.cert")], 0))
    calls.append(("verify-cert", ["verify-cert", "--pres", "@group",
                                  _d("omega-involution-tampered.cert")], 1))
    for name, code in (("z5.assign", 0), ("s3.assign", 0),
                       ("z5-wrong-inverse.assign", 1)):
        calls.append(("check-algebra", ["check-algebra", "--pres", "@group",
                                        "--assign", _d(name)], code))
    calls.append(("eval", ["eval", "--assign", _d("xor.assign"),
                           "(gen mu * id(1)) . gen mu . gen omega"], 0))
    calls.append(("eval", ["eval", "--assign", _d("z5.assign"),
                           "dup . (gen omega * id(1)) . gen mu"], 0))
    calls.append(("lemmas", ["lemmas"], 0))
    return calls


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    cpu_s: float                  # the process's CPU time, reference speed


class GroupCli:
    name = "group_cli"
    # Every call of the catalogue is equally likely. The draw is stratified,
    # in the catalogue's proportions, by what sets a call's cost (whether it
    # builds the lemma fixtures: 10 of 36 calls do) and by what sets
    # decided_frac (the one call that must exit 2, which a run of 9 calls
    # rounds to none).
    per_second = 0.36

    @staticmethod
    def stratum(kind: str) -> str:
        if kind == "unknown":
            return "undecided"
        if kind in ("lemma", "disproof", "lemmas"):
            return "fixtures"
        return "direct"

    def __init__(self):
        self.call_dir = None      # set by the worker: per-call result files
        self.traced = False
        self.call_traces = []     # one span snapshot per traced call
        self._calls = 0

    def inputs(self, seed: int, seconds: float) -> list[Query]:
        rng = random.Random(seed)
        strata = {}
        for call in _cli_catalogue():
            strata.setdefault(self.stratum(call[0]), []).append(call)
        n = max(2, round(self.per_second * seconds))
        quota = apportion(n, {k: len(v) for k, v in strata.items()})
        queries = []
        for name, calls in strata.items():
            drawn = []
            while len(drawn) < quota[name]:
                drawn.extend(rng.sample(calls, len(calls)))
            queries.extend(Query(kind, tuple(argv), str(code),
                                 key=(kind, argv, code),
                                 asks_verdict=argv[0] == "equiv")
                           for kind, argv, code in drawn[:quota[name]])
        rng.shuffle(queries)
        files = sorted(p.name for p in DATA.iterdir())
        self.data_key = [(f, gen.digest((DATA / f).read_bytes()))
                         for f in files]
        return queries

    def answer(self, q: Query) -> CliRun:
        self._calls += 1
        out = self.call_dir / f"call{self._calls}.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_launch.py"), str(out),
               str(int(self.traced)), *q.args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        latency = time.perf_counter() - t0
        doc = json.loads(out.read_text())
        out.unlink()
        if doc["trace"] is not None:
            self.call_traces.append(dict(doc["trace"], latency_s=latency))
        return CliRun(proc.returncode, proc.stdout, proc.stderr, doc["cpu_s"])

    def check(self, q: Query, run: CliRun) -> Verdict:
        want = int(q.expect)
        verdict = f"exit {run.code}"
        decided = q.asks_verdict and run.code in (0, 1)
        if run.code != want:
            return Verdict(False, verdict, decided,
                           note=f"expected exit {want}: "
                                f"{(run.stderr or run.stdout).strip()[-200:]}")
        argv = list(q.args)
        try:
            if argv[0] == "equiv" and run.code == 0:
                return self._check_proof(argv, run, verdict)
            if argv[0] == "equiv" and run.code == 1:
                return self._check_disproof(argv, run, verdict)
            if argv[0] == "eval":
                return self._check_eval(argv, run, verdict)
        except Exception as exc:  # a malformed answer is a wrong answer
            return Verdict(False, verdict, decided, note=f"check raised {exc!r}")
        return Verdict(True, verdict, decided)

    @staticmethod
    def _equiv_words(argv):
        pres = present.load_presentation(argv[2])
        exprs = [a for a in argv[3:] if not a.startswith("--")]
        exprs = exprs[-2:]
        return pres, [dsl.parse_word(e, pres.alphabet) for e in exprs]

    def _check_proof(self, argv, run, verdict) -> Verdict:
        pres, (lhs, rhs) = self._equiv_words(argv)
        cert = certificate.decode(run.stdout, pres.alphabet)
        bad = _check_certificate(cert, lhs, rhs, pres.context())
        return Verdict(not bad, verdict, True, steps=len(cert.steps), note=bad)

    _DISPROOF = re.compile(r"disproved: carrier size (\d+), input \(([^)]*)\):"
                           r" \(([^)]*)\) != \(([^)]*)\)")

    def _check_disproof(self, argv, run, verdict) -> Verdict:
        """Rebuild the witness from the probe battery and re-validate it."""
        pres, (lhs, rhs) = self._equiv_words(argv)
        m = self._DISPROOF.search(run.stdout)
        if m is None:
            return Verdict(False, verdict, True, note="no witness printed")

        def tup(text):
            return tuple(int(t) for t in text.replace(",", " ").split())

        size, xs = int(m.group(1)), tup(m.group(2))
        outputs = (tup(m.group(3)), tup(m.group(4)))
        for asg in present.satisfying_probes(pres, search.SearchBudget()):
            if asg.carrier.size != size:
                continue
            witness = search.Witness("evaluation", asg, xs, outputs)
            if (search.validate_witness(lhs, rhs, witness)
                    and present.check_algebra(asg, pres).passed):
                return Verdict(True, verdict, True)
        return Verdict(False, verdict, True,
                       note="printed witness does not re-validate")

    def _check_eval(self, argv, run, verdict) -> Verdict:
        assignment = cli.load_assignment(argv[2], None)
        alphabet = Alphabet(sorted(assignment.functions, key=lambda g: g.name))
        word = dsl.parse_word(argv[3], alphabet)
        want = evaluate.eval_word(word, assignment).dump()
        ok = run.stdout.strip() == want.strip()
        return Verdict(ok, verdict, True,
                       note="" if ok else "eval table differs from library")


WORKLOADS = {w.name: w for w in (Interchange, LemmaSearch, SoundnessEval,
                                 GroupCli)}
