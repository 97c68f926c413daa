"""Finitely presented operads: relation sets over an alphabet, equivalence
modulo relations, algebra checking, and the built-in group presentation."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .alphabet import Alphabet, Generator
from .certificate import Certificate
from .dsl import check_generator_name, read_int, read_lines, read_word
from .endo import Carrier, tabulate
from .errors import ArityError, AssignmentError, OpwordsError, ParseError
from .evaluate import GeneratorAssignment
from .finmap import f0, f2, identity
from .record import Record
from .rules import RewriteStep, RuleContext
from .search import (Disproved, Proved, SearchBudget, equivalent,
                     find_refutation, probe_assignments, probe_fields,
                     word_generators)
from .words import (Word, compose_many, gen_word, identity_word, op_word,
                    tensor_words)


class Presentation(Record):
    alphabet: Alphabet
    relations: tuple[tuple[Word, Word], ...]

    def __init__(self, alphabet: Alphabet,
                 relations: tuple[tuple[Word, Word], ...]):
        for i, (lhs, rhs) in enumerate(relations):
            if lhs.src != rhs.src or lhs.tgt != rhs.tgt:
                raise ArityError(
                    f"relation {i}: ({lhs.src},{lhs.tgt}) vs ({rhs.src},{rhs.tgt})")
        super().__init__(alphabet, relations)

    def context(self) -> RuleContext:
        return RuleContext(self.relations)

    def used_generators(self, *words: Word) -> tuple[Generator, ...]:
        """The generators of the relations and of words, in alphabet order."""
        used = set(word_generators(
            *words, *(w for pair in self.relations for w in pair)))
        return tuple(g for g in self.alphabet if g in used)


# ---------------------------------------------------------------------------
# The group presentation

MU = Generator("mu", 2, 1)
ETA = Generator("eta", 0, 1)
OMEGA = Generator("omega", 1, 1)
GROUP_ALPHABET = Alphabet((MU, ETA, OMEGA))


def group_relations() -> tuple[tuple[Word, Word], ...]:
    mu, eta, omega = gen_word(MU), gen_word(ETA), gen_word(OMEGA)
    id1 = identity_word(1)
    dup, drop = op_word(f2()), op_word(f0())
    return (
        (compose_many(tensor_words(mu, id1), mu),
         compose_many(tensor_words(id1, mu), mu)),
        (compose_many(tensor_words(eta, id1), mu), id1),
        (compose_many(tensor_words(id1, eta), mu), id1),
        (compose_many(dup, tensor_words(omega, id1), mu),
         compose_many(drop, eta)),
        (compose_many(dup, tensor_words(id1, omega), mu),
         compose_many(drop, eta)),
    )


def builtin_group() -> Presentation:
    return Presentation(GROUP_ALPHABET, group_relations())


def builtin_group_Z() -> Presentation:
    """The three left-axiom relations: associativity, left unit, left inverse."""
    rels = group_relations()
    return Presentation(GROUP_ALPHABET, (rels[0], rels[1], rels[3]))


# ---------------------------------------------------------------------------
# Algebra checking


class RelationCheck(Record):
    index: int
    passed: bool
    input_tuple: tuple[int, ...] | None = None
    lhs_out: tuple[int, ...] | None = None
    rhs_out: tuple[int, ...] | None = None


class AlgebraReport(Record):
    checks: tuple[RelationCheck, ...]
    # generators with strands but no table, on the empty carrier
    untabled: tuple[Generator, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.untabled and all(c.passed for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]


def check_algebra(assignment: GeneratorAssignment,
                  pres: Presentation) -> AlgebraReport:
    if not assignment.covers(pres.used_generators()):
        raise AssignmentError(
            "assignment does not cover the relations' generators")
    # A generator without a table is one the relations do not use, and some
    # table models it, except on the empty carrier; there, as in
    # probe_assignments, any strand rules the carrier out.
    untabled = () if assignment.carrier.size else tuple(
        g for g in pres.alphabet
        if (g.src or g.tgt) and g not in assignment.functions)
    checks = []
    for i, (lhs, rhs) in enumerate(pres.relations):
        witness = find_refutation(lhs, rhs, [assignment])
        checks.append(RelationCheck(i, True) if witness is None else
                      RelationCheck(i, False, witness.input_tuple,
                                    *witness.outputs))
    return AlgebraReport(tuple(checks), untabled)


# ---------------------------------------------------------------------------
# Groups as tables


class GroupTables(Record):
    size: int
    mult: tuple[tuple[int, ...], ...]
    unit: int
    inverse: tuple[int, ...]


def verify_group(tables: GroupTables) -> None:
    n, mult, e, inv = tables.size, tables.mult, tables.unit, tables.inverse
    for a, b, c in itertools.product(range(n), repeat=3):
        if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
            raise OpwordsError(f"multiplication not associative at {(a, b, c)}")
    for a in range(n):
        if mult[e][a] != a or mult[a][e] != a:
            raise OpwordsError(f"{e} is not neutral at {a}")
        if mult[inv[a]][a] != e or mult[a][inv[a]] != e:
            raise OpwordsError(f"{inv[a]} does not invert {a}")


def cyclic_group(n: int) -> GroupTables:
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return GroupTables(n, mult, 0, tuple((-a) % n for a in range(n)))


def symmetric_group_3() -> GroupTables:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(
        tuple(index[tuple(q[p[k]] for k in range(3))] for q in perms)
        for p in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda k, p=p: p[k]))]
                for p in perms)
    return GroupTables(6, mult, index[(0, 1, 2)], inv)


def algebra_from_group(tables: GroupTables,
                       roles=(MU, ETA, OMEGA)) -> GeneratorAssignment:
    """The group as an assignment to the (mult, unit, inverse) generators."""
    mu_g, eta_g, omega_g = roles
    c = Carrier(tables.size)
    functions = {
        mu_g: tabulate(c, 2, 1, lambda xs: (tables.mult[xs[0]][xs[1]],)),
        eta_g: tabulate(c, 0, 1, lambda xs: (tables.unit,)),
        omega_g: tabulate(c, 1, 1, lambda xs: (tables.inverse[xs[0]],)),
    }
    return GeneratorAssignment(c, functions)


def group_from_algebra(assignment: GeneratorAssignment) -> GroupTables:
    report = check_algebra(assignment, builtin_group())
    if not report.passed:
        first = report.failures()[0]
        raise OpwordsError(
            f"not an algebra: relation {first.index} fails at "
            f"{first.input_tuple}: {first.lhs_out} != {first.rhs_out}")
    n = assignment.carrier.size
    mu, eta, omega = (assignment.functions[g] for g in (MU, ETA, OMEGA))
    tables = GroupTables(
        n,
        tuple(tuple(mu((a, b))[0] for b in range(n)) for a in range(n)),
        eta(())[0],
        tuple(omega((a,))[0] for a in range(n)))
    verify_group(tables)
    return tables


# ---------------------------------------------------------------------------
# Equivalence modulo a presentation


def _group_shaped(alphabet: Alphabet):
    """Map generators onto (mult, unit, inverse) roles by arity, if possible."""
    by_arity = {(2, 1): [], (0, 1): [], (1, 1): []}
    for g in alphabet:
        if (g.src, g.tgt) not in by_arity:
            return None
        by_arity[(g.src, g.tgt)].append(g)
    if any(len(v) != 1 for v in by_arity.values()):
        return None
    return by_arity[(2, 1)][0], by_arity[(0, 1)][0], by_arity[(1, 1)][0]


def satisfying_probes(pres: Presentation, budget: SearchBudget,
                      words: tuple[Word, ...] = ()
                      ) -> list[GeneratorAssignment]:
    """Probe assignments that pass check_algebra, so refutation is sound.

    Only the generators of words and of the relations get tables: a
    generator used by neither cannot change a verdict, and a wide one would
    empty the battery. The battery depends on nothing else of the query,
    nor on the budget's step and length bounds, so it is built once per
    presentation, generators and probe fields; each call gets its own list
    of the shared, read-only assignments.
    """
    return list(_battery(pres, pres.used_generators(*words),
                         probe_fields(budget)))


# What is cached here is the check_algebra filter over probe_assignments'
# shared candidates (plus the group-shaped algebras), per presentation. A
# kept battery holds the tables that pass alive, even those too wide for
# probe_assignments' own cache, so few are kept.
@lru_cache(maxsize=16)
def _battery(pres: Presentation, gens: tuple[Generator, ...],
             budget: SearchBudget) -> tuple[GeneratorAssignment, ...]:
    candidates = probe_assignments(gens, budget)
    roles = _group_shaped(pres.alphabet)
    if roles is not None:
        for size in sorted(set(budget.probe_carriers) | {1}):
            if size >= 1:
                candidates.append(
                    algebra_from_group(cyclic_group(size), roles))
        candidates.append(algebra_from_group(symmetric_group_3(), roles))
    return tuple(a for a in candidates if check_algebra(a, pres).passed)


def _relation_instance(w: Word, w2: Word, pres: Presentation):
    """A one-step certificate when (w, w2) is literally a relation pair."""
    for i, (lhs, rhs) in enumerate(pres.relations):
        if (w, w2) == (lhs, rhs):
            direction = "fwd"
        elif (w, w2) == (rhs, lhs):
            direction = "bwd"
        else:
            continue
        step = RewriteStep(f"REL:{i}", direction, 0,
                           seam_left=identity(w.src),
                           seam_right=identity(w.tgt))
        cert = Certificate(w, (step,), w2)
        cert.replay(pres.context())
        return cert
    return None


def reindex_relations(cert, index_map: dict[int, int]):
    """Renumber REL steps, e.g. to lift a certificate into a superset
    presentation whose relation list orders the shared relations differently."""
    steps = []
    for step in cert.steps:
        if step.rule.startswith("REL:"):
            steps.append(step.replace(
                rule=f"REL:{index_map[int(step.rule[4:])]}"))
        else:
            steps.append(step)
    return Certificate(cert.start, tuple(steps), cert.end)


def known_certificates(pres: Presentation):
    """Built-in certificates that replay under this presentation: those of
    every lemma whose relations all appear among the presentation's, each
    REL step renumbered to its relation's place there."""
    from .fixtures import lemma_fixtures  # fixtures imports this module

    table = {}
    for fixture in lemma_fixtures():
        rels = fixture.context.relations
        if not all(rel in pres.relations for rel in rels):
            continue
        cert = reindex_relations(fixture.certificate, {
            i: pres.relations.index(rel) for i, rel in enumerate(rels)})
        table.setdefault((cert.start, cert.end), cert)
        table.setdefault((cert.end, cert.start), cert.reversed())
    return table


def equivalent_mod(w: Word, w2: Word, pres: Presentation,
                   budget: SearchBudget | None = None, *,
                   consult_builtin: bool = True):
    """Like equivalent, with the presentation's relations as extra moves.

    Pass consult_builtin=False to force an autonomous search instead of
    answering from the built-in lemma certificates.
    """
    budget = budget or SearchBudget()
    direct = _relation_instance(w, w2, pres)
    if direct is not None:
        return Proved(direct)
    if (consult_builtin and (w.src, w.tgt) == (w2.src, w2.tgt) and w != w2):
        known = known_certificates(pres).get((w, w2))
        if known is not None:
            known.replay(pres.context())
            return Proved(known)
    probes = satisfying_probes(pres, budget, (w, w2))
    result = equivalent(w, w2, budget, ctx=pres.context(), probes=probes)
    if isinstance(result, Disproved) and result.witness.kind == "evaluation":
        if not check_algebra(result.witness.assignment, pres).passed:
            raise OpwordsError("refutation witness violates the presentation")
    return result


# ---------------------------------------------------------------------------
# Presentation files


def parse_presentation(text: str) -> Presentation:
    gens: list[Generator] = []
    relation_lines: list[tuple[str, str, str]] = []
    for keyword, rest, line in read_lines(text, "presentation",
                                          ("generator", "relation")):
        if keyword == "generator":
            parts = rest.split()
            if len(parts) != 3:
                raise ArityError(f"bad generator line: {line!r}")
            check_generator_name(parts[0], line)
            gens.append(Generator(parts[0], read_int(parts[1], line),
                                  read_int(parts[2], line)))
        else:
            if "==" not in rest:
                raise ArityError(f"relation line needs '==': {line!r}")
            lhs, rhs = rest.split("==", 1)
            relation_lines.append((lhs.strip(), rhs.strip(), line))
    alphabet = Alphabet(gens)
    relations = tuple(
        (read_word(l, alphabet, line), read_word(r, alphabet, line))
        for l, r, line in relation_lines)
    return Presentation(alphabet, relations)


def read_text(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def load_presentation(source: str) -> Presentation:
    """Resolve @group / @group-Z or read a presentation file."""
    if source == "@group":
        return builtin_group()
    if source == "@group-Z":
        return builtin_group_Z()
    return parse_presentation(read_text(source))
