"""Command-line front end.

Subcommands: eval, equiv, check-algebra, verify-cert, lemmas.
Exit codes: 0 proved/pass, 1 disproved/fail, 2 unknown, 3 usage or parse
errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .alphabet import Alphabet, Generator
from .certificate import decode, encode
from .dsl import check_generator_name, parse_word, read_int, read_lines
from .endo import Carrier, FinFunction, table_rows
from .errors import OpwordsError, ParseError, ReplayError
from .evaluate import GeneratorAssignment, eval_word
from .fixtures import LEMMAS, lemma_fixtures, load_lemma
from .present import (check_algebra, equivalent_mod, load_presentation,
                      read_text)
from .rules import RuleContext
from .search import Disproved, Proved, SearchBudget, equivalent

EXIT_OK, EXIT_FAIL, EXIT_UNKNOWN, EXIT_USAGE = 0, 1, 2, 3


def _inputs(lines: list[str]) -> int:
    return len(lines[0].partition("->")[0].split()) if lines else 0


def _parse_rows(lines, m, carrier_size):
    c = Carrier(carrier_size)
    table_rows(carrier_size, m)  # refuses an oversized table before reading it
    rows = {}
    for line in lines:
        left, _, right = line.partition("->")
        xs = tuple(read_int(t, line) for t in left.split())
        ys = tuple(read_int(t, line) for t in right.split())
        if len(xs) != m:
            raise OpwordsError(f"row has {len(xs)} inputs, expected {m}")
        if not all(0 <= x < carrier_size for x in xs):
            raise ParseError(
                f"input outside carrier {carrier_size}: {line!r}")
        if xs in rows:
            raise ParseError(f"repeated row for input {xs}: {line!r}")
        rows[xs] = ys
    table = []
    for xs in c.tuples(m):
        if xs not in rows:
            raise OpwordsError(f"assignment table missing row for {xs}")
        table.append(rows[xs])
    n = len(table[0]) if table else 0
    return FinFunction(c, m, n, tuple(table))


def load_assignment(path: str, carrier_size: int | None):
    """Assignment file: optional ``carrier N`` line, then gen blocks."""
    blocks: dict[str, list[str]] = {}
    rows = None
    for keyword, rest, line in read_lines(read_text(path), "assignment",
                                          ("carrier", "gen"),
                                          once=("carrier",), rows=True):
        if keyword == "carrier":
            declared = read_int(rest, line)
            if carrier_size is not None and carrier_size != declared:
                raise OpwordsError(
                    f"carrier {declared} in file, {carrier_size} on the command line")
            carrier_size = declared
        elif keyword == "gen":
            if len(rest.split()) != 1:
                raise ParseError(f"gen line needs one name: {line!r}")
            check_generator_name(rest, line)
            if rest in blocks:
                raise ParseError(f"second gen block for {rest!r}: {line!r}")
            rows = blocks[rest] = []
        else:
            if rows is None:
                raise OpwordsError(f"table row before any gen line: {line!r}")
            rows.append(line)
    if carrier_size is None:
        # the carrier is as large as a one-input table is long
        sizes = [len(b) for b in blocks.values() if _inputs(b) == 1]
        if not sizes:
            raise OpwordsError("carrier size not given and not inferable")
        carrier_size = sizes[0]
    functions = {}
    for name, lines in blocks.items():
        fn = _parse_rows(lines, _inputs(lines), carrier_size)
        functions[Generator(name, fn.src, fn.tgt)] = fn
    return GeneratorAssignment(Carrier(carrier_size), functions)


def _assignment_alphabet(assignment: GeneratorAssignment) -> Alphabet:
    return Alphabet(sorted(assignment.functions, key=lambda g: g.name))


def _budget(args) -> SearchBudget:
    kwargs = {"seed": args.seed}
    if getattr(args, "max_steps", None) is not None:
        if args.max_steps < 1:
            raise OpwordsError(
                f"--max-steps must be at least 1, found {args.max_steps}")
        kwargs["max_steps"] = args.max_steps
    return SearchBudget(**kwargs)


def cmd_eval(args) -> int:
    assignment = load_assignment(args.assign, args.carrier)
    alphabet = _assignment_alphabet(assignment)
    word = parse_word(args.expr, alphabet)
    rows = eval_word(word, assignment).rows()
    # written block by block as formatted, never as one string; the output
    # is print(dump()) byte for byte
    block = list(itertools.islice(rows, 4096))
    sys.stdout.write("\n".join(block) + "\n")
    while block := list(itertools.islice(rows, 4096)):
        sys.stdout.write("\n".join(block) + "\n")
    return EXIT_OK


def cmd_equiv(args) -> int:
    budget = _budget(args)
    if args.pres:
        pres = load_presentation(args.pres)
        alphabet = pres.alphabet
    else:
        pres = None
        alphabet = Alphabet(())
    w = parse_word(args.expr, alphabet)
    w2 = parse_word(args.expr2, alphabet)
    result = (equivalent_mod(w, w2, pres, budget) if pres is not None
              else equivalent(w, w2, budget))
    if isinstance(result, Proved):
        print(encode(result.certificate), end="")
        return EXIT_OK
    if isinstance(result, Disproved):
        wit = result.witness
        if wit.kind == "arity":
            print("disproved: source/target arities differ")
        else:
            print(f"disproved: carrier size {wit.assignment.carrier.size}, "
                  f"input {wit.input_tuple}: "
                  f"{wit.outputs[0]} != {wit.outputs[1]}")
        return EXIT_FAIL
    # no lane may have run at all, so this does not say the budget ran out
    print(f"unknown: no certificate found after visiting {result.visited} "
          "words")
    return EXIT_UNKNOWN


def cmd_check_algebra(args) -> int:
    pres = load_presentation(args.pres)
    assignment = load_assignment(args.assign, args.carrier)
    functions = dict(assignment.functions)
    by_name = {g.name: fn for g, fn in functions.items()}
    resolved = {}
    for g in pres.alphabet:
        if g.name not in by_name:
            print(f"fail: no table for generator {g.name}")
            return EXIT_FAIL
        resolved[g] = by_name[g.name]
    assignment = GeneratorAssignment(assignment.carrier, resolved)
    report = check_algebra(assignment, pres)
    for check in report.checks:
        if check.passed:
            print(f"relation {check.index}: pass")
        else:
            print(f"relation {check.index}: FAIL at input {check.input_tuple}: "
                  f"{check.lhs_out} != {check.rhs_out}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_verify_cert(args) -> int:
    if args.pres:
        pres = load_presentation(args.pres)
        alphabet, ctx = pres.alphabet, pres.context()
    else:
        alphabet, ctx = Alphabet(()), RuleContext()
    if args.alphabet:
        extra = load_presentation(args.alphabet)
        alphabet = Alphabet(tuple(alphabet) + tuple(
            g for g in extra.alphabet if g.name not in alphabet))
    cert = decode(read_text(args.file), alphabet)
    try:
        cert.replay(ctx)
    except ReplayError as exc:
        print(f"certificate invalid: {exc}")
        return EXIT_FAIL
    print(f"certificate valid: {len(cert.steps)} steps")
    return EXIT_OK


def cmd_lemmas(args) -> int:
    # lemma_fixtures() replays every certificate forward, once per process;
    # when one fails to load, the lemmas are loaded one by one instead, so
    # that each failure is named
    try:
        loaded = lemma_fixtures()
    except OpwordsError:
        loaded = None
    failures = 0
    for i, (name, source, statement) in enumerate(LEMMAS):
        try:
            fixture = (loaded[i] if loaded is not None
                       else load_lemma(name, source, statement))
            fixture.certificate.reversed().replay(fixture.context)
            print(f"{name}: ok ({len(fixture.certificate.steps)} steps)")
        except OpwordsError as exc:
            failures += 1
            print(f"{name}: FAIL ({exc})")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opwords",
        description="word calculus for finitely presented operads")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized search probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression on a carrier")
    p.add_argument("--carrier", type=int, default=None)
    p.add_argument("--assign", required=True)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("equiv", help="decide equivalence of two expressions")
    p.add_argument("--pres", default=None,
                   help="presentation file, @group, or @group-Z")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps",
                   help="visited-word budget for the search")
    p.add_argument("expr")
    p.add_argument("expr2")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("check-algebra", help="check an assignment against a presentation")
    p.add_argument("--pres", required=True)
    p.add_argument("--assign", required=True)
    p.add_argument("--carrier", type=int, default=None)
    p.set_defaults(fn=cmd_check_algebra)

    p = sub.add_parser("verify-cert", help="replay a certificate file")
    p.add_argument("--pres", default=None)
    p.add_argument("--alphabet", default=None,
                   help="presentation file supplying extra generators")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify_cert)

    p = sub.add_parser("lemmas", help="replay all built-in lemma certificates")
    p.set_defaults(fn=cmd_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except OpwordsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
