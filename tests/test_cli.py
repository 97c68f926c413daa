import io
import os
import re
import resource
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import opwords
from opwords.alphabet import Alphabet
from opwords.cli import load_assignment, main
from opwords.dsl import MAX_NESTING, MAX_STRANDS, parse_word
from opwords.evaluate import eval_word

XOR_ASSIGN = textwrap.dedent("""
    carrier 2
    gen mu
    0 0 -> 0
    0 1 -> 1
    1 0 -> 1
    1 1 -> 0
    gen eta
    -> 0
    gen omega
    0 -> 0
    1 -> 1
""")


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.assign"
    path.write_text(XOR_ASSIGN)
    return str(path)


class TestEval:
    def test_xor_table(self, xor_file):
        code, out = run(["eval", "--carrier", "2", "--assign", xor_file,
                         "gen mu"])
        assert code == 0
        assert out.splitlines() == ["0 0 -> 0", "0 1 -> 1",
                                    "1 0 -> 1", "1 1 -> 0"]

    def test_carrier_from_file(self, xor_file):
        code, out = run(["eval", "--assign", xor_file,
                         "(gen mu * id(1)) . gen mu"])
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_parse_error_exit_3(self, xor_file):
        code, _ = run(["eval", "--assign", xor_file, "gen mu . . id(1)"])
        assert code == 3

    def test_output_streams_the_dump(self, xor_file):
        # 2^13 rows span several written blocks
        code, out = run(["eval", "--assign", xor_file, "id(13)"])
        assert code == 0
        assign = load_assignment(xor_file, None)
        word = parse_word("id(13)", Alphabet(sorted(assign.functions,
                                                    key=lambda g: g.name)))
        assert out == eval_word(word, assign).dump() + "\n"

    def test_empty_table_prints_one_newline(self, tmp_path):
        path = tmp_path / "empty.assign"
        path.write_text("carrier 0\n")
        code, out = run(["eval", "--assign", str(path), "id(1)"])
        assert (code, out) == (0, "\n")


class TestEquiv:
    def test_group_omega_involution(self):
        code, out = run(["equiv", "--pres", "@group",
                         "gen omega . gen omega", "id(1)"])
        assert code == 0
        assert out.startswith("start:")

    def test_disproved(self):
        code, out = run(["equiv", "--pres", "@group", "gen omega", "id(1)"])
        assert code == 1
        assert out.startswith("disproved")

    def test_relation_proved_from_z(self):
        code, _ = run(["equiv", "--pres", "@group-Z",
                       "(gen eta * id(1)) . gen mu", "id(1)"])
        assert code == 0

    def test_map_only_equivalence_without_pres(self):
        code, _ = run(["equiv", "braid(1,1) . braid(1,1)", "id(2)"])
        assert code == 0

    def test_unknown_exit_2(self):
        code, out = run(["--seed", "0", "equiv", "--pres", "@group-Z",
                         "--max-steps", "60",
                         "(id(1) * gen eta) . gen mu", "id(1)"])
        assert code in (0, 2)
        if code == 2:
            assert out.startswith("unknown")

    def test_unknown_without_a_lane(self, tmp_path):
        # no relations and different terms: no lane can connect the words,
        # and no carrier fits a probe table for g
        path = tmp_path / "wide.pres"
        path.write_text("generator g 24 1\n")
        code, out = run(["equiv", "--pres", str(path), "gen g",
                         "(braid(1,1) * id(22)) . gen g"])
        assert (code, out) == (
            2, "unknown: no certificate found after visiting 0 words\n")


class TestCheckAlgebra:
    def test_xor_passes(self, xor_file):
        code, out = run(["check-algebra", "--pres", "@group",
                         "--assign", xor_file])
        assert code == 0
        assert out.count("pass") == 5

    def test_broken_fails_with_location(self, tmp_path):
        broken = XOR_ASSIGN.replace("gen eta\n-> 0", "gen eta\n-> 1")
        assert broken != XOR_ASSIGN
        path = tmp_path / "bad.assign"
        path.write_text(broken)
        code, out = run(["check-algebra", "--pres", "@group",
                         "--assign", str(path)])
        assert code == 1
        assert "FAIL at input" in out

    def test_every_generator_needs_a_table(self, tmp_path, xor_file):
        # the library checks the relations' generators; the command wants
        # a table for the whole alphabet
        pres = tmp_path / "extra.pres"
        pres.write_text("generator mu 2 1\ngenerator u 1 1\n"
                        "relation gen mu == gen mu\n")
        code, out = run(["check-algebra", "--pres", str(pres),
                         "--assign", xor_file])
        assert (code, out) == (1, "fail: no table for generator u\n")


class TestVerifyCert:
    def test_round_trip_and_corruption(self, tmp_path):
        code, out = run(["equiv", "--pres", "@group",
                         "gen omega . gen omega", "id(1)"])
        assert code == 0
        path = tmp_path / "omega.cert"
        path.write_text(out)
        code, out2 = run(["verify-cert", "--pres", "@group", str(path)])
        assert code == 0 and "valid" in out2

        lines = out.splitlines()
        for i, line in enumerate(lines):
            if "seamL=" in line and "fm[" in line.split("seamL=")[1]:
                corrupted = line.replace("seamL=\"fm[", "seamL=\"fm[", 1)
            if line.startswith("step"):
                lines[i] = line.replace("split=0", "split=9", 1) \
                    if "split=0" in line else line.replace("dir=fwd", "dir=bwd") \
                    if "dir=fwd" in line else line.replace("dir=bwd", "dir=fwd")
                break
        path.write_text("\n".join(lines) + "\n")
        code, out3 = run(["verify-cert", "--pres", "@group", str(path)])
        assert code == 1
        assert "step" in out3

    @pytest.mark.parametrize("step", [
        'rule=M1 dir=fwd split=0 a=0 q=0 p=0 seamL="id(1)" seamR="id(1)"',
        'rule=REL:x dir=fwd split=0 a=0 q=0 p=0 seamL="id(1)" seamR="id(1)"',
        'rule=M2 dir=sideways split=0 a=0 q=0 p=0 v="gen omega" '
        'seamL="id(1)" seamR="id(1)"',
    ], ids=["M1-without-v", "REL-index-not-integer", "dir-not-fwd-or-bwd"])
    def test_malformed_step_is_invalid(self, tmp_path, step):
        path = tmp_path / "bad.cert"
        path.write_text(f"start: gen omega\nend: gen omega\nstep 1: {step}\n")
        code, out = run(["verify-cert", "--pres", "@group", str(path)])
        assert code == 1
        assert out.startswith("certificate invalid: step 1: ")

    @pytest.mark.parametrize("context", [["--alphabet", "@group"],
                                         ["--pres", "@group"]],
                             ids=["free", "group"])
    def test_card_step_is_refused(self, tmp_path, context):
        # a collapse is an M4 deletion (a = 0); CARD is no rule
        path = tmp_path / "card.cert"
        path.write_text(
            "start: gen eta . del\nend: id(0)\n"
            'step 1: rule=CARD dir=fwd split=0 a=0 q=0 p=0 '
            'v="gen eta . del" seamL="id(0)" seamR="id(0)"\n')
        code, out = run(["verify-cert", *context, str(path)])
        assert (code, out) == (
            1, "certificate invalid: step 1: unknown rule 'CARD'\n")


NON_INTEGER_FIELDS = [
    ("pres", "generator mu two 1\n",
     ["equiv", "--pres", "{path}", "id(1)", "id(1)"]),
    ("assign", "carrier 2\ngen mu\n0 0 -> x\n",
     ["eval", "--assign", "{path}", "gen mu"]),
    ("cert", "start: gen omega\nend: gen omega\n"
             'step 1: rule=M2 dir=fwd split=x a=0 q=0 p=0 v="gen omega" '
             'seamL="id(1)" seamR="id(1)"\n',
     ["verify-cert", "--pres", "@group", "{path}"]),
    ("gen", "carrier 2\ngen\n0 -> 1\n",
     ["eval", "--assign", "{path}", "gen mu"]),
    ("step", "start: gen omega\nend: gen omega\n"
             "step rule=M2 dir=fwd split=0 a=0 q=0 p=0\n",
     ["verify-cert", "--pres", "@group", "{path}"]),
]


@pytest.mark.parametrize("suffix,text,argv", NON_INTEGER_FIELDS,
                         ids=[case[0] for case in NON_INTEGER_FIELDS])
def test_non_integer_field_is_a_parse_error(tmp_path, capsys, suffix, text,
                                            argv):
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text)
    code, _ = run([a.format(path=path) for a in argv])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


# more digits than int() reads by default (4,300)
LONG = "9" * 5000
LONG_INTEGERS = [
    ("expression", "", ["equiv", f"id({LONG})", "id(1)"]),
    ("pres", f"generator f {LONG} 1\n",
     ["equiv", "--pres", "{path}", "id(1)", "id(1)"]),
    ("cert", "start: gen omega\nend: gen omega\n"
             f'step 1: rule=M2 dir=fwd split={LONG} a=0 q=0 p=0 '
             'v="gen omega" seamL="id(1)" seamR="id(1)"\n',
     ["verify-cert", "--pres", "@group", "{path}"]),
    ("assign", f"carrier {LONG}\n", ["eval", "--assign", "{path}", "id(1)"]),
]


@pytest.mark.parametrize("suffix,text,argv", LONG_INTEGERS,
                         ids=[case[0] for case in LONG_INTEGERS])
def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys,
                                                       suffix, text, argv):
    path = tmp_path / f"long.{suffix}"
    path.write_text(text)
    code, out = run([a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: integer of 5000 digits is too long")
    assert err.count("\n") == 1


NOT_UTF8 = [
    ("assign", b"carrier 2\ngen f\n\xff\n",
     ["eval", "--assign", "{path}", "gen f"]),
    ("pres", b"generator mu 2 1\n\xff\n",
     ["equiv", "--pres", "{path}", "gen mu", "gen mu"]),
    ("cert", b"start: gen omega\nend: gen omega\nstep 1: \xff\n",
     ["verify-cert", "--pres", "@group", "{path}"]),
]


@pytest.mark.parametrize("suffix,data,argv", NOT_UTF8,
                         ids=[case[0] for case in NOT_UTF8])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, suffix, data, argv):
    path = tmp_path / f"bad.{suffix}"
    path.write_bytes(data)
    code, _ = run([a.format(path=path) for a in argv])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_max_steps_below_one_is_a_usage_error(capsys, steps):
    code, out = run(["equiv", "--pres", "@group", "--max-steps", steps,
                     "gen omega . gen omega", "id(1)"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == f"error: --max-steps must be at least 1, found {steps}\n"


def test_repeated_assignment_row_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.assign"
    path.write_text("carrier 2\ngen f\n0 -> 0\n1 -> 0\n0 -> 1\n")
    code, out = run(["eval", "--assign", str(path), "gen f"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == "error: repeated row for input (0,): '0 -> 1'\n"


def test_repeated_gen_block_is_a_parse_error(tmp_path, capsys):
    # a Z2 group, then a second omega table that would silently replace the
    # first and make check-algebra report a failure of a valid algebra
    path = tmp_path / "twice.assign"
    path.write_text(XOR_ASSIGN + "gen omega\n0 -> 1\n1 -> 0\n")
    code, out = run(["check-algebra", "--pres", "@group",
                     "--assign", str(path)])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == "error: second gen block for 'omega': 'gen omega'\n"


UNWRITABLE_FILES = {
    "pres": ("generator mu 2 1\ngenerator {name} 1 1\n",
             "generator {name} 1 1",
             ["equiv", "--pres", "{path}", "gen mu", "gen mu"]),
    "assign": ("carrier 2\ngen {name}\n0 -> 0\n1 -> 1\n", "gen {name}",
               ["eval", "--assign", "{path}", "id(1)"]),
}


@pytest.mark.parametrize("name", ["id", "gen", "a-b", "1x"])
@pytest.mark.parametrize("suffix", sorted(UNWRITABLE_FILES))
def test_unwritable_generator_name_is_a_parse_error(tmp_path, capsys, suffix,
                                                   name):
    text, line, argv = UNWRITABLE_FILES[suffix]
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text.format(name=name))
    code, out = run([a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == (f"error: {name!r} cannot be written after 'gen': "
                   f"{line.format(name=name)!r}\n")


@pytest.mark.parametrize("row", ["5 7 -> 1", "-1 0 -> 1"])
def test_assignment_row_outside_the_carrier_is_a_parse_error(tmp_path, capsys,
                                                             row):
    path = tmp_path / "outside.assign"
    path.write_text(XOR_ASSIGN.split("gen eta")[0] + row + "\n")
    code, out = run(["eval", "--assign", str(path), "gen mu"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == f"error: input outside carrier 2: {row!r}\n"


XOR_ROWS = "0 0 -> 0\n0 1 -> 1\n1 0 -> 1\n1 1 -> 0\n"


@pytest.mark.parametrize("text,line", [
    ("carrier 2\ngenerous mu\n" + XOR_ROWS, "generous mu"),
    ("carrier2\ngen mu\n" + XOR_ROWS, "carrier2"),
], ids=["generous", "carrier2"])
def test_keyword_prefix_is_not_a_keyword(tmp_path, capsys, text, line):
    """A keyword is a whole first field: a line that only starts with one
    is a table row, and here one before any gen line."""
    path = tmp_path / "prefix.assign"
    path.write_text(text)
    code, out = run(["eval", "--assign", str(path), "gen mu"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == f"error: table row before any gen line: {line!r}\n"


class TestLemmas:
    def test_all_replay(self):
        code, out = run(["lemmas"])
        assert code == 0
        assert out.count(": ok") == 11


@pytest.mark.parametrize("expr", ["id(1)^999999999", "id(999999999)"])
def test_oversized_expression_is_a_parse_error(capsys, expr):
    t0 = time.monotonic()
    code, _ = run(["equiv", expr, "id(1)"])
    assert code == 3
    assert time.monotonic() - t0 < 5
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["eval", "--assign", "{path}", "id(30)"],
    ["equiv", "id(30)", "braid(15,15)"],
], ids=["eval-carrier-5", "equiv-probes"])
def test_oversized_evaluation_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "z5.assign"
    path.write_text("carrier 5\n")
    t0 = time.monotonic()
    code, _ = run([a.format(path=path) for a in argv])
    assert code == 3
    assert time.monotonic() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _limit_address_space():
    # a loader that allocates the table fails fast instead of exhausting
    # the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))


@pytest.mark.parametrize("text,flags", [
    ("carrier 1000000000\ngen mu\n0 0 -> 0\n", []),
    ("gen mu\n0 0 -> 0\n", ["--carrier", "1000000000"]),
], ids=["carrier-line", "carrier-flag"])
def test_oversized_assignment_table_is_refused(tmp_path, text, flags):
    path = tmp_path / "huge.assign"
    path.write_text(text)
    t0 = time.monotonic()
    proc = run_process(["eval", *flags, "--assign", str(path), "gen mu"])
    assert proc.returncode == 3
    assert time.monotonic() - t0 < 10


def run_process(argv):
    """`python -m opwords argv` in a fresh process with a bounded address
    space, so that a table too large to allocate fails fast."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(opwords.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "opwords", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)


def _wide_presentation(tmp_path, m, used=True):
    """h 1 -> 1 and a wide generator g, which a relation uses if `used`."""
    path = tmp_path / "wide.pres"
    relation = "relation gen g == gen g\n" if used else ""
    path.write_text(f"generator h 1 1\ngenerator g {m} 1\n{relation}")
    return str(path)


@pytest.mark.parametrize("m", [24])
def test_probe_carriers_past_the_row_limit_are_skipped(tmp_path, m):
    # no carrier fits g's table, so there are no probes and the search
    # gives up
    proc = run_process(["equiv", "--pres", _wide_presentation(tmp_path, m),
                        "--max-steps", "2000", "gen h", "gen h . gen h"])
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.startswith("unknown: ")


def test_probes_keep_the_carriers_within_the_row_limit(tmp_path):
    # 2^13 rows fit and 3^13 do not: carrier 2 alone still refutes
    t0 = time.monotonic()
    code, out = run(["equiv", "--pres", _wide_presentation(tmp_path, 13),
                     "--max-steps", "2000", "gen h", "gen h . gen h"])
    assert (code, out) == (
        1, "disproved: carrier size 2, input (0,): (1,) != (0,)\n")
    assert time.monotonic() - t0 < 5


@pytest.mark.parametrize("m", [24, 100_000_000])
def test_unused_wide_generator_gets_no_probe_table(tmp_path, m):
    # neither the query nor a relation uses g, so the probes leave it out
    # and refute as they do without it
    t0 = time.monotonic()
    proc = run_process(["equiv", "--pres",
                        _wide_presentation(tmp_path, m, used=False),
                        "--max-steps", "2000", "gen h", "gen h . gen h"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "disproved: carrier size 2, input (0,): (1,) != (0,)\n", "")
    assert time.monotonic() - t0 < 5


def test_generator_wider_than_max_strands_is_a_parse_error(tmp_path, capsys):
    code, _ = run(["equiv", "--pres",
                   _wide_presentation(tmp_path, 300, used=False),
                   "gen g", "gen g"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


DEEP = "(" * 200 + "id(1)" + ")" * 200


@pytest.mark.parametrize("expr", [
    DEEP, "pad(0," * 200 + "id(1)" + ",0)" * 200, "id(1)" + "^1" * 2000,
], ids=["parentheses", "pad", "power-chain"])
def test_deep_nesting_is_a_parse_error(capsys, expr):
    code, _ = run(["equiv", expr, "id(1)"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"nested more than {MAX_NESTING} levels" in err


def test_nesting_at_the_limit_parses():
    expr = "(" * MAX_NESTING + "id(1)" + ")" * MAX_NESTING
    assert run(["equiv", expr, "id(1)"])[0] == 0


def test_deep_certificate_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.cert"
    path.write_text("start: gen omega\nend: gen omega\n"
                    f'step 1: rule=M2 dir=fwd split=0 a=1 q=0 p=0 v="{DEEP}" '
                    'seamL="id(1)" seamR="id(1)"\n')
    code, _ = run(["verify-cert", "--pres", "@group", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


OMEGA_CERT = (Path(opwords.__file__).parent / "lemmas"
              / "omega-involution.cert").read_text()
STEP_1 = OMEGA_CERT.splitlines()[2]
CERT_ARGV = ["verify-cert", "--pres", "@group", "{path}"]
ASSIGN_ARGV = ["eval", "--assign", "{path}", "gen f"]


def _first_step(old, new):
    """The shipped certificate with old replaced by new in step 1."""
    line = STEP_1.replace(old, new, 1)
    return OMEGA_CERT.replace(STEP_1, line, 1), line


def _malformed():
    """(id, suffix, text, argv, error message) per malformed file."""
    cases = []
    text = OMEGA_CERT.replace("\nstep ", "\nstepping ")
    cases.append(("keyword-prefix", "cert", text, CERT_ARGV,
                  "unrecognized certificate line: "
                  f"{STEP_1.replace('step', 'stepping', 1)!r}"))
    text = re.sub(r"^step \d+:", "step 99:", OMEGA_CERT, flags=re.M)
    line = STEP_1.replace("step 1:", "step 99:")
    cases.append(("steps-renumbered", "cert", text, CERT_ARGV,
                  f"expected step 1: {line!r}"))
    cases.append(("two-starts", "cert",
                  "start: gen omega\nstart: gen omega . gen omega\n"
                  "end: id(1)\n", CERT_ARGV,
                  "repeated certificate header 'start:': "
                  "'start: gen omega . gen omega'"))
    text, line = _first_step("step 1: ", "step 1: junk foo=bar ")
    cases.append(("stray-text", "cert", text, CERT_ARGV,
                  f"stray text in step line: {line!r}"))
    text, line = _first_step("rule=REL:2", "rule=REL:0 rule=REL:2")
    cases.append(("repeated-field", "cert", text, CERT_ARGV,
                  f"repeated step field 'rule': {line!r}"))
    text, line = _first_step('seamR="id(1)"', 'seamR="id(1)" tag=x')
    cases.append(("unknown-field", "cert", text, CERT_ARGV,
                  f"unknown step field 'tag': {line!r}"))
    text, line = _first_step("split=2", "split=+2")
    cases.append(("plus-field", "cert", text, CERT_ARGV,
                  f"expected an integer, found '+2' in {line!r}"))
    rows = "".join(f"{x} -> {x}\n" for x in range(10))
    cases.append(("underscore-carrier", "assign",
                  f"carrier 1_0\ngen f\n{rows}", ASSIGN_ARGV,
                  "expected an integer, found '1_0' in 'carrier 1_0'"))
    cases.append(("arabic-digit-row", "assign",
                  "carrier 2\ngen f\n0 -> ٠\n1 -> 1\n", ASSIGN_ARGV,
                  "expected an integer, found '٠' in '0 -> ٠'"))
    cases.append(("plus-row", "assign", "carrier 2\ngen f\n0 -> 0\n1 -> +1\n",
                  ASSIGN_ARGV, "expected an integer, found '+1' in '1 -> +1'"))
    cases.append(("full-width-arity", "pres", "generator mu ２ 1\n",
                  ["equiv", "--pres", "{path}", "gen mu", "gen mu"],
                  "expected an integer, found '２' in "
                  "'generator mu ２ 1'"))
    cases.append(("gen-trailing-text", "assign",
                  "carrier 2\ngen f junk words\n0 -> 0\n1 -> 1\n",
                  ASSIGN_ARGV, "gen line needs one name: 'gen f junk words'"))
    for n in (2, 3):
        cases.append((f"second-carrier-{n}", "assign",
                      f"carrier 2\ncarrier {n}\ngen f\n0 -> 0\n1 -> 1\n",
                      ASSIGN_ARGV, "repeated assignment header 'carrier': "
                                   f"'carrier {n}'"))
    return cases


MALFORMED = _malformed()


@pytest.mark.parametrize("suffix,text,argv,message",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_file_is_a_parse_error(tmp_path, capsys, suffix, text, argv,
                                         message):
    """Each file reads as valid, or as an invalid certificate, to a reader
    that matches keywords by prefix, lets int() read its integers or lets
    a step line hold other text; it is malformed, so it exits 3."""
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text, encoding="utf-8")
    code, out = run([a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def _step_edit(n, old, new):
    """The shipped certificate with old replaced by new in step n."""
    line = OMEGA_CERT.splitlines()[n + 1]
    return OMEGA_CERT.replace(line, line.replace(old, new, 1), 1)


def _one_step(fields):
    return ("start: gen omega\nend: gen omega\n"
            f'step 1: {fields} v="gen omega" seamL="id(1)" seamR="id(1)"\n')


# steps 12 and 13 of the shipped certificate are a relation step and an M4
# deletion; each edit would make replay build a side past MAX_STRANDS, or
# a negative power
OVERSIZED_STEPS = [
    ("rel-q-past-int64", 12, _step_edit(12, "q=0", "q=99999999999999999999")),
    ("rel-q-plus-p", 12, _step_edit(12, "q=0 p=1", "q=200 p=100")),
    ("m4-q-3e6", 13, _step_edit(13, "q=0", "q=3000000")),
    ("m4-q-1e8", 13, _step_edit(13, "q=0", "q=100000000")),
    ("m4-a-5000", 13, _step_edit(13, "a=0", "a=5000")),
    ("m4-a-negative", 13, _step_edit(13, "a=0", "a=-1")),
    ("rel-p-negative", 12, _step_edit(12, "p=1", "p=-1")),
    ("m1-q-negative", 2, _step_edit(2, "q=0", "q=-3")),
    ("m2-a-300", 1, _one_step("rule=M2 dir=fwd split=0 a=300 q=0 p=0")),
    ("m3-q-p", 1, _one_step("rule=M3 dir=bwd split=0 a=1 q=128 p=128")),
]


@pytest.mark.parametrize("n,text", [case[1:] for case in OVERSIZED_STEPS],
                         ids=[case[0] for case in OVERSIZED_STEPS])
def test_oversized_or_negative_step_field_is_a_parse_error(tmp_path, capsys,
                                                           n, text):
    """A step's a, q and p are refused before any side is built, naming
    the line, and not after allocating a side they make too wide."""
    assert text != OMEGA_CERT
    path = tmp_path / "big.cert"
    path.write_text(text)
    t0 = time.monotonic()
    code, out = run([a.format(path=path) for a in CERT_ARGV])
    assert (code, out) == (3, "")
    assert time.monotonic() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'step {n}: " in err


def test_step_at_the_size_limit_reaches_replay(tmp_path, capsys):
    # a + q + width(v) + p = MAX_STRANDS: parsed, then refused by replay
    path = tmp_path / "limit.cert"
    path.write_text(_one_step(
        f"rule=M2 dir=fwd split=0 a=1 q={MAX_STRANDS - 3} p=1"))
    code, out = run([a.format(path=path) for a in CERT_ARGV])
    assert code == 1 and out.startswith("certificate invalid: step 1: ")


UNKNOWN_V = _first_step('seamR="id(1)"', 'seamR="id(1)" v="gen nu"')
FIELD_ERRORS = [
    ("pres", "generator mu 2 1\nrelation gen mu == gen nu\n",
     ["equiv", "--pres", "{path}", "gen mu", "gen mu"],
     "unknown generator 'nu' in 'relation gen mu == gen nu'"),
    ("cert", UNKNOWN_V[0], CERT_ARGV,
     f"unknown generator 'nu' in {UNKNOWN_V[1]!r}"),
    ("assign", "carrier 2\ngen f\n0 -> 1\n0 1 -> 1\n", ASSIGN_ARGV,
     "row has 2 inputs, expected 1: '0 1 -> 1'"),
]


@pytest.mark.parametrize("suffix,text,argv,message", FIELD_ERRORS,
                         ids=[case[0] for case in FIELD_ERRORS])
def test_field_error_names_its_file_line(tmp_path, capsys, suffix, text, argv,
                                         message):
    """An error inside an expression field or a table row of a file ends
    with the line it is on."""
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text)
    code, out = run([a.format(path=path) for a in argv])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_expression_error_on_the_command_line_names_no_line(capsys):
    code, out = run(["equiv", "--pres", "@group", "gen nu", "gen omega"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: unknown generator 'nu'\n"
