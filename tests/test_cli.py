import io
import os
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
from opwords.dsl import MAX_NESTING, parse_word
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


def test_repeated_assignment_row_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.assign"
    path.write_text("carrier 2\ngen f\n0 -> 0\n1 -> 0\n0 -> 1\n")
    code, out = run(["eval", "--assign", str(path), "gen f"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == "error: repeated row for input (0,): '0 -> 1'\n"


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
    env = dict(os.environ,
               PYTHONPATH=str(Path(opwords.__file__).resolve().parents[1]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "opwords", "eval", *flags, "--assign",
         str(path), "gen mu"], env=env, capture_output=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 3
    assert time.monotonic() - t0 < 10


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
