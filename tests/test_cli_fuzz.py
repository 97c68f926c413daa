"""Fuzz the command line's exit-code contract with mutated input text.

Every run must end in 0 (proved/pass), 1 (disproved/fail), 2 (unknown) or
3 (usage or parse error) within RUN_SECONDS, with no exception escaping,
and an exit 1 must come with the line that says what was refuted or what
failed.
"""

import io
import re
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from opwords.cli import main

LEMMAS = Path(__file__).resolve().parents[1] / "src" / "opwords" / "lemmas"
CERT = (LEMMAS / "omega-involution.cert").read_text()
PRES = (LEMMAS / "omega-unique.pres").read_text()
ASSIGN = """carrier 3
gen mu
0 0 -> 0
0 1 -> 1
0 2 -> 2
1 0 -> 1
1 1 -> 2
1 2 -> 0
2 0 -> 2
2 1 -> 0
2 2 -> 1
gen eta
-> 0
gen omega
0 -> 0
1 -> 2
2 -> 1
"""
EXPRS = (
    "(gen mu * id(1)) . gen mu",
    "(id(1) * gen mu) . gen mu",
    "fm[2->1: 1,1] . pad(0, gen omega, 1) . gen mu",
    "fm[0->1: ] . gen eta",
    "gen omega . gen omega",
    "id(1)",
)

# pieces of every input format, a few past its limits
TOKENS = st.sampled_from((
    "0", "1", "2", "7", "-1", "20", "300", "99999999999999999999",
    "9" * 5000, " ", "\n", "(", ")", ",", ".", "*", "^", "->", "==", "gen ",
    "id(", "pad(", "fm[", "]", ":", "=", '"', "mu", "eta", "omega", "omega2",
    "step 1:", "rule=M2", "rule=REL:9", "dir=bwd", "split=", "carrier ",
    "generator ", "relation ", "\x00", "é"))

# a line that names what an exit 1 refuted or failed
FAIL_LINE = re.compile(r"^(disproved: |certificate invalid: |"
                       r"relation \d+: FAIL at input |"
                       r"fail: no table for generator )", re.M)


# wall-clock seconds one run may take; the slowest examples take well
# under a second, so only a hang comes near it
RUN_SECONDS = 20


class Hang(BaseException):
    """A run past its time limit. Not an Exception, so no handler in the
    program can turn it into an exit code."""


@contextmanager
def time_limit(seconds, what):
    def expire(signum, frame):
        raise Hang(f"{what} still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def mutated(draw, text):
    """text with one to three spans deleted, inserted or duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        kind = draw(st.sampled_from(("delete", "insert", "duplicate")))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(TOKENS) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _expr(draw, label):
    base = draw(st.sampled_from(EXPRS), label=label)
    return draw(st.one_of(st.just(base), mutated(base)), label=label)


@st.composite
def invocations(draw):
    """(argv, {file name: text}) for one command on mutated input."""
    steps = str(draw(st.integers(0, 60), label="max steps"))
    command = draw(st.sampled_from(
        ("verify-cert", "equiv-pres", "equiv", "check-algebra", "eval")))
    if command == "verify-cert":
        return (["verify-cert", "--pres", "@group", "{f}"],
                draw(mutated(CERT), label="certificate"))
    if command == "equiv-pres":
        pres = draw(st.one_of(st.just(PRES), mutated(PRES)),
                    label="presentation")
        return (["equiv", "--pres", "{f}", "--max-steps", steps,
                 _expr(draw, "lhs"), _expr(draw, "rhs")], pres)
    if command == "equiv":
        return (["equiv", "--max-steps", steps, _expr(draw, "lhs"),
                 _expr(draw, "rhs")], None)
    assign = draw(st.one_of(st.just(ASSIGN), mutated(ASSIGN)),
                  label="assignment")
    if command == "check-algebra":
        return ["check-algebra", "--pres", "@group", "--assign", "{f}"], assign
    return ["eval", "--assign", "{f}", _expr(draw, "expr")], assign


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_exit_code_contract_holds_on_mutated_input(tmp_path, invocation):
    argv, text = invocation
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == "{f}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # Hypothesis does not shrink or print an example that raises Hang, so
    # the message carries the input
    with time_limit(RUN_SECONDS, f"{argv} on {text!r}"), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, out.getvalue(), err.getvalue())
    if code == 1:
        assert FAIL_LINE.search(out.getvalue()), out.getvalue()


# (argv, valid file text, its keywords, its once-only headers) per format
FORMATS = (
    (["verify-cert", "--pres", "@group", "{f}"], CERT,
     ("start:", "end:", "step"), ("start:", "end:")),
    (["equiv", "--pres", "{f}", "--max-steps", "20", "gen omega",
      "gen omega2"], PRES, ("generator", "relation"), ()),
    (["check-algebra", "--pres", "@group", "--assign", "{f}"], ASSIGN,
     ("carrier", "gen"), ("carrier",)),
)
LETTERS = st.text("abcdefghijklmnopqrstuvwxyz:", min_size=1, max_size=3)


@st.composite
def keyword_mutations(draw):
    """(argv, text): a valid file with one keyword line made malformed:
    letters added to its keyword, a once-only header written twice, or the
    certificate's steps numbered out of 1..n."""
    kind = draw(st.sampled_from(("letters", "twice", "renumber")))
    formats = [f for f in FORMATS if f[3]] if kind == "twice" else FORMATS
    argv, text, keywords, once = (FORMATS[0] if kind == "renumber" else
                                  draw(st.sampled_from(formats)))
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines)
             if line.split()[0] in (once if kind == "twice" else keywords)]
    i = draw(st.sampled_from(heads))
    if kind == "letters":
        keyword, rest = lines[i].split(" ", 1)
        at = draw(st.integers(0, len(keyword)))
        added = draw(LETTERS.filter(
            lambda s: keyword[:at] + s + keyword[at:] not in keywords))
        lines[i] = f"{keyword[:at]}{added}{keyword[at:]} {rest}"
    elif kind == "twice":
        lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
    else:
        steps = [j for j in heads if lines[j].startswith("step ")]
        j = draw(st.sampled_from(steps))
        n = draw(st.integers(0, 99).filter(lambda n: n != steps.index(j) + 1))
        lines[j] = re.sub(r"^step \d+:", f"step {n}:", lines[j])
    return argv, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keyword_mutations())
def test_malformed_keyword_lines_exit_3(tmp_path, mutation):
    argv, text = mutation
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == "{f}" else arg for arg in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code == 3, (code, text)
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
