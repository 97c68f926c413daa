import importlib.util
from pathlib import Path

import pytest

import opwords.fixtures
import opwords.rules
import opwords.search
from opwords.certificate import Certificate, decode, encode
from opwords.cli import main as cli_main
from opwords.errors import ParseError, ReplayError
from opwords.evaluate import eval_word
from opwords.fixtures import lemma_fixtures
from opwords.present import (algebra_from_group, builtin_group,
                             builtin_group_Z, cyclic_group,
                             symmetric_group_3)
from opwords.words import compose_many, gen_word

REGENERATOR = (Path(__file__).resolve().parent.parent / "scripts"
               / "replay_lemmas.py")

GROUP_ASSIGNMENTS = [algebra_from_group(cyclic_group(n)) for n in range(1, 7)]
GROUP_ASSIGNMENTS.append(algebra_from_group(symmetric_group_3()))

EXPECTED = {
    "dup-assoc", "dup-assoc-square", "dup-counit", "omega-split-dup",
    "omega-drop", "eta-unique", "omega-unique", "eta-omega",
    "omega-involution", "ZG-claim1", "ZG-claim2",
}


@pytest.fixture(scope="module")
def fixtures():
    return lemma_fixtures()


def test_expected_names(fixtures):
    assert {f.name for f in fixtures} == EXPECTED


def test_all_replay_forward(fixtures):
    for f in fixtures:
        assert f.certificate.replay(f.context) == f.certificate.end


def test_all_replay_backward(fixtures):
    for f in fixtures:
        rev = f.certificate.reversed()
        assert rev.replay(f.context) == f.certificate.start


def test_endpoints_evaluate_equal_on_groups(fixtures):
    base = {g.name for g in builtin_group().alphabet}
    for f in fixtures:
        names = {g.name for _, g, _ in
                 f.certificate.start.letters + f.certificate.end.letters}
        if not names <= base:
            continue  # conditional lemmas carry a fresh symbol
        for asg in GROUP_ASSIGNMENTS:
            assert (eval_word(f.certificate.start, asg)
                    == eval_word(f.certificate.end, asg))


def test_zg_claims_prove_dropped_relations(fixtures):
    by_name = {f.name: f for f in fixtures}
    y = builtin_group().relations
    c1 = by_name["ZG-claim1"].certificate
    assert (c1.start, c1.end) == y[4]   # right inverse
    c2 = by_name["ZG-claim2"].certificate
    assert (c2.start, c2.end) == y[2]   # right neutrality
    z_ctx = builtin_group_Z().context()
    for cert in (c1, c2):
        cert.replay(z_ctx)
        for step in cert.steps:
            if step.rule.startswith("REL:"):
                assert int(step.rule[4:]) < 3


def test_z_certificates_lift_to_full_presentation(fixtures):
    from opwords.present import reindex_relations
    by_name = {f.name: f for f in fixtures}
    y_ctx = builtin_group().context()
    for name in ("ZG-claim1", "ZG-claim2"):
        cert = reindex_relations(by_name[name].certificate, {0: 0, 1: 1, 2: 3})
        cert.replay(y_ctx)
        cert.reversed().replay(y_ctx)


def test_certificates_round_trip_text(fixtures):
    from opwords.alphabet import Alphabet, Generator
    alphabet = Alphabet(tuple(builtin_group().alphabet)
                        + (Generator("eta2", 0, 1), Generator("omega2", 1, 1)))
    for f in fixtures:
        text = encode(f.certificate)
        back = decode(text, alphabet)
        assert back == f.certificate
        back.replay(f.context)


def test_conditional_lemmas_use_hypothesis(fixtures):
    by_name = {f.name: f for f in fixtures}
    for name in ("eta-unique", "omega-unique"):
        ctx = by_name[name].context
        assert len(ctx.relations) == 6  # five group relations plus hypothesis
        used = {s.rule for s in by_name[name].certificate.steps}
        assert "REL:5" in used


def test_loading_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lemma fixtures must load without search")

    monkeypatch.setattr(opwords.search, "_certificate_search", refuse)
    monkeypatch.setattr(opwords.search, "moves", refuse)
    monkeypatch.setattr(opwords.rules, "moves", refuse)
    lemma_fixtures.cache_clear()
    try:
        assert {f.name for f in lemma_fixtures()} == EXPECTED
    finally:
        lemma_fixtures.cache_clear()


def test_tampered_certificate_is_rejected(monkeypatch):
    read = opwords.fixtures._read

    def tampered(name):
        text = read(name)
        if name == "omega-involution.cert":
            text = text.replace("step 3: rule=M1 dir=fwd",
                                "step 3: rule=M1 dir=bwd")
            assert text != read(name)
        return text

    monkeypatch.setattr(opwords.fixtures, "_read", tampered)
    lemma_fixtures.cache_clear()
    try:
        with pytest.raises(ReplayError,
                           match=r"^lemma omega-involution: step 3: "):
            lemma_fixtures()
    finally:
        lemma_fixtures.cache_clear()


def test_lemmas_command_names_a_tampered_lemma(monkeypatch, capsys):
    read = opwords.fixtures._read

    def tampered(name):
        text = read(name)
        if name == "omega-drop.cert":
            text = text.replace("step 1: rule=M4 dir=bwd",
                                "step 1: rule=M4 dir=fwd")
            assert text != read(name)
        return text

    monkeypatch.setattr(opwords.fixtures, "_read", tampered)
    lemma_fixtures.cache_clear()
    try:
        assert cli_main(["lemmas"]) == 1
    finally:
        lemma_fixtures.cache_clear()
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line for line in out.splitlines() if ": ok (" not in line]
    assert len(failed) == 1
    assert failed[0].startswith("omega-drop: FAIL (step 1: ")
    assert len(out.splitlines()) == len(EXPECTED)


def test_undecodable_certificate_is_named(monkeypatch, capsys):
    read = opwords.fixtures._read

    def garbled(name):
        text = read(name)
        return text + "garbage\n" if name == "dup-counit.cert" else text

    monkeypatch.setattr(opwords.fixtures, "_read", garbled)
    lemma_fixtures.cache_clear()
    try:
        with pytest.raises(ParseError, match=r"^lemma dup-counit: "
                                             r"unrecognized certificate"):
            lemma_fixtures()
        assert cli_main(["lemmas"]) == 1
    finally:
        lemma_fixtures.cache_clear()
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if ": ok (" not in line] == [
        "dup-counit: FAIL (unrecognized certificate line: 'garbage')"]


def test_lemmas_command_replays_each_certificate_once(monkeypatch, capsys):
    fixtures = lemma_fixtures()
    replayed = []
    replay = Certificate.replay

    def counted(cert, ctx=None):
        replayed.append(cert)
        return replay(cert, ctx)

    monkeypatch.setattr(Certificate, "replay", counted)
    assert cli_main(["lemmas"]) == 0
    # only the reversed chains: lemma_fixtures() replayed them forward
    assert replayed == [f.certificate.reversed() for f in fixtures]
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{f.name}: ok ({len(f.certificate.steps)} steps)"
                   for f in fixtures]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("replay_lemmas", REGENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transport_whiskers_a_certificate(script):
    from opwords.finmap import f2
    from opwords.words import op_word, whisker
    ctx = builtin_group().context()
    lhs, rhs = builtin_group().relations[1]
    cert = script.connect(lhs, rhs, ctx)
    dup, mu = op_word(f2()), gen_word(builtin_group().alphabet.lookup("mu"))
    moved = script.transport(cert, 0, 1, dup, mu, ctx)
    assert moved.start == compose_many(dup, whisker(0, lhs, 1), mu)
    assert moved.end == compose_many(dup, whisker(0, rhs, 1), mu)


def test_regenerator_rebuilds_the_shipped_lemmas(script):
    sources = {name: source for name, source, _ in opwords.fixtures.LEMMAS}
    written = 0
    for name, cert, pres in script.build_lemmas():
        shipped = (script.LEMMA_DIR / f"{name}.cert").read_text()
        assert encode(cert) == shipped, name
        source = sources[name]
        if source is not None and not source.startswith("@"):
            shipped = (script.LEMMA_DIR / source).read_text()
            assert script.presentation_text(pres) == shipped, source
            written += 1
    assert written == 2  # eta-unique.pres and omega-unique.pres
