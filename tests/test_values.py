"""Value semantics of the package's immutable classes: equality and hash by
value, the repr text, defaults and keywords, and no assignment to a field."""

import copy
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import opwords
from opwords.alphabet import Alphabet, Generator
from opwords.certificate import Certificate
from opwords.dsl import parse_word
from opwords.endo import Carrier, FinFunction
from opwords.errors import ArityError, AssignmentError
from opwords.evaluate import GeneratorAssignment
from opwords.finmap import FinMap, identity
from opwords.fixtures import LemmaFixture
from opwords.present import (AlgebraReport, GroupTables, Presentation,
                             RelationCheck)
from opwords.record import Interned
from opwords.rules import RewriteStep, RuleBounds, RuleContext
from opwords.search import Disproved, Proved, SearchBudget, Unknown, Witness
from opwords.words import gen_word, identity_word

MU = Generator("mu", 2, 1)
ALPHABET = Alphabet((MU,))


def _word():
    return gen_word(Generator("mu", 2, 1))


def _step(**changes):
    fields = dict(rule="M1", direction="fwd", split=0, v=_word(),
                  seam_left=identity(2))
    fields.update(changes)
    return RewriteStep(**fields)


def _cert():
    return Certificate(_word(), (_step(),), _word())


# name -> (build a value, build a different value of the same class); each
# call builds a fresh object, so equal values are never the same object,
# except those of the hash-consed classes (one object per distinct value)
INTERNED = {"FinMap", "Generator", "Carrier"}
VALUES = {
    "FinMap": (lambda: FinMap(2, 1, (1, 1)), lambda: FinMap(2, 2, (1, 1))),
    "Word": (_word, lambda: gen_word(Generator("mu", 2, 2))),
    "Generator": (lambda: Generator("mu", 2, 1),
                  lambda: Generator("mu", 1, 1)),
    "Alphabet": (lambda: Alphabet((MU,)), lambda: Alphabet(())),
    "Carrier": (lambda: Carrier(2), lambda: Carrier(3)),
    "FinFunction": (lambda: FinFunction(Carrier(2), 1, 1, ((1,), (0,))),
                    lambda: FinFunction(Carrier(2), 1, 1, ((0,), (1,)))),
    "RewriteStep": (_step, lambda: _step(direction="bwd")),
    "RuleBounds": (lambda: RuleBounds(max_len=4), lambda: RuleBounds()),
    "RuleContext": (lambda: RuleContext(((_word(), _word()),)),
                    lambda: RuleContext()),
    "SearchBudget": (lambda: SearchBudget(seed=1), lambda: SearchBudget()),
    "Witness": (lambda: Witness("arity"), lambda: Witness("evaluation")),
    "Proved": (lambda: Proved(_cert()),
               lambda: Proved(Certificate(_word(), (), _word()))),
    "Disproved": (lambda: Disproved(Witness("arity")),
                  lambda: Disproved(Witness("evaluation"))),
    "Unknown": (lambda: Unknown(3), lambda: Unknown(4)),
    "Presentation": (lambda: Presentation(ALPHABET, ((_word(), _word()),)),
                     lambda: Presentation(ALPHABET, ())),
    "RelationCheck": (lambda: RelationCheck(0, False, (1,), (0,), (1,)),
                      lambda: RelationCheck(0, True)),
    "AlgebraReport": (lambda: AlgebraReport((RelationCheck(0, True),)),
                      lambda: AlgebraReport(())),
    "GroupTables": (lambda: GroupTables(1, ((0,),), 0, (0,)),
                    lambda: GroupTables(2, ((0, 1), (1, 0)), 0, (0, 1))),
    "Certificate": (_cert, lambda: Certificate(_word(), (), _word())),
    "LemmaFixture": (lambda: LemmaFixture("x", _cert(), RuleContext(), "s"),
                     lambda: LemmaFixture("y", _cert(), RuleContext(), "s")),
}

# The words the expression constructs parse to, one entry per construct, so
# that words built by the parser's composition, tensor, power and pad rules
# are values like any other: each parse builds a fresh word.
PARSE_ALPHABET = Alphabet((MU, Generator("eta", 0, 1)))
CONSTRUCTS = {
    "EGen": ("gen mu", "gen eta"),
    "EId": ("id(2)", "id(3)"),
    "EMap": ("fm[1->1: 1]", "fm[0->1: ]"),
    "EBraid": ("braid(1,2)", "braid(2,1)"),
    "EBranch": ("branch(2,1)", "branch(1,2)"),
    "EDup": ("dup", "del"),
    "EDel": ("del", "dup"),
    "ECompose": ("gen mu . dup", "dup . gen mu"),
    "ETensor": ("id(1) * gen mu", "gen mu * id(1)"),
    "EPower": ("gen mu^2", "gen mu^3"),
    "EPad": ("pad(1, gen mu, 0)", "pad(0, gen mu, 1)"),
}
VALUES.update(
    (name, tuple(lambda text=text: parse_word(text, PARSE_ALPHABET)
                 for text in texts))
    for name, texts in CONSTRUCTS.items())


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_and_hash_equal_by_value(name):
    make, other = VALUES[name]
    a, b = make(), make()
    assert (a is b) if name in INTERNED else (a is not b)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert a != object() and a != None  # noqa: E711


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", sorted(VALUES))
def test_copies_and_pickles_are_equal_values(name, clone):
    """Copies and pickles are rebuilt through the constructor: an equal
    value, and for a hash-consed class the live object itself."""
    value = VALUES[name][0]()
    twin = clone(value)
    assert twin == value and type(twin) is type(value)
    assert hash(twin) == hash(value)
    assert (twin is value) == (name in INTERNED)


def test_assignment_compares_by_value_and_has_no_hash():
    make = lambda: GeneratorAssignment(  # noqa: E731
        Carrier(2), {MU: FinFunction(Carrier(2), 2, 1, ((0,),) * 4)})
    assert make() == make()
    assert make() != GeneratorAssignment(Carrier(2), {})
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("value, text", [
    (Generator("mu", 2, 1), "mu:2->1"),
    (Carrier(2), "Carrier(size=2)"),
    (FinFunction(Carrier(2), 1, 1, ((1,), (0,))),
     "FinFunction(carrier=Carrier(size=2), src=1, tgt=1, columns=((1, 0),))"),
    (FinMap(2, 1, (1, 1)), "fm[2->1: 1,1]"),
    (_word(), "Word[fm[2->2: 1,2] (0,mu,0) fm[1->1: 1]]"),
    (_step(),
     "RewriteStep(rule='M1', direction='fwd', split=0, a=0, q=0, p=0, "
     "v=Word[fm[2->2: 1,2] (0,mu,0) fm[1->1: 1]], v2=None, "
     "seam_left=fm[2->2: 1,2], seam_right=None)"),
    (RuleBounds(), "RuleBounds(a_max=3, pad_max=6, seam_cap=64, "
     "families=None, max_len=None, max_width=None)"),
    (RuleBounds(max_len=4), "RuleBounds(a_max=3, pad_max=6, seam_cap=64, "
     "families=None, max_len=4, max_width=None)"),
    (RuleContext(), "RuleContext(relations=())"),
    (SearchBudget(), "SearchBudget(max_steps=100000, max_word_len=None, "
     "probe_carriers=(2, 3), probe_assignments=5, seed=0)"),
    (Witness("arity"), "Witness(kind='arity', assignment=None, "
     "input_tuple=None, outputs=None)"),
    (Unknown(3), "Unknown(visited=3)"),
    (Disproved(Witness("arity")), "Disproved(witness=Witness(kind='arity', "
     "assignment=None, input_tuple=None, outputs=None))"),
    (Proved(Certificate(_word(), (), _word())),
     "Proved(certificate=Certificate(start=Word[fm[2->2: 1,2] (0,mu,0) "
     "fm[1->1: 1]], steps=(), end=Word[fm[2->2: 1,2] (0,mu,0) fm[1->1: 1]]))"),
    (RelationCheck(0, True), "RelationCheck(index=0, passed=True, "
     "input_tuple=None, lhs_out=None, rhs_out=None)"),
    (AlgebraReport(()), "AlgebraReport(checks=(), untabled=())"),
    (GroupTables(1, ((0,),), 0, (0,)),
     "GroupTables(size=1, mult=((0,),), unit=0, inverse=(0,))"),
    (GeneratorAssignment(Carrier(2), {}),
     "GeneratorAssignment(carrier=Carrier(size=2), functions={})"),
    (LemmaFixture("x", Certificate(_word(), (), _word()), RuleContext(), "s"),
     "LemmaFixture(name='x', certificate=Certificate(start=Word[fm[2->2: 1,2] "
     "(0,mu,0) fm[1->1: 1]], steps=(), end=Word[fm[2->2: 1,2] (0,mu,0) "
     "fm[1->1: 1]]), context=RuleContext(relations=()), "
     "statement='s')"),
    (Presentation(ALPHABET, ()),
     "Presentation(alphabet=Alphabet(mu:2->1), relations=())"),
])
def test_repr_text(value, text):
    assert repr(value) == text


# one field of each class
FIELD = {
    "FinMap": "table", "Word": "letters", "Generator": "name",
    "Carrier": "size", "FinFunction": "columns", "RewriteStep": "seam_left",
    "Alphabet": "generators",
    "RuleBounds": "max_len", "RuleContext": "relations",
    "SearchBudget": "seed", "Witness": "kind", "Proved": "certificate",
    "Disproved": "witness", "Unknown": "visited", "Presentation": "relations",
    "RelationCheck": "passed", "AlgebraReport": "checks", "GroupTables": "unit",
    "Certificate": "steps", "LemmaFixture": "name",
}


@pytest.mark.parametrize("name", sorted(FIELD))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name][0]()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, FIELD[name], 0)
    with pytest.raises(AttributeError):
        delattr(value, FIELD[name])
    assert repr(value) == before


def test_defaults_and_keywords():
    assert RuleBounds(max_len=4) == RuleBounds(3, 6, 64, None, 4, None)
    assert RuleBounds(max_len=4).max_width is None
    assert Witness("arity") == Witness(kind="arity", assignment=None,
                                       input_tuple=None, outputs=None)
    assert SearchBudget() == SearchBudget(100_000, None, (2, 3), 5, 0)
    assert SearchBudget(seed=3).seed == 3
    assert RuleContext() == RuleContext(())
    assert (RuleContext(relations=((_word(), _word()),))
            == RuleContext(((_word(), _word()),)))
    assert AlgebraReport(()).untabled == ()
    assert RelationCheck(index=1, passed=True) == RelationCheck(1, True)
    step = RewriteStep("M1", "fwd", 2)
    assert (step.a, step.q, step.p, step.v, step.v2, step.seam_left,
            step.seam_right) == (0, 0, 0, None, None, None, None)
    assert step == RewriteStep(rule="M1", direction="fwd", split=2)
    assert Carrier(size=2) == Carrier(2)


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Unknown()
    with pytest.raises(TypeError):
        Unknown(1, 2)
    with pytest.raises(TypeError):
        SearchBudget(steps=1)
    with pytest.raises(TypeError):
        RuleBounds(3, a_max=3)


def test_nodes_of_different_types_never_compare_equal():
    assert Proved(_cert()) != Disproved(_cert())


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ArityError, match=r"table length 1 != source arity 2"):
        FinMap(2, 1, (1,))
    with pytest.raises(ArityError, match="generator g has negative arity"):
        Generator("g", -1, 1)
    with pytest.raises(ArityError, match="carrier size must be >= 0"):
        Carrier(-1)
    with pytest.raises(ArityError, match=r"table has 1 rows, expected 2"):
        FinFunction(Carrier(2), 1, 1, ((0,),))
    with pytest.raises(ArityError, match="a word of length k needs k"):
        type(_word())((identity(1),), ((0, MU, 0),))
    with pytest.raises(ArityError, match=r"relation 0: \(2,1\) vs \(1,1\)"):
        Presentation(ALPHABET, ((_word(), gen_word(Generator("o", 1, 1))),))
    with pytest.raises(AssignmentError, match="mu: carrier mismatch"):
        GeneratorAssignment(Carrier(3), {
            MU: FinFunction(Carrier(2), 2, 1, ((0,),) * 4)})


def test_replace_changes_the_named_fields_only():
    step = _step()
    flipped = step.replace(direction="bwd")
    assert flipped == _step(direction="bwd") and step == _step()
    assert step.inverted() == flipped and flipped.inverted() == step
    assert step.seam_right is None
    assert RuleBounds().replace(max_len=4) == RuleBounds(max_len=4)
    with pytest.raises(TypeError):
        RuleBounds().replace(max_length=4)
    # replace builds through __init__, so the constructor's checks run
    with pytest.raises(ArityError, match="relation 0"):
        Presentation(ALPHABET, ()).replace(
            relations=((_word(), identity_word(1)),))


def test_function_replace_builds_from_columns():
    # the constructor takes rows, the field is columns
    f = FinFunction(Carrier(2), 1, 1, ((1,), (0,)))
    assert f.replace(src=1) == f
    assert f.replace(columns=((0, 1),)) == VALUES["FinFunction"][1]()
    with pytest.raises(ArityError, match=r"table has 2 rows, expected 4"):
        f.replace(src=2)
    with pytest.raises(TypeError):
        f.replace(rows=())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Building the value classes generates no code, so the CLI's import
    pulls in neither the code generator nor what it imports."""
    probe = ("import sys; print(sorted({'dataclasses', 'inspect'}"
             " & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(opwords.__file__).resolve().parents[1]))

    def loaded(code):
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60).stdout.strip()

    if loaded(probe) != "[]":
        pytest.skip("a bare interpreter here already loads them")
    assert loaded("import opwords.cli; " + probe) == "[]"


# class -> (arguments of a value, a changed field and the value it gives,
# invalid argument tuples); FinMap's own cases are in tests/test_finmap.py
LEAVES = {
    Generator: (("g", 2, 1), ("tgt", 3, Generator("g", 2, 3)),
                (("g", -1, 1), ("g", 1, -2))),
    Carrier: ((4,), ("size", 5, Carrier(5)), ((-1,), (-7,))),
}


@pytest.mark.parametrize("cls", LEAVES, ids=lambda cls: cls.__name__)
class TestInternedLeaves:
    """Generators and carriers are hash-consed the way maps are: one live
    object per distinct field values."""

    def test_every_constructor_returns_the_live_value(self, cls):
        args, (field, value, changed), _ = LEAVES[cls]
        x = cls(*args)
        assert issubclass(cls, Interned)
        assert cls(*args) is x
        assert cls._raw(*args) is x
        assert cls(**dict(zip(cls._fields, args))) is x
        assert cls._live[args] is x
        assert x.replace(**{field: getattr(x, field)}) is x
        assert x.replace(**{field: value}) is changed
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x

    def test_equality_is_identity(self, cls):
        assert cls.__init__ is object.__init__
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
        x = cls(*LEAVES[cls][0])
        assert hash(x) == object.__hash__(x)
        assert {x: 1}[cls._raw(*LEAVES[cls][0])] == 1

    def test_invalid_arguments_are_refused_and_not_interned(self, cls):
        for args in LEAVES[cls][2]:
            with pytest.raises(ArityError):
                cls(*args)
            assert args not in cls._live
            assert all(x._values(x) != args for x in cls._live.values())

    def test_a_value_nobody_holds_leaves_the_table(self, cls):
        # a value no module, cache or other test builds
        args = ("held-by-none", 11, 13) if cls is Generator else (9973,)
        x = cls(*args)
        assert cls._live[args] is x
        del x
        gc.collect()
        assert args not in cls._live

    def test_a_value_that_dies_while_the_table_is_read_comes_back(self, cls):
        # while the table is iterated, a dead value's weak reference stays
        # in it; building the value again must not return that reference
        args = ("held-by-none", 17, 19) if cls is Generator else (9967,)
        x = cls(*args)
        for _ in cls._live.items():
            del x
            gc.collect()
            y = cls(*args)
            break
        assert y._values(y) == args and cls._raw(*args) is y
        assert cls._live[args] is y


def test_each_interned_class_has_its_own_table():
    tables = [FinMap._live, Generator._live, Carrier._live]
    assert len({id(table) for table in tables}) == 3
    assert not hasattr(Interned, "_live")
