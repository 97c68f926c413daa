"""Symbolic word calculus over finite-set maps: free structures on a
generator alphabet, rewriting with certificates, evaluation on finite
carriers, and finitely presented quotients (notably the group presentation).
"""

from .alphabet import Alphabet, Generator
from .certificate import Certificate, decode, encode
from .endo import Carrier, FinFunction, check_braiding, check_branching, pullback
from .errors import (ArityError, AssignmentError, OpwordsError, ParseError,
                     ReplayError, UnknownGeneratorError)
from .evaluate import GeneratorAssignment, eval_word
from .finmap import FinMap, braid, branch, compose, f0, f2, identity, tensor
from .fixtures import lemma_fixtures
from .present import (AlgebraReport, GroupTables, Presentation,
                      algebra_from_group, builtin_group, builtin_group_Z,
                      check_algebra, cyclic_group, equivalent_mod,
                      group_from_algebra, load_presentation, symmetric_group_3)
from .rules import RewriteStep, RuleBounds, RuleContext, apply_step
from .search import (Disproved, Proved, SearchBudget, Unknown, Witness,
                     equivalent)
from .words import (Word, compose_words, gen_word, identity_word, letter_word,
                    op_word, standard_decomposition, tensor_power,
                    tensor_words, whisker)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
