"""LTL satisfiability, validity and equivalence via automata emptiness.

The realizability driver uses satisfiability as its second stage, after
the obligation certificate: an unsatisfiable conjunction of requirements
can never be implemented, whatever the input/output partition.  It builds
one tableau for the whole conjunction, so it is the expensive stage on
components the certificate cannot decide.
"""

from __future__ import annotations

from typing import Optional

from ..logic.ast import And, Formula, Not
from ..logic.semantics import LassoWord
from .emptiness import Witness, find_witness
from .gpvw import translate


def satisfiable(formula: Formula) -> Optional[Witness]:
    """A satisfying lasso word for *formula*, or ``None`` if unsatisfiable.

    Deliberately uncached beyond the automaton translation: the pipeline's
    repeated satisfiability prechecks are absorbed upstream by the
    component-outcome cache in :mod:`repro.synthesis.realizability`, and
    the conjunction nodes queried here are short-lived, so a weak-keyed
    witness cache would never be hit.
    """
    return find_witness(translate(formula))


def is_satisfiable(formula: Formula) -> bool:
    return satisfiable(formula) is not None


def is_valid(formula: Formula) -> bool:
    """True when *formula* holds on every infinite word."""
    return satisfiable(Not(formula)) is None


def equivalent(left: Formula, right: Formula) -> bool:
    """Language equivalence of two formulas.

    Used by the test suite to compare translated requirements against the
    paper's gold formulas modulo logically-irrelevant syntax differences.
    """
    if satisfiable(And(left, Not(right))) is not None:
        return False
    return satisfiable(And(Not(left), right)) is None


def counterexample_to_implication(
    left: Formula, right: Formula
) -> Optional[LassoWord]:
    """A word satisfying *left* but not *right*, if one exists."""
    witness = satisfiable(And(left, Not(right)))
    return witness.word if witness is not None else None
