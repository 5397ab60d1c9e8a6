"""Obligation-based realizability for requirement-shaped specifications.

Industrial requirement sets — including all three of the paper's case
studies — consist almost exclusively of *condition/response* formulas:

* ``G (cond -> resp)``            invariants (possibly with ``X`` delays),
* ``G (cond -> F resp)``          triggered progress,
* ``F resp``                      plain existence,
* ``G (cond -> (!r -> resp W r))``  hold-until-release (Req-49),

where conditions are propositional over anything and responses are
propositional constraints over *output* variables.  For this fragment a
*sound* certificate check exists:

    if for every subset of simultaneously-active conditions the system can
    pick one output letter satisfying all activated responses at once,
    then the specification is realizable —

a controller simply tracks which obligations are pending (delays,
until-releases and eventually-goals included) and discharges all of them
every step.  Conditions are abstracted to independent adversary flags, so
the check quantifies over ``2^m`` flag vectors.  That quantifier is
*monotone*: a letter discharging the responses of a vector also
discharges those of every smaller vector, and the all-flags-true vector
is always admissible (anti-causal obligations only force flags true).  So
``forall flags exists letter: AND_j (flag_j -> resp_j)`` holds iff one
letter meets every response at once — a single SAT question, independent
of the number of input variables, which is what lets SpecCC handle the
paper's 50-variable CARA mode-switching specification that
explicit-alphabet engines cannot touch.

Soundness notes:

* a flag vector is *harder* for the system than the real condition
  semantics (real conditions may be correlated), so REALIZABLE answers are
  definitive; INCONCLUSIVE sends the caller to the exact engines;
* *anti-causal* obligations — condition strictly later than response, e.g.
  Req-28's ``G (X X X !bp -> trigger)`` — are treated as permanently
  active, because the controller cannot observe the future: it must hold
  the response unconditionally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..logic.ast import (
    And,
    Atom,
    Bool,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    WeakUntil,
    atoms,
    next_depth,
)
from ..sat.cdcl import CDCLSolver
from ..sat.cnf import CNF
from ..sat.tseitin import encode


_GOAL_DELAY = 10**9  # sentinel delay for Eventually responses


class ObligationOutcome(enum.Enum):
    REALIZABLE = "realizable"
    INCONCLUSIVE = "inconclusive"  # joint discharge failed at some vector
    NOT_APPLICABLE = "not-applicable"  # formulas outside the fragment


@dataclass(frozen=True)
class Obligation:
    """One condition/response pair extracted from a requirement."""

    condition_inputs: FrozenSet[str]  # informational, for reports
    response: Formula  # propositional, over outputs only
    always_active: bool = False  # anti-causal: cannot wait for the flag
    #: Eventually-goals have no deadline: the controller may serve them one
    #: at a time (round-robin), so they are checked individually against
    #: the invariants instead of jointly with each other.
    is_goal: bool = False
    #: A same-step condition entirely over outputs (e.g. the robot mutex
    #: "G (in_room_1_robot_1 -> !in_room_1_robot_2)").  The system controls
    #: both sides, so instead of an adversarial flag the whole implication
    #: constrains every responder letter directly.
    self_condition: Optional[Formula] = None


@dataclass(frozen=True)
class ObligationCheckResult:
    outcome: ObligationOutcome
    obligations: Tuple[Obligation, ...] = ()
    #: Solver calls made to decide the certificate (the name predates the
    #: single-solver check, which replaced a CEGIS loop).
    cegis_iterations: int = 0
    #: Indices of jointly-undischargeable obligations (when inconclusive).
    conflict: Optional[Tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# Fragment recognition


def extract_obligations(
    formula: Formula, outputs: FrozenSet[str]
) -> Optional[List[Obligation]]:
    """Decompose one requirement, or ``None`` if outside the fragment."""
    delay = 0
    while isinstance(formula, Next):
        delay += 1
        formula = formula.operand
    if isinstance(formula, Globally):
        return _from_body(formula.operand, outputs, frozenset(), 0)
    if isinstance(formula, Finally):
        return _terminal(formula.operand, outputs, frozenset(), 0, _GOAL_DELAY)
    if _is_propositional(formula):
        return _terminal(formula, outputs, frozenset(), 0, delay)
    return None


def _from_body(
    body: Formula,
    outputs: FrozenSet[str],
    inputs: FrozenSet[str],
    condition_delay: int,
) -> Optional[List[Obligation]]:
    """Handle the (possibly nested) implication body of an invariant."""
    if isinstance(body, Globally):
        return _from_body(body.operand, outputs, inputs, condition_delay)
    if isinstance(body, Implies):
        condition, response = body.left, body.right
        if not _is_propositional(_strip_all_next(condition)):
            return None
        combined = inputs | (atoms(condition) - outputs)
        depth = max(condition_delay, next_depth(condition))
        extracted = _terminal(response, outputs, combined, depth, 0)
        if (
            extracted is not None
            and len(extracted) == 1
            and not extracted[0].is_goal
            and not inputs
            and depth == 0
            and atoms(condition) <= outputs
            and _is_propositional(condition)
        ):
            obligation = extracted[0]
            return [
                Obligation(
                    obligation.condition_inputs,
                    obligation.response,
                    always_active=obligation.always_active,
                    self_condition=condition,
                )
            ]
        return extracted
    return _terminal(body, outputs, inputs, condition_delay, 0)


def _terminal(
    response: Formula,
    outputs: FrozenSet[str],
    inputs: FrozenSet[str],
    condition_delay: int,
    response_delay: int,
) -> Optional[List[Obligation]]:
    while isinstance(response, Next):
        response_delay += 1
        response = response.operand
    if isinstance(response, Finally):
        # Eventually: the controller may discharge at any later step.
        return _terminal(response.operand, outputs, inputs, condition_delay, _GOAL_DELAY)
    if isinstance(response, Globally) or isinstance(response, Implies):
        nested = _from_body(response, outputs, inputs, condition_delay)
        return nested
    if isinstance(response, WeakUntil):
        # resp W release: obliged to hold resp until released — holding it
        # forever is sufficient, so the obligation is resp itself.
        return _terminal(response.left, outputs, inputs, condition_delay, response_delay)
    if not _is_propositional(response):
        return None
    response = _strip_all_next(response)
    if not atoms(response) <= outputs:
        return None  # the environment could falsify the response
    is_goal = response_delay >= _GOAL_DELAY
    anti_causal = (not is_goal) and condition_delay > response_delay
    return [Obligation(inputs, response, always_active=anti_causal, is_goal=is_goal)]


def _is_propositional(formula: Formula) -> bool:
    if isinstance(formula, (Atom, Bool)):
        return True
    if isinstance(formula, (Not, And, Or, Implies, Iff)):
        return all(_is_propositional(child) for child in formula.children())
    return False


def _strip_all_next(formula: Formula) -> Formula:
    if isinstance(formula, Next):
        return _strip_all_next(formula.operand)
    if not formula.children():
        return formula
    return type(formula)(*[_strip_all_next(child) for child in formula.children()])


# ---------------------------------------------------------------------------
# The joint-dischargeability check


def check_obligations(
    formulas: Sequence[Formula], outputs: Sequence[str]
) -> ObligationCheckResult:
    """The certificate check.

    Invariant obligations must be *jointly* dischargeable for every flag
    vector: ``forall flags exists letter: AND_j (flag_j -> resp_j)``.
    Eventually-goals carry no deadline, so the controller may serve them
    round-robin: each goal is checked *individually* on top of the
    invariants.  By monotonicity (module docstring) each question asks
    for one letter meeting every constraint involved, so one solver
    decides them all: obligation ``j`` is the clause
    ``!s_j | constraint_j`` behind selector ``s_j``, and each question is
    a solve under the selectors of the obligations it involves.  The
    usual case — one letter meets *every* obligation — takes one call.
    """
    output_set = frozenset(outputs)
    obligations: List[Obligation] = []
    for formula in formulas:
        extracted = extract_obligations(formula, output_set)
        if extracted is None:
            return ObligationCheckResult(ObligationOutcome.NOT_APPLICABLE)
        obligations.extend(extracted)
    if not obligations:
        return ObligationCheckResult(ObligationOutcome.REALIZABLE, ())

    cnf = CNF()
    selectors = [cnf.new_var() for _ in obligations]
    for selector, obligation in zip(selectors, obligations):
        cnf.add([-selector, encode(_constraint_of(obligation), cnf)])
    solver = CDCLSolver(cnf)
    answer, calls = solver.solve(selectors), 1
    goals = [s for s, o in zip(selectors, obligations) if o.is_goal]
    if goals and not answer:
        # Goals are served one at a time: ask for the invariants alone,
        # then for the invariants with each goal.
        invariants = [s for s, o in zip(selectors, obligations) if not o.is_goal]
        for assumptions in [invariants] + [invariants + [g] for g in goals]:
            answer, calls = solver.solve(assumptions), calls + 1
            if not answer:
                break
    if not answer:
        index = {selector: j for j, selector in enumerate(selectors)}
        conflict = tuple(sorted(index[lit] for lit in answer.failed_assumptions))
        return ObligationCheckResult(
            ObligationOutcome.INCONCLUSIVE, tuple(obligations), calls, conflict
        )
    return ObligationCheckResult(
        ObligationOutcome.REALIZABLE, tuple(obligations), calls
    )


def _constraint_of(obligation: Obligation) -> Formula:
    """What the responder letter must satisfy for this obligation.

    Self-conditioned obligations (condition over same-step outputs) are
    not flagged: their implication constrains every letter.
    """
    if obligation.self_condition is not None:
        return Implies(obligation.self_condition, obligation.response)
    return obligation.response
