"""Obligation-certificate oracle: the CEGIS loop the production check replaced.

:func:`check_obligations` decides the same quantified question as
:func:`repro.synthesis.invariants.check_obligations`,
``forall flags exists letter: AND_j (flag_j -> resp_j)``, by
counterexample-guided search: a *falsifier* solver proposes a flag vector
not covered by any output letter found so far, a fresh *responder* solver
finds a letter discharging the activated responses, the letter's cover is
blocked and the loop repeats.  Eventually-goals are pinned one at a time
on top of the invariants.  Fragment recognition is shared with
production; only the decision procedure differs, so the suites can assert
equal outcomes on the same specifications.

``conflict`` indexes the list handed to the loop (invariants, then the
pinned goal), not ``result.obligations``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.ast import (
    And,
    Atom,
    Bool,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.sat.cdcl import CDCLSolver
from repro.sat.cnf import CNF
from repro.sat.tseitin import encode
from repro.synthesis.invariants import (
    Obligation,
    ObligationCheckResult,
    ObligationOutcome,
    _constraint_of,
    extract_obligations,
)


def _evaluate(formula: Formula, letter: Dict[str, bool]) -> bool:
    if isinstance(formula, Bool):
        return formula.value
    if isinstance(formula, Atom):
        return letter.get(formula.name, False)
    if isinstance(formula, Not):
        return not _evaluate(formula.operand, letter)
    if isinstance(formula, And):
        return _evaluate(formula.left, letter) and _evaluate(formula.right, letter)
    if isinstance(formula, Or):
        return _evaluate(formula.left, letter) or _evaluate(formula.right, letter)
    if isinstance(formula, Implies):
        return (not _evaluate(formula.left, letter)) or _evaluate(formula.right, letter)
    if isinstance(formula, Iff):
        return _evaluate(formula.left, letter) == _evaluate(formula.right, letter)
    raise TypeError(f"not propositional: {formula!r}")


def check_obligations(
    formulas: Sequence[Formula],
    outputs: Sequence[str],
    max_iterations: int = 10_000,
) -> ObligationCheckResult:
    """The certificate check.

    Invariant obligations must be *jointly* dischargeable for every flag
    vector: ``forall flags exists letter: AND_j (flag_j -> resp_j)``.
    Eventually-goals carry no deadline, so the controller may serve them
    round-robin: each goal is checked *individually* on top of the
    invariants.  Both quantifications are decided by CEGIS: a *falsifier*
    proposes a flag vector not covered by any output letter found so far;
    a *responder* finds a letter discharging the activated responses; the
    letter's cover is blocked and the loop repeats.
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

    invariants = [o for o in obligations if not o.is_goal]
    goals = [o for o in obligations if o.is_goal]

    total_iterations = 0
    outcome, iterations, conflict = _cegis(invariants, max_iterations)
    total_iterations += iterations
    if outcome is not ObligationOutcome.REALIZABLE:
        return ObligationCheckResult(
            outcome, tuple(obligations), total_iterations, conflict
        )
    for goal in goals:
        pinned = Obligation(
            goal.condition_inputs, goal.response, always_active=True
        )
        outcome, iterations, conflict = _cegis(
            invariants + [pinned], max_iterations
        )
        total_iterations += iterations
        if outcome is not ObligationOutcome.REALIZABLE:
            return ObligationCheckResult(
                outcome, tuple(obligations), total_iterations, conflict
            )
    return ObligationCheckResult(
        ObligationOutcome.REALIZABLE, tuple(obligations), total_iterations
    )


def _cegis(
    obligations: List[Obligation], max_iterations: int
) -> Tuple[ObligationOutcome, int, Optional[Tuple[int, ...]]]:
    """Decide ``forall flags exists letter: AND_j (flag_j -> resp_j)``.

    Self-conditioned obligations (condition over same-step outputs) are
    not flagged: their implication constrains every responder letter.
    """
    if not obligations:
        return ObligationOutcome.REALIZABLE, 0, None
    flagged = [
        j for j, o in enumerate(obligations) if o.self_condition is None
    ]
    constrained = [
        j for j, o in enumerate(obligations) if o.self_condition is not None
    ]
    falsifier_cnf = CNF()
    flags = {j: falsifier_cnf.new_var(f"f{j}") for j in flagged}
    for j in flagged:
        if obligations[j].always_active:
            falsifier_cnf.add([flags[j]])
    falsifier = CDCLSolver(falsifier_cnf)

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        vector = falsifier.solve()
        if not vector:
            return ObligationOutcome.REALIZABLE, iterations, None
        active = [j for j in flagged if vector.model[flags[j]]]

        responder_cnf = CNF()
        for j in active:
            responder_cnf.add([encode(obligations[j].response, responder_cnf)])
        for j in constrained:
            responder_cnf.add(
                [encode(_constraint_of(obligations[j]), responder_cnf)]
            )
        response = CDCLSolver(responder_cnf).solve()
        if not response:
            return (
                ObligationOutcome.INCONCLUSIVE,
                iterations,
                tuple(active) + tuple(constrained),
            )
        letter = {
            name: response.model[responder_cnf.var(name)]
            for name in responder_cnf._names
            if not name.startswith("__")
        }
        uncovered = [
            flags[j]
            for j in flagged
            if not _evaluate(obligations[j].response, letter)
        ]
        if not uncovered:
            return ObligationOutcome.REALIZABLE, iterations, None
        falsifier.add_clause(uncovered)
    return ObligationOutcome.INCONCLUSIVE, iterations, None
