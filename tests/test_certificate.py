"""Differential suite for the obligation certificate.

The certificate (:func:`repro.synthesis.invariants.check_obligations`)
decides every component of the paper's case studies, and the
realizability driver runs it before the satisfiability pre-check, so its
REALIZABLE answers must be sound.  Three checks over a seeded generator
of the certificate's fragment (at most 2 inputs and 3 outputs):

* the single-solver production check and the CEGIS loop it replaced
  (:mod:`reference.invariants`) give the same outcome;
* production REALIZABLE implies the conjunction is satisfiable;
* production REALIZABLE is never refuted by the exact engines
  (``use_obligations=False``).

The fragment generator covers X-delayed invariants, triggered goals
``G (c -> F r)``, ``W``-release holds, anti-causal conditions and
self-conditioned outputs.  The Hypothesis runs are derandomized so CI is
deterministic.  Finally each Table I row's per-component
``(verdict, method)`` list is pinned to the values recorded before the
certificate moved ahead of the pre-check.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SpecCC, SpecCCConfig, TranslationOptions
from repro.automata.ltlsat import satisfiable
from repro.casestudies import (
    TABLE_INSTANCES,
    application_requirements,
    component_requirements,
    mode_switching_requirements,
    robot_requirements,
)
from repro.logic import parse
from repro.logic.ast import conj
from repro.synthesis import SynthesisLimits, Verdict, check_realizability
from repro.sat.cdcl import solve
from repro.sat.cnf import CNF
from repro.sat.tseitin import assert_formula
from repro.synthesis.invariants import (
    ObligationOutcome,
    _constraint_of,
    check_obligations,
)

from reference import invariants as reference

INPUTS = ["a", "b"]
OUTPUTS = ["x", "y", "z"]


def _literals(names):
    return st.sampled_from(names).flatmap(
        lambda name: st.sampled_from([name, f"!{name}"])
    )


def _propositions(names):
    literal = _literals(names)
    pair = st.tuples(literal, st.sampled_from(["&&", "||", "->"]), literal)
    return st.one_of(literal, pair.map(lambda t: f"({t[0]} {t[1]} {t[2]})"))


conditions = _propositions(INPUTS + OUTPUTS)
releases = _propositions(INPUTS)
responses = st.one_of(_propositions(OUTPUTS), st.sampled_from(["true", "false"]))
delays = st.sampled_from(["", "X ", "X X "])

requirements = st.one_of(
    # invariants, the response possibly X-delayed
    st.tuples(conditions, delays, responses).map(
        lambda t: f"G ({t[0]} -> {t[1]}{t[2]})"
    ),
    # anti-causal: the condition lies later than the response
    st.tuples(st.sampled_from(["X ", "X X "]), conditions, responses).map(
        lambda t: f"G ({t[0]}{t[1]} -> {t[2]})"
    ),
    # triggered and plain goals
    st.tuples(conditions, responses).map(lambda t: f"G ({t[0]} -> F {t[1]})"),
    responses.map(lambda r: f"F {r}"),
    # hold the response until released
    st.tuples(conditions, releases, responses).map(
        lambda t: f"G ({t[0]} -> (!{t[1]} -> ({t[2]} W {t[1]})))"
    ),
    # self-conditioned: the condition is over same-step outputs
    st.tuples(_propositions(OUTPUTS), responses).map(
        lambda t: f"G ({t[0]} -> {t[1]})"
    ),
    # initial constraints
    st.tuples(delays, responses).map(lambda t: f"{t[0]}{t[1]}"),
)

specifications = st.lists(requirements, min_size=1, max_size=4).map(
    lambda texts: [parse(text) for text in texts]
)


class TestCertificateAgainstReference:
    @given(specifications)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_outcome_as_cegis(self, formulas):
        production = check_obligations(formulas, OUTPUTS)
        expected = reference.check_obligations(formulas, OUTPUTS)
        assert production.outcome is expected.outcome
        assert production.obligations == expected.obligations

    @given(specifications)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_conflict_names_jointly_unsatisfiable_obligations(self, formulas):
        result = check_obligations(formulas, OUTPUTS)
        if result.outcome is not ObligationOutcome.INCONCLUSIVE:
            return
        named = [result.obligations[j] for j in result.conflict]
        assert named and _jointly_unsatisfiable(named)


def _jointly_unsatisfiable(obligations) -> bool:
    """No output letter meets every named obligation's constraint at once."""
    cnf = CNF()
    for obligation in obligations:
        assert_formula(_constraint_of(obligation), cnf)
    return not solve(cnf)


class TestCertificateSoundness:
    @given(specifications)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_realizable_is_satisfiable_and_never_refuted(self, formulas):
        if check_obligations(formulas, OUTPUTS).outcome is not ObligationOutcome.REALIZABLE:
            return
        assert satisfiable(conj(formulas)) is not None
        exact = check_realizability(
            formulas, INPUTS, OUTPUTS, limits=SynthesisLimits(use_obligations=False)
        )
        assert exact.verdict is not Verdict.UNREALIZABLE


#: Components per Table I row; every component is decided REALIZABLE by
#: the certificate.  Recorded with the pre-check running first.
TABLE1_COMPONENTS = {
    "cara-0": 4, "cara-1": 1, "cara-2.1.1": 11, "cara-2.1.2": 9,
    "cara-2.1.3": 5, "cara-2.2.1": 12, "cara-2.2.2": 5, "cara-2.2.3": 8,
    "cara-2.2.4": 7, "cara-2.2.5": 3, "cara-2.2.6": 8, "cara-2.2.7": 10,
    "cara-3.1": 8, "cara-3.2": 1, "robot-1x4": 1, "robot-1x9": 1,
    "robot-2x5": 1, "tele-1": 4, "tele-2": 1, "tele-3": 1, "tele-4": 7,
    "tele-5": 6,
}


def _table1_rows():
    rows = {"cara-0": mode_switching_requirements()}
    rows.update((f"cara-{r}", reqs) for r, reqs in component_requirements().items())
    rows.update((f"tele-{r}", reqs) for r, reqs in application_requirements().items())
    rows.update(
        (f"robot-{robots}x{rooms}", robot_requirements(robots, rooms))
        for robots, rooms in TABLE_INSTANCES.values()
    )
    return rows


@pytest.mark.parametrize("row", sorted(TABLE1_COMPONENTS))
def test_table1_component_decisions_pinned(row):
    tool = SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))
    report = tool.check(_table1_rows()[row])
    decisions = [
        (part.verdict.value, part.method) for part in report.realizability.components
    ]
    assert decisions == [("realizable", "obligations")] * TABLE1_COMPONENTS[row]
