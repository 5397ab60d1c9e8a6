"""Judging answers against known answers.

An answer is a verdict, the number of partition repairs and the culprit
ids (the localized core).  ``unknown`` is *undecided*, never wrong; a
definite verdict, repair count or core that contradicts the known answer
is *wrong*.
"""

from __future__ import annotations

from typing import Sequence

from inputs import Expected

OK, WRONG, UNDECIDED, FAILED = "ok", "wrong", "undecided", "failed"


def judge(expected: Expected, verdict: str, repairs: int, culprits: Sequence[str]) -> str:
    if verdict == "unknown":
        return UNDECIDED
    if verdict != expected.verdict:
        return WRONG
    if expected.repairs is not None and repairs != expected.repairs:
        return WRONG
    if repairs < expected.min_repairs:
        return WRONG
    if verdict == "unrealizable" and sorted(culprits) != sorted(expected.culprits):
        return WRONG
    return OK


def judge_report(expected: Expected, report) -> str:
    """Judge a :class:`repro.ConsistencyReport`."""
    return judge(
        expected,
        report.verdict.value,
        report.repair_attempts,
        report.inconsistent_requirements(),
    )


def judge_response(expected: Expected, response: dict) -> str:
    """Judge a serve ``check`` response (failed when it is an error)."""
    if not response.get("ok"):
        return FAILED
    report = response["report"]
    return judge(
        expected, report["verdict"], report["repair_attempts"], report["culprits"]
    )
