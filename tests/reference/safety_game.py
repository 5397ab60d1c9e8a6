"""Safety-game oracles: concrete letters and the post-hoc fixpoint.

:class:`ReferenceGame` is the production :class:`_Game` with either or
both of its optimisations switched back to the plain construction:

* ``exploration="concrete"`` enumerates every subset of the declared
  alphabet instead of the guard support (the pre-quotient game);
* ``solving="offline"`` explores the whole arena first and computes the
  losing region afterwards by a ``while changed`` fixpoint, with no early
  abort.

The defaults (``"partial"``, ``"onthefly"``) reproduce production, so each
differential test switches exactly the scheme it checks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.automata.buchi import BuchiAutomaton
from repro.automata.gpvw import translate
from repro.logic.ast import Formula, Not
from repro.synthesis.safety_game import (
    CountingFunction,
    SafetyGameResult,
    StateSpaceLimit,
    _Game,
)

EXPLORATION_MODES = ("partial", "concrete")
SOLVING_MODES = ("onthefly", "offline")


def solve(
    specification: Formula,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
    exploration: str = "partial",
    solving: str = "onthefly",
) -> SafetyGameResult:
    """:func:`repro.synthesis.safety_game.solve` with selectable schemes."""
    automaton = translate(Not(specification)).degeneralize()
    return solve_automaton(
        automaton, inputs, outputs,
        bound=bound, max_positions=max_positions,
        exploration=exploration, solving=solving,
    )


def solve_automaton(
    automaton: BuchiAutomaton,
    inputs: Sequence[str],
    outputs: Sequence[str],
    bound: int = 2,
    max_positions: int = 200_000,
    exploration: str = "partial",
    solving: str = "onthefly",
) -> SafetyGameResult:
    if exploration not in EXPLORATION_MODES:
        raise ValueError(f"unknown exploration mode: {exploration!r}")
    if solving not in SOLVING_MODES:
        raise ValueError(f"unknown solving mode: {solving!r}")
    rejecting = automaton.accepting_sets[0] if automaton.accepting_sets else set()
    game = ReferenceGame(
        automaton, rejecting, tuple(sorted(inputs)), tuple(sorted(outputs)),
        bound, max_positions, exploration, solving,
    )
    return game.solve()


class ReferenceGame(_Game):
    def __init__(
        self,
        automaton: BuchiAutomaton,
        rejecting: Set[int],
        inputs: Tuple[str, ...],
        outputs: Tuple[str, ...],
        bound: int,
        max_positions: int,
        exploration: str,
        solving: str,
    ) -> None:
        # Read by _enumerated, which the base constructor calls.
        self.exploration = exploration
        self.solving = solving
        super().__init__(automaton, rejecting, inputs, outputs, bound, max_positions)

    def _enumerated(self, names: Tuple[str, ...], support: int) -> Tuple[str, ...]:
        if self.exploration == "concrete":
            return names  # the row projection is then the identity
        return super()._enumerated(names, support)

    def _explore(self) -> None:
        if self.solving == "onthefly":
            super()._explore()
            return
        worklist = [self.initial]
        self.successors[self.initial] = {}
        while worklist:
            position = worklist.pop()
            table = self.successors[position]
            for sigma_mask in self.input_masks:
                row: Dict[int, Optional[CountingFunction]] = {}
                for out_mask in self.output_masks:
                    self.letters_enumerated += 1
                    successor = self._update_mask(position, sigma_mask | out_mask)
                    row[out_mask] = successor
                    if successor is not None and successor not in self.successors:
                        if len(self.successors) >= self.max_positions:
                            raise StateSpaceLimit(
                                f"safety game exceeded {self.max_positions} positions"
                            )
                        self.successors[successor] = {}
                        worklist.append(successor)
                table[sigma_mask] = row
        self.losing = self._offline_losing()

    def _offline_losing(self) -> Set[CountingFunction]:
        """The post-hoc O(positions^2) fixpoint."""
        losing: Set[CountingFunction] = set()
        changed = True
        while changed:
            changed = False
            for position, table in self.successors.items():
                if position in losing:
                    continue
                if self._is_losing(table, losing):
                    losing.add(position)
                    changed = True
        return losing

    def _is_losing(
        self,
        table: Dict[int, Dict[int, Optional[CountingFunction]]],
        losing: Set[CountingFunction],
    ) -> bool:
        for row in table.values():
            if all(
                successor is None or successor in losing
                for successor in row.values()
            ):
                return True
        return False
