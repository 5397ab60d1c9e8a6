"""SAT oracles: brute-force enumeration and re-scan propagation."""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional

from repro.sat.cdcl import CDCLSolver, _code
from repro.sat.cnf import CNF, Lit


def solve_brute(cnf: CNF, max_vars: int = 24) -> Optional[Dict[int, bool]]:
    """Return a model as ``{var: bool}`` or ``None`` when unsatisfiable.

    Exhaustively enumerates assignments, so it is the ground truth for
    tiny instances.  Raises :class:`ValueError` when the instance has more
    than *max_vars* variables, to protect against accidental exponential
    blow-up.
    """
    if cnf.num_vars > max_vars:
        raise ValueError(
            f"instance has {cnf.num_vars} variables; brute force capped at {max_vars}"
        )
    variables = list(range(1, cnf.num_vars + 1))
    for bits in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return assignment
    return None


class ScanCDCLSolver(CDCLSolver):
    """:class:`CDCLSolver` with the pre-watcher propagation scheme.

    Every clause containing a freshly falsified literal is re-scanned in
    full.  The search loop, conflict analysis, database reduction and
    assumption cores are inherited, so a verdict that differs from the
    watched solver is a propagation bug.  The per-literal index keeps the
    watcher slots' ``(clause index, literal)`` pair shape — here an
    occurrence list with the literal itself — so growth and database
    reduction work unchanged.
    """

    def _attach(self, clause: List[Lit]) -> int:
        index = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.watches[_code(lit)].append((index, lit))
        return index

    def _propagate(self) -> Optional[int]:
        value = self._value
        clauses = self.clauses
        while self.queue_head < len(self.trail):
            lit = self.trail[self.queue_head]
            self.queue_head += 1
            self.propagations += 1
            for index, _ in self.watches[_code(-lit)]:
                clause = clauses[index]
                self.clause_visits += 1
                unit: Optional[Lit] = None
                satisfied = False
                unassigned = 0
                for other in clause:
                    status = value(other)
                    if status == 1:
                        satisfied = True
                        break
                    if status == 0:
                        unassigned += 1
                        unit = other
                if satisfied:
                    continue
                if unassigned == 0:
                    return index
                if unassigned == 1:
                    self._enqueue(unit, index)
        return None
