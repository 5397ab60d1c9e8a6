"""Differential oracles for the test suites and engine benchmarks.

Every module here is a reference implementation that production code
used to carry behind a mode switch.  Production keeps one path per
engine; the suites compare that path against these oracles on the same
inputs with the same assertions:

* :mod:`reference.sat` — brute-force enumeration and full-clause re-scan
  propagation for the CDCL solver;
* :mod:`reference.safety_game` — concrete letter enumeration and the
  post-hoc losing-region fixpoint for the safety game;
* :mod:`reference.bounded` — the from-scratch bounded-synthesis encoding;
* :mod:`reference.semantics` — Algorithm 1 as one monolithic loop;
* :mod:`reference.batch` — the cold fresh-process batch runner.

Tests import the package as ``reference`` (pytest puts ``tests/`` on
``sys.path``); scripts outside ``tests/`` insert that directory first.
"""
