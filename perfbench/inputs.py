"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed: the same ``--seed`` gives
byte-identical documents, edit scripts and known answers
(:func:`fingerprint` hashes them, and the self-tests check it).  The known
answers are fixed by construction, never by running the checker:

* ``table1-cold`` — the 22 Table I documents; verdicts are the committed
  ``benchmarks/baseline_core.json`` ones (copied into
  ``expected_table1.json``), repairs are the paper's (rows 4/5 of
  TELEPROMISE need one partition adjustment, every other row none).
* ``faults-seeded`` — documents from :func:`repro.casestudies.generator.
  generate` at a seeded scale inside Table I's ranges.  Every generated
  requirement is a condition/positive-response pair, so a clean document is
  realizable.  Regime ``pair`` appends two requirements over two fresh
  inputs and a fresh output that conflict whenever both inputs hold:
  unrealizable under the heuristic partition, realizable once either input
  is moved to the outputs.  Regime ``contra`` appends an unconditional
  ``X`` / ``not X`` pair: unrealizable, and since the two are the last
  requirements, the localized core is exactly those two.
* ``edit-session`` — a clean generated document per session plus a script
  of add/update/remove edits.  The first edits add an unconditional ``X``,
  then ``not X`` (contradiction present), and remove the ``not X`` again;
  sentence updates follow, whose nouns the seed draws.  The script tracks
  whether a contradiction is present, which fixes the expected verdict and
  core after every edit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

Requirement = Tuple[str, str]

HERE = Path(__file__).resolve().parent

#: Condition adjectives and response verbs of the document generator, in
#: its order: noun *i* always takes entry ``i % len``.  Edits reuse them so
#: that an edited sentence talks about the document's own propositions.
ADJECTIVES = ("available", "valid", "ready", "active", "normal")
VERBS = (
    "triggered",
    "started",
    "updated",
    "reported",
    "issued",
    "selected",
    "activated",
    "stored",
    "displayed",
    "confirmed",
)

#: Noun prefixes of the Table I component documents (numbered nouns such
#: as "pump line 3"); inputs and outputs draw from disjoint lists.
INPUT_PREFIXES = (
    "pump line", "cuff line", "shop line", "article line",
    "reservation line", "info line", "board line",
)
OUTPUT_PREFIXES = (
    "pump action", "shop action", "article action",
    "reservation action", "info action", "board action",
)

#: Table I's scale ranges over its generated rows (CARA components and
#: TELEPROMISE applications): formulas, inputs, outputs.
FORMULA_RANGE = (6, 56)
INPUT_RANGE = (3, 15)
OUTPUT_RANGE = (4, 24)

REGIMES = ("clean", "pair", "contra")


@dataclass(frozen=True)
class Expected:
    """A known answer: verdict, repair expectation and culprit ids."""

    verdict: str
    repairs: Optional[int] = None  # exact repair count, when fixed
    min_repairs: int = 0
    culprits: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Document:
    name: str
    requirements: Tuple[Requirement, ...]
    expected: Expected
    regime: str = ""


# ------------------------------------------------------------- table1-cold
def table1_documents(seed: int) -> List[Document]:
    """The 22 Table I documents in a seeded order."""
    from repro.casestudies import (
        TABLE_INSTANCES,
        application_requirements,
        component_requirements,
        mode_switching_requirements,
        robot_requirements,
    )

    expected = json.loads((HERE / "expected_table1.json").read_text())
    docs: List[Tuple[str, List[Requirement]]] = [
        ("cara-0", mode_switching_requirements())
    ]
    docs += [(f"cara-{row}", reqs) for row, reqs in component_requirements().items()]
    docs += [(f"tele-{row}", reqs) for row, reqs in application_requirements().items()]
    docs += [
        (f"robot-{robots}x{rooms}", robot_requirements(robots, rooms))
        for robots, rooms in TABLE_INSTANCES.values()
    ]
    out = []
    for name, reqs in sorted(docs):
        known = expected[name]
        out.append(
            Document(
                name,
                tuple((str(i), str(t)) for i, t in reqs),
                Expected(known["verdict"], repairs=known["repairs"]),
            )
        )
    random.Random(f"table1:{seed}").shuffle(out)
    return out


# ----------------------------------------------------------- generated docs
@dataclass(frozen=True)
class Vocabulary:
    """Nouns of one generated document, with the generator's word choice."""

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]

    def condition(self, index: int) -> str:
        return f"the {self.inputs[index]} is {ADJECTIVES[index % len(ADJECTIVES)]}"

    def response(self, index: int) -> str:
        return f"the {self.outputs[index]} is {VERBS[index % len(VERBS)]}"


@dataclass(frozen=True)
class Scale:
    """The shape of one generated document (Table I's scale parameters)."""

    formulas: int
    inputs: int
    outputs: int
    eventual: Tuple[int, ...]
    timed: Tuple[Tuple[int, int], ...]


def draw_scale(rng: random.Random) -> Scale:
    """A scale inside Table I's ranges, with 0-2 eventualities and 0-1
    timed response like the Table I rows."""
    formulas = rng.randint(*FORMULA_RANGE)
    inputs = min(rng.randint(*INPUT_RANGE), 2 * formulas)
    outputs = min(rng.randint(*OUTPUT_RANGE), 2 * formulas)
    eventual = tuple(sorted(rng.sample(range(formulas), rng.randint(0, 2))))
    timed = tuple(
        (index, rng.randint(2, 12))
        for index in sorted(rng.sample(range(formulas), rng.randint(0, 1)))
    )
    return Scale(formulas, inputs, outputs, eventual, timed)


def _generated(
    scale: Scale, rng: random.Random, name: str
) -> Tuple[List[Requirement], Vocabulary]:
    """Generate a document of *scale*; *rng* draws its nouns."""
    from repro.casestudies.generator import ComponentDescriptor, generate, noun_pool

    input_nouns = noun_pool(rng.choice(INPUT_PREFIXES), scale.inputs, ())
    output_nouns = noun_pool(rng.choice(OUTPUT_PREFIXES), scale.outputs, ())
    descriptor = ComponentDescriptor(
        name=name,
        num_formulas=scale.formulas,
        input_nouns=input_nouns,
        output_nouns=output_nouns,
        timed=scale.timed,
        eventual=scale.eventual,
    )
    return generate(descriptor), Vocabulary(input_nouns, output_nouns)


#: Scales are drawn once, from fixed design seeds, so that every run sees
#: the same mix of document shapes: per-document cost is heavy-tailed in
#: the shape (a small component with an eventuality sends the
#: satisfiability pre-check into a large tableau), and shapes drawn per
#: run would spread the metrics far beyond any usable bound.  The run
#: seed draws everything else: nouns, the injected target and the order.
FAULT_SCALES = 12
#: Odd, so that p50 falls inside one session's cluster of edits.
SESSION_SCALES = 13

#: Share of ``contra`` documents whose target is a proposition the document
#: already uses ("The X is triggered." where X's own requirements say
#: "triggered"), so the contradiction lands inside the document's large
#: component instead of forming a two-formula component of its own.
CONNECTED_SHARE = 0.2


def design_scale(workload: str, index: int) -> Scale:
    return draw_scale(random.Random(f"{workload}-design:{index}"))


def design_connected(index: int) -> bool:
    """Whether the ``contra`` variant of fault scale *index* is connected."""
    return random.Random(f"faults-connected:{index}").random() < CONNECTED_SHARE


def contradiction_target(vocab: Vocabulary, rng: random.Random, connected: bool) -> str:
    """An output noun whose "triggered" proposition the document already
    uses (*connected*) or does not (a fresh proposition)."""
    pool = [
        noun
        for index, noun in enumerate(vocab.outputs)
        if (VERBS[index % len(VERBS)] == "triggered") == connected
    ]
    return rng.choice(pool)


def fault_document(seed: int, index: int, regime: str) -> Document:
    """The *regime* variant of scale *index*, with nouns drawn from *seed*."""
    rng = random.Random(f"faults:{seed}:{index}:{regime}")
    name = f"doc{index}-{regime}"
    requirements, vocab = _generated(design_scale("faults", index), rng, name)
    target = rng.choice(vocab.outputs)
    if regime == "clean":
        expected = Expected("realizable", repairs=0)
    elif regime == "pair":
        requirements += [
            ("fault-1", f"If the fault button is pressed, the {target} is shown."),
            ("fault-2", f"If the fault switch is off, the {target} is not shown."),
        ]
        expected = Expected("realizable", min_repairs=1)
    else:
        target = contradiction_target(vocab, rng, design_connected(index))
        requirements += [
            ("fault-1", f"The {target} is triggered."),
            ("fault-2", f"The {target} is not triggered."),
        ]
        expected = Expected("unrealizable", culprits=("fault-1", "fault-2"))
    return Document(name, tuple(requirements), expected, regime)


def fault_documents(seed: int) -> List[Document]:
    """One ``faults-seeded`` pass: every design scale in all three regimes,
    in a seeded order."""
    docs = [
        fault_document(seed, index, regime)
        for index in range(FAULT_SCALES)
        for regime in REGIMES
    ]
    random.Random(f"faults-order:{seed}").shuffle(docs)
    return docs


# ------------------------------------------------------------ edit-session
@dataclass(frozen=True)
class Edit:
    """One mutation request and the answer expected from the check after it."""

    request: Dict[str, str]
    expected: Expected
    #: The session's requirement list after the edit (for the differential).
    state: Tuple[Requirement, ...]


@dataclass(frozen=True)
class Session:
    name: str
    document: str  # what the ``load`` request sends
    opening: Expected  # known answer of the first check
    edits: Tuple[Edit, ...] = ()


#: Edits of one session.  The mix is not drawn from recorded client
#: traffic (the repository has none).  It follows the maintenance loop the
#: repository documents for the paper's workflow, ``bench_edit_loop`` in
#: ``benchmarks/bench_service.py``: single-sentence updates cycling through
#: the document, each re-checked.  The session opens with the
#: contradiction that makes the verdict known (add "X", add "not X",
#: remove "not X"), so it has exactly one check with a contradiction
#: present, made on the design document itself.  Such a check localizes
#: the core over the whole document and costs 10-1000x an ordinary edit,
#: and that cost depends on the document's state: a count or a position
#: drawn by the seed would swing every latency metric with it.
CONTRADICTION = ("inject", "contradict", "heal")
MAINTENANCE_UPDATES = 21


def edit_session(seed: int, index: int) -> Session:
    """Session *index*: a clean generated document and its edit script."""
    rng = random.Random(f"session:{seed}:{index}")
    name = f"s{index}"
    requirements, vocab = _generated(design_scale("session", index), rng, name)
    # ``load`` numbers the sentences R1..Rn and drops the final full stop.
    state: Dict[str, str] = {
        f"R{number}": text.rstrip(".")
        for number, (_, text) in enumerate(requirements, start=1)
    }
    document = "\n".join(text for _, text in requirements) + "\n"
    # The updates cycle through the document's requirements; each rewrites
    # one sentence over the document's own nouns.  Which sentence, and
    # which input and output it then names, is fixed by the design seed
    # like the document's shape: an update can split off a small component
    # with an eventuality whose pre-check takes seconds, so drawing these
    # per run would swing throughput by a fifth between seeds.
    design = random.Random(f"session-edits:{index}")
    cycle = list(state)
    design.shuffle(cycle)
    victims = iter(cycle[i % len(cycle)] for i in range(MAINTENANCE_UPDATES))
    target = contradiction_target(vocab, rng, connected=False)
    positive, negative = f"X{index}", f"N{index}"
    script: List[Edit] = []

    for kind in CONTRADICTION + ("update",) * MAINTENANCE_UPDATES:
        if kind == "inject":
            text = f"The {target} is triggered."
            request = {"op": "add", "id": positive, "text": text}
            state[positive] = text
        elif kind == "contradict":
            text = f"The {target} is not triggered."
            request = {"op": "add", "id": negative, "text": text}
            state[negative] = text
        elif kind == "heal":  # "X" alone is realizable, so it stays
            request = {"op": "remove", "id": negative}
            del state[negative]
        else:
            victim = next(victims)
            i = design.randrange(len(vocab.inputs))
            o = design.randrange(len(vocab.outputs))
            text = f"If {vocab.condition(i)}, {vocab.response(o)}."
            request = {"op": "update", "id": victim, "text": text}
            state[victim] = text
        if negative in state:
            expected = Expected("unrealizable", culprits=(positive, negative))
        else:
            expected = Expected("realizable")
        script.append(Edit(request, expected, tuple(state.items())))
    return Session(name, document, Expected("realizable"), tuple(script))


def edit_sessions(seed: int) -> List[Session]:
    """One ``edit-session`` pass: a session per design scale."""
    return [edit_session(seed, index) for index in range(SESSION_SCALES)]


def fingerprint(seed: int) -> str:
    """SHA-256 over every workload's generated inputs for *seed*."""
    payload = {
        "table1": [asdict(doc) for doc in table1_documents(seed)],
        "faults": [asdict(doc) for doc in fault_documents(seed)],
        "sessions": [asdict(s) for s in edit_sessions(seed)],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
