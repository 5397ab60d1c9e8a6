"""Tests of the service subsystem: incremental sessions, parallel batch
checking with sequential-identical verdicts, the JSON-lines serve loop and
the machine-readable CLI output."""

from __future__ import annotations

import asyncio
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    BatchChecker,
    SpecCC,
    SpecCCConfig,
    SpecSession,
    Verdict,
)
from repro.__main__ import main as cli_main
from repro.service.reportjson import report_to_dict
from repro.service.server import AsyncSpecServer, serve, serve_async


TWO_COMPONENTS = [
    ("R1", "If the sensor is active, the valve is opened."),
    ("R2", "If the button is pressed, the lamp is activated."),
]


def make_session(**config) -> SpecSession:
    return SpecSession(SpecCC(SpecCCConfig(**config)))


class TestSpecSession:
    def test_first_check_analyzes_every_component(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        report = session.check()
        assert report.consistent
        assert report.revision == 1
        assert len(report.delta.components) == 2
        assert len(report.delta.reanalyzed) == 2
        assert report.delta.reused == ()

    def test_single_edit_reanalyzes_only_touched_component(self):
        """The acceptance criterion: an edit re-analyzes only the components
        containing the edited requirement's variables, asserted through the
        component-cache hit/miss counters of ``cache_stats()``."""
        SpecCC.clear_caches()  # exact miss counts need a cold outcome cache
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()

        session.update("R2", "If the button is pressed, the lamp is not activated.")
        report = session.check()

        assert report.delta.edited == ("R2",)
        assert [c.identifiers for c in report.delta.reanalyzed] == [("R2",)]
        assert [c.identifiers for c in report.delta.reused] == [("R1",)]
        # The hard evidence: exactly one component analysis ran; the
        # untouched component came straight from the outcome cache.
        assert report.delta.cache_misses == 1
        assert report.delta.cache_hits >= 1

    def test_unedited_recheck_hits_cache_everywhere(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()
        session.update("R1", TWO_COMPONENTS[0][1])  # same text: a no-op
        report = session.check()
        assert report.delta.edited == ()
        assert report.delta.cache_misses == 0
        assert len(report.delta.reused) == 2

    def test_add_and_remove_requirements(self):
        session = SpecSession()
        session.add("R1", "If the sensor is active, the valve is opened.")
        session.check()
        session.add("R2", "If the button is pressed, the lamp is activated.")
        report = session.check()
        assert len(report.delta.components) == 2
        assert [c.identifiers for c in report.delta.reanalyzed] == [("R2",)]

        session.remove("R2")
        report = session.check()
        assert len(report.delta.components) == 1
        assert report.delta.cache_misses == 0  # R1's outcome is still cached

        assert "R2" not in session
        assert session.identifiers() == ("R1",)

    def test_edit_errors(self):
        session = SpecSession()
        session.add("R1", "The valve is opened.")
        with pytest.raises(ValueError):
            session.add("R1", "The valve is opened.")
        with pytest.raises(KeyError):
            session.update("R9", "The valve is opened.")
        with pytest.raises(KeyError):
            session.remove("R9")

    def test_verdict_transition_is_reported(self):
        session = make_session(max_partition_repairs=0, localize_on_failure=False)
        session.add("R1", "If the sensor is active, the valve is opened.")
        # Shares open_valve with R1, so both live in one component.
        session.add("R2", "If the button is pressed, the valve is opened.")
        first = session.check()
        assert first.verdict is Verdict.REALIZABLE

        session.update("R2", "If the sensor is active, the valve is not opened.")
        report = session.check()
        assert report.verdict is Verdict.UNREALIZABLE
        changed = report.delta.changed_verdicts()
        assert len(changed) == 1
        assert changed[0].previous_verdict is Verdict.REALIZABLE
        assert changed[0].verdict is Verdict.UNREALIZABLE

    def test_session_matches_one_shot_pipeline(self):
        session = SpecSession()
        for identifier, sentence in TWO_COMPONENTS:
            session.add(identifier, sentence)
        session.check()
        session.update("R1", "If the sensor is normal, the valve is opened.")
        session.add("R3", "If the alarm is issued, the door is not opened.")
        incremental = session.check()

        fresh = SpecCC().check(session.requirements())
        assert incremental.verdict is fresh.verdict
        assert report_to_dict(incremental.report, timings=False) == report_to_dict(
            fresh, timings=False
        )

    def test_translation_cache_stays_bounded(self):
        """A long edit stream must not accumulate stale memo entries."""
        from repro import Translator

        translator = Translator()
        cache = translator.new_cache()
        cache.max_entries = 8
        requirements = [("R1", "If the sensor is active, the valve is opened.")]
        for index in range(50):
            requirements[0] = (
                "R1",
                f"If the sensor {index} is active, the valve is opened.",
            )
            translator.translate(requirements, cache)
        stats = cache.stats()
        assert stats["parses"] <= cache.max_entries + 1
        assert stats["raw_formulas"] <= cache.max_entries + 1
        assert stats["rewritten"] <= cache.max_entries + 1
        # ... and the surviving entries still serve the current document.
        before = dict(stats)
        translator.translate(requirements, cache)
        assert cache.stats() == before

    def test_load_document(self):
        session = SpecSession()
        added = session.load_document(
            "If the sensor is active, the valve is opened.\n"
            "# a comment\n"
            "If the button is pressed, the lamp is activated.\n"
        )
        assert added == ("R1", "R2")
        assert session.check().consistent


class TestIncrementalSemantics:
    """Session invalidation through the analysis graph: Algorithm 1 runs
    only for sentences whose vocabulary an edit actually intersects,
    asserted via the semantics cache counters — with reports byte-identical
    to a fresh sequential check throughout."""

    #: Two antonym-coupled pairs over disjoint subjects plus one sentence
    #: with no adjective vocabulary at all.
    DOC = [
        ("R1", "If the pulse wave is available, the alarm is sounded."),
        ("R2", "If the pulse wave is unavailable, the alarm is not sounded."),
        ("R3", "If the feed is valid, the lamp is activated."),
        ("R4", "If the feed is invalid, the lamp is not activated."),
        ("R5", "If the button is pressed, the door is opened."),
    ]

    def fresh_bytes(self, session):
        report = SpecCC().check(session.requirements())
        return json.dumps(report_to_dict(report, timings=False), sort_keys=True)

    def session_bytes(self, session_report):
        return json.dumps(
            report_to_dict(session_report.report, timings=False), sort_keys=True
        )

    def make(self):
        session = SpecSession()
        for identifier, sentence in self.DOC:
            session.add(identifier, sentence)
        return session

    def test_first_check_analyses_all_vocabulary_sentences(self):
        session = self.make()
        report = session.check()
        delta = report.delta
        assert delta.semantics_components == 2  # pulse_wave, feed
        assert delta.semantics_reanalysed == ("R1", "R2", "R3", "R4")  # not R5
        assert report.consistent

    def test_edit_reanalyses_only_vocabulary_affected_sentences(self):
        """The acceptance criterion, in miniature: editing one sentence
        re-runs Algorithm 1 only for its own vocabulary component."""
        SpecCC.clear_caches()  # exact counter deltas need a cold memo
        session = self.make()
        session.check()

        session.update("R3", "If the feed is lost, the lamp is activated.")
        report = session.check()
        delta = report.delta
        # Algorithm 1 re-ran for the feed component only: R3 and the
        # untouched-but-coupled R4 — never for the pulse-wave sentences.
        assert delta.semantics_reanalysed == ("R3", "R4")
        assert delta.semantics_misses == 1  # one component replayed
        assert delta.semantics_hits >= 1  # the other came from the memo
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_new_antonym_pair_invalidates_previously_unrelated_sentence(self):
        """An edit that *introduces* a pair under another sentence's subject
        must re-analyse that sentence (its propositions are rewritten
        through the new pair) while leaving the rest untouched."""
        session = SpecSession()
        session.add("R1", "If the signal is high, the alarm is sounded.")
        session.add("R2", "If the sensor is active, the lamp is activated.")
        first = session.check()
        # Single-dependent subjects form no analysis unit (Algorithm 1
        # line 3 skips them), so nothing ran yet.
        assert first.delta.semantics_components == 0
        assert first.delta.semantics_reanalysed == ()
        formula_before = str(first.report.translation.requirements[0].formula)

        # R3's vocabulary joins R1's subject and forms the (high, low) pair.
        session.add("R3", "If the signal is low, the door is opened.")
        report = session.check()
        delta = report.delta
        assert delta.semantics_reanalysed == ("R1", "R3")
        assert "R2" not in delta.semantics_reanalysed
        # The pair really changed R1's translation (single-pair
        # abbreviation renames the proposition), so the invalidation was
        # load-bearing, not cosmetic.
        formula_after = str(report.report.translation.requirements[0].formula)
        assert formula_before != formula_after
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_remove_then_readd_reuses_everything(self):
        session = self.make()
        session.check()
        session.remove("R2")
        session.check()

        session.add("R2", dict(self.DOC)["R2"])
        report = session.check()
        delta = report.delta
        # The re-added sentence restores a component signature the session
        # graph has already seen: no Algorithm 1 replay, no realizability
        # analysis, and bytes identical to a fresh run.
        assert delta.semantics_reanalysed == ()
        assert delta.semantics_misses == 0
        assert delta.cache_misses == 0
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_whitespace_edit_reanalyses_zero_components(self):
        session = self.make()
        before = session.check()
        spaced = dict(self.DOC)["R1"].replace(" is ", "  is ", 1)
        session.update("R1", spaced)
        report = session.check()
        delta = report.delta
        assert delta.edited == ("R1",)
        assert delta.semantics_reanalysed == ()
        assert delta.semantics_misses == 0
        assert delta.cache_misses == 0  # realizability untouched too
        assert all(not c.reanalyzed for c in delta.components)
        # Identical formulas and verdicts (only the echoed text differs).
        assert report.report.translation.formulas == (
            before.report.translation.formulas
        )
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_forty_sentence_session_edit_is_vocabulary_local(self):
        """The acceptance criterion at full size: one edit in a
        40-sentence session replays Algorithm 1 for exactly one of the 20
        vocabulary components (2 of 40 sentences), with the report
        byte-identical to a fresh sequential check."""
        SpecCC.clear_caches()
        session = SpecSession()
        for group in range(1, 21):
            session.add(
                f"A{group}",
                f"If the sensor {group} is active, the device {group} is started.",
            )
            session.add(
                f"B{group}",
                f"If the sensor {group} is inactive, the device {group} is stopped.",
            )
        first = session.check()
        assert first.delta.semantics_components == 20
        assert len(first.delta.semantics_reanalysed) == 40
        # Twenty identical units deduplicate onto two memo nodes: one with
        # fresh antonym-memo pre-states, one with the threaded states
        # every subject after the first observes.
        assert first.delta.semantics_misses == 2

        session.update(
            "A7", "If the sensor 7 is normal, the device 7 is started."
        )
        report = session.check()
        delta = report.delta
        assert delta.semantics_reanalysed == ("A7", "B7")
        assert delta.semantics_misses == 1  # one component of twenty
        assert delta.semantics_hits >= 19  # the rest came from the memo
        assert self.session_bytes(report) == self.fresh_bytes(session)

    def test_batch_and_pool_reports_match_session_after_semantic_edit(self):
        """One document through session, one-shot, and batch (thread and
        persistent-pool backends): identical canonical bytes."""
        from repro.service.pool import WorkerPool

        session = self.make()
        session.check()
        session.update("R1", "If the pulse wave is lost, the alarm is sounded.")
        expected = self.session_bytes(session.check())

        document = [(i, t) for i, t in session.requirements()]
        batch = BatchChecker(workers=2).check_documents([("d", document)])
        assert json.dumps(batch[0].data, sort_keys=True) == expected
        with WorkerPool(shards=2) as pool:
            task = pool.check_documents([("d", document)])[0]
        assert json.dumps(task.data, sort_keys=True) == expected


BATCH_DOCS = [
    ("consistent", "If the sensor is active, the valve is opened.\n"),
    (
        "repairable",
        "If the session is active, the page is displayed.\n"
        "If the notice is posted, the page is not displayed.\n",
    ),
    ("unsat", "The valve is opened.\nThe valve is not opened.\n"),
    (
        "two-components",
        "If the button is pressed, the lamp is activated.\n"
        "If the alarm is issued, the door is not opened.\n",
    ),
]


class TestBatchChecker:
    def _canonical(self, results):
        return [json.dumps(result.data, sort_keys=True) for result in results]

    def test_parallel_is_byte_identical_to_sequential(self):
        sequential = BatchChecker(workers=1).check_documents(BATCH_DOCS)
        parallel = BatchChecker(workers=4).check_documents(BATCH_DOCS)
        assert self._canonical(sequential) == self._canonical(parallel)
        assert [r.name for r in parallel] == [name for name, _ in BATCH_DOCS]
        assert [r.verdict for r in parallel] == [
            "realizable",
            "realizable",
            "unrealizable",
            "realizable",
        ]

    def test_component_warming_does_not_change_results(self):
        warmed = BatchChecker(workers=4, warm_components=True).check_documents(
            BATCH_DOCS
        )
        unwarmed = BatchChecker(workers=4, warm_components=False).check_documents(
            BATCH_DOCS
        )
        assert self._canonical(warmed) == self._canonical(unwarmed)

    def test_requirement_pair_documents(self):
        docs = [("pairs", [("A1", "If the sensor is active, the valve is opened.")])]
        results = BatchChecker(workers=2).check_documents(docs)
        assert results[0].consistent
        assert results[0].data["requirements"][0]["identifier"] == "A1"

    def test_empty_batch(self):
        assert BatchChecker().check_documents([]) == []

    def test_bad_document_becomes_error_record_in_every_backend(self):
        """One unparsable document must not poison its batch: it yields an
        error record, siblings are judged normally, and the records are
        byte-identical across the sequential and thread backends."""
        docs = BATCH_DOCS[:2] + [("broken", [("R1", "")])] + BATCH_DOCS[2:]
        sequential = BatchChecker(workers=1).check_documents(docs)
        threaded = BatchChecker(workers=4).check_documents(docs)
        assert self._canonical(sequential) == self._canonical(threaded)
        broken = {r.name: r for r in threaded}["broken"]
        assert broken.verdict == "error"
        assert not broken.consistent
        assert broken.error["type"] == "StructuredEnglishError"
        good = [r for r in threaded if r.name != "broken"]
        assert [r.verdict for r in good] == [
            "realizable",
            "realizable",
            "unrealizable",
            "realizable",
        ]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BatchChecker(backend="fiber")
        with pytest.raises(ValueError):
            BatchChecker(workers=0)

    def test_custom_dictionary_reaches_every_backend(self):
        """A supplied tool's antonym dictionary must shape batch verdicts
        exactly like session checks — in-process and across processes."""
        from repro.nlp.antonyms import AntonymDictionary

        doc = (
            "If the sensor is active, the valve is opened.\n"
            "If the sensor is normal, the valve is not opened.\n"
        )
        dictionary = AntonymDictionary.default()
        dictionary.add_pair("active", "normal")
        tool = SpecCC(dictionary=dictionary)

        def formulas(checker):
            result = checker.check_documents([("d", doc)])[0]
            return [entry["formula"] for entry in result.data["requirements"]]

        paired = ["G (sensor -> open_valve)", "G (!sensor -> !open_valve)"]
        assert formulas(BatchChecker(tool=tool, workers=1)) == paired
        assert formulas(BatchChecker(tool=tool, workers=2)) == paired
        assert (
            formulas(BatchChecker(tool=tool, workers=2, backend="process"))
            == paired
        )
        # ... while the default dictionary keeps the adjectives apart.
        assert formulas(BatchChecker(workers=1)) != paired

    def test_process_backend_matches_thread_backend(self):
        docs = BATCH_DOCS[:2]
        thread = BatchChecker(workers=1).check_documents(docs)
        process = BatchChecker(workers=2, backend="process").check_documents(docs)
        assert self._canonical(thread) == self._canonical(process)


def run_serve(requests):
    out = io.StringIO()
    serve(
        io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        out,
    )
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServe:
    def test_session_lifecycle_over_the_wire(self):
        SpecCC.clear_caches()  # the test asserts an exact miss count
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1]},
                {"op": "add", "id": "R2", "text": TWO_COMPONENTS[1][1]},
                {"op": "check", "timings": False},
                {"op": "update", "id": "R2", "text": "If the button is pressed, the lamp is not activated."},
                {"op": "check", "timings": False},
                {"op": "stats"},
                {"op": "shutdown"},
            ]
        )
        assert all(response["ok"] for response in responses)
        first, second = responses[2], responses[4]
        assert first["report"]["verdict"] == "realizable"
        assert first["revision"] == 1
        assert second["delta"]["edited"] == ["R2"]
        assert second["delta"]["reanalyzed"] == 1
        assert second["delta"]["reused"] == 1
        assert second["delta"]["cache_misses"] == 1
        stats = responses[5]
        assert stats["cache"]["component_cache"]["hits"] >= 1
        assert stats["size"] == 2

    def test_batch_op(self):
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "workers": 2,
                    "documents": [
                        {"name": "a", "text": BATCH_DOCS[0][1]},
                        {"name": "b", "text": BATCH_DOCS[2][1]},
                    ],
                },
            ]
        )
        results = responses[0]["results"]
        assert [entry["name"] for entry in results] == ["a", "b"]
        assert results[0]["report"]["consistent"] is True
        assert results[1]["report"]["consistent"] is False

    def test_errors_do_not_kill_the_loop(self):
        responses = run_serve(
            [
                {"op": "remove", "id": "R9"},
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},  # missing text
                {"op": "add", "id": "R1", "text": "The valve is opened."},
            ]
        )
        assert [response["ok"] for response in responses] == [
            False,
            False,
            False,
            True,
        ]

    def test_malformed_json_line(self):
        out = io.StringIO()
        serve(io.StringIO("this is not json\n[1,2]\n"), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [response["ok"] for response in responses] == [False, False]

    def test_reset(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened."},
                {"op": "reset"},
                {"op": "stats"},
            ]
        )
        assert responses[1]["size"] == 0
        assert responses[2]["size"] == 0

    def test_stats_surface_pool_counters(self):
        responses = run_serve([{"op": "stats"}])
        assert "pools" in responses[0]  # pool.stats() rows, [] before use
        # The op speaks the shared stats format: cache layers + engine work.
        assert "semantics" in responses[0]["cache"]
        assert "synthesis" in responses[0]

    def test_check_reports_semantics_delta(self):
        responses = run_serve(
            [
                {"op": "add", "id": "R1", "text": "If the feed is valid, the lamp is activated."},
                {"op": "add", "id": "R2", "text": "If the feed is invalid, the lamp is not activated."},
                {"op": "check", "timings": False},
                {"op": "update", "id": "R1", "text": "If the feed is valid, the lamp is  activated."},
                {"op": "check", "timings": False},
                {"op": "shutdown"},
            ]
        )
        first, second = responses[2], responses[4]
        assert first["delta"]["semantics_reanalysed"] == ["R1", "R2"]
        assert first["delta"]["semantics_components"] == 1
        # Whitespace-only edit: Algorithm 1 re-ran for nothing.
        assert second["delta"]["semantics_reanalysed"] == []


def run_serve_async(lines):
    """Drive the asyncio front end over string streams; parsed responses."""
    out = io.StringIO()
    payload = "\n".join(
        json.dumps(line) if isinstance(line, dict) else line for line in lines
    )
    serve_async(io.StringIO(payload + "\n"), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def normalize(response: dict) -> str:
    """Canonical response bytes minus the protocol's volatile fields
    (one shared normalize_response in server.py, so this cannot drift
    from the benchmark's identical comparison)."""
    from repro.service.server import normalize_response

    return json.dumps(normalize_response(response), sort_keys=True)


def client_script(client: int):
    """A small edit/check session over a client-private variable pool."""
    return [
        {
            "op": "add",
            "id": "R1",
            "text": f"If the sensor {client} is active, the device {client} is started.",
        },
        {"op": "check", "timings": False},
        {
            "op": "update",
            "id": "R1",
            "text": f"If the sensor {client} is normal, the device {client} is started.",
        },
        {"op": "check", "timings": False},
    ]


class TestServeAsync:
    def test_session_lifecycle_single_client(self):
        responses = run_serve_async(
            [
                {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1]},
                {"op": "check", "timings": False},
                {"op": "shutdown"},
            ]
        )
        assert all(response["ok"] for response in responses)
        assert all(response["session"] == "default" for response in responses)
        assert responses[1]["report"]["verdict"] == "realizable"
        assert responses[2]["op"] == "shutdown"

    def test_rid_echoed_for_correlation(self):
        responses = run_serve_async(
            [{"op": "add", "id": "R1", "text": "The valve is opened.", "rid": 42}]
        )
        assert responses[0]["rid"] == 42

    def test_malformed_input_does_not_kill_the_async_daemon(self):
        """The hardening satellite, async half: bad JSON, a non-object
        line, a missing op and a missing field each produce an error
        response and the loop keeps serving."""
        responses = run_serve_async(
            [
                "this is not json",
                "[1, 2]",
                {"id": "R1", "text": "The valve is opened."},  # no op
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},  # missing text
                {"op": "add", "id": "R1", "text": "The valve is opened."},
            ]
        )
        assert [response["ok"] for response in responses] == [
            False,
            False,
            False,
            False,
            False,
            True,
        ]
        assert "malformed JSON" in responses[0]["error"]

    def test_sessions_are_isolated(self):
        responses = run_serve_async(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened.", "session": "a"},
                {"op": "add", "id": "R1", "text": "The door is opened.", "session": "b"},
                {"op": "stats", "session": "a"},
            ]
        )
        assert all(response["ok"] for response in responses)
        stats = responses[-1]
        assert stats["size"] == 1  # session a sees only its own requirement
        assert stats["sessions"] == 2

    def test_eight_concurrent_clients_match_sequential_serve(self):
        """The acceptance criterion: >= 8 concurrent clients multiplexed
        over one async loop, per-session responses identical to each
        session running alone through the sequential serve loop."""
        clients = 8
        scripts = {f"c{index}": client_script(index) for index in range(clients)}
        interleaved = []
        for step in range(max(len(s) for s in scripts.values())):
            for name, script in scripts.items():
                if step < len(script):
                    interleaved.append(
                        {**script[step], "session": name, "rid": step}
                    )
        interleaved.append({"op": "shutdown"})

        responses = run_serve_async(interleaved)
        by_session = {name: [] for name in scripts}
        for response in responses:
            if response.get("session") in by_session:
                by_session[response["session"]].append(response)
        for name, script in scripts.items():
            got = sorted(by_session[name], key=lambda r: r["rid"])
            assert len(got) == len(script), name
            reference = run_serve(script)
            assert [normalize(r) for r in got] == [
                normalize(r) for r in reference
            ], name

    def test_concurrent_handle_requests_keep_per_session_order(self):
        """Direct API: fire all clients' requests through asyncio.gather;
        per-session revisions must still be strictly sequential."""

        async def drive():
            server = AsyncSpecServer()
            tasks = []
            for client in range(8):
                for request in client_script(client):
                    tasks.append(
                        server.handle_request({**request, "session": f"c{client}"})
                    )
            return await asyncio.gather(*tasks)

        responses = asyncio.run(drive())
        assert all(response["ok"] for response in responses)
        for client in range(8):
            revisions = [
                response["revision"]
                for response in responses
                if response["session"] == f"c{client}" and "revision" in response
            ]
            assert revisions == [1, 2]

    def test_batch_op_defaults_to_worker_pool(self):
        from repro.service.pool import shared_pool, shutdown_shared_pools

        try:
            responses = run_serve_async(
                [
                    {
                        "op": "batch",
                        "workers": 2,
                        "documents": [
                            {"name": "a", "text": BATCH_DOCS[0][1]},
                            {"name": "b", "text": BATCH_DOCS[2][1]},
                        ],
                    },
                ]
            )
            results = responses[0]["results"]
            assert [entry["name"] for entry in results] == ["a", "b"]
            assert results[0]["report"]["consistent"] is True
            assert results[1]["report"]["consistent"] is False
            # The async front end routed the batch through the shared pool.
            assert shared_pool(shards=2).stats()["tasks"] >= 2
        finally:
            shutdown_shared_pools()

    def test_invalid_op_does_not_allocate_a_session(self):
        """Invalid traffic must not grow daemon state: the op is validated
        before any per-session allocation happens."""

        async def drive():
            server = AsyncSpecServer()
            bad = await server.handle_request(
                {"op": "frobnicate", "session": "ghost"}
            )
            missing = await server.handle_request({"session": "ghost2"})
            good = await server.handle_request({"op": "stats", "session": "real"})
            return server.session_names, bad, missing, good

        names, bad, missing, good = asyncio.run(drive())
        assert not bad["ok"] and not missing["ok"]
        assert good["ok"]
        assert names == ("real",)

    def test_session_count_is_bounded(self):
        async def drive():
            server = AsyncSpecServer(max_sessions=2)
            return [
                await server.handle_request({"op": "stats", "session": name})
                for name in ("a", "b", "c")
            ]

        responses = asyncio.run(drive())
        assert [response["ok"] for response in responses] == [True, True, False]
        assert "too many sessions" in responses[2]["error"]

    def test_batch_workers_clamped(self, monkeypatch):
        """A client-chosen worker count must not be able to spawn pools
        (and their persistent processes) without bound."""
        import repro.service.server as server_module

        captured = {}
        real = server_module.BatchChecker

        def spy(*args, **kwargs):
            captured.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "BatchChecker", spy)
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "workers": 999,
                    "documents": [{"name": "a", "text": "The valve is opened."}],
                }
            ]
        )
        assert responses[0]["ok"]
        assert captured["workers"] == server_module._Server.MAX_BATCH_WORKERS

    def test_shutdown_drains_pending_requests(self):
        script = [
            {"op": "add", "id": "R1", "text": TWO_COMPONENTS[0][1], "session": "a"},
            {"op": "check", "timings": False, "session": "a"},
            {"op": "shutdown"},
            {"op": "add", "id": "R2", "text": "ignored", "session": "a"},
        ]
        responses = run_serve_async(script)
        # Everything before the shutdown is answered; nothing after is read.
        assert len(responses) == 3
        assert [response["op"] for response in responses[:3]] == [
            "add",
            "check",
            "shutdown",
        ]


class TestServeHardening:
    """The fault-tolerant serving tier at the protocol surface: health
    ops, structured error codes, timeouts, oversized guards and
    backpressure — never a dropped connection."""

    def test_ping_sync(self):
        responses = run_serve([{"op": "ping"}, {"op": "health"}])
        for response in responses:
            assert response["ok"] is True
            assert response["status"] == "ok"
            assert response["uptime_seconds"] >= 0
            assert response["sessions"] == 1
            assert response["session_stats"]["size"] == 0
            supervision = response["supervision"]
            assert supervision["degraded"] is False
            for key in ("restarts", "retries", "timeouts", "degraded_tasks"):
                assert supervision[key] == 0

    def test_ping_async(self):
        responses = run_serve_async(
            [
                {"op": "add", "id": "R1", "text": "The valve is opened.", "session": "a"},
                {"op": "ping", "session": "a"},
            ]
        )
        ping = responses[-1]
        assert ping["ok"] is True
        assert ping["status"] == "ok"
        assert ping["sessions"] == 1
        assert ping["session_stats"]["size"] == 1
        assert ping["session_stats"]["pending_edits"] == 1
        assert "supervision" in ping

    def test_error_codes_sync(self):
        out = io.StringIO()
        payload = (
            "this is not json\n"
            + json.dumps({"op": "frobnicate"})
            + "\n"
            + json.dumps({"op": "add", "id": "R1"})
            + "\n"
        )
        serve(io.StringIO(payload), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, False]
        assert [r["code"] for r in responses] == [
            "bad_json",
            "bad_request",
            "bad_request",
        ]
        assert "malformed JSON" in responses[0]["error"]

    def test_error_codes_async(self):
        responses = run_serve_async(
            [
                "this is not json",
                {"op": "frobnicate"},
                {"op": "add", "id": "R1"},
            ]
        )
        assert [r["ok"] for r in responses] == [False, False, False]
        assert [r["code"] for r in responses] == [
            "bad_json",
            "bad_request",
            "bad_request",
        ]

    def test_oversized_request_sync(self):
        out = io.StringIO()
        big = json.dumps({"op": "add", "id": "R1", "text": "x" * 4096})
        payload = big + "\n" + json.dumps({"op": "ping"}) + "\n"
        serve(io.StringIO(payload), out, max_request_bytes=1024)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        # The oversized line gets a structured error; the loop lives on.
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert responses[1]["ok"] is True

    def test_oversized_request_async(self):
        from repro.service.server import serve_async_loop

        async def drive():
            out = io.StringIO()
            server = AsyncSpecServer(max_request_bytes=1024)
            big = json.dumps({"op": "add", "id": "R1", "text": "x" * 4096})
            stdin = io.StringIO(big + "\n" + json.dumps({"op": "ping"}) + "\n")
            await serve_async_loop(stdin, out, server=server)
            return [json.loads(line) for line in out.getvalue().splitlines()]

        responses = asyncio.run(drive())
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert any(r["ok"] and r.get("op") == "ping" for r in responses[1:])

    def test_request_timeout_sync(self):
        import time as time_module

        from repro.service.server import _Server

        class SlowServer(_Server):
            def _op_stall(self, request):
                time_module.sleep(0.8)
                return {}

        out = io.StringIO()
        payload = (
            json.dumps({"op": "stall"}) + "\n" + json.dumps({"op": "ping"}) + "\n"
        )
        # The ping queues behind the stalled handler thread (strictly
        # sequential semantics), so the stall must end inside the ping's
        # own deadline window for it to succeed.
        serve(
            io.StringIO(payload),
            out,
            server=SlowServer(),
            request_timeout=0.6,
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "timeout"
        # The loop answered the next request instead of dropping it.
        assert responses[1]["ok"] is True

    def test_request_timeout_async(self):
        import time as time_module

        from repro.service.server import _Server

        class SlowServer(_Server):
            def _op_check(self, request):
                time_module.sleep(0.8)
                return {}

        async def drive():
            server = AsyncSpecServer(request_timeout=0.2)
            slow = SlowServer(server.tool)
            server._sessions["default"] = slow
            server._locks["default"] = asyncio.Lock()
            first = await server.handle_request({"op": "check"})
            second = await server.handle_request({"op": "add", "id": "R1", "text": "The valve is opened."})
            return first, second

        first, second = asyncio.run(drive())
        assert first["ok"] is False
        assert first["code"] == "timeout"
        assert second["ok"] is True  # session still serves after a timeout

    def test_backpressure_overloaded_async(self):
        import time as time_module

        from repro.service.server import _Server

        class SlowServer(_Server):
            def _op_check(self, request):
                time_module.sleep(0.3)
                return {}

        async def drive():
            server = AsyncSpecServer(max_queue=1)
            slow = SlowServer(server.tool)
            server._sessions["default"] = slow
            server._locks["default"] = asyncio.Lock()
            return await asyncio.gather(
                *(server.handle_request({"op": "check", "rid": i}) for i in range(3))
            )

        responses = asyncio.run(drive())
        by_rid = sorted(responses, key=lambda r: r["rid"])
        assert by_rid[0]["ok"] is True  # the in-flight request completes
        rejected = [r for r in by_rid[1:] if not r["ok"]]
        assert rejected, "queue bound must reject excess requests"
        assert all(r["code"] == "overloaded" for r in rejected)
        # Rejection is backpressure, not a broken session: once drained,
        # the same session serves again.
        followup = asyncio.run(
            AsyncSpecServer().handle_request(
                {"op": "add", "id": "R1", "text": "The valve is opened."}
            )
        )
        assert followup["ok"] is True

    def test_batch_op_isolates_document_errors(self):
        responses = run_serve(
            [
                {
                    "op": "batch",
                    "documents": [
                        {"name": "good", "text": BATCH_DOCS[0][1]},
                        {"name": "bad", "requirements": [["R1", ""]]},
                        {"name": "also-good", "text": BATCH_DOCS[2][1]},
                    ],
                }
            ]
        )
        assert responses[0]["ok"] is True
        results = responses[0]["results"]
        assert [entry["name"] for entry in results] == [
            "good",
            "bad",
            "also-good",
        ]
        assert results[0]["report"]["consistent"] is True
        assert results[1]["report"]["verdict"] == "error"
        assert results[1]["report"]["error"]["type"] == "StructuredEnglishError"
        assert results[2]["report"]["verdict"] == "unrealizable"

    def test_session_stats_shape(self):
        session = SpecSession()
        session.add("R1", "The valve is opened.")
        stats = session.stats()
        assert stats["size"] == 1
        assert stats["revision"] == 0
        assert stats["pending_edits"] == 1
        assert stats["age_seconds"] >= 0
        session.check()
        assert session.stats()["pending_edits"] == 0
        assert session.stats()["revision"] == 1

    # ------------------------------------------------- protocol bugfixes
    def test_multibyte_oversized_sync(self):
        """`max_request_bytes` bounds *bytes*, not characters: a line
        whose character count is under the bound but whose UTF-8
        encoding is over it must be rejected as oversized (pre-fix,
        ``len(line)`` counted characters and multi-byte requests up to
        4x the bound slipped past)."""
        out = io.StringIO()
        big = json.dumps(
            {"op": "add", "id": "R1", "text": "é" * 700}, ensure_ascii=False
        )
        assert len(big) <= 1024 < len(big.encode("utf-8"))
        payload = big + "\n" + json.dumps({"op": "ping"}) + "\n"
        serve(io.StringIO(payload), out, max_request_bytes=1024)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert responses[1]["ok"] is True

    def test_multibyte_oversized_async(self):
        from repro.service.server import serve_async_loop

        async def drive():
            out = io.StringIO()
            server = AsyncSpecServer(max_request_bytes=1024)
            big = json.dumps(
                {"op": "add", "id": "R1", "text": "é" * 700}, ensure_ascii=False
            )
            assert len(big) <= 1024 < len(big.encode("utf-8"))
            stdin = io.StringIO(big + "\n" + json.dumps({"op": "ping"}) + "\n")
            await serve_async_loop(stdin, out, server=server)
            return [json.loads(line) for line in out.getvalue().splitlines()]

        responses = asyncio.run(drive())
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oversized"
        assert any(r["ok"] and r.get("op") == "ping" for r in responses[1:])

    def test_ascii_lines_under_bound_still_pass(self):
        """The byte-exact check must not reject what the old check
        accepted: ASCII lines at or under the bound go through."""
        out = io.StringIO()
        request = json.dumps({"op": "add", "id": "R1", "text": "x" * 200})
        serve(
            io.StringIO(request + "\n"),
            out,
            # The raw line includes its newline, and always has.
            max_request_bytes=len(request) + 1,
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is True

    def test_timeout_does_not_interleave_session_requests(self):
        """A timed-out request abandons the *response*, not the handler:
        the session's next request must queue until the abandoned
        handler thread actually finishes (pre-fix, the session lock was
        released on timeout and the next request interleaved with the
        still-running handler, violating strictly-sequential-per-session
        semantics)."""
        import threading

        from repro.service.server import _Server

        order = []
        release = threading.Event()

        class SlowServer(_Server):
            def _op_check(self, request):  # offloaded: runs on a thread
                order.append("stall:start")
                release.wait(5.0)
                order.append("stall:end")
                return {}

            def _op_add(self, request):  # inline: the probing request
                order.append("probe")
                return {"size": 0}

        async def drive():
            server = AsyncSpecServer(request_timeout=0.2)
            slow = SlowServer(server.tool)
            server._sessions["default"] = slow
            server._locks["default"] = asyncio.Lock()
            first = await server.handle_request({"op": "check"})
            assert first["code"] == "timeout"
            # The timed-out handler is still blocked on its thread.
            # Issue the session's next request, give it every chance to
            # interleave, and only then let the handler finish.
            probe = asyncio.ensure_future(
                server.handle_request({"op": "add", "id": "R1", "text": "x"})
            )
            await asyncio.sleep(0.3)
            interleaved = "probe" in order
            release.set()
            second = await probe
            return first, second, interleaved

        first, second, interleaved = asyncio.run(drive())
        assert first["ok"] is False
        assert not interleaved, "request ran while the timed-out handler was live"
        assert second["ok"] is True
        assert order == ["stall:start", "stall:end", "probe"]

    def test_batch_malformed_entry_is_bad_request_sync(self):
        """Non-object batch entries are the client's fault: they must be
        classified 'bad_request', not 'internal' (pre-fix, a list/string
        entry raised AttributeError deep in _op_batch)."""
        responses = run_serve(
            [
                {"op": "batch", "documents": "not a list"},
                {"op": "batch", "documents": [["R1", "The valve is opened."]]},
                {
                    "op": "batch",
                    "documents": [
                        {"name": "ok", "text": "The valve is opened."},
                        "nope",
                    ],
                },
                {
                    "op": "batch",
                    "backend": "process-fresh",
                    "documents": [{"name": "ok", "text": "The valve is opened."}],
                },
            ]
        )
        assert [r["ok"] for r in responses] == [False, False, False, False]
        assert [r["code"] for r in responses] == ["bad_request"] * 4
        assert "documents[1]" in responses[2]["error"]
        assert "unknown backend" in responses[3]["error"]

    def test_batch_malformed_entry_is_bad_request_async(self):
        responses = run_serve_async([{"op": "batch", "documents": [42]}])
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "bad_request"


class TestCLI:
    def test_check_json(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("If the sensor is active, the valve is opened.\n")
        code = cli_main(["check", str(document), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "realizable"
        assert data["partition"] == {
            "inputs": ["active_sensor"],
            "outputs": ["open_valve"],
        }
        assert data["cache"]["component_cache"]["misses"] >= 1

    def test_check_json_inconsistent_exit_code(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\nThe valve is not opened.\n")
        code = cli_main(["check", str(document), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "unrealizable"
        assert data["culprits"] == ["R1", "R2"]

    def test_batch_directory(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text(BATCH_DOCS[0][1])
        (tmp_path / "b.txt").write_text(BATCH_DOCS[2][1])
        out_file = tmp_path / "results.jsonl"
        code = cli_main(
            ["batch", str(tmp_path), "--workers", "2", "--output", str(out_file)]
        )
        assert code == 1  # one document is inconsistent
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [entry["name"] for entry in lines] == ["a.txt", "b.txt"]
        assert lines[0]["report"]["consistent"] is True
        assert lines[1]["report"]["consistent"] is False

    def test_check_json_stats_flag(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text(
            "If the feed is valid, the lamp is activated.\n"
            "If the feed is invalid, the lamp is not activated.\n"
        )
        code = cli_main(["check", str(document), "--json", "--stats"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        stats = data["stats"]
        assert stats["cache"]["semantics"]["misses"] >= 1
        assert stats["cache"]["component_cache"]["misses"] >= 1
        assert "sat_propagations" in stats["synthesis"]

    def test_check_textual_stats_flag(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\n")
        assert cli_main(["check", str(document), "--stats"]) == 0
        assert '"semantics"' in capsys.readouterr().out

    def test_batch_empty_directory(self, tmp_path):
        assert cli_main(["batch", str(tmp_path)]) == 2

    def test_serve_accepts_async_flag(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["serve", "--async"])
        assert args.use_async is True
        assert build_parser().parse_args(["serve"]).use_async is False

    def test_serve_accepts_tcp_flags(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--tcp", "127.0.0.1:0",
                "--rate-limit", "5",
                "--rate-burst", "10",
                "--max-connections", "2",
                "--no-client-shutdown",
                "--workers-bind", "127.0.0.1:0",
                "--min-workers", "2",
            ]
        )
        assert args.tcp == "127.0.0.1:0"
        assert args.rate_limit == 5.0
        assert args.rate_burst == 10.0
        assert args.max_connections == 2
        assert args.no_client_shutdown is True
        assert args.workers_bind == "127.0.0.1:0"
        assert args.min_workers == 2
        assert build_parser().parse_args(["serve"]).tcp is None

    def test_worker_subcommand_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["worker", "--connect", "host:7401", "--name", "w0", "--reconnect"]
        )
        assert args.connect == "host:7401"
        assert args.name == "w0"
        assert args.reconnect is True

    def test_batch_accepts_remote_backend(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            [
                "batch", ".",
                "--backend", "remote",
                "--bind", "127.0.0.1:0",
                "--min-workers", "2",
            ]
        )
        assert args.backend == "remote"
        assert args.bind == "127.0.0.1:0"
        assert args.min_workers == 2

    def test_json_rejects_textual_flags(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("The valve is opened.\n")
        with pytest.raises(SystemExit):
            cli_main(["check", str(document), "--json", "--ltl"])
        assert "--json cannot be combined" in capsys.readouterr().err


class TestCacheStats:
    def test_stats_shape_and_movement(self):
        stats = SpecCC.cache_stats()
        for key in ("size", "capacity", "hits", "misses"):
            assert key in stats["component_cache"]
            assert key in stats["semantics"]
        assert "size" in stats["automaton_cache"]
        assert stats["interned_nodes"] >= 0

        before = SpecCC.cache_stats()["component_cache"]
        tool = SpecCC()
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        after = SpecCC.cache_stats()["component_cache"]
        assert after["hits"] > before["hits"]  # second run served from cache

    def test_semantics_memo_moves_and_clears(self):
        SpecCC.clear_caches()  # the memo may be warm from earlier tests
        tool = SpecCC()
        requirements = [
            ("R1", "If the feed is valid, the lamp is activated."),
            ("R2", "If the feed is invalid, the lamp is not activated."),
        ]
        before = SpecCC.cache_stats()["semantics"]
        tool.check(requirements)
        middle = SpecCC.cache_stats()["semantics"]
        assert middle["misses"] > before["misses"]  # Algorithm 1 ran
        tool.check(requirements)
        after = SpecCC.cache_stats()["semantics"]
        assert after["misses"] == middle["misses"]  # ... exactly once
        assert after["hits"] > middle["hits"]

        SpecCC.clear_caches()
        cleared = SpecCC.cache_stats()["semantics"]
        assert (cleared["size"], cleared["hits"], cleared["misses"]) == (0, 0, 0)

    def test_dictionary_mutation_invalidates_raw_formulas(self):
        """The stateless API must pick up dictionary edits even through
        the translator's persistent default graph: raw formulas read the
        dictionary directly (curated-positive fallback), so its content
        signature is part of their node key."""
        from repro.nlp.antonyms import AntonymDictionary

        requirements = [("R1", "If the slot is occupied, the alarm is sounded.")]
        tool = SpecCC()
        before = str(tool.check(requirements).translation.formulas[0])
        tool.translator.dictionary.add_pair("vacant", "occupied")
        after = str(tool.check(requirements).translation.formulas[0])

        fresh_dictionary = AntonymDictionary.default()
        fresh_dictionary.add_pair("vacant", "occupied")
        fresh = SpecCC(dictionary=fresh_dictionary).check(requirements)
        assert after == str(fresh.translation.formulas[0])
        assert after != before  # the pair really rewrote the proposition

    def test_clear_translation_cache_drops_the_tool_graph(self):
        tool = SpecCC()
        tool.check([("R1", "If the sensor is active, the valve is opened.")])
        assert tool.translation_cache_stats()["parses"] == 1
        tool.clear_translation_cache()
        assert all(size == 0 for size in tool.translation_cache_stats().values())

    def test_one_shot_tool_is_incremental_across_checks(self):
        """SpecCC.check rides the translator's own graph: repeating a
        document re-parses nothing."""
        tool = SpecCC()
        requirements = [("R1", "If the sensor is active, the valve is opened.")]
        tool.check(requirements)
        sizes = tool.translation_cache_stats()
        assert sizes["parses"] == 1
        graph = tool.translator.cache().graph
        hits_before = graph.stats()["parses"].hits
        tool.check(requirements)
        assert graph.stats()["parses"].hits > hits_before
        assert tool.translation_cache_stats() == sizes


def test_import_repro_leaves_the_service_tier_unloaded():
    """``import repro`` stays cheap; the service exports load on first use."""
    program = (
        "import sys, repro;"
        "print('repro.service' in sys.modules);"
        "from repro import WorkerPool;"
        "print(WorkerPool.__module__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).parent.parent,
    )
    assert result.stdout.split() == ["False", "repro.service.pool"]
