"""Tests for the case-study corpora and the requirement generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import (
    COMPONENT_DESCRIPTORS,
    GOLD_FORMULAS,
    MODE_SWITCHING_REQUIREMENTS,
    application_requirements,
    component_requirements,
    generate,
    noun_pool,
    robot_requirements,
)
from repro.casestudies.generator import ComponentDescriptor
from repro.logic import parse
from repro.nlp import parse_sentence
from repro.translate import TranslationOptions, Translator


class TestCorpusWellFormed:
    def test_mode_switching_is_parseable(self):
        for identifier, text in MODE_SWITCHING_REQUIREMENTS:
            parse_sentence(text)  # raises on grammar violations

    def test_gold_formulas_are_parseable(self):
        for identifier, text in GOLD_FORMULAS.items():
            parse(text)

    def test_gold_covers_every_requirement(self):
        identifiers = {identifier for identifier, _ in MODE_SWITCHING_REQUIREMENTS}
        assert identifiers == set(GOLD_FORMULAS)

    def test_thirty_requirements(self):
        assert len(MODE_SWITCHING_REQUIREMENTS) == 30

    def test_all_generated_corpora_parse(self):
        for requirements in component_requirements().values():
            for _, text in requirements:
                parse_sentence(text)
        for requirements in application_requirements().values():
            for _, text in requirements:
                parse_sentence(text)


class TestGenerator:
    def descriptor(self, formulas=8, inputs=3, outputs=5):
        return ComponentDescriptor(
            name="demo",
            num_formulas=formulas,
            input_nouns=noun_pool("in line", inputs, ("alpha sensor", "beta sensor")),
            output_nouns=noun_pool("out action", outputs, ("gamma report",)),
        )

    def test_formula_count_exact(self):
        requirements = generate(self.descriptor())
        assert len(requirements) == 8

    def test_deterministic(self):
        assert generate(self.descriptor()) == generate(self.descriptor())

    def test_scale_reached_after_translation(self):
        translator = Translator(options=TranslationOptions(next_as_x=False))
        spec = translator.translate(generate(self.descriptor()))
        assert spec.num_inputs == 3
        assert spec.num_outputs == 5

    def test_more_outputs_than_formulas(self):
        descriptor = self.descriptor(formulas=4, inputs=2, outputs=7)
        translator = Translator(options=TranslationOptions(next_as_x=False))
        spec = translator.translate(generate(descriptor))
        assert spec.num_outputs == 7

    def test_more_inputs_than_formulas(self):
        descriptor = self.descriptor(formulas=4, inputs=7, outputs=3)
        translator = Translator(options=TranslationOptions(next_as_x=False))
        spec = translator.translate(generate(descriptor))
        assert spec.num_inputs == 7

    def test_impossible_scales_rejected(self):
        with pytest.raises(ValueError):
            self.descriptor(formulas=3, inputs=7, outputs=1)
        with pytest.raises(ValueError):
            self.descriptor(formulas=3, inputs=1, outputs=7)

    @given(
        st.integers(2, 12),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_scales(self, formulas, inputs, outputs):
        if 2 * formulas < inputs or 2 * formulas < outputs:
            return
        descriptor = self.descriptor(formulas, inputs, outputs)
        translator = Translator(options=TranslationOptions(next_as_x=False))
        spec = translator.translate(generate(descriptor))
        assert len(spec.requirements) == formulas
        assert spec.num_inputs == inputs
        assert spec.num_outputs == outputs

    def test_descriptor_scales_are_table1(self):
        expected = {
            "1": (20, 9, 14),
            "3.2": (56, 12, 20),
        }
        table = dict(COMPONENT_DESCRIPTORS)
        for row, (formulas, inputs, outputs) in expected.items():
            descriptor = table[row]
            assert descriptor.num_formulas == formulas
            assert len(descriptor.input_nouns) == inputs
            assert len(descriptor.output_nouns) == outputs


class TestRobotGenerator:
    def test_table_scales(self):
        assert len(robot_requirements(1, 4)) == 9
        assert len(robot_requirements(1, 9)) == 14
        assert len(robot_requirements(2, 5)) == 25

    def test_mutex_only_with_two_robots(self):
        single = robot_requirements(1, 4)
        assert not any(ident.startswith("mutex") for ident, _ in single)
        double = robot_requirements(2, 5)
        assert sum(ident.startswith("mutex") for ident, _ in double) == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            robot_requirements(0, 4)
        with pytest.raises(ValueError):
            robot_requirements(1, 1)

    def test_all_sentences_parse(self):
        for robots, rooms in [(1, 4), (2, 5), (3, 6)]:
            for _, text in robot_requirements(robots, rooms):
                parse_sentence(text)


class TestCLI:
    def test_check_command(self, tmp_path, capsys):
        from repro.__main__ import main

        document = tmp_path / "spec.txt"
        document.write_text(
            "If the button is pressed, the lamp is activated.\n"
            "If the cover is open, the lamp is not activated.\n"
        )
        code = main(["check", str(document), "--ltl"])
        output = capsys.readouterr().out
        assert code == 0
        assert "verdict: realizable" in output
        assert "translated LTL" in output

    def test_check_inconsistent_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main

        document = tmp_path / "bad.txt"
        document.write_text(
            "The valve is opened.\nThe valve is not opened.\n"
        )
        code = main(["check", str(document)])
        assert code == 1
        assert "unrealizable" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--tree"]])
    def test_unparseable_sentence_reports_its_line(self, tmp_path, capsys, flags):
        from repro.__main__ import main

        document = tmp_path / "doc.txt"
        document.write_text(
            "# header\nIf the button is pressed, the lamp is activated.\nThe door.\n"
        )
        code = main(["check", str(document), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"{document}:3: ")
        assert "no predicate" in captured.err
        assert "Traceback" not in captured.err

    def test_tree_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        document = tmp_path / "spec.txt"
        document.write_text("If the button is pressed, the lamp is activated.\n")
        main(["check", str(document), "--tree"])
        assert "subordinator: if" in capsys.readouterr().out
