"""Recursive-descent parser for the structured English of Section IV-B.

The grammar (positive form, from the paper)::

    sentence     ::= (subclause,)* clauses (, subclause)*
    subclause    ::= subordinator clauses
    clauses      ::= clause [, conjunction clause]
    clause       ::= [modifier] subject predicate [constraint]
    subject      ::= substantive ((and|or) substantive)*
    predicates   ::= [modality] predicate
    predicate    ::= verb | be participle | be complement
    constraint   ::= in t

Parsing proceeds in two passes: the sentence is first segmented into comma
groups and classified (leading subclauses, main clause group, trailing
subclauses), then each group is parsed into :class:`Clause` records.  The
result mirrors the syntax tree of Figure 2; :mod:`repro.nlp.tree` renders
it.

Disambiguation rules implied by the paper's appendix:

* a comma group starting with ``and``/``or`` continues the preceding
  subclause, unless it is the final group, which is always the main clause
  (Req-17.2, Req-44);
* a subordinator *inside* a group splits it: the remainder becomes a
  trailing subclause (Req-01 "… whenever the LSTAT is powered on");
* ``next`` at the start of the main clause is a temporal marker on that
  clause (Req-13.1 "next arterial line is selected");
* repeated ``if`` groups nest (Req-17.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import lexicon
from .tokenizer import Token, tokenize


class StructuredEnglishError(ValueError):
    """Raised when a sentence falls outside the supported grammar."""

    def __init__(self, message: str, sentence: str = "") -> None:
        details = f"{message}" + (f" in: {sentence!r}" if sentence else "")
        super().__init__(details)
        self.sentence = sentence


@dataclass(frozen=True)
class TimeConstraint:
    """The grammar's ``constraint ::= in t`` with a unit."""

    value: int
    unit: str = "seconds"

    def ticks(self, unit_seconds: int = 1) -> int:
        """The number of discrete time ticks (Section IV-E)."""
        seconds = self.value * lexicon.TIME_UNITS[self.unit]
        if seconds % unit_seconds:
            raise ValueError(
                f"{seconds}s is not a multiple of the {unit_seconds}s unit time"
            )
        return seconds // unit_seconds


@dataclass
class Clause:
    """One clause: modifier, subject(s), predicate, optional constraint."""

    subjects: List[str]  # normalised substantives, e.g. "pulse_wave"
    subject_conjunction: Optional[str]  # "and" | "or" when > 1 subject
    verb: Optional[str]  # lemma of the main verb (None for be+complement)
    passive: bool = False
    progressive: bool = False
    complement: Optional[str] = None  # adjective/adverb/prep complement
    particle: Optional[str] = None  # "on" in "turned on"
    object: Optional[str] = None  # normalised object of an active verb
    negated: bool = False
    modality: Optional[str] = None
    modifier: Optional[str] = None  # "eventually", "always", ...
    next_marker: bool = False  # leading "next"
    constraint: Optional[TimeConstraint] = None
    text: str = ""


@dataclass
class ClauseGroup:
    """``clauses ::= clause [, conjunction clause]``."""

    clauses: List[Clause]
    connectives: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.connectives) != max(0, len(self.clauses) - 1):
            raise ValueError("need exactly one connective between clauses")


@dataclass
class SubClause:
    """``subclause ::= subordinator clauses``."""

    subordinator: str
    group: ClauseGroup


@dataclass
class Sentence:
    """A parsed requirement sentence."""

    pre: List[SubClause]
    main: ClauseGroup
    post: List[SubClause]
    text: str = ""

    def all_clauses(self) -> List[Clause]:
        clauses: List[Clause] = []
        for sub in self.pre:
            clauses.extend(sub.group.clauses)
        clauses.extend(self.main.clauses)
        for sub in self.post:
            clauses.extend(sub.group.clauses)
        return clauses


# ---------------------------------------------------------------------------
# Sentence segmentation


def parse_sentence(text: str) -> Sentence:
    """Parse one requirement sentence into its clause structure."""
    tokens = [t for t in tokenize(text) if t.text not in (".", ";", "!", "?")]
    if not tokens:
        raise StructuredEnglishError("empty sentence", text)
    groups = _split_comma_groups(tokens)
    groups = _split_inline_subordinators(groups)
    pre, main_group, post = _classify_groups(groups, text)

    pre_subclauses = [
        SubClause(sub, _parse_clause_group(body, text))
        for sub, body in pre
    ]
    post_subclauses = [
        SubClause(sub, _parse_clause_group(body, text))
        for sub, body in post
    ]
    main = _parse_clause_group(main_group, text)
    return Sentence(pre_subclauses, main, post_subclauses, text=text)


def _split_comma_groups(tokens: Sequence[Token]) -> List[List[Token]]:
    groups: List[List[Token]] = [[]]
    for token in tokens:
        if token.text == ",":
            if groups[-1]:
                groups.append([])
        else:
            groups[-1].append(token)
    if not groups[-1]:
        groups.pop()
    return groups


def _split_inline_subordinators(groups: List[List[Token]]) -> List[List[Token]]:
    """Split a group at an interior subordinator (Req-01, Req-49)."""
    result: List[List[Token]] = []
    for group in groups:
        current: List[Token] = []
        for position, token in enumerate(group):
            interior = position > 0 and token.text in lexicon.SUBORDINATORS
            # "next" only acts as a subordinator in clause-initial position;
            # interior "next" ("the next page") stays part of the clause.
            if interior and token.text != "next":
                result.append(current)
                current = []
            current.append(token)
        if current:
            result.append(current)
    return result


def _classify_groups(
    groups: List[List[Token]], text: str
) -> Tuple[
    List[Tuple[str, List[List[Token]]]],
    List[List[Token]],
    List[Tuple[str, List[List[Token]]]],
]:
    """Assign comma groups to leading subclauses, main clause, trailing
    subclauses.  Returns (pre, main groups, post); each subclause carries a
    list of clause groups (continuation groups join their subclause)."""
    if not groups:
        raise StructuredEnglishError("no clause found", text)

    pre: List[Tuple[str, List[List[Token]]]] = []
    post: List[Tuple[str, List[List[Token]]]] = []
    main: List[List[Token]] = []
    index = 0

    # Leading subclauses: groups starting with a subordinator, plus any
    # continuation groups starting with a conjunction — except the last
    # group overall, which is the main clause.  "next" marks a main clause
    # ("next manual mode is started"), not a subclause.
    while index < len(groups) - 1 and _starts_subclause(groups[index]):
        subordinator = groups[index][0].text
        body = [groups[index][1:]]
        index += 1
        while (
            index < len(groups) - 1
            and groups[index][0].text in lexicon.CONJUNCTIONS
            and not _looks_like_main_start(groups, index)
        ):
            body.append(groups[index])
            index += 1
        pre.append((subordinator, body))

    if index >= len(groups):
        raise StructuredEnglishError("sentence has no main clause", text)

    # Main clause: everything up to a trailing subordinator group.
    main = [groups[index]]
    index += 1
    while index < len(groups) and not _starts_subclause(groups[index]):
        main.append(groups[index])
        index += 1

    # Trailing subclauses.
    while index < len(groups):
        subordinator = groups[index][0].text
        body = [groups[index][1:]]
        index += 1
        while index < len(groups) and groups[index][0].text in lexicon.CONJUNCTIONS:
            body.append(groups[index])
            index += 1
        post.append((subordinator, body))

    return pre, main, post


def _starts_subclause(group: List[Token]) -> bool:
    """True when a comma group opens a subordinate clause."""
    return bool(group) and group[0].text in lexicon.SUBORDINATORS and group[0].text != "next"


def _looks_like_main_start(groups: List[List[Token]], index: int) -> bool:
    """A conjunction group is the main clause when every following group is
    a trailing subclause."""
    remaining = groups[index + 1 :]
    return all(_starts_subclause(g) for g in remaining)


# ---------------------------------------------------------------------------
# Clause parsing


def _parse_clause_group(bodies: List[List[Token]], text: str) -> ClauseGroup:
    """Parse one or more comma groups into a clause group.

    Each body may itself contain an inline conjunction of clauses ("an
    alarm is issued and override selection is provided").
    """
    clauses: List[Clause] = []
    connectives: List[str] = []
    for body in bodies:
        if not body:
            raise StructuredEnglishError("empty clause", text)
        if body[0].text in lexicon.CONJUNCTIONS and clauses:
            connectives.append(body[0].text)
            body = body[1:]
        elif clauses:
            connectives.append("and")
        for clause, connective in _split_inline_clauses(body, text):
            if connective is not None:
                connectives.append(connective)
            clauses.append(clause)
    return ClauseGroup(clauses, connectives)


def _split_inline_clauses(
    body: List[Token], text: str
) -> List[Tuple[Clause, Optional[str]]]:
    """Split "C1 and C2" into clauses when both sides have predicates."""
    for position, token in enumerate(body):
        if token.text in lexicon.CONJUNCTIONS and 0 < position < len(body) - 1:
            left, right = body[:position], body[position + 1 :]
            if _has_predicate(left) and _has_predicate(right):
                first = [(parse_clause(left, text), None)]
                rest = _split_inline_clauses(right, text)
                rest = [
                    (clause, token.text if connective is None else connective)
                    for clause, connective in rest
                ]
                return first + rest
    return [(parse_clause(body, text), None)]


def _has_predicate(tokens: Sequence[Token]) -> bool:
    return any(
        t.text in lexicon.BE_FORMS
        or t.text in lexicon.MODALITIES
        or t.text in lexicon.LINKING_VERBS
        or t.text in lexicon.DO_FORMS
        or (t.index != tokens[0].index and lexicon.verb_lemma(t.text) is not None)
        for t in tokens
    )


def parse_clause(tokens: Sequence[Token], sentence_text: str = "") -> Clause:
    """Parse ``[modifier] subject predicate [constraint]``."""
    words = [t.text for t in tokens]
    original = " ".join(words)

    # "then" is a filter construction like "the"/"a" (Req-13.3: "..., then
    # cuff is selected"): it carries no meaning beyond the implication the
    # subordinator already established.
    if words and words[0] == "then":
        words = words[1:]

    next_marker = False
    if words and words[0] == "next":
        next_marker = True
        words = words[1:]

    modifier = None
    if words and words[0] in lexicon.MODIFIERS:
        modifier = words[0]
        words = words[1:]

    words, constraint = _extract_constraint(words, sentence_text)

    boundary = _predicate_boundary(words, sentence_text, original)
    subject_words = words[:boundary]
    predicate_words = words[boundary:]

    # A modifier may also sit immediately before the predicate
    # ("the cuff will eventually be inflated" is out of grammar, but
    # "eventually the cuff will be inflated" after a subclause is common).
    subjects, subject_conjunction = _parse_subject(subject_words, sentence_text)
    clause = _parse_predicate(predicate_words, sentence_text, original)
    clause.subjects = subjects
    clause.subject_conjunction = subject_conjunction
    clause.modifier = modifier
    clause.next_marker = next_marker
    clause.constraint = constraint
    clause.text = original
    return clause


def _extract_constraint(
    words: List[str], text: str
) -> Tuple[List[str], Optional[TimeConstraint]]:
    """Strip a trailing "in|within <number> <unit>" constraint."""
    if len(words) >= 3 and words[-3] in ("in", "within"):
        number = lexicon.parse_number(words[-2])
        unit = words[-1]
        if number is not None and unit in lexicon.TIME_UNITS:
            return words[:-3], TimeConstraint(number, unit)
    return words, None


def _predicate_boundary(words: List[str], text: str, clause: str) -> int:
    """Index where the predicate starts.

    Preference order: first auxiliary (be/modal/do/linking verb), else the
    first verb-looking token past position zero (subjects never start at
    the predicate in the supported grammar).
    """
    for position, word in enumerate(words):
        if (
            word in lexicon.BE_FORMS
            or word in lexicon.MODALITIES
            or word in lexicon.DO_FORMS
            or word in lexicon.LINKING_VERBS
        ):
            if position == 0:
                raise StructuredEnglishError(
                    f"clause {clause!r} has no subject", text
                )
            return position
    for position, word in enumerate(words):
        if position == 0:
            continue
        if word in lexicon.DETERMINERS or word in lexicon.NEGATIONS:
            continue
        lemma = lexicon.verb_lemma(word)
        if lemma is not None and not lexicon.is_adjective(word):
            return position
    raise StructuredEnglishError(f"no predicate found in clause {clause!r}", text)


def _parse_subject(words: List[str], text: str) -> Tuple[List[str], Optional[str]]:
    """``subject ::= substantive ((and|or) substantive)*``."""
    meaningful = [w for w in words if w not in lexicon.DETERMINERS]
    if not meaningful:
        raise StructuredEnglishError("clause has no subject", text)
    substantives: List[List[str]] = [[]]
    conjunction: Optional[str] = None
    for word in meaningful:
        if word in lexicon.CONJUNCTIONS:
            if conjunction is not None and conjunction != word:
                raise StructuredEnglishError(
                    "mixed and/or in one subject is not supported", text
                )
            conjunction = word
            substantives.append([])
        else:
            substantives[-1].append(word)
    trimmed: List[List[str]] = []
    for parts in substantives:
        # Drop leading attributive adjectives ("a valid blood pressure" ->
        # blood_pressure) so the same entity yields the same proposition
        # whether the property is attributive or predicated (Req-28/44).
        while len(parts) > 1 and lexicon.is_adjective(parts[0]):
            parts = parts[1:]
        if parts:
            trimmed.append(parts)
    names = [normalise_name(parts) for parts in trimmed]
    if not names:
        raise StructuredEnglishError("clause has no subject", text)
    return names, conjunction


def _parse_predicate(words: List[str], text: str, clause: str) -> Clause:
    """Parse ``[modality] (verb | be participle | be complement)``."""
    if not words:
        raise StructuredEnglishError(f"no predicate in clause {clause!r}", text)
    result = Clause(subjects=[], subject_conjunction=None, verb=None)
    position = 0

    if words[position] in lexicon.MODALITIES:
        result.modality = words[position]
        if words[position] == "cannot":
            result.modality = "can"
            result.negated = True
        position += 1

    if position < len(words) and words[position] in lexicon.NEGATIONS:
        result.negated = True
        position += 1

    if position >= len(words):
        raise StructuredEnglishError(f"dangling modality in {clause!r}", text)

    word = words[position]
    if word in lexicon.DO_FORMS:
        # do-support: "does not sound"
        position += 1
        if position < len(words) and words[position] in lexicon.NEGATIONS:
            result.negated = True
            position += 1
        if position >= len(words):
            raise StructuredEnglishError(f"dangling do-form in {clause!r}", text)
        word = words[position]

    if word in lexicon.BE_FORMS or word in lexicon.LINKING_VERBS:
        position += 1
        # "is initially turned on", "is not corroborated", "will be inflated"
        while position < len(words) and (
            words[position] in lexicon.NEGATIONS
            or words[position] in lexicon.BE_FORMS
            or words[position].endswith("ly")
        ):
            if words[position] in lexicon.NEGATIONS:
                result.negated = True
            position += 1
        if position >= len(words):
            raise StructuredEnglishError(
                f"be-predicate without participle/complement in {clause!r}", text
            )
        head = words[position]
        rest = words[position + 1 :]
        if lexicon.is_adjective(head):
            result.complement = head
        elif lexicon.is_participle(head):
            result.verb = lexicon.participle_lemma(head)
            result.passive = True
            if rest and rest[0] in lexicon.PARTICLES:
                result.particle = rest[0]
                rest = rest[1:]
        elif lexicon.is_progressive(head):
            result.verb = lexicon.progressive_lemma(head)
            result.progressive = True
        elif head in lexicon.PREPOSITIONS:
            result.complement = normalise_name(
                [w for w in words[position:] if w not in lexicon.DETERMINERS]
            )
            rest = []
        else:
            # Unknown word after "be": treat as complement (open class).
            result.complement = head
        if rest and result.complement is None and rest[0] not in lexicon.PREPOSITIONS:
            # Passive with a trailing agent/goal phrase is out of scope but
            # tolerated; the phrase is ignored like the paper's filters.
            pass
        return result

    lemma = lexicon.verb_lemma(word)
    if lemma is None:
        raise StructuredEnglishError(
            f"unknown verb {word!r} in clause {clause!r}", text
        )
    result.verb = lemma
    rest = list(words[position + 1 :])
    if rest and rest[0] in lexicon.PARTICLES and (
        len(rest) == 1 or rest[1] in lexicon.DETERMINERS or rest[1] not in lexicon.PREPOSITIONS
    ):
        result.particle = rest[0]
        rest = rest[1:]
    object_words = [w for w in rest if w not in lexicon.DETERMINERS]
    if object_words:
        result.object = normalise_name(object_words)
    return result


def normalise_name(parts: Sequence[str]) -> str:
    """Join words into a proposition-name fragment (Section IV-C: "add '_'
    to contact relative words together")."""
    cleaned = []
    for part in parts:
        cleaned.append(part.replace("-", "_").replace("'", ""))
    return "_".join(cleaned)
