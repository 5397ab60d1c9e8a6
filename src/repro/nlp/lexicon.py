"""Lexicon for the structured-English subset of Section IV-B.

The paper relies on the Stanford parser for part-of-speech information; in
this offline reproduction a curated lexicon plus morphological rules covers
the restricted grammar.  The closed word classes (modals, subordinators,
modifiers, determiners, conjunctions, be-forms) are exactly those the
grammar of Section IV-B enumerates; the open classes (verbs, adjectives)
hold the vocabulary of the three case studies and common requirement
vocabulary, and unknown words fall back to morphology-based guessing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

# --------------------------------------------------------------- closed sets

MODALITIES: FrozenSet[str] = frozenset(
    {"shall", "should", "will", "would", "can", "could", "must", "may", "cannot"}
)

#: Modalities the translator maps to the Eventually operator: the appendix
#: translates "the cuff will be inflated" to a lozenge (Req-01, Req-07).
FUTURE_MODALITIES: FrozenSet[str] = frozenset({"will", "would"})

SUBORDINATORS: FrozenSet[str] = frozenset(
    {"if", "after", "once", "when", "whenever", "while", "before", "until", "next"}
)

MODIFIERS: FrozenSet[str] = frozenset(
    {"globally", "always", "sometimes", "eventually"}
)

#: Modifiers mapping to Eventually; the rest map to Always.
EVENTUALLY_MODIFIERS: FrozenSet[str] = frozenset({"sometimes", "eventually"})

CONJUNCTIONS: FrozenSet[str] = frozenset({"and", "or"})

DETERMINERS: FrozenSet[str] = frozenset(
    {"the", "a", "an", "this", "that", "these", "those", "its", "their", "some", "any"}
)

BE_FORMS: FrozenSet[str] = frozenset(
    {"is", "are", "was", "were", "be", "been", "being", "am"}
)

#: Copular verbs treated like *be* for complement extraction ("remains low").
LINKING_VERBS: FrozenSet[str] = frozenset(
    {"remain", "remains", "remained", "become", "becomes", "became", "stay",
     "stays", "stayed", "get", "gets", "got"}
)

DO_FORMS: FrozenSet[str] = frozenset({"do", "does", "did"})

NEGATIONS: FrozenSet[str] = frozenset({"not", "never", "no"})

PARTICLES: FrozenSet[str] = frozenset({"on", "off", "up", "down", "in", "out"})

PREPOSITIONS: FrozenSet[str] = frozenset(
    {"in", "to", "from", "at", "of", "for", "with", "into", "by", "over", "within"}
)

TIME_UNITS: Dict[str, int] = {
    # canonical number of base ticks (seconds) per unit
    "tick": 1,
    "ticks": 1,
    "second": 1,
    "seconds": 1,
    "sec": 1,
    "secs": 1,
    "minute": 60,
    "minutes": 60,
    "hour": 3600,
    "hours": 3600,
}

NUMBER_WORDS: Dict[str, int] = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "fifteen": 15, "twenty": 20, "thirty": 30,
    "sixty": 60, "ninety": 90, "hundred": 100,
}

# ----------------------------------------------------------------- open sets

#: Base forms of verbs across the CARA, TELEPROMISE and robot case studies.
VERBS: FrozenSet[str] = frozenset(
    {
        "activate", "add", "alarm", "answer", "arrive", "browse", "buy",
        "cancel", "carry", "charge", "check", "clear", "close", "collect",
        "complete", "confirm", "connect", "control", "corroborate", "deliver",
        "deactivate", "detect", "disable", "display", "drive", "drop",
        "enable", "enter", "exit", "fail", "fill", "find", "finish", "grant",
        "inflate", "initialize", "issue", "leave", "log", "lose", "monitor",
        "move", "notify", "open", "operate", "order", "pay", "perform",
        "pick", "place", "plug", "poll", "post", "power", "press", "process",
        "provide", "publish", "pump", "read", "register", "reject", "release",
        "remind", "remove", "report", "request", "reserve", "reset",
        "respond", "resume", "return", "run", "save", "search", "select",
        "send", "serve", "ship", "show", "sound", "start", "stop", "store",
        "submit", "suspend", "switch", "terminate", "trigger", "turn",
        "update", "validate", "verify", "visit", "wait", "warn",
    }
)

#: Adjectives/adverbs (the paper's "antonym candidates").
ADJECTIVES: FrozenSet[str] = frozenset(
    {
        "active", "available", "busy", "clear", "closed", "complete",
        "connected", "disabled", "empty", "enabled", "full",
        "high", "idle", "inactive", "incomplete", "invalid", "locked", "low",
        "lost", "normal", "occupied", "off", "offline", "ok", "on", "online", "open",
        "operational", "pending", "ready", "unavailable",
        "unlocked", "valid",
    }
)

#: Irregular past participles -> base form.
IRREGULAR_PARTICIPLES: Dict[str, str] = {
    "been": "be",
    "begun": "begin",
    "broken": "break",
    "brought": "bring",
    "built": "build",
    "chosen": "choose",
    "done": "do",
    "driven": "drive",
    "found": "find",
    "given": "give",
    "gone": "go",
    "got": "get",
    "held": "hold",
    "kept": "keep",
    "left": "leave",
    "lost": "lose",
    "made": "make",
    "paid": "pay",
    "put": "put",
    "read": "read",
    "run": "run",
    "sent": "send",
    "set": "set",
    "shown": "show",
    "shut": "shut",
    "taken": "take",
    "told": "tell",
    "turned": "turn",
    "won": "win",
    "written": "write",
}


def verb_lemma(word: str) -> Optional[str]:
    """The base form of a verb token, or ``None`` if not recognised."""
    word = word.lower()
    if word in IRREGULAR_PARTICIPLES:
        return IRREGULAR_PARTICIPLES[word]
    if word in VERBS:
        return word
    if word in BE_FORMS:
        return "be"
    if word in LINKING_VERBS:
        return _strip_third_person(word)
    # third person singular: presses -> press, monitors -> monitor
    stripped = _strip_third_person(word)
    if stripped in VERBS:
        return stripped
    # past/participle: pressed -> press, terminated -> terminate
    participle = participle_lemma(word)
    if participle is not None:
        return participle
    # progressive: running -> run, monitoring -> monitor
    progressive = progressive_lemma(word)
    if progressive is not None:
        return progressive
    return None


def _strip_third_person(word: str) -> str:
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ses", "xes", "zes", "ches", "shes")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def participle_lemma(word: str) -> Optional[str]:
    """Base form of a regular past participle, or ``None``."""
    word = word.lower()
    if word in IRREGULAR_PARTICIPLES:
        return IRREGULAR_PARTICIPLES[word]
    if not word.endswith("ed") or len(word) < 4:
        return None
    stem = word[:-2]
    for candidate in (stem, stem + "e", stem[:-1] if stem and stem[-1] == stem[-2:-1] else stem):
        if candidate in VERBS:
            return candidate
    # doubled final consonant: plugged -> plug
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[:-1] in VERBS:
        return stem[:-1]
    return None


def progressive_lemma(word: str) -> Optional[str]:
    """Base form of an ``-ing`` form, or ``None``."""
    word = word.lower()
    if not word.endswith("ing") or len(word) < 5:
        return None
    stem = word[:-3]
    if stem in VERBS:
        return stem
    if stem + "e" in VERBS:
        return stem + "e"
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[:-1] in VERBS:
        return stem[:-1]
    return None


def is_participle(word: str) -> bool:
    """True for past participles usable in the passive voice."""
    return participle_lemma(word) is not None


def is_progressive(word: str) -> bool:
    return progressive_lemma(word) is not None


def is_adjective(word: str) -> bool:
    word = word.lower()
    if word in ADJECTIVES:
        return True
    # un-/in-/dis- negations of known adjectives are adjectives too.
    for prefix in ("un", "in", "dis", "non"):
        if word.startswith(prefix) and word[len(prefix):] in ADJECTIVES:
            return True
    if word.endswith("less"):
        return True
    return False


def parse_number(word: str) -> Optional[int]:
    if word.isdigit():
        return int(word)
    return NUMBER_WORDS.get(word.lower())
