"""Tokenisation of requirement documents.

A specification file is a sequence of requirements, one sentence each
(Section IV-C: "A specification here is a set of sentences").  The
tokenizer lower-cases words, keeps hyphenated compounds ("auto-control")
as single tokens, separates punctuation, and splits a document into
sentences at full stops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List


@dataclass(frozen=True)
class Token:
    """A single word or punctuation mark with its position."""

    text: str
    index: int


_TOKEN_RE = re.compile(
    r"""
      [a-zA-Z][a-zA-Z0-9]*(?:[-'][a-zA-Z0-9]+)*   # words, incl. hyphenated
    | [0-9]+                                      # numbers
    | [.,;:!?()]                                  # punctuation
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """Tokenise one sentence (or fragment) into lower-case tokens."""
    tokens = []
    for index, match in enumerate(_TOKEN_RE.finditer(text)):
        tokens.append(Token(match.group().lower(), index))
    return tokens


def split_sentences(document: str) -> Iterator[str]:
    """Split a requirement document into sentences.

    Sentences end at a full stop or at a line break; blank lines and
    comment lines (starting with ``#``) are skipped, so requirement files
    can carry annotations.
    """
    for raw_line in document.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        for part in re.split(r"\.\s+|\.$", line):
            part = part.strip()
            if part:
                yield part


def tokenize_document(document: str) -> List[List[Token]]:
    """Tokenise every sentence of *document*."""
    return [tokenize(sentence) for sentence in split_sentences(document)]
