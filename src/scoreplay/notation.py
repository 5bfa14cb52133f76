"""Bracket-notation parser and printer, plus structured tree records.

Grammar::

    game    := number | '{' options '|' number '|' options '}'
    options := '.' | game (',' game)*
    number  := ['+'|'-'] digits ['.' digits] ['/' digits]

Whitespace is insignificant.  A bare number denotes the leaf {.|n|.};
'.' is the only spelling of an empty option set.  Decimals are converted
to exact rationals.  Braces may nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import GameTerm, Score, as_score, game, leaf, render

__all__ = [
    "SourceSpan",
    "ParseError",
    "RecordError",
    "DuplicateOptionWarning",
    "MAX_NESTING",
    "parse",
    "parse_score",
    "print_game",
    "to_structured",
    "from_structured",
]


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets (start, end) into the input text."""

    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


class RecordError(ValueError):
    """A structured record does not encode a game."""


class DuplicateOptionWarning(UserWarning):
    """An option set literal repeated a member; duplicates collapse."""


#: Deepest brace nesting parse() accepts.  The parser, evaluators and
#: printers recurse with up to a few Python frames per level of a term,
#: so a term this deep stays inside the default recursion limit; deeper
#: input is a ParseError instead of a RecursionError.
MAX_NESTING = 200

_NUMBER = r"[+-]?\d+(?:\.\d+)?(?:/\d+)?"
_TOKEN = re.compile(rf"({_NUMBER})|([{{}}|,.])|(\s+)")
_NUMBER_RE = re.compile(_NUMBER)


def _tokenize(text: str) -> list[tuple[str, SourceSpan]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1)
            )
        if not m.group(3):
            tokens.append((m.group(0), SourceSpan(m.start(), m.end())))
        pos = m.end()
    return tokens


def _number_to_score(text: str, span: SourceSpan) -> Score:
    try:
        return as_score(Fraction(text))
    except ZeroDivisionError:
        raise ParseError("zero denominator", span) from None


def parse_score(text: str) -> Score:
    """Parse a single score literal ('5', '-3/2', '1.5')."""
    stripped = text.strip()
    if not _NUMBER_RE.fullmatch(stripped):
        raise ParseError(
            f"not a score literal: {text!r}", SourceSpan(0, len(text))
        )
    return _number_to_score(stripped, SourceSpan(0, len(text)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> tuple[str, SourceSpan]:
        if self.pos >= len(self.tokens):
            n = len(self.text)
            raise ParseError("unexpected end of input", SourceSpan(n, n))
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, SourceSpan]:
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, literal: str) -> SourceSpan:
        tok, span = self._peek()
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", span)
        self.pos += 1
        return span

    def parse_game(self) -> GameTerm:
        tok, span = self._peek()
        if tok == "{":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"braces nest deeper than {MAX_NESTING}", span
                )
            self.pos += 1
            self.depth += 1
            left = self.parse_options()
            self._expect("|")
            score = self.parse_score_token()
            self._expect("|")
            right = self.parse_options()
            self._expect("}")
            self.depth -= 1
            return game(left, score, right)
        if _NUMBER_RE.fullmatch(tok):
            self.pos += 1
            return leaf(_number_to_score(tok, span))
        raise ParseError(f"expected a game, found {tok!r}", span)

    def parse_score_token(self) -> Score:
        tok, span = self._peek()
        if not _NUMBER_RE.fullmatch(tok):
            raise ParseError(
                f"expected a score (it is mandatory), found {tok!r}", span
            )
        self.pos += 1
        return _number_to_score(tok, span)

    def parse_options(self) -> list[GameTerm]:
        tok, span = self._peek()
        if tok == ".":
            self.pos += 1
            return []
        options = [self.parse_game()]
        while self.pos < len(self.tokens) and self.tokens[self.pos][0] == ",":
            self.pos += 1
            options.append(self.parse_game())
        if len(dict.fromkeys(options)) < len(options):
            warnings.warn(
                "duplicate options collapse to one", DuplicateOptionWarning,
                stacklevel=4,
            )
        return options


def parse(text: str) -> GameTerm:
    """Parse bracket notation into a term."""
    if not text.strip():
        raise ParseError("empty input", SourceSpan(0, len(text)))
    parser = _Parser(text)
    term = parser.parse_game()
    if parser.pos < len(parser.tokens):
        tok, span = parser.tokens[parser.pos]
        raise ParseError(f"trailing input {tok!r}", span)
    return term


def print_game(g: GameTerm, style: str = "compact") -> str:
    """Deterministic notation; 'full' braces every leaf as {.|n|.}."""
    if style == "compact":
        return render(g)
    if style == "full":
        return render(g, full=True)
    raise ValueError(f"unknown style {style!r} (use 'compact' or 'full')")


_RECORD_FIELDS = {"left", "score", "right"}


def to_structured(g: GameTerm) -> dict[str, Any]:
    """Tree record with lists of child records and the score as a string."""
    return {
        "left": [to_structured(o) for o in g.left],
        "score": str(g.score),
        "right": [to_structured(o) for o in g.right],
    }


def from_structured(record: Any) -> GameTerm:
    """Inverse of to_structured; raises RecordError on malformed input.

    Option records may nest at most ``MAX_NESTING`` deep, the bound
    parse() puts on braces.
    """
    return _from_record(record, 0)


def _from_record(record: Any, depth: int) -> GameTerm:
    if depth > MAX_NESTING:
        raise RecordError(f"records nest deeper than {MAX_NESTING}")
    if not isinstance(record, dict):
        raise RecordError(f"record must be a mapping, got {type(record).__name__}")
    unknown = set(record) - _RECORD_FIELDS
    if unknown:
        raise RecordError(f"unknown fields: {sorted(unknown)}")
    missing = _RECORD_FIELDS - set(record)
    if missing:
        raise RecordError(f"missing fields: {sorted(missing)}")
    raw_score = record["score"]
    if isinstance(raw_score, int) and not isinstance(raw_score, bool):
        score: Score = raw_score
    elif isinstance(raw_score, str):
        try:
            score = parse_score(raw_score)
        except ParseError as exc:
            raise RecordError(f"bad score {raw_score!r}: {exc}") from None
    else:
        raise RecordError(f"score must be a string or int, got {raw_score!r}")
    for side in ("left", "right"):
        if not isinstance(record[side], list):
            raise RecordError(f"{side} must be a list")
    return game(
        (_from_record(r, depth + 1) for r in record["left"]),
        score,
        (_from_record(r, depth + 1) for r in record["right"]),
    )
