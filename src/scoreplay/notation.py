"""Bracket-notation parser and printer, plus structured tree records.

Grammar::

    game    := number | '{' options '|' number '|' options '}'
    options := '.' | game (',' game)*
    number  := ['+'|'-'] digits ['.' digits] ['/' digits]

Whitespace is insignificant.  A bare number denotes the leaf {.|n|.};
'.' is the only spelling of an empty option set.  Decimals are converted
to exact rationals, and a denominator divides the decimal before it
('1.5/2' is 3/4).  Braces may nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any

from .core import GameTerm, Score, _postorder, as_score, game, leaf, render

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
    """Character offsets (start, end) into the input text."""

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


#: Deepest brace nesting parse() accepts.  The parser, the printer,
#: ``to_structured``, ``add``, ``SumEvaluator`` and ``canonicalize`` work
#: from explicit stacks, and final scores and class ids are computed
#: without recursion.  What still recurses, once per level, is
#: ``rulesets.tf_to_game`` and ``from_structured``, and ``tf_parse`` and
#: ``from_structured`` hold their input to this bound too; a term this
#: deep stays inside the default recursion limit, and deeper input is a
#: ParseError instead of a RecursionError.
MAX_NESTING = 200

_NUMBER = r"[+-]?\d+(?:\.\d+)?(?:/\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
# One token, whitespace excluded.  findall() yields the token strings in
# order, and finditer() over the same pattern recovers their spans.  The
# text is valid when the tokens cover every non-whitespace character: a
# whole-text pattern would backtrack exponentially on a bad character
# after a long number, and even match() keeps state per repetition
# (over a gigabyte for a 6 MB term).
_TOKEN = re.compile(rf"{_NUMBER}|[{{}}|,.]")
_NON_SPACE = re.compile(r"\S")
_PUNCTUATION = frozenset("{}|,.")


def _to_score(literal: str) -> Score:
    """Exact value of a number literal; only '.' and '/' need a Fraction.

    Raises ZeroDivisionError for a zero denominator and ValueError for a
    literal longer than Python converts (``sys.get_int_max_str_digits``).
    """
    if "." not in literal and "/" not in literal:
        return int(literal)
    num, _, den = literal.partition("/")
    return as_score(Fraction(num) / int(den or 1))


def _span_error(text: str, k: int, message: str) -> ParseError:
    """The error for the k-th token, or for the end of input past the last.

    Spans are found only here, on failure, by the same pattern that split
    the text.
    """
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    if m is None:
        n = len(text)
        return ParseError("unexpected end of input", SourceSpan(n, n))
    return ParseError(message, SourceSpan(m.start(), m.end()))


def _bad_character(text: str) -> ParseError:
    """The error for the first non-whitespace character no token covers."""
    end = 0
    for m in _TOKEN.finditer(text):
        bad = _NON_SPACE.search(text, end, m.start())
        if bad:
            break
        end = m.end()
    else:
        bad = _NON_SPACE.search(text, end)
    k = bad.start()
    return ParseError(
        f"unexpected character {text[k]!r}", SourceSpan(k, k + 1)
    )


def _number_message(exc: Exception) -> str:
    """Why _to_score refused a literal."""
    if isinstance(exc, ZeroDivisionError):
        return "zero denominator"
    return "number has too many digits"


def parse_score(text: str) -> Score:
    """Parse a single score literal ('5', '-3/2', '1.5')."""
    stripped = text.strip()
    span = SourceSpan(0, len(text))
    if not _NUMBER_RE.fullmatch(stripped):
        raise ParseError(f"not a score literal: {text!r}", span)
    try:
        return _to_score(stripped)
    except (ZeroDivisionError, ValueError) as exc:
        raise ParseError(_number_message(exc), span) from None


def parse(text: str) -> GameTerm:
    """Parse bracket notation into a term.

    One loop reads the tokens, with an explicit stack of open braces, so
    nesting costs no Python recursion.
    """
    if not text.strip():
        raise ParseError("empty input", SourceSpan(0, len(text)))
    toks: list = _TOKEN.findall(text)
    if sum(map(len, toks)) != len("".join(text.split())):
        raise _bad_character(text)
    n = len(toks)
    toks.append(None)  # end of input: equal to no literal, not a number
    leaves: dict[str, GameTerm] = {}  # number token -> its leaf
    # One [left options, score, options being read] per open brace; left
    # is None until the left options close.
    stack: list[list] = []
    i = 0
    while True:
        # A game starts at token i.
        tok = toks[i]
        if tok == "{":
            if len(stack) == MAX_NESTING:
                raise _span_error(
                    text, i, f"braces nest deeper than {MAX_NESTING}"
                )
            stack.append([None, None, []])
            i += 1
            if toks[i] != ".":
                continue
            i += 1
            term = None  # the options just closed as '.'
        else:
            term = leaves.get(tok)
            if term is None:
                if tok in _PUNCTUATION or tok is None:
                    raise _span_error(
                        text, i, f"expected a game, found {tok!r}"
                    )
                try:
                    term = leaves[tok] = leaf(_to_score(tok))
                except (ZeroDivisionError, ValueError) as exc:
                    raise _span_error(text, i, _number_message(exc)) from None
            i += 1
        # Attach finished games to the open braces until one needs a game.
        while True:
            if term is not None:
                if not stack:
                    if i < n:
                        raise _span_error(
                            text, i, f"trailing input {toks[i]!r}"
                        )
                    return term
                frame = stack[-1]
                options = frame[2]
                options.append(term)
                if toks[i] == ",":
                    i += 1
                    break
                if len(options) > 1 and len(set(options)) < len(options):
                    warnings.warn(
                        "duplicate options collapse to one",
                        DuplicateOptionWarning, stacklevel=2,
                    )
            else:
                frame = stack[-1]
            # The options of the innermost open brace are closed.
            if frame[0] is None:
                frame[0] = frame[2]
                if toks[i] != "|":
                    raise _span_error(
                        text, i, f"expected '|', found {toks[i]!r}"
                    )
                tok = toks[i + 1]
                if tok in _PUNCTUATION or tok is None:
                    raise _span_error(
                        text, i + 1,
                        f"expected a score (it is mandatory), found {tok!r}",
                    )
                try:
                    score = _to_score(tok)
                except (ZeroDivisionError, ValueError) as exc:
                    raise _span_error(
                        text, i + 1, _number_message(exc)
                    ) from None
                if toks[i + 2] != "|":
                    raise _span_error(
                        text, i + 2, f"expected '|', found {toks[i + 2]!r}"
                    )
                frame[1] = score
                frame[2] = []
                i += 3
                if toks[i] != ".":
                    break
                i += 1
                term = None
            else:
                if toks[i] != "}":
                    raise _span_error(
                        text, i, f"expected '}}', found {toks[i]!r}"
                    )
                i += 1
                stack.pop()
                term = game(frame[0], frame[1], frame[2])


def print_game(g: GameTerm, style: str = "compact") -> str:
    """Deterministic notation; 'full' braces every leaf as {.|n|.}."""
    if style == "compact":
        return render(g)
    if style == "full":
        return render(g, full=True)
    raise ValueError(f"unknown style {style!r} (use 'compact' or 'full')")


_RECORD_FIELDS = {"left", "score", "right"}


def to_structured(g: GameTerm) -> dict[str, Any]:
    """Tree record with lists of child records and the score as a string.

    Records are built children first from an explicit stack, so depth
    costs no Python recursion.  Each distinct subterm gets one record,
    which every occurrence of it shares.
    """
    records: dict[GameTerm, dict[str, Any]] = {}
    for t in _postorder(g, ()):
        records[t] = {
            "left": [records[o] for o in t.left],
            "score": str(t.score),
            "right": [records[o] for o in t.right],
        }
    return records[g]


def from_structured(record: Any) -> GameTerm:
    """Inverse of to_structured; raises RecordError on malformed input.

    Option records may nest at most ``MAX_NESTING`` deep, the bound
    parse() puts on braces.  Each distinct record object is decoded once,
    so records that share sub-records, as to_structured's do, cost the
    shared term, not the tree they spell out.
    """
    return _from_record(record, 0, {})


def _from_record(
    record: Any, depth: int, memo: dict[int, tuple[Any, GameTerm]]
) -> GameTerm:
    # The memo keeps each decoded record alive, so no other object takes
    # its id during the call.
    hit = memo.get(id(record))
    if hit is not None:
        depth += hit[1].depth  # where its deepest sub-record lies
    if depth > MAX_NESTING:
        raise RecordError(f"records nest deeper than {MAX_NESTING}")
    if hit is not None:
        return hit[1]
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
    term = game(
        (_from_record(r, depth + 1, memo) for r in record["left"]),
        score,
        (_from_record(r, depth + 1, memo) for r in record["right"]),
    )
    memo[id(record)] = (record, term)
    return term
