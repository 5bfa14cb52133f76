"""Reference bracket-notation parser and printer for differential tests.

This is the straightforward recursive-descent parser and recursive
printer that ``scoreplay.notation.parse`` and ``scoreplay.core.render``
replaced: one regex match and one span per token, one Python frame per
grammar rule and per level of a term.  It is kept as written except for
number conversion, which handles the two literals it used to let escape
as ValueError: a decimal with a denominator ('1.5/2' is 3/4) and a
literal too long for ``int``.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

from scoreplay import DuplicateOptionWarning, GameTerm, ParseError, game, leaf
from scoreplay.core import as_score
from scoreplay.notation import MAX_NESTING, SourceSpan

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


def _number_to_score(text: str, span: SourceSpan):
    num, _, den = text.partition("/")
    try:
        return as_score(Fraction(num) / Fraction(den or 1))
    except ZeroDivisionError:
        raise ParseError("zero denominator", span) from None
    except ValueError:
        raise ParseError("number has too many digits", span) from None


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

    def parse_score_token(self):
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
    if not text.strip():
        raise ParseError("empty input", SourceSpan(0, len(text)))
    parser = _Parser(text)
    term = parser.parse_game()
    if parser.pos < len(parser.tokens):
        tok, span = parser.tokens[parser.pos]
        raise ParseError(f"trailing input {tok!r}", span)
    return term


def render(g: GameTerm, full: bool = False) -> str:
    if g.is_leaf and not full:
        return str(g.score)
    lt = ",".join(render(o, full) for o in g.left) if g.left else "."
    rt = ",".join(render(o, full) for o in g.right) if g.right else "."
    return f"{{{lt}|{g.score}|{rt}}}"
