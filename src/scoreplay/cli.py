"""Command-line surface.

Exit codes: 0 success, 1 a verification suite found a violation,
2 usage, parse or configuration error.  Output is deterministic for a
given command line; ``--format jsonl`` emits one JSON record per line
with stable field names for scripting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .canonical import Mode, canonicalize
from .core import GameTerm, negate, render
from .notation import ParseError, parse, parse_score, to_structured
from .order import (
    DEFAULT_UNIVERSE,
    Refuted,
    UNIVERSE_SIZE_LIMIT,
    UniverseSpec,
    enumerate_universe,
    equal,
    greater_equal,
    less_equal,
    _too_large,
)
from .rulesets import TfError, _tf_terms, tf_parse, tf_to_game
from .score import base_sets, final_scores, outcome
from .sums import add
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

#: Largest term, in tree nodes, that a command prints.  Sums share their
#: subterms, so a term that is small in memory can print as a tree of
#: exponential size; above this it is a usage error instead.
MAX_PRINT_NODES = 2_000_000

#: Largest ``verify outcome-template --grid``.  The sweep visits
#: (2N+1)^8 grid points: 43 million at 4, 214 million at 5.
MAX_GRID = 4

#: Smallest ``--grid`` whose sweep realizes all 125 outcome triples;
#: grids 0, 1 and 2 realize 1, 106 and 121 of them.
_MIN_GRID = 3


class CliError(Exception):
    """Bad input or configuration; maps to exit code 2."""


#: One compact JSON encoder for every record; ``json.dumps`` with
#: ``separators`` would build a new one per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class _Run:
    """One command's universe, mode, format and output stream.  Conjectural
    text lines get a ``[conjectural] `` prefix, records a true field."""

    spec: UniverseSpec
    mode: Mode
    fmt: str
    out: object  # None prints to sys.stdout

    def text(self, line: str) -> None:
        if self.fmt == "text":
            marker = "[conjectural] " if self.mode is Mode.CONJECTURAL else ""
            print(marker + line, file=self.out)

    def record(self, **fields) -> None:
        if self.fmt == "jsonl":
            if self.mode is Mode.CONJECTURAL:
                fields["conjectural"] = True
            print(_encode(fields), file=self.out)


def _flag_or_env(value, name: str, fallback):
    # Read at each call, not when the parser is built, so one parser
    # serves every call while the environment may change between them.
    return value if value is not None else os.environ.get(name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreplay",
        description="Exact engine for scoring-play combinatorial games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for arg in _ARGS[name]:
            p.add_argument(arg.name, type=arg.type, choices=arg.choices,
                           default=arg.default, help=arg.help)
    return parser


def _config(args: argparse.Namespace, out=None) -> _Run:
    d = DEFAULT_UNIVERSE
    try:
        depth = int(_flag_or_env(args.depth, "SCOREPLAY_DEPTH", d.max_depth))
        width = int(_flag_or_env(args.width, "SCOREPLAY_WIDTH", d.max_width))
    except ValueError:
        raise CliError("SCOREPLAY_DEPTH and SCOREPLAY_WIDTH must be integers") from None
    scores = _flag_or_env(args.scores, "SCOREPLAY_SCORES", d.scores)
    return _Run(_spec(depth, width, scores), Mode(args.mode), args.format, out)


@lru_cache(maxsize=16)
def _spec(depth: int, width: int, scores) -> UniverseSpec:
    """The checked universe of resolved bounds, ``scores`` a tuple or the
    comma-separated text of a flag or variable.  Each distinct one is
    parsed, normalized and size-checked once per process; an error is
    raised afresh on every call, since lru_cache keeps no exception."""
    if isinstance(scores, str):
        try:
            scores = tuple(parse_score(s) for s in scores.split(","))
        except ParseError as exc:
            raise CliError(f"bad --scores: {exc}") from None
    if depth < 0 or width < 0:
        raise CliError("--depth and --width must be >= 0")
    try:
        spec = UniverseSpec(depth, width, scores)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if _too_large(spec):
        raise CliError(
            f"context universe {spec.describe()} has more than "
            f"{UNIVERSE_SIZE_LIMIT} games; pick smaller bounds"
        )
    return spec


def _parse_expr(text: str) -> GameTerm:
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"cannot parse {text!r}: {exc}") from None


def _printable(g: GameTerm) -> GameTerm:
    if g.node_count > MAX_PRINT_NODES:
        raise CliError(
            f"term has {g.node_count} nodes; refusing to print more "
            f"than {MAX_PRINT_NODES}"
        )
    return g


def _render(g: GameTerm) -> str:
    return render(_printable(g))


def _emit_eval(g: GameTerm, run: _Run, term: Optional[str] = None) -> None:
    sl, sr = final_scores(g)
    lset, rset = base_sets(g)
    fields = {
        "term": _render(g) if term is None else term,
        "sl": str(sl), "sr": str(sr), "outcome": outcome(g).value,
        "left_set": lset.value, "right_set": rset.value,
    }
    run.text(" ".join(f"{k}={v}" for k, v in fields.items()))
    run.record(**fields)


def cmd_eval(args, run: _Run) -> int:
    _emit_eval(_parse_expr(args.expr), run)
    return EXIT_OK


def cmd_sum(args, run: _Run) -> int:
    _emit_eval(add(_parse_expr(args.expr1), _parse_expr(args.expr2)), run)
    return EXIT_OK


def cmd_neg(args, run: _Run) -> int:
    term = _render(negate(_parse_expr(args.expr)))
    run.text(f"term={term}")
    run.record(term=term)
    return EXIT_OK


def _verdict_fields(v) -> dict:
    fields: dict = {"verdict": type(v).__name__.lower()}
    if isinstance(v, Refuted):
        fields["witness"] = render(v.witness)
        if v.witness_set is not None:
            fields["witness_set"] = v.witness_set.value
    return fields


def cmd_cmp(args, run: _Run) -> int:
    g = _parse_expr(args.expr1)
    h = _parse_expr(args.expr2)
    # Every verdict is read off class masks, which the universe's table
    # keeps, those of a g or h outside it too, for all three relations.
    verdicts = [
        (rel, fn(g, h, run.spec))
        for rel, fn in ((">=", greater_equal), ("<=", less_equal), ("=", equal))
    ]
    if run.fmt == "text":
        for rel, v in verdicts:
            run.text(f"{rel} {v}")
    else:
        term, other = render(g), render(h)
        for rel, v in verdicts:
            run.record(relation=rel, term=term, other=other, **_verdict_fields(v))
    return EXIT_OK


def cmd_canon(args, run: _Run) -> int:
    g = _parse_expr(args.expr)
    reduced, trace = canonicalize(
        g, run.spec, run.mode, order_seed=args.seed or None
    )
    if run.fmt == "text":
        run.text(f"canonical {_render(reduced)}")
        for i, step in enumerate(trace.steps, start=1):
            run.text(
                f"step {i} {step.kind.value} side={step.side.value} "
                f"removed={_render(step.removed)} witness={_render(step.witness)} "
                f"justification={step.justification}"
            )
        return EXIT_OK
    run.record(
        term=_render(g), canonical=_render(reduced),
        steps=[
            {
                "kind": s.kind.value,
                "side": s.side.value,
                "removed": _render(s.removed),
                "witness": _render(s.witness),
                "verdict": str(s.justification),
            }
            for s in trace.steps
        ],
    )
    return EXIT_OK


def cmd_enum(args, run: _Run) -> int:
    for g in enumerate_universe(run.spec):
        if run.fmt == "text":
            run.text(render(g))
        else:
            run.record(term=render(g), structured=to_structured(g))
    return EXIT_OK


def cmd_tf(args, run: _Run) -> int:
    try:
        pos = tf_parse(args.position)
    except TfError as exc:
        raise CliError(str(exc)) from None
    # A strip's term holds every term built on the way to it, so the first
    # of those over the print limit refuses the strip before the rest of
    # it is compiled; the count named is a lower bound.
    for t in _tf_terms(pos):
        _printable(t)
    g = tf_to_game(pos)
    term = _render(g)
    run.text(f"position {pos.text()}")
    run.record(position=pos.text(), term=term)
    _emit_eval(g, run, term)
    return EXIT_OK


def cmd_verify(args, run: _Run) -> int:
    if args.grid < _MIN_GRID:
        raise CliError(
            f"--grid must be >= {_MIN_GRID}: smaller grids cannot realize "
            "all 125 outcome triples"
        )
    if args.grid > MAX_GRID:
        raise CliError(f"--grid must be <= {MAX_GRID}")
    grid = {"bound": args.grid} if args.suite == "outcome-template" else {}
    result = run_suite(args.suite, run.spec, seed=args.seed, **grid)
    for check in result.checks:
        status = "ok" if check.passed else "FAIL"
        run.text(f"{status} {result.suite}.{check.name} {check.details}")
        run.record(suite=result.suite, check=check.name,
                   status=status.lower(), details=check.details)
    run.text(f"suite {result.suite}: {'PASS' if result.passed else 'FAIL'}")
    run.record(suite=result.suite,
               status="pass" if result.passed else "fail")
    return EXIT_OK if result.passed else EXIT_VIOLATION


#: Each command's function and help line.
_COMMANDS = {
    "eval": (cmd_eval, "final scores, outcome and base sets of a game"),
    "sum": (cmd_sum, "long-rule disjunctive sum of two games"),
    "neg": (cmd_neg, "negation of a game"),
    "cmp": (cmd_cmp, "compare two games: >=, <= and = verdicts"),
    "canon": (cmd_canon, "reduce a game to canonical form"),
    "enum": (cmd_enum, "enumerate the context universe in term order"),
    "tf": (cmd_tf, "compile a Toads-and-Frogs strip (T/F/B) and evaluate it"),
    "verify": (cmd_verify, "run a theorem verification suite"),
}


class _Arg(NamedTuple):
    """One argument: a ``--flag`` or a positional, and where it is taken."""

    name: str
    type: Optional[Callable] = None
    choices: Optional[tuple] = None
    default: object = None
    help: Optional[str] = None
    commands: tuple = tuple(_COMMANDS)

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


#: Every argument of every command, in the order each command's parser
#: adds them, which is the order its help lists them.  Unset universe
#: flags stay None; _config falls back to the SCOREPLAY_* environment
#: variables and then to DEFAULT_UNIVERSE.
_ARG_TABLE = (
    _Arg("--depth", int, help="max depth of context universe games"),
    _Arg("--width", int, help="max option-set size of context universe games"),
    _Arg("--scores",
         help="comma-separated rational scores of the context universe"),
    _Arg("--mode", choices=tuple(m.value for m in Mode), default=Mode.SOUND.value,
         help="sound: only proved comparisons reduce; conjectural: unrefuted ones too"),
    _Arg("--seed", int, default=0, help="seed for reduction order / sampling"),
    _Arg("--format", choices=("text", "jsonl"), default="text",
         help="human-readable text or one JSON record per line"),
    _Arg("expr", commands=("eval", "neg", "canon")),
    _Arg("expr1", commands=("sum", "cmp")),
    _Arg("expr2", commands=("sum", "cmp")),
    _Arg("position", commands=("tf",)),
    _Arg("suite", choices=tuple(sorted(SUITES)), commands=("verify",)),
    _Arg("--grid", int, default=3, help="half-width of the outcome-template grid",
         commands=("verify",)),
)

#: Each command's arguments, in table order.
_ARGS = {
    name: tuple(a for a in _ARG_TABLE if name in a.commands) for name in _COMMANDS
}

#: Each command's flags by name, positionals in order, and the values of
#: a Namespace before any argument is read.
_PLAIN = {
    name: (
        {a.name: a for a in args if a.name.startswith("-")},
        tuple(a for a in args if not a.name.startswith("-")),
        {"command": name, **{a.dest: a.default for a in args}},
    )
    for name, args in _ARGS.items()
}


def _plain_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse gives for an argv of exact flags and plain
    positionals, or None for argparse to read it.

    A token starting with ``-`` must be one of the command's flags, as
    ``--flag value`` or ``--flag=value``; a spaced value must be there and
    not start with ``-``; every value must convert and be one of its
    choices, and there must be as many positionals as the command takes.
    Anything else (help, ``--``, an abbreviation, an unknown flag, a
    negative number as a game, a bad value) is left to argparse, which
    alone prints help, usage lines and errors.  A repeated flag keeps its
    last value, as in argparse.
    """
    plain = _PLAIN.get(argv[0]) if argv else None
    if plain is None:
        return None
    flags, positionals, defaults = plain
    values = dict(defaults)
    found = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            found.append(token)
            continue
        name, eq, value = token.partition("=")
        arg = flags.get(name)
        if arg is None:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value reads as a flag
            if value[:1] == "-":
                return None
        value = _value(arg, value)
        if value is None:
            return None
        values[arg.dest] = value
    if len(found) != len(positionals):
        return None
    for arg, text in zip(positionals, found):
        value = _value(arg, text)
        if value is None:
            return None
        values[arg.dest] = value
    return argparse.Namespace(**values)


def _value(arg: _Arg, text: str):
    """``text`` read as ``arg``'s value, or None where argparse refuses it
    or, before Python 3.13, drops it, as it does a ``--flag=--``."""
    if text == "--":
        return None
    if arg.type is not None:
        try:
            text = arg.type(text)
        except ValueError:
            return None
    if arg.choices is not None and text not in arg.choices:
        return None
    return text


_parser: Optional[argparse.ArgumentParser] = None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    args = _plain_args(argv)
    if args is not None:
        return args
    args = _parser.parse_args(argv)
    # argparse reads a value as [] where it drops a ``--``: that of a
    # ``--flag=--`` before Python 3.13, or a ``--`` after ``--``.
    for arg in _ARGS[args.command]:
        if getattr(args, arg.dest) == []:
            _parser.error(f"argument {arg.name}: expected one argument")
    return args


def main(argv: Optional[list[str]] = None, out=None) -> int:
    global _parser
    if _parser is None:  # built on first use, so importing stays cheap
        _parser = build_parser()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command][0](args, _config(args, out))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
