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
from typing import Optional

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
            print(json.dumps(fields, separators=(",", ":")), file=self.out)


def _flag_or_env(value, name: str, fallback):
    # Read at each call, not when the parser is built, so one parser
    # serves every call while the environment may change between them.
    return value if value is not None else os.environ.get(name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreplay",
        description="Exact engine for scoring-play combinatorial games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # Unset universe flags stay None; _config falls back to the
    # SCOREPLAY_* environment variables and then to DEFAULT_UNIVERSE.
    common.add_argument("--depth", type=int,
                        help="max depth of context universe games")
    common.add_argument("--width", type=int,
                        help="max option-set size of context universe games")
    common.add_argument(
        "--scores",
        help="comma-separated rational scores of the context universe",
    )
    common.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.SOUND.value,
        help="sound: only proved comparisons reduce; conjectural: unrefuted ones too",
    )
    common.add_argument("--seed", type=int, default=0,
                        help="seed for reduction order / sampling")
    common.add_argument("--format", choices=["text", "jsonl"], default="text",
                        help="human-readable text or one JSON record per line")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for arg in positionals:
            p.add_argument(arg)
    verify = sub.choices["verify"]
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--grid", type=int, default=3,
                        help="half-width of the outcome-template grid")
    return parser


def _config(args: argparse.Namespace, out=None) -> _Run:
    d = DEFAULT_UNIVERSE
    try:
        depth = int(_flag_or_env(args.depth, "SCOREPLAY_DEPTH", d.max_depth))
        width = int(_flag_or_env(args.width, "SCOREPLAY_WIDTH", d.max_width))
    except ValueError:
        raise CliError("SCOREPLAY_DEPTH and SCOREPLAY_WIDTH must be integers") from None
    scores = _flag_or_env(args.scores, "SCOREPLAY_SCORES", d.scores)
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
    return _Run(spec, Mode(args.mode), args.format, out)


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


#: Each command's function, help line and plain positional arguments;
#: build_parser adds the suite choices and ``--grid`` of ``verify``.
_COMMANDS = {
    "eval": (cmd_eval, "final scores, outcome and base sets of a game", ("expr",)),
    "sum": (cmd_sum, "long-rule disjunctive sum of two games", ("expr1", "expr2")),
    "neg": (cmd_neg, "negation of a game", ("expr",)),
    "cmp": (cmd_cmp, "compare two games: >=, <= and = verdicts", ("expr1", "expr2")),
    "canon": (cmd_canon, "reduce a game to canonical form", ("expr",)),
    "enum": (cmd_enum, "enumerate the context universe in term order", ()),
    "tf": (cmd_tf, "compile a Toads-and-Frogs strip (T/F/B) and evaluate it",
           ("position",)),
    "verify": (cmd_verify, "run a theorem verification suite", ()),
}


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None, out=None) -> int:
    global _parser
    if _parser is None:  # built on first use, so importing stays cheap
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command][0](args, _config(args, out))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
