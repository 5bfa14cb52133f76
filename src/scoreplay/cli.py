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
    universe_size,
)
from .rulesets import TfError, tf_parse, tf_to_game
from .score import base_sets, final_scores, outcome
from .sums import SumEvaluator, add
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Bad input or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    spec: UniverseSpec
    mode: Mode
    seed: int
    fmt: str

    @property
    def conjectural(self) -> bool:
        return self.mode is Mode.CONJECTURAL


def _env_default(name: str, fallback: str) -> str:
    return os.environ.get(name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreplay",
        description="Exact engine for scoring-play combinatorial games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--depth", type=int,
        default=int(_env_default("SCOREPLAY_DEPTH", str(DEFAULT_UNIVERSE.max_depth))),
        help="max depth of context universe games",
    )
    common.add_argument(
        "--width", type=int,
        default=int(_env_default("SCOREPLAY_WIDTH", str(DEFAULT_UNIVERSE.max_width))),
        help="max option-set size of context universe games",
    )
    common.add_argument(
        "--scores",
        default=_env_default(
            "SCOREPLAY_SCORES",
            ",".join(str(s) for s in DEFAULT_UNIVERSE.scores),
        ),
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

    p = sub.add_parser("eval", parents=[common],
                       help="final scores, outcome and base sets of a game")
    p.add_argument("expr")

    p = sub.add_parser("sum", parents=[common],
                       help="long-rule disjunctive sum of two games")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("neg", parents=[common], help="negation of a game")
    p.add_argument("expr")

    p = sub.add_parser("cmp", parents=[common],
                       help="compare two games: >=, <= and = verdicts")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("canon", parents=[common],
                       help="reduce a game to canonical form")
    p.add_argument("expr")

    sub.add_parser("enum", parents=[common],
                   help="enumerate the context universe in term order")

    p = sub.add_parser("tf", parents=[common],
                       help="compile a Toads-and-Frogs strip (T/F/B) and evaluate it")
    p.add_argument("position")

    p = sub.add_parser("verify", parents=[common],
                       help="run a theorem verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--grid", type=int, default=3,
                   help="half-width of the outcome-template grid")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    try:
        scores = tuple(parse_score(s) for s in args.scores.split(","))
    except ParseError as exc:
        raise CliError(f"bad --scores: {exc}") from None
    if args.depth < 0 or args.width < 0:
        raise CliError("--depth and --width must be >= 0")
    try:
        spec = UniverseSpec(args.depth, args.width, scores)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if universe_size(spec) > UNIVERSE_SIZE_LIMIT:
        raise CliError(
            f"context universe {spec.describe()} has {universe_size(spec)} "
            "games; pick smaller bounds"
        )
    return RunConfig(spec, Mode(args.mode), args.seed, args.format)


class _Output:
    """Line-oriented emitter; prefixes conjectural-mode results in text."""

    def __init__(self, config: RunConfig, out) -> None:
        self.config = config
        self.out = out

    def text(self, line: str) -> None:
        if self.config.fmt == "text":
            marker = "[conjectural] " if self.config.conjectural else ""
            print(marker + line, file=self.out)

    def record(self, **fields) -> None:
        if self.config.fmt == "jsonl":
            if self.config.conjectural:
                fields["conjectural"] = True
            print(json.dumps(fields, separators=(",", ":")), file=self.out)


def _parse_expr(text: str) -> GameTerm:
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"cannot parse {text!r}: {exc}") from None


def _emit_eval(g: GameTerm, out: _Output) -> None:
    sl, sr = final_scores(g)
    lset, rset = base_sets(g)
    out.text(
        f"term={render(g)} sl={sl} sr={sr} outcome={outcome(g).value} "
        f"left_set={lset.value} right_set={rset.value}"
    )
    out.record(
        term=render(g), sl=str(sl), sr=str(sr), outcome=outcome(g).value,
        left_set=lset.value, right_set=rset.value,
    )


def cmd_eval(args, config: RunConfig, out: _Output) -> int:
    _emit_eval(_parse_expr(args.expr), out)
    return EXIT_OK


def cmd_sum(args, config: RunConfig, out: _Output) -> int:
    s = add(_parse_expr(args.expr1), _parse_expr(args.expr2))
    _emit_eval(s, out)
    return EXIT_OK


def cmd_neg(args, config: RunConfig, out: _Output) -> int:
    n = negate(_parse_expr(args.expr))
    out.text(f"term={render(n)}")
    out.record(term=render(n))
    return EXIT_OK


def _verdict_fields(v) -> dict:
    fields: dict = {"verdict": type(v).__name__.lower()}
    if isinstance(v, Refuted):
        fields["witness"] = render(v.witness)
        if v.witness_set is not None:
            fields["witness_set"] = v.witness_set.value
    return fields


def cmd_cmp(args, config: RunConfig, out: _Output) -> int:
    g = _parse_expr(args.expr1)
    h = _parse_expr(args.expr2)
    ev = SumEvaluator()  # the rows of g and h serve all three searches
    for rel, fn in ((">=", greater_equal), ("<=", less_equal), ("=", equal)):
        v = fn(g, h, config.spec, ev)
        out.text(f"{rel} {v}")
        out.record(relation=rel, term=render(g), other=render(h),
                   **_verdict_fields(v))
    return EXIT_OK


def cmd_canon(args, config: RunConfig, out: _Output) -> int:
    g = _parse_expr(args.expr)
    reduced, trace = canonicalize(
        g, config.spec, config.mode, order_seed=args.seed or None
    )
    out.text(f"canonical {render(reduced)}")
    for i, step in enumerate(trace.steps, start=1):
        out.text(
            f"step {i} {step.kind.value} side={step.side.value} "
            f"removed={render(step.removed)} witness={render(step.witness)} "
            f"justification={step.justification}"
        )
    out.record(
        term=render(g), canonical=render(reduced),
        steps=[
            {
                "kind": s.kind.value,
                "side": s.side.value,
                "removed": render(s.removed),
                "witness": render(s.witness),
                "verdict": str(s.justification),
            }
            for s in trace.steps
        ],
    )
    return EXIT_OK


def cmd_enum(args, config: RunConfig, out: _Output) -> int:
    for g in enumerate_universe(config.spec):
        out.text(render(g))
        out.record(term=render(g), structured=to_structured(g))
    return EXIT_OK


def cmd_tf(args, config: RunConfig, out: _Output) -> int:
    try:
        pos = tf_parse(args.position)
    except TfError as exc:
        raise CliError(str(exc)) from None
    g = tf_to_game(pos)
    out.text(f"position {pos.text()}")
    out.record(position=pos.text(), term=render(g))
    _emit_eval(g, out)
    return EXIT_OK


def cmd_verify(args, config: RunConfig, out: _Output) -> int:
    if args.suite == "outcome-template" and args.grid != 3:
        from .verify import verify_outcome_template

        result = verify_outcome_template(bound=args.grid)
    else:
        result = run_suite(args.suite, config.spec, seed=args.seed)
    for check in result.checks:
        status = "ok" if check.passed else "FAIL"
        out.text(f"{status} {result.suite}.{check.name} {check.details}")
        out.record(suite=result.suite, check=check.name,
                   status="ok" if check.passed else "fail",
                   details=check.details)
    out.text(f"suite {result.suite}: {'PASS' if result.passed else 'FAIL'}")
    out.record(suite=result.suite,
               status="pass" if result.passed else "fail")
    return EXIT_OK if result.passed else EXIT_VIOLATION


_COMMANDS = {
    "eval": cmd_eval,
    "sum": cmd_sum,
    "neg": cmd_neg,
    "cmp": cmd_cmp,
    "canon": cmd_canon,
    "enum": cmd_enum,
    "tf": cmd_tf,
    "verify": cmd_verify,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = _config(args)
        return _COMMANDS[args.command](args, config, _Output(config, out))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
