import hashlib
import io
import json
import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreplay import render
from scoreplay.cli import main

from conftest import notation_text


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestEval:
    def test_example(self):
        code, out = run_cli("eval", "{1|0|0}")
        assert code == 0
        assert out == (
            "term={1|0|0} sl=1 sr=0 outcome=L left_set=L> right_set=R=\n"
        )

    def test_zero(self):
        code, out = run_cli("eval", "0")
        assert "sl=0 sr=0 outcome=T" in out

    def test_tbf_term(self):
        code, out = run_cli("eval", "{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}")
        assert code == 0
        assert "sl=-1 sr=1 outcome=P" in out

    def test_jsonl(self):
        code, out = run_cli("eval", "{1|0|0}", "--format", "jsonl")
        rec = json.loads(out)
        assert rec == {
            "term": "{1|0|0}", "sl": "1", "sr": "0", "outcome": "L",
            "left_set": "L>", "right_set": "R=",
        }

    def test_parse_error_exits_2(self, capsys):
        code, _ = run_cli("eval", "{1|")
        assert code == 2


def _nested(depth: int, score: str = "1") -> str:
    """A term whose braces nest ``depth`` deep: {{...{1|0|.}...|0|.}|0|.}."""
    return "{" * depth + score + "|0|.}" * depth


class TestDeepInput:
    def test_too_deep_term_exits_2(self, capsys):
        code, out = run_cli("eval", _nested(600))
        assert code == 2
        assert out == ""
        assert "nest deeper than" in capsys.readouterr().err

    def test_deepest_accepted_term_evaluates(self):
        from scoreplay.notation import MAX_NESTING

        code, out = run_cli("eval", _nested(MAX_NESTING))
        assert code == 0
        assert out.startswith("term={{") and " outcome=" in out
        assert run_cli("eval", _nested(MAX_NESTING + 1))[0] == 2

    def test_cmp_on_deepest_accepted_term_completes(self):
        from scoreplay.notation import MAX_NESTING

        deep = _nested(MAX_NESTING)
        for fmt in ("text", "jsonl"):
            code, out = run_cli("cmp", deep, _nested(MAX_NESTING - 1),
                                "--format", fmt)
            assert code == 0
            assert len(out.splitlines()) == 3

    def test_sum_of_deep_ties_exits_2_without_a_traceback(self):
        # The two Left options tie on every field down 198 levels to their
        # leaves, and so do the sum's components; comparing them must not
        # recurse once per level.  The sum is too large to print.
        left = "{" + _nested(198, "1") + "," + _nested(198, "2") + "|0|.}"
        argv = ["sum", left, _nested(199, "3")]
        done = subprocess.run(
            [sys.executable, "-m", "scoreplay", *argv],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "nodes; refusing to print more than" in done.stderr
        assert "Traceback" not in done.stderr


class TestAlgebraCommands:
    def test_sum(self):
        code, out = run_cli("sum", "{1|0|.}", "{.|0|-1}")
        assert code == 0
        assert "term={{.|1|0}|0|{0|-1|.}}" in out

    def test_neg(self):
        code, out = run_cli("neg", "{1|0|0}")
        assert out == "term={0|0|-1}\n"

    def test_sum_too_large_to_print_exits_2(self):
        # The sum of two 30-deep chains is small as a shared term but
        # prints as a tree of about 2*10**16 nodes.
        from scoreplay.cli import MAX_PRINT_NODES

        chain = _nested(30)
        done = subprocess.run(
            [sys.executable, "-m", "scoreplay", "sum", chain, chain],
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "nodes; refusing to print more than" in done.stderr
        assert str(MAX_PRINT_NODES) in done.stderr


class TestCmp:
    def test_equivalent_pair(self):
        code, out = run_cli("cmp", "{1|1|1}", "{1|0|1}")
        assert code == 0
        assert "= Proved(Equivalent)" in out.splitlines()

    def test_refuted_with_witness(self):
        _, out = run_cli("cmp", "0", "1")
        assert ">= Refuted(X=0, O=L>)" in out.splitlines()

    def test_jsonl_fields(self):
        _, out = run_cli("cmp", "0", "1", "--format", "jsonl")
        recs = [json.loads(line) for line in out.splitlines()]
        assert [r["relation"] for r in recs] == [">=", "<=", "="]
        assert recs[0]["verdict"] == "refuted"
        assert recs[0]["witness"] == "0"


class TestCanon:
    def test_example(self):
        code, out = run_cli("canon", "{{3|0|4},{3|1|4}|0|.}")
        lines = out.splitlines()
        assert lines[0] == "canonical {{3|0|4}|0|.}"
        assert len(lines) == 2 and lines[1].startswith("step 1 domination")

    def test_conjectural_marker(self):
        _, out = run_cli(
            "canon", "0", "--mode", "conjectural", "--scores=-1,0,1"
        )
        assert out.startswith("[conjectural] ")

    def test_jsonl_conjectural_flag(self):
        _, out = run_cli(
            "canon", "0", "--mode", "conjectural", "--format", "jsonl",
            "--scores=-1,0,1",
        )
        assert json.loads(out)["conjectural"] is True


class TestEnum:
    def test_tiny(self):
        code, out = run_cli("enum", "--depth", "0", "--width", "0",
                            "--scores", "0,1")
        assert out == "0\n1\n"

    def test_structured(self):
        _, out = run_cli("enum", "--depth", "0", "--width", "0",
                         "--scores", "1/2", "--format", "jsonl")
        rec = json.loads(out)
        assert rec["term"] == "1/2"
        assert rec["structured"] == {"left": [], "score": "1/2", "right": []}

    def test_oversized_universe_is_a_usage_error(self):
        # twice: a refused spec is refused again, not remembered as valid
        for _ in range(2):
            code, _ = run_cli("enum", "--depth", "2", "--width", "2")
            assert code == 2


class TestTf:
    def test_tbf(self):
        code, out = run_cli("tf", "TBF")
        assert code == 0
        assert "position TBF" in out
        assert "term={{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}" in out

    def test_repeated_in_process_calls(self):
        # the second call finds the strip compiled and builds nothing
        first = run_cli("tf", "TBF")
        assert first[0] == 0 and "position TBF" in first[1]
        assert run_cli("tf", "TBF") == first

    def test_oversized_strip_is_refused_before_it_is_compiled(self):
        # Compiled whole, this strip takes seconds and prints as about
        # 10**25 nodes; the first term over the limit refuses it.
        from scoreplay.cli import MAX_PRINT_NODES

        done = subprocess.run(
            [sys.executable, "-m", "scoreplay", "tf", "TTTTTTTBBFFFFFFF"],
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "nodes; refusing to print more than" in done.stderr
        assert str(MAX_PRINT_NODES) in done.stderr

    def test_largest_printed_strip_is_under_the_print_limit(self):
        from scoreplay import tf_parse, tf_to_game
        from scoreplay.cli import MAX_PRINT_NODES

        g = tf_to_game(tf_parse("TTBBBFF"))
        assert 10**6 < g.node_count <= MAX_PRINT_NODES

    def test_bad_position(self):
        code, _ = run_cli("tf", "TXF")
        assert code == 2

    def test_strip_depth_bound(self, capsys):
        # a toad with n blanks to its right compiles to an n-deep chain
        from scoreplay.notation import MAX_NESTING

        code, out = run_cli("tf", "T" + "B" * MAX_NESTING)
        assert code == 0
        assert " outcome=T " in out
        code, out = run_cli("tf", "T" + "B" * (MAX_NESTING + 1))
        assert code == 2
        assert out == ""
        assert "nesting limit" in capsys.readouterr().err


class TestVerify:
    def test_pass_exits_0(self):
        code, out = run_cli("verify", "cong-probe", "--scores=-1,0,1")
        assert code == 0
        assert "suite cong-probe: PASS" in out

    def test_unknown_suite_exits_2(self):
        code, _ = run_cli("verify", "no-such-suite")
        assert code == 2

    def test_negative_grid_is_a_usage_error(self, capsys):
        code, out = run_cli("verify", "outcome-template", "--grid", "-1")
        assert (code, out) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid must be >= 3" in captured.err

    @pytest.mark.parametrize("grid", ["0", "1", "2"])
    def test_grid_too_small_for_every_triple_is_a_usage_error(
            self, grid, monkeypatch, capsys):
        import scoreplay.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli_mod, "run_suite", never)
        code, out = run_cli("verify", "outcome-template", "--grid", grid)
        assert (code, out) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid must be >= 3" in captured.err

    def test_smallest_grid_accepted_is_3(self, monkeypatch):
        import scoreplay.cli as cli_mod
        from scoreplay.verify import SuiteResult

        calls = []

        def passing(suite, spec, **kwargs):
            calls.append(kwargs)
            return SuiteResult(suite)

        monkeypatch.setattr(cli_mod, "run_suite", passing)
        code, out = run_cli("verify", "outcome-template", "--grid", "3")
        assert code == 0
        assert calls == [{"seed": 0, "bound": 3}]

    def test_grid_above_the_bound_is_a_usage_error(self, monkeypatch, capsys):
        import scoreplay.cli as cli_mod
        from scoreplay.verify import SuiteResult

        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli_mod, "run_suite", never)
        code, out = run_cli("verify", "outcome-template", "--grid", "5")
        assert (code, out) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid must be <= 4" in captured.err

        calls = []

        def passing(suite, spec, **kwargs):
            calls.append(kwargs)
            return SuiteResult(suite)

        monkeypatch.setattr(cli_mod, "run_suite", passing)
        code, out = run_cli("verify", "outcome-template", "--grid", "4")
        assert code == 0
        assert calls == [{"seed": 0, "bound": 4}]
        assert "suite outcome-template: PASS" in out
        assert cli_mod.MAX_GRID == 4

    def test_violation_exit_code_mapping(self):
        # exit 1 is reserved for suites that find a violation; fabricate
        # one through the same reporting path
        from scoreplay.cli import EXIT_VIOLATION
        from scoreplay.verify import SuiteResult
        import scoreplay.cli as cli_mod

        failing = SuiteResult("partition")
        failing.add("synthetic", False, "forced")
        orig = cli_mod.run_suite
        cli_mod.run_suite = lambda *a, **k: failing
        try:
            code, out = run_cli("verify", "partition", "--scores", "0")
        finally:
            cli_mod.run_suite = orig
        assert code == EXIT_VIOLATION
        assert "suite partition: FAIL" in out


class TestDeterminismAndConfig:
    def test_identical_invocations_identical_output(self):
        a = run_cli("cmp", "{1|0|0}", "0")
        b = run_cli("cmp", "{1|0|0}", "0")
        assert a == b

    def test_env_universe_defaults(self, monkeypatch):
        monkeypatch.setenv("SCOREPLAY_DEPTH", "0")
        monkeypatch.setenv("SCOREPLAY_WIDTH", "0")
        monkeypatch.setenv("SCOREPLAY_SCORES", "0,1")
        _, out = run_cli("enum")
        assert out == "0\n1\n"

    def test_flags_beat_env(self, monkeypatch):
        monkeypatch.setenv("SCOREPLAY_SCORES", "0,1")
        _, out = run_cli("enum", "--depth", "0", "--width", "0",
                         "--scores", "0")
        assert out == "0\n"

    def test_parser_is_built_once_and_env_is_read_per_call(self, monkeypatch):
        import scoreplay.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_parser", None)
        assert run_cli("enum", "--depth", "0", "--width", "0",
                       "--scores", "0") == (0, "0\n")
        assert cli_mod._parser is None  # the flag table read that argv
        assert run_cli("enum", "--dep", "0", "--width", "0",
                       "--scores", "0") == (0, "0\n")
        parser = cli_mod._parser
        assert parser is not None  # an abbreviation goes to argparse
        assert run_cli("enum", "--dep", "0", "--width", "0",
                       "--scores", "1") == (0, "1\n")
        assert cli_mod._parser is parser
        monkeypatch.setenv("SCOREPLAY_DEPTH", "0")
        monkeypatch.setenv("SCOREPLAY_WIDTH", "0")
        monkeypatch.setenv("SCOREPLAY_SCORES", "2")
        assert run_cli("enum") == (0, "2\n")
        # the same argv with the spec memo warm still reads the variable
        assert run_cli("enum") == (0, "2\n")
        monkeypatch.setenv("SCOREPLAY_SCORES", "3")
        assert run_cli("enum") == (0, "3\n")
        monkeypatch.setenv("SCOREPLAY_DEPTH", "deep")
        assert run_cli("enum")[0] == 2
        assert cli_mod._parser is parser

    def test_default_scores_are_not_parsed_from_text(self, monkeypatch):
        import scoreplay.cli as cli_mod
        from scoreplay import DEFAULT_UNIVERSE

        for name in ("SCOREPLAY_DEPTH", "SCOREPLAY_WIDTH", "SCOREPLAY_SCORES"):
            monkeypatch.delenv(name, raising=False)

        def refuse(text):
            raise AssertionError(f"parsed {text!r}")

        monkeypatch.setattr(cli_mod, "parse_score", refuse)
        args = cli_mod.build_parser().parse_args(["enum"])
        assert cli_mod._config(args).spec == DEFAULT_UNIVERSE

    def test_bad_scores_flag(self):
        # twice: an error is raised afresh, not remembered
        for _ in range(2):
            code, _ = run_cli("enum", "--scores", "0,zebra")
            assert code == 2

    @pytest.mark.parametrize("bounds, code", [
        (["--depth", "8"], 2),
        (["--depth", "12"], 2),
        # Small universes despite the bounds: the 5,120 games of width 5,
        # and the five leaves, so they are searched, not refused.
        (["--width", "100000000"], 0),
        (["--depth", "100000000", "--width", "0"], 0),
    ])
    def test_huge_universe_bounds_answer_at_once(self, bounds, code):
        done = subprocess.run(
            [sys.executable, "-m", "scoreplay", "cmp", "0", "1", *bounds],
            capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        if code == 2:
            assert done.stdout == ""
            assert "has more than 2000000 games" in done.stderr
        else:
            assert done.stdout == run_cli("cmp", "0", "1")[1]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["eval", "neg", "sum", "canon"]),
    st.lists(notation_text(), max_size=3),
)
def test_random_arguments_give_an_exit_code(command, args):
    code, _ = run_cli(command, *args)
    assert code in (0, 1, 2)


def test_decimal_with_denominator_evaluates():
    code, out = run_cli("eval", "{1.5/2|0|.}")
    assert code == 0
    assert out.startswith("term={3/4|0|.} sl=3/4 ")


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "scoreplay", "eval", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0
    assert "outcome=T" in out.stdout


# sha256 of the help texts at 80 columns, pinned so that changes to how
# the parser is built leave what it prints byte-identical.
HELP_SHA256 = {
    None: "d5a4e2f7b4db399ce8b82cdcbf5fdeed12522a0dbd2cf539b5902fd5a252600d",
    "eval": "de1994797786610e1ca5f8b0bf02bcfead2d86586157230f76bc07bd81889dee",
    "sum": "9ff46111698c808ce5ce8ea06f7824d06f833866d2275424b733654d7e68858e",
    "neg": "29c4e23dc2175445f5ae9918764a4244885bd8a48aa9d3ea0a4e86fc90737efc",
    "cmp": "071a4fccb70df87810cdd5fe76853b2624d3e234ca4e809806b7dfb4e4b5b13f",
    "canon": "f0ebb73c5d47a396e2fc7923c4ecdbb3134fd22dffee619564b9a4ea6532af92",
    "enum": "3f0540e1dadfc095a6c7e70dd7179a4397b0f47b0d38fe0fb654ce0303c374a4",
    "tf": "3d2ed42620318d978e9a869b265c22281163b22e6240305e49e981b55168d1d2",
    "verify": "7623ababc99493b8ccf7a0130cf11cf79459a7923ae56664184242c1a2f51304",
}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text


# sha256 of "exit code\0stdout\0stderr" of main at 80 columns on argv that
# a command's own parser could answer differently from the top-level
# parser: no command, an unknown one, leftover or missing arguments, an
# option before the command, "--", an abbreviation, help and a missing
# value.  Pinned so that how main dispatches an argv leaves all three
# byte-identical; an unrecognized argument keeps the top-level usage line.
DISPATCH_SHA256 = {
    (): "a28e2c9493e87df2f1b5f46d143a7e8fe4a5e2ea54338edd38ca2953be6112dc",
    ("bogus",): "3a222e478f8bc4b1cd2236d1fb858b2a78f012109b8ac0296bfff50d3c4948f4",
    ("cmp", "0", "1", "--bogus"): "f26df43b4cb5132e4f02c71e6bc605abd5277b6415216248453a6103b32ffde8",
    ("cmp", "--", "0", "-1"): "8ff3ca2e719a404dcfbf0d950086dda3dac3a1ee97b24cc5fe91f5c4f27436d3",
    ("cmp", "0"): "2e43a307a4827e1265ae9fc1b2d80713f8ff77431b832c124a727061d8503fc3",
    ("cmp", "0", "1", "2"): "d992792d89ac434df701d9b3313da395b58ff2d02ed0c16fc2668f1dc8747701",
    ("--depth", "1", "cmp", "0", "1"): "c7ed2c2292cff70d2f79b4b0f25b5c5dfeaf73898be3ebeba990c6a931e47714",
    ("cmp", "0", "1", "--dep", "0"): "99f47ecfc8754483a73391ec32a1c8df494927315a9480c02d39501fa6d1ffbb",
    ("cmp", "0", "1", "-h"): "789811b371d15b4feba50d6186af50d574eff3c27294fd1e4f8a92c32e84c77b",
    ("cmp", "0", "1", "--format"): "3bb6ae1e769e9a6695fc6c473ba414b77eb41f0b5b67194fc6af642fcaeafb9c",
    ("verify", "bogus"): "5a62f5d7a8de34eb4eb7123a034c2c1d9387ca12b0c6c698a5e1898f53c0dc55",
    # a repeated flag, which the plain path reads, and a negative game, a
    # bad int and a bad int in the "=" form, which argparse reads
    ("cmp", "0", "1", "--format=jsonl", "--format", "text"): "99f47ecfc8754483a73391ec32a1c8df494927315a9480c02d39501fa6d1ffbb",
    ("cmp", "-1", "0"): "c781a99b2c35fdb81970e9f72ead1785284a7439089e761378a79fcb35d193ba",
    ("eval", "0", "--seed", "x"): "c5698261a80f301b2b4cd4a5491e3a96a6839f238100c92b3a1f43f59cb009aa",
    ("verify", "partition", "--grid=x"): "81dec31ceda6f41084f9c05b13b63f2689aeca1fe681c8cfea7c51eac5fe003b",
}


@pytest.mark.parametrize("argv", list(DISPATCH_SHA256), ids=" ".join)
def test_dispatch_output_is_unchanged(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("SCOREPLAY_DEPTH", "SCOREPLAY_WIDTH", "SCOREPLAY_SCORES"):
        monkeypatch.delenv(name, raising=False)
    code = main(list(argv))
    captured = capsys.readouterr()
    text = f"{code}\0{captured.out}\0{captured.err}"
    assert hashlib.sha256(text.encode()).hexdigest() == DISPATCH_SHA256[argv], text


def _argparse_vars(argv):
    """vars() of the Namespace that argparse, parsing from the top, gives."""
    return vars(_reference_parser().parse_args(argv))


@lru_cache(maxsize=None)
def _reference_parser():
    from scoreplay.cli import build_parser

    return build_parser()


#: Each flag, and "--dep" (an abbreviation), with values it takes; every
#: flag is also given the values below, many of which it refuses.
_FLAG_VALUES = {
    "--depth": ["0", "1", "+2", " 1"], "--width": ["1", "2", "1_0"],
    "--scores": ["0,1", "-2,0,1/2", "", "--"], "--mode": ["sound", "conjectural"],
    "--seed": ["0", "7", "-3"], "--format": ["text", "jsonl"],
    "--grid": ["3", "4"], "--dep": ["1"],
}
_VALUES = [
    "0", "12", "x", "1.5", "", "-1", "-0.5", "-1/2", "sound", "csv",
    "jsonl", "partition", "outcome-template", "{1|0|.}", "{.|-1|0}",
]
_positional = st.one_of(st.sampled_from(_VALUES), notation_text())
_suite = st.sampled_from(["partition", "outcome-template", "bogus"])
_flag_unit = st.sampled_from(
    # the flags of every command thrice as often as "--grid" and "--dep"
    [fv for fv in _FLAG_VALUES.items() if fv[0] not in ("--grid", "--dep")] * 3
    + [("--grid", _FLAG_VALUES["--grid"]), ("--dep", _FLAG_VALUES["--dep"])]
).flatmap(
    lambda fv: st.builds(
        lambda v, spaced: [fv[0], v] if spaced else [f"{fv[0]}={v}"],
        st.sampled_from(fv[1] * 4 + _VALUES), st.booleans(),
    )
)
_odd_token = st.sampled_from(["-h", "--help", "--", "-", "--bogus", "-1",
                              "-0.5", "-1/2", "--format"])
_POSITIONALS = {"eval": 1, "sum": 2, "neg": 1, "cmp": 2, "canon": 1,
                "enum": 0, "tf": 1, "verify": 1}


@st.composite
def _argv(draw):
    """A command, or not, then positionals, mostly as many as it takes,
    and flags with spaced and "=" values, now and then an odd token, in
    any order."""
    command = draw(st.sampled_from([*_POSITIONALS, "bogus", "--depth", "-h"]))
    n = _POSITIONALS.get(command, 1)
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(0, 3))
    positional = _suite if command == "verify" else _positional
    units = [[t] for t in draw(st.lists(positional, min_size=n, max_size=n))]
    units += draw(st.lists(_flag_unit, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        units.append([draw(_odd_token)])
    return [command, *(t for unit in draw(st.permutations(units)) for t in unit)]


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_plain_args_match_argparse(argv):
    from scoreplay.cli import _plain_args

    args = _plain_args(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["cmp", "0", "1", "--format=jsonl", "--format", "text"],
    ["cmp", "--depth", "1", "{1|0|.}", "--seed=-3", "0"],
    ["eval", "", "--scores=", "--mode", "conjectural"],
    ["enum", "--width", " 2", "--depth=+1"],
    ["verify", "outcome-template", "--grid", "4", "--format=jsonl"],
    ["tf", "TBF"],
])
def test_plain_argv_takes_the_plain_path(argv):
    from scoreplay.cli import _plain_args

    args = _plain_args(argv)
    assert args is not None
    assert vars(args) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--depth", "1", "cmp", "0", "1"], ["cmp", "0", "1", "-h"],
    ["cmp", "--", "0", "1"], ["cmp", "0", "1", "--dep", "0"],
    ["cmp", "0", "1", "--dep=0"], ["cmp", "-1", "0"], ["eval", "-0.5"],
    ["eval", "-1/2"], ["cmp", "0", "1", "--format"],
    ["cmp", "0", "1", "--seed", "-1"], ["cmp", "0", "1", "--format", "csv"],
    ["eval", "0", "--seed", "x"], ["verify", "partition", "--grid=x"],
    ["verify", "bogus"], ["cmp", "0"], ["cmp", "0", "1", "2"],
    ["cmp", "0", "1", "--grid", "3"], ["enum", "--scores=--"],
])
def test_other_argv_is_left_to_argparse(argv):
    from scoreplay.cli import _plain_args

    assert _plain_args(argv) is None


@pytest.mark.parametrize("argv", [
    ["enum", "--mode=--"], ["enum", "--depth=--"],
    ["verify", "partition", "--grid=--"], ["eval", "0", "--scores=--"],
    ["cmp", "0", "1", "--format=--"], ["cmp", "0", "1", "--seed=--"],
    ["cmp", "0", "--", "--"],
], ids=" ".join)
def test_a_dropped_double_dash_value_is_a_usage_error(argv):
    # Before Python 3.13 argparse reads the value of a "--flag=--" as [],
    # and on every version the positional after "0 -- --"; 3.13 refuses
    # the flags itself, in its own words, so the message is not pinned.
    from scoreplay.cli import _plain_args

    assert _plain_args(argv) is None
    done = subprocess.run(
        [sys.executable, "-m", "scoreplay", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr


def test_seeded_cmp_argv_takes_the_plain_path():
    # The argv shape of the cmp-default benchmark workload: only a game
    # written as a bare negative number is left to argparse.
    from scoreplay import DEFAULT_UNIVERSE, universe
    from scoreplay.cli import _plain_args

    games = universe(DEFAULT_UNIVERSE)
    flags = ["--depth", "1", "--width", "2",
             "--scores=" + ",".join(map(str, DEFAULT_UNIVERSE.scores)),
             "--format", "jsonl"]
    rng = random.Random(3)
    plain = 0
    for _ in range(300):
        argv = ["cmp", render(rng.choice(games)), render(rng.choice(games)), *flags]
        args = _plain_args(argv)
        negative = any(a.startswith("-") for a in argv[1:3])
        assert (args is None) == negative, argv
        if args is not None:
            plain += 1
            assert vars(args) == _argparse_vars(argv)
    assert plain >= 290


# Fixed cmp pairs covering every Proved rule, Refuted with each witness
# set and with none, and Unrefuted; sha256 of the concatenated output of
# all of them, pinned so that changes to how verdicts are reached leave
# what cmp prints byte-identical.
CMP_GUARD_PAIRS = [
    ("{0,-1|0|1,-1}", "{0,-1|-2|1,-1}"), ("{1|2|0,2}", "{1|2|0,2}"),
    ("{0|1|0,1}", "{-2|1|0,2}"), ("{1,-2|-1|0}", "{0,-1|2|0}"),
    ("{0,2|0|1}", "{2|1|1,-2}"), ("{2|-2|1,2}", "{1,-2|1|0,1}"),
    ("{-1|1|0,-2}", "{0,2|2|2}"), ("{1|-2|-2}", "{1,-2|-2|1,-2}"),
    ("1", "1/2"), ("1/2", "1"),
    ("{.|-1|0,1}", "{0,1|2|-1,-2}"), ("{-2|1|2,-2}", "{0,-1|-1|1,-2}"),
    ("{0,2|0|0}", "{-1|-1|1}"), ("{2,-2|0|2,-2}", "{-1,2|-2|0}"),
    ("0", "1"), ("1", "0"), ("0", "0"), ("{.|-2|.}", "2"),
    ("{1|1|1}", "{1|0|1}"), ("{2|0|.}", "{1|0|.}"), ("{1|0|.}", "{2|0|.}"),
    ("{{3|0|4},{3|1|4}|0|.}", "{3|0|4}"), ("{1|0|0}", "0"),
    ("{1|0|.}", "{.|0|-1}"), ("{.|-3/2|.}", "1/3"), ("{1/2|0|-1/2}", "0"),
    ("{{1|0|0}|0|.}", "{1|0|.}"), ("{.|0|{0|0|-1}}", "{.|0|-1}"),
    ("{{2|1|0}|0|{0|-1|-2}}", "{{2|1|0}|5|{0|-1|-2}}"), ("{0|0|0}", "0"),
    ("{.|0|.}", "0"), ("{1,2|0|-1,-2}", "{2|0|-2}"), ("{0|1|.}", "{.|1|0}"),
    ("{-1|0|1}", "{1|0|-1}"), ("{2,-1|1|.}", "{.|-1|2,-1}"),
    ("{1|-1|.}", "{.|1|-1}"), ("{2|2|2}", "2"), ("{-2|-2|-2}", "{-2|0|-2}"),
    ("{0,1,2|0|0}", "{0|0|0,-1}"), ("{{1|0|-1}|1|{1|0|-1}}", "{0|1|0}"),
]
CMP_GUARD_SHA256 = {
    "text": "55be46b50d43004a42667b7d64604b79922c0cb3d0ddc27c4ef5dfa8344fdf58",
    "jsonl": "ccef617ab840051f72252f7425c34c087bd8ad28fc6b94993cd995ca24604efa",
}


@pytest.mark.parametrize("fmt", list(CMP_GUARD_SHA256))
def test_cmp_output_on_guard_pairs_is_unchanged(fmt):
    text = ""
    for g, h in CMP_GUARD_PAIRS:
        code, out = run_cli("cmp", g, h, "--format", fmt)
        assert code == 0, (g, h)
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == CMP_GUARD_SHA256[fmt], text


# Fixed canon terms: dominations at the root and below it, options
# shared between positions with and without steps below them, Fractions,
# a sum and TBF; each run by default, seeded, and conjecturally at
# DEFAULT and at a universe too weak to refute TBF's reversals.  sha256
# of the concatenated output of all of them, pinned so that changes to
# how forms are reached leave what canon prints byte-identical.
CANON_GUARD_TERMS = [
    "{{3|0|4},{3|1|4}|0|.}", "{{2,1|0|.}|0|.}", "{2,1|0|1,2}",
    "{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}", "{1/2,1|0|-1/2,-1}",
    "{{2,1|0|.},{{2,1|0|.}|1|.}|0|{{2,1|0|.}|0|.}}",
    "{{1|0|-1}|0|{1|0|-1},2,1}", "{{1|0|-1},{{1|0|-1}|0|2,1}|0|.}",
    "{.|0|{-2|0|0,1,-2}}", "{.|2|{0,1|2|0,-1,2}}", "{2,{0,-1,2|1|0}|-1|.}",
    "{1,-2,{0,2|-2|2}|0|.}", "{{1,-1,2|0|-1,-2}|1|.}",
    "{.|2|-2,{.|1|2},{.|2|2}}", "{.|1|{0,1,2|-2|1,-1,-2}}",
    "{-1,2|1|-2,{1,-2|-1|-1,2}}", "{{2|0|1,2},{2|2|0,1}|1|2}",
    "{-2,{0|1|-1},{2,-2|2|-1}|2|.}",
    "{{1,2|0|.},{2|0|1,3,{.|3|1,3}},{1|-1|0,2,{.|2|0,2}}|-2|"
    "{2,3|1|.},{0,1|-1|.},{{.|2|0,2},{.|3|1,3}|1|{2,3|1|.},{0,1|-1|.}}}",
]
CANON_GUARD_FLAGS = [
    (), ("--seed", "3"), ("--mode", "conjectural"),
    ("--mode", "conjectural", "--depth", "1", "--width", "1",
     "--scores=-1,0,1"),
    ("--mode", "conjectural", "--depth", "1", "--width", "1",
     "--scores=-1,0,1", "--seed", "3"),
]
CANON_GUARD_SHA256 = {
    "text": "ef277f724ed07f53b7c57c1cdba3335d0d6a57aaf1b3d30a9f8bd8cbff1d44f0",
    "jsonl": "7212cdd12fe43113bbc00c94fe2d50da3fea1f33b2e2f75d1dfe8ace300e8223",
}


@pytest.mark.parametrize("fmt", list(CANON_GUARD_SHA256))
def test_canon_output_on_guard_terms_is_unchanged(fmt):
    text = ""
    for flags in CANON_GUARD_FLAGS:
        for g in CANON_GUARD_TERMS:
            code, out = run_cli("canon", g, "--format", fmt, *flags)
            assert code == 0, (g, flags)
            text += out
    assert hashlib.sha256(text.encode()).hexdigest() == CANON_GUARD_SHA256[fmt], text


# Fixed enum universes: the CLI default, depth 2 width 1, halves, and
# numbers only.  sha256 of the concatenated output of all of them, pinned
# so that changes to how enum builds its output leave what it prints
# byte-identical.
ENUM_GUARD_FLAGS = [
    (), ("--depth", "2", "--width", "1", "--scores", "0,1"),
    ("--scores=-1,0,1/2",), ("--depth", "0", "--scores=-2,3/2"),
]
ENUM_GUARD_SHA256 = {
    "text": "82b45d10e6ddeaefb10da9d92e33807c3a1576a7918403c5be4f0732b3af9f62",
    "jsonl": "253b1eb75fdf90e29f12f1fe2a0adb6e09f916ee726fca4e9b2a89c584817beb",
}


@pytest.mark.parametrize("fmt", list(ENUM_GUARD_SHA256))
def test_enum_output_on_guard_universes_is_unchanged(fmt):
    text = ""
    for flags in ENUM_GUARD_FLAGS:
        code, out = run_cli("enum", "--format", fmt, *flags)
        assert code == 0, flags
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == ENUM_GUARD_SHA256[fmt], text


# One run of each printing command in conjectural mode, where every text
# line carries the "[conjectural] " marker and every record the
# "conjectural" field; verify partition and enum also cover the plain
# and suite-result records.  sha256 of the concatenated output, pinned so
# that changes to how a run prints leave what it prints byte-identical.
CONJ_GUARD_RUNS = [
    ("eval", "{1|0|0}"), ("eval", "{{1|0|-1/2}|0|.}"),
    ("sum", "{1|0|0}", "{.|1/2|-1}"), ("neg", "{{2|1|0}|0|{0|-1|-2}}"),
    ("cmp", "{1|0|0}", "0"), ("cmp", "{1|0|.}", "{.|0|-1}"),
    ("cmp", "{{3|0|.}|1|.}", "{{1|0|.}|1|.}"),
    ("canon", "{{3|0|4},{3|1|4}|0|.}"),
    ("canon", "{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}", "--depth", "1",
     "--width", "1", "--scores=-1,0,1"),
    ("tf", "TBF"), ("enum", "--depth", "1", "--width", "1", "--scores", "0,1"),
    ("verify", "partition"),
]
CONJ_GUARD_SHA256 = {
    "text": "c5e04fe65f0ab6b6b418109144da907eceef77c0fa5f2f337a74eb34c40240af",
    "jsonl": "5100a57a2ff1e51c59a0b59b97cf89b1bd1304531fc35e8396b1cd27db682234",
}


@pytest.mark.parametrize("fmt", list(CONJ_GUARD_SHA256))
def test_conjectural_output_on_guard_runs_is_unchanged(fmt):
    text = ""
    for argv in CONJ_GUARD_RUNS:
        code, out = run_cli(*argv, "--mode", "conjectural", "--format", fmt)
        assert code == 0, argv
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == CONJ_GUARD_SHA256[fmt], text
