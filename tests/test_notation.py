import hashlib
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given

import notation_reference as reference
from scoreplay import (
    DuplicateOptionWarning,
    ParseError,
    RecordError,
    add,
    from_structured,
    game,
    identical,
    leaf,
    parse,
    parse_score,
    print_game,
    render,
    tf_parse,
    tf_to_game,
    to_structured,
)

from conftest import notation_text, terms

TBF_TEXT = "{{.|0|{-1|-1|.}}|0|{{.|1|1}|0|.}}"

# notation that must reprint byte-for-byte, shorthand leaves included
PINNED_STRINGS = [
    "{0|1|2}",
    "{1|0|0}",
    TBF_TEXT,
    "{1|1|1}",
    "{1|0|1}",
    "{3|0|4}",
    "{3|1|4}",
    "{{3|0|4},{3|1|4}|0|.}",
    "{{3|0|4}|0|.}",
    "{{3|1|4}|0|.}",
    "{3|10|4}",
]


class TestParse:
    def test_shorthand_expands(self):
        g = parse("{0|1|2}")
        assert g.left == (leaf(0),)
        assert g.score == 1
        assert g.right == (leaf(2),)

    def test_tbf_term(self):
        g = parse(TBF_TEXT)
        assert g.node_count == 7

    def test_bare_number_is_a_leaf(self):
        assert parse("5") is leaf(5)
        assert parse("-3/2") is leaf(Fraction(-3, 2))
        assert parse("1.5") is leaf(Fraction(3, 2))

    def test_whitespace_insignificant(self):
        assert parse(" { 1 , 2 | 0 | . } ") is parse("{1,2|0|.}")

    def test_score_is_mandatory(self):
        with pytest.raises(ParseError) as exc:
            parse("{.|.}")
        assert "score" in str(exc.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_error_spans_point_at_the_problem(self):
        with pytest.raises(ParseError) as exc:
            parse("{1|0|2")
        assert exc.value.span.start == len("{1|0|2")
        with pytest.raises(ParseError) as exc:
            parse("{1|0|x}")
        assert exc.value.span.start == "{1|0|x}".index("x")
        # character offsets, not byte offsets: é is two bytes in UTF-8
        with pytest.raises(ParseError) as exc:
            parse("{1|0|.}é")
        assert (exc.value.span.start, exc.value.span.end) == (7, 8)

    def test_bad_character_after_a_long_number_fails_fast(self):
        # A backtracking whole-text match would take 2**40 steps here.
        with pytest.raises(ParseError) as exc:
            parse("1" * 40 + "x")
        assert exc.value.span.start == 40

    def test_large_input_parses_in_memory_linear_in_its_tokens(self):
        # About 11 bytes a character; a regex that keeps state per
        # repetition, or a span object per token, needs about 200.
        g = tf_to_game(tf_parse("TTBBFF"))
        text = print_game(g)
        tracemalloc.start()
        try:
            assert parse(text) is g
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * len(text)

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse("1/0")
        assert "denominator" in str(exc.value)

    def test_empty_option_slot_is_an_error(self):
        with pytest.raises(ParseError):
            parse("{|0|.}")

    def test_trailing_comma_rejected(self):
        with pytest.raises(ParseError):
            parse("{1,|0|.}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("0 {1|0|.}")

    def test_nesting_limit_is_a_parse_error(self):
        from scoreplay.notation import MAX_NESTING

        n = MAX_NESTING
        assert parse("{" * n + "1" + "|0|.}" * n).depth == n
        # the limit counts open braces, not the total number of them
        siblings = ",".join(f"{{{{{k}|0|.}}|0|.}}" for k in range(n + 1))
        assert parse("{" + siblings + "|0|.}").depth == 3
        with pytest.raises(ParseError) as exc:
            parse("{" * (n + 1) + "1" + "|0|.}" * (n + 1))
        assert exc.value.span.start == n

    def test_duplicate_options_warn_and_collapse(self):
        with pytest.warns(DuplicateOptionWarning):
            g = parse("{1,1|0|.}")
        assert g is parse("{1|0|.}")

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_duplicate_warning_points_at_the_caller(self, depth):
        text = "{" * (depth - 1) + "{1,1|0|.}" + "|0|.}" * (depth - 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse(text)
        assert [w.category for w in caught] == [DuplicateOptionWarning]
        assert caught[0].filename == __file__

    def test_decimal_with_denominator(self):
        assert parse("1.5/2") is leaf(Fraction(3, 4))
        assert parse("{.|-0.5/3|.}").score == Fraction(-1, 6)
        assert parse_score(" 1.5/2 ") == Fraction(3, 4)
        with pytest.raises(ParseError) as exc:
            parse("{.|1.5/0|.}")
        assert (exc.value.message, exc.value.span.start) == (
            "zero denominator", 3
        )

    def test_overlong_number_is_a_parse_error(self):
        digits = "1" * 5000
        with pytest.raises(ParseError) as exc:
            parse("{0|" + digits + "|.}")
        assert (exc.value.span.start, exc.value.span.end) == (3, 5003)
        with pytest.raises(ParseError):
            parse_score(digits)
        with pytest.raises(RecordError):
            from_structured({"left": [], "score": digits, "right": []})


def _outcome(parser, text):
    """The term parsed, or the ParseError's message and span."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateOptionWarning)
        try:
            return parser(text)
        except ParseError as exc:
            return (str(exc), exc.message, exc.span)


class TestParseMatchesReference:
    """parse() against the recursive-descent parser it replaced."""

    @given(notation_text())
    def test_random_text(self, text):
        assert _outcome(parse, text) == _outcome(reference.parse, text)

    @pytest.mark.parametrize("tail", ["", "|0|.}", ",2|0|.}", "|0|.}}", "x"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_around_the_nesting_limit(self, tail, extra):
        from scoreplay.notation import MAX_NESTING

        n = MAX_NESTING + extra
        text = "{" * n + "1" + "|0|.}" * (n - 1) + tail
        assert _outcome(parse, text) == _outcome(reference.parse, text)


class TestPrint:
    def test_leaf_styles(self):
        assert print_game(leaf(0)) == "0"
        assert print_game(leaf(0), style="full") == "{.|0|.}"

    def test_tbf_compact_is_byte_exact(self):
        assert print_game(parse(TBF_TEXT)) == TBF_TEXT

    def test_full_style(self):
        assert print_game(parse("{0|1|2}"), style="full") == (
            "{{.|0|.}|1|{.|2|.}}"
        )

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            print_game(leaf(0), style="fancy")

    @pytest.mark.parametrize("text", PINNED_STRINGS)
    def test_pinned_strings_reprint_to_themselves(self, text):
        assert print_game(parse(text)) == text

    @given(terms())
    def test_round_trip_compact(self, g):
        assert identical(parse(print_game(g)), g)

    @given(terms())
    def test_round_trip_full(self, g):
        assert identical(parse(print_game(g, style="full")), g)

    @given(terms(max_depth=3))
    def test_matches_the_recursive_printer(self, g):
        assert render(g) == reference.render(g)
        assert render(g, full=True) == reference.render(g, full=True)

    @given(terms(), terms())
    def test_sums_share_subterms_and_print_as_trees(self, g, h):
        s = add(g, h)
        assert render(s) == reference.render(s)
        assert render(s, full=True) == reference.render(s, full=True)

    def test_deep_chain_prints_without_recursion(self):
        chain = leaf(1)
        for _ in range(2000):
            chain = game([chain], 0, ())
        assert print_game(chain) == "{" * 2000 + "1" + "|0|.}" * 2000

    def test_largest_printed_strip_is_byte_exact(self):
        text = print_game(tf_to_game(tf_parse("TTBBBFF")))
        assert len(text) == 6_324_496
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "652c0ae1303dfeee3afcd4d9fa40fe440fb392b4e98ae396ffa2a5992fafa137"
        )

    def test_strings_are_dropped_after_their_last_use(self):
        # Keeping every subterm's string would double the peak (about 3.8
        # times the output instead of 2 on this term).
        g = tf_to_game(tf_parse("TTBBBFF"))
        tracemalloc.start()
        try:
            n = len(print_game(g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n

    def test_equal_terms_print_identically(self):
        a = print_game(parse("{2,1|0|.}"))
        b = print_game(parse("{1,2|0|.}"))
        assert a == b


class TestStructuredRecords:
    def test_leaf_record(self):
        rec = to_structured(leaf(Fraction(1, 2)))
        assert rec == {"left": [], "score": "1/2", "right": []}

    def test_round_trip(self):
        g = parse(TBF_TEXT)
        assert from_structured(to_structured(g)) is g

    @given(terms())
    def test_round_trip_property(self, g):
        assert from_structured(to_structured(g)) is g

    def test_json_compatible(self):
        import json

        g = parse("{1,{.|1/2|0}|0|.}")
        assert from_structured(json.loads(json.dumps(to_structured(g)))) is g

    @given(terms())
    def test_records_match_reference(self, g):
        assert to_structured(g) == reference.to_structured(g)

    def test_deep_chain_record(self):
        c = leaf(0)
        for k in range(1, 1001):
            c = game([c], k, [])
        rec = to_structured(c)
        for k in range(1000, 0, -1):  # walked in a loop: == would recurse
            assert rec["score"] == str(k) and rec["right"] == []
            (rec,) = rec["left"]
        assert rec == {"left": [], "score": "0", "right": []}

    def test_round_trip_up_to_nesting_limit(self):
        from scoreplay.notation import MAX_NESTING

        c = leaf(1)
        for depth in range(1, MAX_NESTING + 1):
            c = game([leaf(-1)], depth, [c])
            assert from_structured(to_structured(c)) is c
        shared = add(parse("{1|0|{.|2|-1}}"), parse("{{1|-1|.}|0|2}"))
        assert from_structured(to_structured(shared)) is shared

    def test_unknown_field_rejected(self):
        with pytest.raises(RecordError):
            from_structured({"left": [], "score": "0", "right": [], "x": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(RecordError):
            from_structured({"left": [], "score": "0"})

    def test_bad_score_rejected(self):
        with pytest.raises(RecordError):
            from_structured({"left": [], "score": "abc", "right": []})
        with pytest.raises(RecordError):
            from_structured({"left": [], "score": 0.5, "right": []})

    def test_non_mapping_rejected(self):
        with pytest.raises(RecordError):
            from_structured([1, 2])

    def test_nesting_limit_is_a_record_error(self):
        from scoreplay.notation import MAX_NESTING

        def nested(depth):
            rec = {"left": [], "score": "1", "right": []}
            for _ in range(depth):
                rec = {"left": [rec], "score": "0", "right": []}
            return rec

        assert from_structured(nested(MAX_NESTING)).depth == MAX_NESTING
        for depth in (MAX_NESTING + 1, 1000):
            with pytest.raises(RecordError, match="nest deeper"):
                from_structured(nested(depth))

    def test_shared_records_decode_once(self):
        c = leaf(1)
        for _ in range(20):
            c = game([c], 0, [])
        s = add(c, c)  # about 3.3e10 tree nodes over 231 distinct subterms
        rec = to_structured(s)
        start = time.perf_counter()
        assert from_structured(rec) is s
        assert time.perf_counter() - start < 1.0

    def test_nesting_limit_counts_shared_records_at_each_depth(self):
        from scoreplay.notation import MAX_NESTING

        c = leaf(1)
        for _ in range(150):
            c = game([c], 0, [])
        inner = to_structured(c)

        def wrapped(times):
            # inner first at depth 1, then again at depth times + 1
            rec = inner
            for _ in range(times):
                rec = {"left": [rec], "score": "0", "right": []}
            return {"left": [inner, rec], "score": "0", "right": []}

        assert from_structured(wrapped(MAX_NESTING - 151)).depth == MAX_NESTING
        with pytest.raises(RecordError, match="nest deeper"):
            from_structured(wrapped(MAX_NESTING - 150))

    def test_record_containing_itself_is_a_record_error(self):
        rec = {"left": [], "score": "0", "right": []}
        rec["left"].append(rec)
        with pytest.raises(RecordError, match="nest deeper"):
            from_structured(rec)
