import collections
import json
import re
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from numtext import scoring
from numtext.gold import DateParts, DropRecord, GoldAnswer, gold_answer_spans
from numtext.errors import ValidationError
from numtext.scoring import (
    answer_bags,
    build_report,
    normalize_span,
    score_pair,
    score_record,
)

from oracles import _bf_pair_f1, bf_normalize, bf_score

FIXTURE = Path(__file__).parent / "fixtures" / "scorer_cases.json"


def _gold_from_dict(raw):
    date = raw.get("date") or {}
    return GoldAnswer(
        number=raw.get("number", ""),
        spans=tuple(raw.get("spans", [])),
        date=DateParts(date.get("day", ""), date.get("month", ""), date.get("year", "")),
    )


def _record(golds, query_id="q"):
    return DropRecord(
        passage="passage", question="question", answers=tuple(golds), query_id=query_id
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_strips_articles_and_punctuation():
    _, bags = answer_bags(["The Untitled (1981) painting"])
    assert bags == [frozenset({"untitled", "1981", "painting"})]


def test_normalize_number_value_equality():
    assert normalize_span("4,300,000") == normalize_span("4300000")
    assert normalize_span("12.0") == normalize_span("12")
    assert normalize_span("0.50") == normalize_span("0.5")


def test_normalize_empty():
    assert answer_bags([""]) == ([""], [frozenset()])
    assert normalize_span("the a an") == ""


def _value(token):
    try:
        return float(token)
    except ValueError:
        return token


def _same_tokens(got: str, expected: str) -> bool:
    """The oracle writes 12 as 12.0, so tokens that differ are compared by float value."""
    got_tokens, expected_tokens = got.split(), expected.split()
    return len(got_tokens) == len(expected_tokens) and all(
        mine == theirs or _value(mine) == _value(theirs) for mine, theirs in zip(got_tokens, expected_tokens)
    )


def _forms(char: str) -> tuple[str, ...]:
    return (char, "a" + char, char + "the", "1" + char + "5", char + ".")


# Normalization reads a character only through lower(), the whitespace,
# letter, digit and word tests, float() (ASCII, Nd digits and whitespace)
# and ASCII punctuation. Within each category below, every member agrees on
# all of those (asserted), so one behaves as any other; 1 in 251 of them runs.
_UNIFORM = ("Cn", "Co", "Cs", "Lo")  # unassigned, private use, surrogate, caseless letter


def test_normalize_span_matches_the_oracle_on_every_code_point():
    by_category = collections.defaultdict(list)
    for char in map(chr, range(0x110000)):
        by_category[unicodedata.category(char)].append(char)
    chars = []
    for category, members in by_category.items():
        if category not in _UNIFORM:
            chars.extend(members)
            continue
        joined = "".join(members)
        assert joined.lower() == joined and not re.search(r"[\x00-\x7f]", joined), category
        if category == "Lo":
            assert joined.isalpha()  # so no member is a digit or space, and each is a word character
        else:
            assert not re.search(r"[\w\s]", joined), category
        chars.extend(members[::251])
    # Both sides split on whitespace and map each token on its own, so one
    # long text checks every form at once; a mismatch is then located.
    text = " ".join(" ".join(_forms(char)) for char in chars)
    if not _same_tokens(normalize_span(text), bf_normalize(text)):
        wrong = [
            (hex(ord(char)), form)
            for char in chars
            for form in _forms(char)
            if not _same_tokens(normalize_span(form), bf_normalize(form))
        ]
        pytest.fail(f"normalize_span differs from the oracle on {wrong[:20]}")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("inf", "inf"),
        ("-Infinity", "-inf"),
        ("nan", "nan"),
        ("1_000", "1000"),
        ("\u0663", "3"),  # ARABIC-INDIC DIGIT THREE is Nd: float() reads it
        ("\u00b2", "\u00b2"),  # SUPERSCRIPT TWO is alphanumeric but no Nd digit
        ("\u20acthe", "\u20ac"),
        ("the\u20ac", "\u20ac"),
        ("\u0130", "i\u0307"),  # lowercases to i + COMBINING DOT ABOVE, a non-word character
    ],
)
def test_normalize_span_named_cases(text, expected):
    assert normalize_span(text) == expected
    assert _same_tokens(normalize_span(text), bf_normalize(text))
    # Whether the token counts as a number decides the numeric gate.
    for prediction in ("x", f"{text} x"):
        gold = GoldAnswer(spans=(f"{text} x",))
        em, f1 = bf_score(prediction, [{"number": "", "spans": [f"{text} x"], "date": {}}])
        assert score_pair(prediction, gold) == (em, f1), prediction


def test_alphanumeric_tokens_skip_the_article_regex(monkeypatch):
    # \b can fall only at an alphanumeric token's ends, so such a token is
    # an article or kept whole without the regex.
    monkeypatch.setattr(scoring, "_ARTICLES", None)
    assert normalize_span("The 1a5 a1 \u00b2 an x\u0663 a the") == "1a5 a1 \u00b2 x\u0663"


def test_split_prediction_on_delimiter():
    # score_pair splits a prediction at the delimiter, and only there.
    assert score_pair("Denver; Carolina", GoldAnswer(spans=("Denver", "Carolina"))) == (1.0, 1.0)
    assert score_pair("plain answer", GoldAnswer(spans=("plain answer",))) == (1.0, 1.0)
    assert score_pair("a|b", GoldAnswer(spans=("a", "b")), span_delimiter="|") == (1.0, 1.0)


def test_gold_answer_spans_date_order():
    gold = GoldAnswer(date=DateParts(day="3", month="March", year="1768"))
    assert gold_answer_spans(gold) == ("3 March 1768",)


# ---------------------------------------------------------------------------
# Hand-derived pair scores
# ---------------------------------------------------------------------------

def test_exact_span_match():
    assert score_pair("John Kasay", GoldAnswer(spans=("John Kasay",))) == (1.0, 1.0)


def test_partial_span_overlap_two_thirds():
    em, f1 = score_pair("Kasay", GoldAnswer(spans=("John Kasay",)))
    assert em == 0.0
    assert abs(f1 - 2 / 3) < 1e-12  # P=1, R=0.5 -> 2*(0.5)/1.5


def test_numeric_mismatch_gate_zeroes_overlap():
    _, f1 = score_pair("13 million", GoldAnswer(spans=("12 million",)))
    assert f1 == 0.0


def test_number_identity():
    assert score_pair("4300000", GoldAnswer(number="4300000")) == (1.0, 1.0)


def test_empty_prediction_scores_zero():
    assert score_pair("", GoldAnswer(spans=("anything",))) == (0.0, 0.0)


def test_score_pair_refuses_an_empty_gold_answer():
    with pytest.raises(ValidationError):
        score_pair("alpha", GoldAnswer(spans=("", "  ")))


def test_max_over_gold_answers():
    record = _record([GoldAnswer(spans=("12 million",)), GoldAnswer(number="4300000")])
    assert score_record(record, "4300000") == (1.0, 1.0)
    assert score_record(record, "13 million") == (0.0, 0.0)


def test_adding_gold_never_decreases_score():
    base = _record([GoldAnswer(spans=("12 million",))])
    extended = _record([GoldAnswer(spans=("12 million",)), GoldAnswer(spans=("exact hit",))])
    for prediction in ("exact hit", "12 million", "million", "unrelated"):
        extended_em, extended_f1 = score_record(extended, prediction)
        base_em, base_f1 = score_record(base, prediction)
        assert extended_f1 >= base_f1
        assert extended_em >= base_em


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_token_list = st.lists(st.sampled_from(["alpha", "beta", "12", "7.5", "gamma", "19"]), min_size=0, max_size=5)
_word_list = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=0, max_size=5)
# A gold answer holds at least one non-blank span.
_gold_token_list = st.lists(st.sampled_from(["alpha", "beta", "12", "7.5", "gamma", "19"]), min_size=1, max_size=5)
_gold_word_list = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5)


def _spans(*spans):
    return GoldAnswer(spans=spans)


@given(_gold_word_list, _gold_word_list)
def test_single_span_f1_symmetric_without_numbers(a, b):
    # The numeric gate only inspects the gold side, so symmetry is a
    # property of the bag overlap itself: it holds whenever the gate
    # cannot fire asymmetrically (here: no numbers at all).
    _, left = score_pair(" ".join(a), _spans(" ".join(b)))
    _, right = score_pair(" ".join(b), _spans(" ".join(a)))
    assert abs(left - right) < 1e-12


@given(_word_list, _word_list, st.sampled_from(["12", "7.5"]))
def test_single_span_f1_symmetric_with_shared_number(a, b, number):
    _, left = score_pair(f"{number} " + " ".join(a), _spans(f"{number} " + " ".join(b)))
    _, right = score_pair(f"{number} " + " ".join(b), _spans(f"{number} " + " ".join(a)))
    assert abs(left - right) < 1e-12


@given(_gold_token_list)
def test_em_implies_f1(tokens):
    text = " ".join(tokens)
    em, f1 = score_pair(text, _spans(text))
    assert em == 1.0
    assert f1 == 1.0


@given(st.integers(0, 999), st.integers(0, 999), _token_list)
def test_gate_dominates_any_overlap(x, y, shared):
    if x == y:
        y += 1
    pred = f"{x} " + " ".join(t for t in shared if not t[0].isdigit())
    gold = f"{y} " + " ".join(t for t in shared if not t[0].isdigit())
    _, f1 = score_pair(pred, _spans(gold))
    assert f1 == 0.0


# ---------------------------------------------------------------------------
# Span alignment
# ---------------------------------------------------------------------------

def test_alignment_beats_the_greedy_trap():
    # Greedy takes the perfect "red blue" pair first and leaves "red" vs
    # "blue" (0); crossing the pairs scores 2/3 + 2/3 instead.
    cities = ["oslo", "rome", "kyiv", "lima", "doha", "baku", "riga"]
    _, f1 = score_pair("; ".join(["red blue", "blue", *cities]), _spans("red blue", "red", *cities))
    assert abs(f1 - 25 / 27) < 1e-12


# Few distinct tokens, so spans repeat, overlap partly and tie often.
_span = st.lists(st.sampled_from(["red", "blue", "oslo", "12", "7.5", "the"]), min_size=1, max_size=3).map(" ".join)

# Tolerance, not ==: where several assignments tie for the optimum, each
# sums its cells in its own row order, so the floats may differ in the
# last bit (about 1e-16) while the assignment is still optimal.
_TIE_ROUNDING = 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(_span, min_size=1, max_size=30), st.lists(_span, min_size=1, max_size=30))
def test_alignment_matches_scipy_assignment(pred_spans, gold_spans):
    pred_bags = [frozenset(bf_normalize(span).split()) for span in pred_spans]
    gold_bags = [frozenset(bf_normalize(span).split()) for span in gold_spans]
    size = max(len(pred_bags), len(gold_bags))
    matrix = [[0.0] * size for _ in range(size)]
    for g, gold_bag in enumerate(gold_bags):
        for p, pred_bag in enumerate(pred_bags):
            matrix[g][p] = _bf_pair_f1(pred_bag, gold_bag)
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    expected = sum(matrix[row][col] for row, col in zip(rows, cols)) / size
    _, got = score_pair("; ".join(pred_spans), _spans(*gold_spans))
    assert abs(got - expected) < _TIE_ROUNDING


@settings(deadline=None)
@given(st.lists(_span, min_size=1, max_size=7), st.lists(_span, min_size=1, max_size=7))
def test_alignment_and_em_match_brute_force(pred_spans, gold_spans):
    prediction = "; ".join(pred_spans)
    got_em, got_f1 = score_pair(prediction, GoldAnswer(spans=tuple(gold_spans)))
    em, f1 = bf_score(prediction, [{"number": "", "spans": gold_spans, "date": {}}])
    assert got_em == em
    assert abs(got_f1 - f1) < _TIE_ROUNDING


def test_a_10k_span_prediction_is_scored_in_seconds():
    # The assignment runs on the 8 x 10,000 rectangle of real spans; a padded
    # 10,000-square would take hours and an 800 MB matrix.
    gold = [f"team {i} scored {i + 20}" for i in range(8)]
    filler = [f"city {i}" for i in range(10_000 - len(gold))]
    start = time.perf_counter()
    em, f1 = score_pair("; ".join(filler[:5000] + gold + filler[5000:]), _spans(*gold))
    assert time.perf_counter() - start < 5
    assert (em, f1) == (0.0, 8 / 10_000)
    # The same holds with the sides swapped: a long gold answer against a short prediction.
    start = time.perf_counter()
    em, f1 = score_pair("; ".join(gold), _spans(*filler[:5000], *gold, *filler[5000:]))
    assert time.perf_counter() - start < 5
    assert (em, f1) == (0.0, 8 / 10_000)


# ---------------------------------------------------------------------------
# Vendored fixture (reference-scorer behavior), re-checked per run
# ---------------------------------------------------------------------------

def _fixture_cases():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_has_enough_coverage():
    cases = _fixture_cases()
    assert len(cases) >= 50
    kinds = {"number": 0, "date": 0, "span": 0, "spans": 0, "multigold": 0}
    for case in cases:
        if len(case["golds"]) > 1:
            kinds["multigold"] += 1
        gold = case["golds"][0]
        if gold["number"]:
            kinds["number"] += 1
        elif any(gold["date"].values()):
            kinds["date"] += 1
        elif len(gold["spans"]) > 1:
            kinds["spans"] += 1
        else:
            kinds["span"] += 1
    assert all(count >= 5 for count in kinds.values()), kinds


@pytest.mark.parametrize("case", _fixture_cases(), ids=lambda c: c["id"])
def test_scorer_matches_fixture(case):
    golds = [_gold_from_dict(raw) for raw in case["golds"]]
    em, f1 = score_record(_record(golds, case["id"]), case["prediction"])
    assert abs(em - case["em"]) < 1e-4, f"em for {case['id']}"
    assert abs(f1 - case["f1"]) < 1e-4, f"f1 for {case['id']}"


def test_fixture_still_agrees_with_brute_force():
    for case in _fixture_cases():
        em, f1 = bf_score(case["prediction"], case["golds"])
        assert em == case["em"] and abs(f1 - case["f1"]) < 1e-12, case["id"]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _four_question_records():
    return [
        _record([GoldAnswer(number="8000")], "n1"),
        _record([GoldAnswer(number="42")], "n2"),
        _record([GoldAnswer(spans=("John Kasay",))], "s1"),
        _record([GoldAnswer(spans=("Denver",))], "s2"),
    ]


def test_report_all_correct():
    records = _four_question_records()
    predictions = {"n1": "8000", "n2": "42", "s1": "John Kasay", "s2": "Denver"}
    report = build_report(records, predictions)
    assert report.overall["em"] == 1.0 and report.overall["f1"] == 1.0


def test_report_macro_mean():
    records = _four_question_records()
    predictions = {"n1": "8000", "n2": "wrong", "s1": "John Kasay", "s2": "nope"}
    report = build_report(records, predictions)
    assert report.overall["em"] == 0.5 and report.overall["f1"] == 0.5


def test_report_per_type_breakdown():
    records = _four_question_records()
    predictions = {"n1": "8000", "n2": "wrong", "s1": "Kasay John", "s2": "Denver"}
    report = build_report(records, predictions)
    number = report.per_type["number"]
    span = report.per_type["span"]
    assert number["count"] == 2 and number["em"] == 0.5 and number["f1"] == 0.5
    assert span["count"] == 2 and span["em"] == 0.5  # "Kasay John" reorders tokens
    assert abs(span["f1"] - 1.0) < 1e-12  # but bag F1 ignores token order


def test_report_macro_equals_mean_of_per_question():
    records = _four_question_records()
    predictions = {"n1": "8000", "s1": "Kasay"}
    report = build_report(records, predictions)
    mean_f1 = sum(q["f1"] for q in report.per_question) / len(report.per_question)
    assert abs(report.overall["f1"] - mean_f1) < 1e-12


def test_report_unanswered_scores_zero():
    records = _four_question_records()
    report = build_report(records, {"n1": "8000"})
    assert report.overall["em"] == 0.25


def test_report_scores_each_gold_of_each_predicted_record(monkeypatch):
    # A tracer observes score_pair by name and reads its three arguments.
    calls = []

    def recording(*args):
        calls.append(args)
        return score_pair(*args)

    records = _four_question_records() + [
        _record([GoldAnswer(spans=("a", "b")), GoldAnswer(number="3")], "m1")
    ]
    predictions = {"n1": "8000", "s1": "Kasay", "m1": "a | b"}
    monkeypatch.setattr(scoring, "score_pair", recording)
    build_report(records, predictions, span_delimiter=" | ")
    assert calls == [
        (predictions[record.query_id], gold, " | ")
        for record in records
        if record.query_id in predictions
        for gold in record.answers
    ]


def test_report_unknown_id_rejected():
    with pytest.raises(ValidationError, match="ghost"):
        build_report(_four_question_records(), {"ghost": "x"})
