import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from numtext.corpus import (
    AnswerType,
    DateParts,
    Example,
    GoldAnswer,
    IndexedExamples,
    LengthLimits,
    TaskTag,
    audit_truncation,
    count_tokens,
    derive_answer_type,
    digit_tokenize,
    format_input,
    ingest_drop,
    ingest_squad,
    iter_examples,
    iter_jsonl,
    make_classification_example,
    make_drop_example,
    make_squad_example,
    write_examples,
)
from numtext.errors import ParseError, ValidationError

from conftest import (
    MING_RUI_PASSAGE,
    MING_RUI_QUESTION,
    build_drop_file,
    drop_answer,
    drop_qa,
    parse_input,
    read_examples,
    read_meta,
)
from oracles import oracle_tokenize


# ---------------------------------------------------------------------------
# format_input / parse_input
# ---------------------------------------------------------------------------

def test_format_input_question_before_context():
    text = format_input(TaskTag.ANSWER_ME, MING_RUI_QUESTION, MING_RUI_PASSAGE)
    assert text == f"answer_me: {MING_RUI_QUESTION} context: {MING_RUI_PASSAGE}"
    assert text.index(MING_RUI_QUESTION) < text.index("context: ")


def test_format_input_calculate_without_context():
    text = format_input("calculate", "517.4 - 17484 - 10071.75 + 1013.21")
    assert text == "calculate: 517.4 - 17484 - 10071.75 + 1013.21"
    assert text == text.rstrip()


def test_format_input_rejects_empty_question():
    with pytest.raises(ValidationError):
        format_input(TaskTag.ANSWER_ME, "", "x")


def test_format_input_rejects_unknown_task():
    with pytest.raises(ValidationError):
        format_input("translate", "q", "c")


def test_format_input_requires_context_for_non_calculate():
    with pytest.raises(ValidationError):
        format_input(TaskTag.ANSWER_ME, "q", "")


@pytest.mark.parametrize("task", list(TaskTag))
def test_format_input_reparses(task):
    context = "" if task is TaskTag.CALCULATE else "some context text"
    text = format_input(task, "what is 1 + 1?", context)
    parsed_task, question, parsed_context = parse_input(text)
    assert parsed_task is task
    assert question == "what is 1 + 1?"
    assert parsed_context == (None if task is TaskTag.CALCULATE else context)


# ---------------------------------------------------------------------------
# Answer typing and example construction
# ---------------------------------------------------------------------------

def test_derive_answer_type_number():
    assert derive_answer_type(GoldAnswer(number="4300000")) is AnswerType.NUMBER


def test_derive_answer_type_single_span():
    assert derive_answer_type(GoldAnswer(spans=("John Kasay",))) is AnswerType.SPAN


def test_derive_answer_type_two_spans():
    assert derive_answer_type(GoldAnswer(spans=("a", "b"))) is AnswerType.SPANS


def test_derive_answer_type_date():
    assert derive_answer_type(GoldAnswer(date=DateParts(month="March"))) is AnswerType.DATE


def test_derive_answer_type_priority_on_malformed():
    both = GoldAnswer(number="3", spans=("x",), date=DateParts(year="1900"))
    assert derive_answer_type(both) is AnswerType.NUMBER


def test_derive_answer_type_rejects_empty():
    with pytest.raises(ValidationError):
        derive_answer_type(GoldAnswer())


def test_classification_example_from_number_record(ming_rui_drop):
    record = ingest_drop(ming_rui_drop).records[0]
    example = make_classification_example(record)
    assert example.task is TaskTag.CLASSIFY_ME
    assert example.target == "number"
    assert example.input.startswith(f"classify_me: {MING_RUI_QUESTION} context: ")


def test_classification_uses_first_gold_answer():
    qa = drop_qa(
        "Who kicked?",
        "q1",
        drop_answer(spans=["John Kasay"]),
        validated=[drop_answer(number="3"), drop_answer(spans=["a", "b"])],
    )
    data = build_drop_file({"p1": ("passage text", [qa])})
    record = ingest_drop(io.BytesIO(json.dumps(data).encode())).records[0]
    assert make_classification_example(record).target == "span"


def test_make_drop_example_serializes_date_target():
    qa = drop_qa("When?", "q1", drop_answer(day="3", month="March", year="1768"))
    data = build_drop_file({"p1": ("passage text", [qa])})
    record = ingest_drop(io.BytesIO(json.dumps(data).encode())).records[0]
    example = make_drop_example(record)
    assert example.target == "3 March 1768"
    assert example.answer_type is AnswerType.DATE


def test_make_drop_example_joins_spans():
    qa = drop_qa("Which teams?", "q1", drop_answer(spans=["Denver", "Carolina"]))
    data = build_drop_file({"p1": ("passage text", [qa])})
    record = ingest_drop(io.BytesIO(json.dumps(data).encode())).records[0]
    assert make_drop_example(record).target == "Denver; Carolina"


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_drop_worked_example(ming_rui_drop):
    result = ingest_drop(ming_rui_drop)
    assert len(result.records) == 1 and not result.errors
    record = result.records[0]
    assert record.question == MING_RUI_QUESTION
    assert record.passage == MING_RUI_PASSAGE
    assert len(record.answers) == 2  # primary + validated, in order


def test_ingest_drop_empty_file():
    result = ingest_drop(io.BytesIO(b"{}"))
    assert result.records == [] and result.errors == []


def test_ingest_drop_counts_all_qa_pairs():
    passages = {}
    for p in range(3):
        qas = [
            drop_qa(f"Q{p}-{q}?", f"id-{p}-{q}", drop_answer(number=str(q + 1)))
            for q in range(2)
        ]
        passages[f"p{p}"] = (f"passage {p}", qas)
    result = ingest_drop(io.BytesIO(json.dumps(build_drop_file(passages)).encode()))
    assert len(result.records) == 6


def test_ingest_drop_malformed_json_reports_byte_offset():
    with pytest.raises(ParseError) as info:
        ingest_drop(io.BytesIO(b'{"p": {"passage": "x", '))
    assert info.value.offset is not None


def test_ingest_drop_non_utf8_reports_byte_offset():
    with pytest.raises(ParseError) as info:
        ingest_drop(io.BytesIO(b'{"p": {"passage": "caf\xe9"}}'))
    assert info.value.offset == 22  # the \xe9 byte


def test_ingest_drop_tallies_empty_answers():
    qas = [
        drop_qa("Q1?", "good-1", drop_answer(number="5")),
        drop_qa("Q2?", "bad-2", drop_answer()),
    ]
    result = ingest_drop(io.BytesIO(json.dumps(build_drop_file({"p": ("text", qas)})).encode()))
    assert len(result.records) == 1
    assert len(result.errors) == 1
    assert result.errors[0].question_id == "bad-2"


@pytest.mark.parametrize(
    "qa, place",
    [
        ({"question": "q", "answer": 5}, "passage 'p': qa_pairs[0].answer is not an object"),
        ({"question": "q", "answer": {"date": "x"}}, "qa_pairs[0].answer: 'date' is not an object"),
        ({"question": "q", "answer": {"spans": "abc"}}, "qa_pairs[0].answer: 'spans' is not a list"),
        ({"question": "q", "validated_answers": [{}, 5]}, "qa_pairs[0].validated_answers[1] is not an object"),
        ({"question": "q", "validated_answers": 5}, "qa_pairs[0].validated_answers is not a list"),
        ({"question": None, "answer": {"number": "1"}}, "passage 'p': qa_pairs[0].question is not a string"),
        ({"question": "q", "answer": {"number": {"a": 1}}}, "qa_pairs[0].answer: 'number' is not a string"),
        ({"question": "q", "answer": {"spans": ["7", None]}}, "qa_pairs[0].answer: a 'spans' entry is not a string"),
        ({"question": "q", "validated_answers": [{"date": {"year": 1768}}]},
         "qa_pairs[0].validated_answers[0]: 'date.year' is not a string"),
    ],
    ids=[
        "number-answer", "text-date", "text-spans", "number-validated-entry", "number-validated", "null-question",
        "object-number", "null-span", "number-date-part",
    ],
)
def test_ingest_drop_wrong_json_type_names_its_place(qa, place):
    with pytest.raises(ParseError, match=re.escape(place)):
        ingest_drop(io.BytesIO(json.dumps({"p": {"passage": "x", "qa_pairs": [qa]}}).encode()))


@pytest.mark.parametrize(
    "data, place",
    [
        ([5], "data[0] is not an object"),
        ([{"paragraphs": 5}], "data[0].paragraphs is not a list"),
        ([{"paragraphs": [{"qas": [{"answers": [{}, 5]}]}]}], "data[0].paragraphs[0].qas[0].answers[1] is not an object"),
        ([{"paragraphs": [{"qas": [{"answers": [{"text": None}]}]}]}],
         "data[0].paragraphs[0].qas[0].answers: an entry's 'text' is not a string"),
    ],
    ids=["number-article", "number-paragraphs", "number-answer", "null-answer-text"],
)
def test_ingest_squad_wrong_json_type_names_its_place(data, place):
    with pytest.raises(ParseError, match=re.escape(place)):
        ingest_squad(io.BytesIO(json.dumps({"data": data}).encode()))


def test_ingest_squad(squad_file):
    result = ingest_squad(squad_file)
    assert len(result.records) == 2 and not result.errors
    record = result.records[0]
    assert record.answers == ("John Kasay", "Kasay")
    example = make_squad_example(record)
    assert example.task is TaskTag.SQUAD_CONTEXT
    assert example.input.startswith("squad_context: Which kicker tied the game? context: ")
    assert example.target == "John Kasay"


# ---------------------------------------------------------------------------
# Digit tokenization
# ---------------------------------------------------------------------------

def test_digit_tokenize_number():
    assert digit_tokenize("100") == ["1", "0", "0"]


def test_digit_tokenize_plain_word():
    assert digit_tokenize("abc") == ["abc"]


def test_digit_tokenize_mixed():
    assert digit_tokenize("pay 51.4 now") == ["pay", "5", "1", ".", "4", "now"]


_TOKENIZER_PIECES = st.sampled_from(
    [*"0123456789", ".", "1..2", "5.", ".5", "a.5"]
    + ["\u0663", "\u00b2"]  # an Nd digit and a non-Nd one
    + ["\x1c", "\x85", "\u3000", " ", "\n"]  # Unicode and ASCII whitespace
    + ["a", "Z", "\u00e9"]
)


@given(st.one_of(st.lists(_TOKENIZER_PIECES, max_size=40).map("".join), st.text(st.characters(), max_size=60)))
def test_digit_tokenize_matches_character_scan_oracle(text):
    tokens = oracle_tokenize(text)
    assert digit_tokenize(text) == tokens
    assert count_tokens(text) == len(tokens)


# ---------------------------------------------------------------------------
# Truncation audit
# ---------------------------------------------------------------------------

def _example(input_words, target_words=1):
    # Digit-free words, so the default counter sees input_words + 1 tokens
    # (the prefix) and exactly target_words target tokens.
    return Example(
        input="answer_me: " + " ".join(["word"] * input_words),
        target=" ".join(["tok"] * target_words),
        task=TaskTag.ANSWER_ME,
    )


def test_audit_nothing_exceeds():
    audit = audit_truncation([_example(4) for _ in range(10)], LengthLimits(512, 54))
    assert audit.encoder_over == 0 and audit.encoder_fraction == 0.0


def test_audit_counts_long_inputs():
    examples = [_example(600) for _ in range(4)] + [_example(10) for _ in range(96)]
    audit = audit_truncation(examples, LengthLimits(512, 54))
    assert audit.total == 100
    assert audit.encoder_fraction == 0.04


def test_audit_tiny_limits_cut_everything():
    audit = audit_truncation([_example(3, 2) for _ in range(5)], LengthLimits(1, 1))
    assert audit.encoder_fraction == 1.0 and audit.decoder_fraction == 1.0


def test_audit_empty_corpus_has_zero_fractions():
    audit = audit_truncation([], LengthLimits(1, 1))
    assert audit.encoder_fraction == 0.0 and audit.decoder_fraction == 0.0


def test_audit_fraction_monotone_in_limits():
    examples = [_example(n) for n in (2, 8, 32, 128)]
    fractions = [
        audit_truncation(examples, LengthLimits(limit, 54)).encoder_fraction
        for limit in (1, 4, 16, 64, 256)
    ]
    assert fractions == sorted(fractions, reverse=True)
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_default_counter_splits_digits():
    assert count_tokens("pay 51.4 now") == 6


# ---------------------------------------------------------------------------
# JSONL round trip
# ---------------------------------------------------------------------------

def _some_examples(n):
    return [
        Example(
            input=f"answer_me: q{i}? context: passage {i}",
            target=f"answer {i}",
            task=TaskTag.ANSWER_ME,
            answer_type=AnswerType.NUMBER,
            source_id=f"ex-{i}",
        )
        for i in range(n)
    ]


def test_write_read_round_trip():
    examples = _some_examples(1000)
    sink = io.BytesIO()
    assert write_examples(examples, sink) == 1000
    assert read_examples(io.BytesIO(sink.getvalue())) == examples


def test_write_is_byte_stable():
    examples = _some_examples(50)
    a, b = io.BytesIO(), io.BytesIO()
    write_examples(examples, a, meta={"seed": 1})
    write_examples(examples, b, meta={"seed": 1})
    assert a.getvalue() == b.getvalue()


def test_write_empty_list_is_empty_output():
    sink = io.BytesIO()
    assert write_examples([], sink) == 0
    assert sink.getvalue() == b""


def test_field_order_is_fixed():
    sink = io.BytesIO()
    write_examples(_some_examples(1), sink)
    keys = list(json.loads(sink.getvalue().decode()).keys())
    assert keys == ["input", "target", "task", "answer_type", "source_id"]


def test_read_reports_corrupted_line_number():
    sink = io.BytesIO()
    write_examples(_some_examples(10), sink)
    lines = sink.getvalue().splitlines()
    lines[6] = b'{"bogus": true}'
    with pytest.raises(ValidationError, match="line 7"):
        read_examples(io.BytesIO(b"\n".join(lines) + b"\n"))


def test_read_skips_meta_line_and_read_meta_returns_it(tmp_path):
    sink = io.BytesIO()
    write_examples(_some_examples(3), sink, meta={"seed": 9})
    data = sink.getvalue()
    assert len(read_examples(io.BytesIO(data))) == 3
    path = tmp_path / "ex.jsonl"
    path.write_bytes(data)
    assert read_meta(path) == {"seed": 9}


def test_example_json_fields_are_strings():
    row = _some_examples(1)[0].to_json()
    assert all(isinstance(v, str) for v in row.values())


def test_iter_examples_yields_line_byte_offsets():
    sink = io.BytesIO()
    write_examples(_some_examples(4), sink, meta={"seed": 1})
    data = sink.getvalue().replace(b"answer 2", "ånswer 2".encode("utf-8")) + b"\n"
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][:-1]
    pairs = list(iter_examples(io.BytesIO(data)))
    assert [offset for offset, _ in pairs] == starts[1:5]
    assert [example for _, example in pairs] == read_examples(io.BytesIO(data))


def test_indexed_examples_match_read_examples(tmp_path):
    path = tmp_path / "ex.jsonl"
    sink = io.BytesIO()
    write_examples(_some_examples(25), sink, meta={"seed": 2})
    path.write_bytes(sink.getvalue())
    with open(path, "rb") as handle:
        indexed = IndexedExamples(handle)
        assert len(indexed) == 25
        assert [indexed[i] for i in (24, 0, 7, 7)] == [_some_examples(25)[i] for i in (24, 0, 7, 7)]
        assert list(indexed) == read_examples(path)


def test_read_reports_a_line_that_is_not_utf8():
    with pytest.raises(ParseError, match=r"not UTF-8.*\(byte offset 3\) \(line 2\)"):
        list(iter_jsonl(io.BytesIO(b'{}\n\xff{}\n')))


def test_indexed_examples_validate_every_line_up_front():
    sink = io.BytesIO()
    write_examples(_some_examples(10), sink)
    lines = sink.getvalue().splitlines()
    lines[8] = b'{"input": "answer_me: ", "target": "x", "task": "answer_me", "answer_type": "none", "source_id": ""}'
    with pytest.raises(ValidationError, match="line 9"):
        IndexedExamples(io.BytesIO(b"\n".join(lines) + b"\n"))
