import functools
import gc
import io
import itertools
import json
import os
import re
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from numtext import corpus, shard
from numtext.corpus import (
    DateParts,
    DropRecord,
    Example,
    GoldAnswer,
    IndexedExamples,
    SourceLine,
    SquadRecord,
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
from numtext.cli import run
from numtext.errors import ParseError, ValidationError
from numtext.numgen import generate_num, num_to_example
from numtext.txtgen import generate_txt, txt_to_example

from conftest import (
    MING_RUI_PASSAGE,
    NONCANONICAL_SOURCE,
    MING_RUI_QUESTION,
    build_drop_file,
    drop_answer,
    drop_qa,
    index_and_audit,
    parse_input,
    read_examples,
    read_meta,
)
from oracles import oracle_tokenize


# ---------------------------------------------------------------------------
# format_input / parse_input
# ---------------------------------------------------------------------------

def test_format_input_question_before_context():
    text = format_input(corpus.ANSWER_ME, MING_RUI_QUESTION, MING_RUI_PASSAGE)
    assert text == f"answer_me: {MING_RUI_QUESTION} context: {MING_RUI_PASSAGE}"
    assert text.index(MING_RUI_QUESTION) < text.index("context: ")


def test_format_input_calculate_without_context():
    text = format_input("calculate", "517.4 - 17484 - 10071.75 + 1013.21")
    assert text == "calculate: 517.4 - 17484 - 10071.75 + 1013.21"
    assert text == text.rstrip()


def test_format_input_rejects_empty_question():
    with pytest.raises(ValidationError):
        format_input(corpus.ANSWER_ME, "", "x")


def test_format_input_rejects_unknown_task():
    with pytest.raises(ValidationError):
        format_input("translate", "q", "c")


def test_format_input_names_the_unknown_task():
    with pytest.raises(ValidationError, match="unknown task tag: 'nosuch'"):
        format_input("nosuch", "q", "c")


def test_format_input_requires_context_for_non_calculate():
    with pytest.raises(ValidationError):
        format_input(corpus.ANSWER_ME, "q", "")


@pytest.mark.parametrize("task", sorted(corpus.TASKS))
def test_format_input_reparses(task):
    context = "" if task == corpus.CALCULATE else "some context text"
    text = format_input(task, "what is 1 + 1?", context)
    parsed_task, question, parsed_context = parse_input(text)
    assert parsed_task == task
    assert question == "what is 1 + 1?"
    assert parsed_context == (None if task == corpus.CALCULATE else context)


# ---------------------------------------------------------------------------
# Answer typing and example construction
# ---------------------------------------------------------------------------

def test_derive_answer_type_number():
    assert derive_answer_type(GoldAnswer(number="4300000")) == corpus.NUMBER


def test_derive_answer_type_single_span():
    assert derive_answer_type(GoldAnswer(spans=("John Kasay",))) == corpus.SPAN


def test_derive_answer_type_two_spans():
    assert derive_answer_type(GoldAnswer(spans=("a", "b"))) == corpus.SPANS


def test_derive_answer_type_date():
    assert derive_answer_type(GoldAnswer(date=DateParts(month="March"))) == corpus.DATE


def test_derive_answer_type_priority_on_malformed():
    both = GoldAnswer(number="3", spans=("x",), date=DateParts(year="1900"))
    assert derive_answer_type(both) == corpus.NUMBER


def test_derive_answer_type_rejects_empty():
    with pytest.raises(ValidationError):
        derive_answer_type(GoldAnswer())


def test_classification_example_from_number_record(ming_rui_drop):
    record = ingest_drop(ming_rui_drop).records[0]
    example = make_classification_example(record)
    assert example.task == corpus.CLASSIFY_ME
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
    assert example.answer_type == corpus.DATE


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


def test_ingest_drop_malformed_json_offset_counts_bytes():
    with pytest.raises(ParseError) as info:
        ingest_drop(io.BytesIO('{"\u00e9": 1,}'.encode()))
    assert info.value.offset == 9  # the "}", after the two bytes of the e-acute


def test_drop_record_refuses_answers_that_are_all_empty():
    for answers in ((), (GoldAnswer(), GoldAnswer(spans=(" ",)))):
        with pytest.raises(ValidationError, match="no non-empty gold answer"):
            DropRecord("passage", "question", answers, "q-1")


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


def _drop_qa_file(*qas, passage="x"):
    return {"p": {"passage": passage, "qa_pairs": list(qas)}}


# The whole ParseError text of each case, as ingest_drop wrote it before it
# stopped building a location string for every value it reads.
@pytest.mark.parametrize(
    "data, line",
    [
        ({"p": {"passage": 5, "qa_pairs": []}}, "passage 'p': 'passage' is not a string"),
        ({"p": {"passage": None}}, "passage 'p': 'passage' is not a string"),
        ({"p": {"qa_pairs": []}}, "passage block 'p' missing 'passage'"),
        ({"p": [1]}, "passage block 'p' missing 'passage'"),
        ([1], "DROP file must be a JSON object keyed by passage id"),
        ({"p": {"passage": "x", "qa_pairs": 5}}, "passage 'p': qa_pairs is not a list"),
        # Every qa pair of a passage is checked to be an object before any is read.
        (_drop_qa_file({"question": 5}, 3), "passage 'p': qa_pairs[1] is not an object"),
        (_drop_qa_file({"query_id": 5, "question": "q"}), "passage 'p': qa_pairs[0].query_id is not a string"),
        (_drop_qa_file({"query_id": [], "question": 5}), "passage 'p': qa_pairs[0].query_id is not a string"),
        (_drop_qa_file({"question": 5}), "passage 'p': qa_pairs[0].question is not a string"),
        (_drop_qa_file({"question": None}), "passage 'p': qa_pairs[0].question is not a string"),
        (_drop_qa_file({"question": "q", "answer": [1]}), "passage 'p': qa_pairs[0].answer is not an object"),
        (_drop_qa_file({"question": "q", "answer": {"number": 5}}),
         "passage 'p': qa_pairs[0].answer: 'number' is not a string"),
        (_drop_qa_file({"question": "q", "answer": {"spans": ["a", 5]}}),
         "passage 'p': qa_pairs[0].answer: a 'spans' entry is not a string"),
        (_drop_qa_file({"question": "q", "answer": {"spans": {"a": 1}}}),
         "passage 'p': qa_pairs[0].answer: 'spans' is not a list"),
        (_drop_qa_file({"question": "q", "answer": {"date": [1]}}),
         "passage 'p': qa_pairs[0].answer: 'date' is not an object"),
        (_drop_qa_file({"question": "q", "answer": {"number": 5, "date": "x", "spans": 7}}),
         "passage 'p': qa_pairs[0].answer: 'date' is not an object"),
        (_drop_qa_file({"question": "q", "answer": {"date": {"day": 3}}}),
         "passage 'p': qa_pairs[0].answer: 'date.day' is not a string"),
        (_drop_qa_file({"question": "q", "answer": {"date": {"month": False}}}),
         "passage 'p': qa_pairs[0].answer: 'date.month' is not a string"),
        (_drop_qa_file({"question": "q", "answer": {"number": "1"}, "validated_answers": {"a": 1}}),
         "passage 'p': qa_pairs[0].validated_answers is not a list"),
        (_drop_qa_file({"question": "q", "answer": {"number": 5}, "validated_answers": 7}),
         "passage 'p': qa_pairs[0].answer: 'number' is not a string"),
        # Every validated answer is checked to be an object before any is read.
        (_drop_qa_file({"question": "q", "answer": {"number": "1"}, "validated_answers": [{"number": 5}, "x"]}),
         "passage 'p': qa_pairs[0].validated_answers[1] is not an object"),
        (_drop_qa_file({"question": "q", "answer": {"number": "1"}, "validated_answers": [{}, {"spans": [None]}]}),
         "passage 'p': qa_pairs[0].validated_answers[1]: a 'spans' entry is not a string"),
        (_drop_qa_file({"question": "q", "answer": {"number": "1"}},
                       {"question": "q", "answer": {"number": "2"}, "validated_answers": [{"date": {"month": 1}}]}),
         "passage 'p': qa_pairs[1].validated_answers[0]: 'date.month' is not a string"),
        ({"a": _drop_qa_file({"question": "q", "answer": {"number": "1"}})["p"],
          "b'q": _drop_qa_file({"question": "q", "answer": {"date": {"year": 1}}})["p"]},
         "passage \"b'q\": qa_pairs[0].answer: 'date.year' is not a string"),
    ],
    ids=[
        "passage", "null-passage", "no-passage", "list-block", "list-file", "qa_pairs", "qa-pair-entry",
        "query_id", "query_id-before-question", "question", "null-question", "answer", "number", "spans-entry",
        "spans", "date", "date-before-number-and-spans", "date.day", "date.month", "validated_answers",
        "answer-before-validated_answers", "validated_answers-entry", "validated_answers-entry-field",
        "second-qa-pair", "second-passage",
    ],
)
def test_ingest_drop_error_text_for_each_wrong_type(data, line):
    with pytest.raises(ParseError) as info:
        ingest_drop(io.BytesIO(json.dumps(data).encode()))
    assert str(info.value) == line


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", [b'{"p": {"passage": "x", "qa_pairs": []}}', b'{"p": 5}'], ids=["read", "error"])
def test_ingest_drop_leaves_the_garbage_collector_as_it_found_it(enabled, text):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            ingest_drop(io.BytesIO(text))
        except ParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


_JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _object_texts(draw):
    """JSON texts of one object with random separators and whitespace (keys
    may repeat), then at most one mutation; some are not JSON or not an object."""
    space = lambda: draw(_JSON_SPACE)  # noqa: E731
    members = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "", 'q"', "é"]), _JSON_VALUES), max_size=4))
    separators = (draw(st.sampled_from([",", ", ", ",\n"])), draw(st.sampled_from([":", ": ", " :\t"])))
    text = space() + "{" + space() + ",".join(
        f"{json.dumps(key)}{space()}:{space()}{json.dumps(value, separators=separators)}{space()}" + space()
        for key, value in members
    ) + "}" + space()
    mutation = draw(st.sampled_from([
        "none", "truncate", "space", "delimiter", "key-quote", "bom", "trailing-comma", "trailing-data", "vt", "nbsp",
        "deep", "empty", "list", "string", "number",
    ]))
    at = draw(st.integers(0, len(text)))
    if mutation == "truncate":
        return text[: min(at, len(text) - 1)]
    if mutation in ("delimiter", "key-quote"):  # one punctuation mark, or the quote opening a key, replaced
        if mutation == "delimiter":
            spots = [i for i, char in enumerate(text) if char in '{}[],:"']
        else:
            spots = [i for i, char in enumerate(text) if char == '"' and text[:i].rstrip()[-1:] in ("{", ",")]
        at = draw(st.sampled_from(spots or [0]))
        return text[:at] + draw(st.sampled_from('x{}[],:" ')) + text[at + 1 :]
    if mutation in ("space", "vt", "nbsp"):
        return text[:at] + {"space": space() or " ", "vt": "\x0b", "nbsp": "\u00a0"}[mutation] + text[at:]
    if mutation in ("trailing-comma", "deep"):  # deeper than the recursion limit, which Hypothesis raises
        end = text.rindex("}")
        insert = "," if mutation == "trailing-comma" else ', "d": ' + "[" * 5000 + "]" * 5000
        return text[:end] + insert + text[end:]
    return {
        "none": text,
        "bom": "\ufeff" + text,
        "trailing-data": text + draw(st.sampled_from(["x", " 1", "{}", ",", "]", '"a"'])),
        "empty": space() + "{" + space() + "}" + space(),
        "list": json.dumps([value for _, value in members]),
        "string": '"{}"',
        "number": " 12 ",
    }[mutation]


class _Trickle(io.BytesIO):
    """A seekable binary stream whose reads return at most ``most`` bytes, so every byte ends a read."""

    def __init__(self, data: bytes, most: int):
        super().__init__(data)
        self.most = most

    def read(self, size=-1):
        return super().read(self.most if size is None or size < 0 else min(size, self.most))


_READ_SIZES = (1, 2, 3, 7, 65536)


def _members(data: bytes, size: int, trickle: bool) -> list:
    """``corpus._members`` of ``data``, read ``size`` bytes at a time; with ``trickle``, each read
    also returns at most ``size`` bytes, however many the reader asks for."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_READ_BYTES", size)
        return list(corpus._members(_Trickle(data, size) if trickle else io.BytesIO(data)))


def _assert_members_agree(text: str, trickle: bool = False) -> None:
    """At each of _READ_SIZES, the members are those of json.loads, or _Malformed is raised where it gives no object."""
    try:
        expected = json.loads(text)
    except (ValueError, RecursionError):
        expected = None
    for size in _READ_SIZES:
        if type(expected) is dict:
            # Dumped, so 1 and 1.0, 0.0 and -0.0, and NaN compare as written.
            members = dict(_members(text.encode("utf-8"), size, trickle))
            assert json.dumps(list(members.items())) == json.dumps(list(expected.items())), size
        else:
            with pytest.raises(corpus._Malformed):
                _members(text.encode("utf-8"), size, trickle)


@settings(max_examples=500)
@given(_object_texts())
def test_members_agree_with_json_loads(text):
    _assert_members_agree(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 12}', '{"a": 12, "b": 345}', '{"a": 12e5}', '{"a": 12.5}', '{"a": -12E-5 }', '{"a": 0}',
        '{"a": true}', '{"a": false, "b": null}', '{"a": NaN}', '{"a": -Infinity}', '{"a": "x"}\n',
        # A character of two, three and four UTF-8 bytes, split across reads.
        '{"é€😀": "x😀é", "b": ["€"]}', '{"a": "😀"}', r'{"\u00e9\ud83d\ude00": 1}',
        '{"a": 12', '{"a": 12.}', '{"a": 12e}', '{"a": tru}', '{"a": 1} 2', '{"a": 1}}', '{"a": 1,}', "{}", " { } ", "",
        pytest.param('{"a": 1' + "0" * 5000 + "}", id="integer-of-5001-digits"),
        pytest.param('{"a": 1, "d": ' + "[" * 5000 + "]" * 5000 + "}", id="nested-5000-deep"),
    ],
)
def test_members_agree_with_json_loads_when_every_byte_ends_a_read(text):
    # A member cut off anywhere, a number or ``true`` among them, is read again once more is read.
    _assert_members_agree(text, trickle=True)


@pytest.mark.parametrize("data", [b'{"a": "\xc3', b'{"a": "\xe2\x82"}', b'{"a": "\xff"}'])
def test_members_of_bytes_that_are_not_utf8_are_malformed(data):
    for size in _READ_SIZES:
        with pytest.raises(corpus._Malformed):
            _members(data, size, trickle=True)


_GOOD_BLOCK = {"passage": "Ann had 2 figs.", "qa_pairs": [drop_qa("How many?", "qa", drop_answer(number="2"))]}
_OTHER_BLOCK = {"passage": "Bo had 3 nuts.", "qa_pairs": [drop_qa("How many?", "qb", drop_answer(number="3"))]}


def test_ingest_drop_keeps_a_repeated_passage_ids_first_place_and_last_block():
    text = '{"a": {"passage": 5}, "b": %s, "a": %s}' % (json.dumps(_OTHER_BLOCK), json.dumps(_GOOD_BLOCK))
    assert [r.query_id for r in ingest_drop(io.BytesIO(text.encode())).records] == ["qa", "qb"]


_WHOLE_DOCUMENT_ERRORS = pytest.mark.parametrize(
    "text, line",
    [
        # A syntax error after a wrongly typed passage is the error, as one json.loads reports it.
        ('{"a": {"passage": 5}, "b": %s, "c": ' % json.dumps(_OTHER_BLOCK),
         "malformed JSON: Expecting value (byte offset 233)"),
        ('{"a": {"passage": 5}, "b": %s} x' % json.dumps(_OTHER_BLOCK), "malformed JSON: Extra data (byte offset 228)"),
        ("\ufeff" + json.dumps({"a": _GOOD_BLOCK}),
         "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (byte offset 0)"),
        ("[]", "DROP file must be a JSON object keyed by passage id"),
        ('{"a": %s, "b": %s}' % (json.dumps(_GOOD_BLOCK), "[" * 2000 + "]" * 2000),
         "malformed JSON: nested too deeply"),
    ],
    ids=["type-then-syntax", "type-then-extra-data", "bom", "list", "nested-too-deeply"],
)


@_WHOLE_DOCUMENT_ERRORS
def test_ingest_drop_error_is_the_whole_documents(text, line):
    with pytest.raises(ParseError) as info:
        ingest_drop(io.BytesIO(text.encode()))
    assert str(info.value) == line


class _Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe's."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def _unseekable_source(tmp_path, kind: str, data: bytes):
    """``data`` as an unseekable stream, or as the path of a FIFO that a thread writes it to."""
    if kind == "stream":
        return _Unseekable(data)
    fifo = tmp_path / "gold.fifo"
    os.mkfifo(fifo)
    threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True).start()
    return str(fifo)


@pytest.mark.parametrize("kind", ["stream", "fifo"])
def test_ingest_drop_of_a_source_that_cannot_seek_is_the_regular_files(tmp_path, kind):
    passages = {
        f"p{p}": (f"Ann had {p} figs.", [drop_qa("How many?", f"p{p}q{q}", drop_answer(number=str(q))) for q in range(3)]
                  + [drop_qa("Which?", f"p{p}e", drop_answer())])
        for p in range(400)
    }
    doc = json.dumps(build_drop_file(passages)).encode()  # more than one read of the streaming reader
    assert len(doc) > 1 << 16
    expected = ingest_drop(io.BytesIO(doc))
    assert len(expected.records) == 1200 and len(expected.errors) == 400
    assert ingest_drop(_unseekable_source(tmp_path, kind, doc)) == expected


def test_ingest_drop_reads_a_stream_from_where_it_stands():
    doc = json.dumps({"a": _GOOD_BLOCK}).encode()
    for tail, error in ((b"", None), (b" x", "malformed JSON: Extra data (byte offset 208)")):
        source = io.BytesIO(b"header\n" + doc + tail)
        source.readline()
        if error is None:
            assert [r.query_id for r in ingest_drop(source).records] == ["qa"]
        else:  # the whole-document read starts where the streamed one did
            with pytest.raises(ParseError, match=re.escape(error)):
                ingest_drop(source)


@pytest.mark.parametrize("kind", ["stream", "fifo"])
@_WHOLE_DOCUMENT_ERRORS
def test_ingest_drop_error_of_a_source_that_cannot_seek_is_the_whole_documents(tmp_path, kind, text, line):
    with pytest.raises(ParseError) as info:
        ingest_drop(_unseekable_source(tmp_path, kind, text.encode()))
    assert str(info.value) == line


def _gold_of_300_passages() -> bytes:
    """A DROP gold file of 300 passages of about 1.1 KB and 3000 questions, ids ``p{p}q{q}``."""
    passages = {
        f"p{p:03d}": (f"passage {p} " + "Ann had 12 figs and 7 nuts. " * 40,
                      [drop_qa(f"How many in game {q}?", f"p{p}q{q}", drop_answer(number=str(q)),
                               validated=[drop_answer(spans=["Ann", "figs"])]) for q in range(10)])
        for p in range(300)
    }
    return json.dumps(build_drop_file(passages)).encode()


def test_ingest_drop_holds_less_than_the_decoded_document():
    doc = _gold_of_300_passages()
    tracemalloc.start()
    try:
        json.loads(doc.decode("utf-8"))
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        records = ingest_drop(io.BytesIO(doc)).records
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 3000
    assert streamed < 0.85 * whole, (streamed, whole)


def test_score_holds_less_than_half_the_decoded_gold_document(tmp_path):
    # score keeps each question's id and gold answers only, and build_report builds its
    # per-question rows after the records and predictions are freed. The parent of that change
    # peaked at 0.63 of json.loads's peak on the gold text, the change at 0.35.
    doc = _gold_of_300_passages()
    gold, pred, out = tmp_path / "gold.json", tmp_path / "pred.jsonl", tmp_path / "score.json"
    gold.write_bytes(doc)
    pred.write_text("".join(
        json.dumps({"id": f"p{p}q{q}", "prediction": str(q)}) + "\n" for p in range(300) for q in range(10)
    ), encoding="utf-8")
    argv = ["score", "--gold", str(gold), "--pred", str(pred), "--out", str(out)]
    assert run(argv) == 0  # every layer it runs is loaded before anything is measured
    tracemalloc.start()
    try:
        json.loads(doc.decode("utf-8"))
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert run(argv) == 0
        scored = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text(encoding="utf-8"))["overall"] == {"count": 3000, "em": 1.0, "f1": 1.0}
    assert scored < 0.5 * whole, (scored, whole)


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
    assert example.task == corpus.SQUAD_CONTEXT
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
    # NBSP is C2 A0 in UTF-8 and "\u00e0" is C3 A0, so a byte >= 0x80 is
    # never whitespace on its own; then a figure space, a 4-byte Nd digit,
    # a 4-byte symbol and a dash.
    + ["\xa0", "\u00e0", "\u2007", "\U0001d7d8", "\U0001f600", "\u2013"]
)


@given(st.one_of(st.lists(_TOKENIZER_PIECES, max_size=40).map("".join), st.text(st.characters(), max_size=60)))
def test_digit_tokenize_matches_character_scan_oracle(text):
    tokens = oracle_tokenize(text)
    assert digit_tokenize(text) == tokens
    assert count_tokens(text) == len(tokens) <= len(text)


def test_count_tokens_agrees_with_digit_tokenize_on_every_code_point(monkeypatch):
    # Every code point that is neither whitespace nor Nd (lone surrogates
    # too), in one long text mixed with ASCII digits and spaces...
    chars = list(map(chr, range(0x110000)))
    plain = "".join([char for char in chars if not (char.isspace() or char.isdecimal())])
    seps = itertools.cycle(["", " ", "7", "", "7 ", " 7", "\t"])
    text = "".join(plain[i : i + 5] + next(seps) for i in range(0, len(plain), 5))
    expected = len(digit_tokenize(text))
    # ...and each non-ASCII whitespace or Nd code point in a short text...
    special = [char for char in chars[0x80:] if char.isspace() or char.isdecimal()]
    assert special
    shorts = [f"a{char}b 1{char}2 {char}" for char in special]
    expected_shorts = [len(digit_tokenize(short)) for short in shorts]
    # ...are counted from their bytes' classes, never through digit_tokenize.
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "digit_tokenize", None)
        assert count_tokens(text) == expected
        for char, short, count in zip(special, shorts, expected_shorts):
            assert count_tokens(short) == count, hex(ord(char))
    # A token is at least one character, which audit_truncation relies on
    # to skip counting any text no longer than its limit.
    assert count_tokens(text) <= len(text)
    assert all(count_tokens(short) <= len(short) for short in shorts)


# ---------------------------------------------------------------------------
# Truncation audit
# ---------------------------------------------------------------------------

def _example(input_words, target_words=1):
    # Digit-free words, so the default counter sees input_words + 1 tokens
    # (the prefix) and exactly target_words target tokens.
    return Example(
        input="answer_me: " + " ".join(["word"] * input_words),
        target=" ".join(["tok"] * target_words),
        task=corpus.ANSWER_ME,
    )


def _audit(tmp_path, examples, encoder_max, decoder_max):
    """audit_truncation of ``examples``, written to a JSONL file first."""
    path = tmp_path / "audit.jsonl"
    with open(path, "wb") as sink:
        write_examples(examples, sink)
    return audit_truncation(path, encoder_max, decoder_max)


def test_audit_nothing_exceeds(tmp_path):
    audit = _audit(tmp_path, [_example(4) for _ in range(10)], 512, 54)
    assert audit["encoder_over"] == 0 and audit["encoder_fraction"] == 0.0


def test_audit_counts_long_inputs(tmp_path):
    examples = [_example(600) for _ in range(4)] + [_example(10) for _ in range(96)]
    audit = _audit(tmp_path, examples, 512, 54)
    assert audit["total"] == 100
    assert audit["encoder_fraction"] == 0.04


def test_audit_tiny_limits_cut_everything(tmp_path):
    audit = _audit(tmp_path, [_example(3, 2) for _ in range(5)], 1, 1)
    assert audit["encoder_fraction"] == 1.0 and audit["decoder_fraction"] == 1.0


def test_audit_empty_corpus_has_zero_fractions(tmp_path):
    audit = _audit(tmp_path, [], 1, 1)
    assert audit["encoder_fraction"] == 0.0 and audit["decoder_fraction"] == 0.0


def test_audit_fraction_monotone_in_limits(tmp_path):
    examples = [_example(n) for n in (2, 8, 32, 128)]
    fractions = [
        _audit(tmp_path, examples, limit, 54)["encoder_fraction"]
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
            task=corpus.ANSWER_ME,
            answer_type=corpus.NUMBER,
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


#: Characters JSON escapes or writes in more than one UTF-8 byte: a quote, a
#: backslash, every control byte, U+2028, NBSP and a character outside the BMP.
_AWKWARD = '"\\' + "".join(map(chr, range(32))) + "\x7f \u2028\xa0\U0001f600"


def _tagged(question: str, context: str, target: str, source_id: str) -> Example:
    """An answer_me example, or a calculate one where ``context`` is empty."""
    task = corpus.ANSWER_ME if context else corpus.CALCULATE
    return Example(format_input(task, question, context), target, task, corpus.NUMBER, source_id)


def _dumps_lines(examples) -> bytes:
    return b"".join(json.dumps(e.to_json(), ensure_ascii=False).encode() + b"\n" for e in examples)


def test_write_examples_gives_each_examples_json_dumps_line():
    shared = f"Ann had {_AWKWARD} 2 figs."
    examples = [
        *(_tagged(f"q{i} {_AWKWARD}", shared, f"t{i}{_AWKWARD}", f'"s{i}{_AWKWARD}') for i in range(3)),
        *(_tagged(f"1 + {i} {_AWKWARD}", "", str(i + 1), f"c{i}") for i in range(2)),
        _tagged("Who? context: here", "Bo ran.", "Bo", "x1"),
        _tagged("Who? context: there", "Bo ran.", "Bo", "x2"),
        _tagged("Who?", f"{_AWKWARD} ran.", "Bo", "x3"),
        _tagged("Who?", shared, "Ann", "x4"),
        _tagged("Who?", shared, "Ann", "x5"),
    ]
    for order in (examples, examples[::-1], examples[3:] + examples[:3]):
        sink = io.BytesIO()
        assert write_examples(order, sink) == len(order)
        assert sink.getvalue() == _dumps_lines(order)


@pytest.mark.parametrize("at", ["shared context", "later question"])
def test_write_examples_names_the_first_record_holding_a_lone_surrogate(at):
    context, question = ("Ann \ud800 ran.", "Who?") if at == "shared context" else ("Ann ran.", "Who \udfff?")
    examples = [_tagged("Why?", "Ann ran.", "t", "ok")]
    examples += [_tagged(question if i else "Who?", context, "t", f"q{i}") for i in range(3)]
    first, written = ("q0", examples[:1]) if at == "shared context" else ("q1", examples[:2])
    sink = io.BytesIO()
    with pytest.raises(ValidationError) as raised:
        write_examples(examples, sink)
    assert str(raised.value) == f"record {first!r} holds a lone surrogate, which UTF-8 cannot encode"
    assert sink.getvalue() == _dumps_lines(written)


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
    rows = list(iter_examples(io.BytesIO(data)))
    assert [offset for offset, *_ in rows] == starts[1:5]
    assert [example for *_, example in rows] == read_examples(io.BytesIO(data))


def test_indexed_examples_match_read_examples(tmp_path):
    path = tmp_path / "ex.jsonl"
    sink = io.BytesIO()
    write_examples(_some_examples(25), sink, meta={"seed": 2})
    path.write_bytes(sink.getvalue())
    lines = sink.getvalue().splitlines(keepends=True)[1:]
    with open(path, "rb") as handle:
        indexed = IndexedExamples(handle)
        assert len(indexed) == 25
        draws = [indexed[i] for i in (24, 0, 7, 7)]
        # The program's own lines are canonical: each draw is its line's bytes.
        assert draws == [lines[i] for i in (24, 0, 7, 7)]
        assert all(type(draw) is SourceLine for draw in draws)
        assert [corpus.example_from_json(json.loads(line)) for line in indexed] == read_examples(io.BytesIO(sink.getvalue()))


@pytest.fixture
def index_bytes(tmp_path):
    """``index_bytes(data)``: the IndexedExamples of ``data``, written to a file that stays open for the test."""
    handles = []

    def index(data):
        path = tmp_path / f"indexed-{len(handles)}.jsonl"
        path.write_bytes(data)
        handles.append(open(path, "rb"))
        return IndexedExamples(handles[-1])

    yield index
    for handle in handles:
        handle.close()


def test_indexed_examples_write_every_line_as_write_examples_does(index_bytes):
    examples = read_examples(io.BytesIO(NONCANONICAL_SOURCE))
    indexed = index_bytes(NONCANONICAL_SOURCE)
    assert len(indexed) == len(examples) == 9
    for index, example in enumerate(examples):
        drawn, expected = io.BytesIO(), io.BytesIO()
        write_examples([indexed[index]], drawn)
        write_examples([example], expected)
        assert drawn.getvalue() == expected.getvalue(), example.source_id
    # Only the lines with no escape, the fixed key order and spacing and a
    # "\n" end are copied; the others are decoded again.
    kinds = {example.source_id: type(indexed[index]) for index, example in enumerate(examples)}
    assert {name for name, kind in kinds.items() if kind is SourceLine} == {"nc-0", "nc-5"}
    assert {kind for name, kind in kinds.items() if name not in ("nc-0", "nc-5")} == {Example}


def _built_examples():
    """One example from each builder in the package."""
    drop = DropRecord("The reds won 3 games.", "Who won?", (GoldAnswer(spans=("the reds",)),), "d-1")
    squad = SquadRecord("Ann met Bo.", "Who met Bo?", ("Ann",), "s-1")
    return [
        num_to_example(next(generate_num(1, seed=3))),
        txt_to_example(next(generate_txt(1, seed=3))),
        make_drop_example(drop),
        make_classification_example(drop),
        make_squad_example(squad),
    ]


def test_a_built_example_holds_plain_strings_and_equals_its_read_back():
    for example in _built_examples():
        fields = [getattr(example, name) for name in corpus.EXAMPLE_FIELDS]
        assert [type(value) for value in fields] == [str] * 5, example
        assert corpus.example_from_json(example.to_json()) == example
        line = io.BytesIO()
        write_examples([example], line)
        assert read_examples(io.BytesIO(line.getvalue())) == [example]


def test_example_init_can_be_wrapped_as_the_benchmark_tracer_does(monkeypatch, index_bytes):
    # bench/tracing.py replaces Example.__init__ with a functools.wraps
    # wrapper that calls the original; every builder and reader must still work.
    calls = []
    original = Example.__init__

    @functools.wraps(original)
    def traced(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(Example, "__init__", traced)
    built = _built_examples()
    indexed = index_bytes(NONCANONICAL_SOURCE)
    # The span check vouches for nc-0 and nc-5, the two canonical lines, and builds
    # no Example for them; every other line is read one at a time.
    assert [args[4] for args in calls[len(built) :]] == [f"nc-{i}" for i in range(len(indexed)) if i not in (0, 5)]
    assert corpus.example_from_json(built[0].to_json()) == built[0]
    assert indexed[3].source_id == "nc-3"


def test_every_draw_has_a_source_id_and_example_from_json_rejects_bad_rows(index_bytes):
    # What bench/ relies on: it reads `source_id` from every draw and checks
    # generated rows with corpus.example_from_json.
    indexed = index_bytes(NONCANONICAL_SOURCE)
    assert [indexed[index].source_id for index in range(len(indexed))] == [f"nc-{i}" for i in range(9)]
    good = _some_examples(1)[0].to_json()
    assert corpus.example_from_json(good) == _some_examples(1)[0]
    bad_rows = (
        [],
        {"bogus": True},
        {**good, "source_id": 7},
        {**good, "task": "nope"},
        {**good, "answer_type": "nope"},
        {**good, "target": ""},
        {**good, "input": "calculate: 1"},
    )
    for bad in bad_rows:
        with pytest.raises(ValueError):
            corpus.example_from_json(bad)


def test_a_negative_draw_reads_one_line_and_equals_its_positive_twin(index_bytes, monkeypatch):
    sink = io.BytesIO()
    write_examples(_some_examples(1000), sink)
    data = sink.getvalue() + NONCANONICAL_SOURCE.split(b"\n", 1)[1] + b"\n"
    lines = data.splitlines(keepends=True)
    indexed = index_bytes(data)
    assert len(indexed) == len(lines) == 1009
    real_pread, reads = os.pread, []

    def counted_pread(fd, size, offset):
        reads.append(size)
        return real_pread(fd, size, offset)

    monkeypatch.setattr(os, "pread", counted_pread)
    for back in (1, 2, 9, 10, 500, 1009):
        del reads[:]
        assert indexed[-back] == indexed[len(indexed) - back]
        assert reads == [len(lines[-back])] * 2
    for index in (len(indexed), -len(indexed) - 1):
        with pytest.raises(IndexError):
            indexed[index]


def test_a_changed_noncanonical_line_is_a_validation_error_when_drawn(tmp_path):
    path = tmp_path / "source.jsonl"
    path.write_bytes(NONCANONICAL_SOURCE)
    with open(path, "r+b") as source:
        indexed = IndexedExamples(source)
        assert indexed[3].source_id == "nc-3"
        start = NONCANONICAL_SOURCE.index(b'{"source_id": "nc-3"')
        os.pwrite(source.fileno(), b"[", start)
        with pytest.raises(ValidationError, match=f"byte offset {start} no longer holds the record"):
            indexed[3]


_GOOD_ROW = {"input": "answer_me: q? context: c", "target": "t", "task": "answer_me", "answer_type": "span", "source_id": ""}


@pytest.mark.parametrize(
    "row, message",
    [
        ([], "exactly the fields"),
        ({**_GOOD_ROW, "extra": ""}, "exactly the fields"),
        ({key: _GOOD_ROW[key] for key in list(_GOOD_ROW)[:4]}, "exactly the fields"),
        ({**_GOOD_ROW, "source_id": 7}, "must be strings"),
        ({**_GOOD_ROW, "task": "nope"}, "not a valid task"),
        ({**_GOOD_ROW, "answer_type": "nope"}, "not a valid answer type"),
        ({**_GOOD_ROW, "input": "calculate: q? context: c"}, "prefix"),
        ({**_GOOD_ROW, "input": "answer_me:  \t context: c"}, "question is empty"),
        ({**_GOOD_ROW, "input": "answer_me: "}, "question is empty"),
        ({**_GOOD_ROW, "target": ""}, "target must be non-empty"),
    ],
)
def test_record_from_json_holds_the_rules_example_holds(row, message):
    # A record read from JSON goes through example_from_json, which checks
    # the JSON shape and leaves the other rules to Example itself.
    with pytest.raises(ValidationError, match=message):
        corpus.example_from_json(row)
    if isinstance(row, dict) and row.keys() == _GOOD_ROW.keys() and all(isinstance(v, str) for v in row.values()):
        with pytest.raises(ValidationError, match=message):
            Example(*row.values())


def test_record_from_json_returns_the_five_strings():
    example = corpus.example_from_json(_GOOD_ROW)
    assert example == Example(*_GOOD_ROW.values())
    assert [type(value) for value in example.to_json().values()] == [str] * 5
    assert example.to_json() == _GOOD_ROW
    assert list(example.to_json()) == list(corpus.EXAMPLE_FIELDS)


def test_a_lone_surrogate_is_read_but_not_indexed(index_bytes):
    line = b'{"input": "answer_me: q\\ud800? context: c", "target": "t", "task": "answer_me", "answer_type": "span", "source_id": ""}\n'
    data = json.dumps(_GOOD_ROW).encode() + b"\n" + line
    (_, _, _, example), = iter_examples(io.BytesIO(line))
    assert example.input == "answer_me: q\ud800? context: c"
    with pytest.raises(ValidationError, match="line 2: .*surrogate"):
        index_bytes(data)


def test_read_reports_a_line_that_is_not_utf8():
    with pytest.raises(ParseError, match=r"not UTF-8.*\(byte offset 3\) \(line 2\)"):
        list(iter_jsonl(io.BytesIO(b'{}\n\xff{}\n')))


def test_json_nested_too_deeply_is_a_parse_error():
    deep = b"[" * 2000 + b"]" * 2000
    with pytest.raises(ParseError) as info:
        corpus.load_json(io.BytesIO(deep))
    assert str(info.value) == "malformed JSON: nested too deeply"
    with pytest.raises(ParseError) as info:
        list(iter_jsonl(io.BytesIO(b"{}\n" + deep + b"\n")))
    assert str(info.value) == "invalid JSON: nested too deeply (line 2)"


def test_indexed_examples_validate_every_line_up_front(index_bytes):
    sink = io.BytesIO()
    write_examples(_some_examples(10), sink)
    lines = sink.getvalue().splitlines()
    lines[8] = b'{"input": "answer_me: ", "target": "x", "task": "answer_me", "answer_type": "none", "source_id": ""}'
    with pytest.raises(ValidationError, match="line 9"):
        index_bytes(b"\n".join(lines) + b"\n")


_GOOD_LINE = (json.dumps(_GOOD_ROW) + "\n").encode()

#: One line each, written after a canonical line and as line 1 alone.
_AGREEMENT_LINES = {
    "canonical": _GOOD_LINE,
    "raw-control": _GOOD_LINE.replace(b"context: c", b"context: \x01c"),
    "raw-tab": _GOOD_LINE.replace(b"context: c", b"context:\tc"),
    "escaped-quote": _GOOD_LINE.replace(b"context: c", b'context: \\"c\\"'),
    "u-escape": _GOOD_LINE.replace(b"context: c", b"context: caf\\u00e9"),
    "surrogate-escape": _GOOD_LINE.replace(b"context: c", b"context: \\ud800"),
    "crlf": _GOOD_LINE[:-1] + b"\r\n",
    "no-final-newline": _GOOD_LINE[:-1],
    "brace-for-newline": _GOOD_LINE[:-1] + b"}",
    "space-for-newline": _GOOD_LINE[:-1] + b" ",
    "key-order": (json.dumps(dict(reversed(_GOOD_ROW.items()))) + "\n").encode(),
    "repeated-key": _GOOD_LINE[:-2] + b', "target": "u"}\n',
    "extra-spaces": _GOOD_LINE.replace(b'": "', b'" : "'),
    "bom": b"\xef\xbb\xbf" + _GOOD_LINE,
    "invalid-utf8": _GOOD_LINE.replace(b"context: c", b"context: \xff"),
    "raw-del": _GOOD_LINE.replace(b"context: c", b"context: \x7f"),
    "u2028": _GOOD_LINE.replace(b"context: c", "context: c\u2028".encode()),
    "nbsp": _GOOD_LINE.replace(b"context: c", "context: \xa0c".encode()),
    "meta": b'{"meta": {"seed": 1}}\n',
    "blank": b" \t \n",
    "bad-task": _GOOD_LINE.replace(b'"task": "answer_me"', b'"task": "nope"'),
    "bad-answer-type": _GOOD_LINE.replace(b'"answer_type": "span"', b'"answer_type": "nope"'),
    "other-task-prefix": _GOOD_LINE.replace(b'"input": "answer_me:', b'"input": "calculate:'),
    "empty-target": _GOOD_LINE.replace(b'"target": "t"', b'"target": ""'),
    "empty-question": _GOOD_LINE.replace(b"answer_me: q?", b"answer_me:  "),
    "spaced-question": _GOOD_LINE.replace(b"answer_me: q?", b"answer_me:  q?"),
    "no-question": _GOOD_LINE.replace(b"answer_me: q? context: c", b"answer_me: "),
    "wide-spaced-question": _GOOD_LINE.replace(b"answer_me: q?", "answer_me: \u3000\xa0q?".encode()),
    "wide-blank-question": _GOOD_LINE.replace(b"answer_me: q?", "answer_me: \u3000 \u2028".encode()),
    "quote-in-key": _GOOD_LINE.replace(b'"target"', b'"tar"get"'),
    "backslash-for-quote": _GOOD_LINE.replace(b'{"input"', b'{\\input"'),
    "control-for-quote": _GOOD_LINE.replace(b'"task"', b'\x1ftask"'),
}


def _read_both_ways(data, monkeypatch):
    """What iter_examples gives for ``data`` with its canonical-line pre-check and with every
    line sent down the json.loads path: rows, or the error line, each way."""
    results = []
    for vouch in (corpus._CANONICAL_RECORD, lambda line: None):  # the second matches no line
        monkeypatch.setattr(corpus, "_CANONICAL_RECORD", vouch)
        try:
            results.append(list(iter_examples(io.BytesIO(data))))
        except ValueError as exc:
            results.append(f"error: {exc}")
    monkeypatch.undo()
    return results


@pytest.mark.parametrize("before", [b"", _GOOD_LINE], ids=["line-1", "line-2"])
@pytest.mark.parametrize("name", list(_AGREEMENT_LINES))
def test_the_canonical_line_precheck_agrees_with_json_loads(monkeypatch, index_bytes, name, before):
    data = before + _AGREEMENT_LINES[name]
    checked, decoded = _read_both_ways(data, monkeypatch)
    if isinstance(decoded, str):
        assert checked == decoded
        return
    assert [row[:2] + row[3:] for row in checked] == [row[:2] + row[3:] for row in decoded]
    assert not any(canonical for _, _, canonical, _ in decoded)
    # A line is canonical by the pre-check exactly when it is by the rule the
    # index used before it: no backslash, and the very line write_examples writes.
    rule = []
    for offset, _, _, example in checked:
        line = data[offset:].partition(b"\n")
        text = (line[0] + line[1]).decode("utf-8")
        rule.append("\\" not in text and text == corpus._CANONICAL_LINE % corpus._fields(example))
    assert [canonical for _, _, canonical, _ in checked] == rule
    if name in ("canonical", "raw-del", "u2028", "nbsp"):
        assert rule[-1]
    try:
        indexed = index_bytes(data)
    except ValidationError as exc:
        assert name == "surrogate-escape" and "surrogate" in str(exc)
    else:
        assert [offset >= 0 for offset in indexed._offsets] == rule


#: Where a test file puts its one _AGREEMENT_LINES entry among canonical lines cut
#: into spans of 512 bytes: its first line, the first or a middle line of span 1,
#: its last line; or, with spans that end right after it, the last line of span 0.
_SPAN_PLACES = ("line-1", "span-start", "span-middle", "file-end", "span-end")


def _span_file(line: bytes, place: str) -> tuple[bytes, int]:
    """The test file and its span size."""
    good = [(json.dumps({**_GOOD_ROW, "source_id": f"g{i:04d}"}) + "\n").encode() for i in range(16)]
    span_start = -(-512 // len(good[0]))  # the first line of span 1
    at = {"line-1": 0, "span-start": span_start, "span-middle": span_start + 2, "file-end": len(good)}.get(place, 4)
    data = b"".join(good[:at]) + line + b"".join(good[at:])
    return data, 4 * len(good[0]) + len(line) if place == "span-end" else 512


@pytest.mark.parametrize("place", _SPAN_PLACES)
@pytest.mark.parametrize("name", list(_AGREEMENT_LINES))
def test_the_span_check_agrees_with_the_line_path(tmp_path, monkeypatch, name, place):
    data, span_bytes = _span_file(_AGREEMENT_LINES[name], place)
    monkeypatch.setattr(shard, "SPAN_BYTES", span_bytes)
    path = tmp_path / "source.jsonl"
    path.write_bytes(data)
    # The span check leaves at most the one line that is not the canonical good line, and
    # every line where an escape stands for a quote; a span that is not UTF-8 raises.
    if name in ("backslash-for-quote", "control-for-quote"):
        assert not any(corpus._span_check(data, 0)[1])
    elif name != "invalid-utf8":
        assert corpus._span_check(data, 0)[1].count(None) <= 1

    def vouch_for_none(data, start):  # and find the lines as the line path does
        lines = list(io.BytesIO(data))
        return list(itertools.accumulate(map(len, lines), initial=start)), [None] * len(lines)

    results = []
    for check in (corpus._span_check, vouch_for_none):
        monkeypatch.setattr(corpus, "_span_check", check)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            results.append(index_and_audit(path))
    assert results[1:] == results[:1] * 3
