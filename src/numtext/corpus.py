"""Ingestion, tagging, auditing, and serialization of QA records.

Reads the public DROP and SQuAD v1.1 JSON layouts, derives the
question-type classification task, formats prefix-tagged text-to-text
examples (question placed before context so truncation eats the passage
tail, never the question), maps a gold answer to its spans (the one rule
for targets and scoring), audits length cutoffs, and writes every JSONL
record stream byte-stably through :func:`write_examples`.
Every record line is one :class:`Example`, and :func:`example_from_json`
is the one way to read one back.
"""

from __future__ import annotations

import gc
import json
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, ValidationError


#: Prefix tags naming the task of a text-to-text example.
ANSWER_ME, CALCULATE, CLASSIFY_ME, SQUAD_CONTEXT = "answer_me", "calculate", "classify_me", "squad_context"
TASKS = frozenset((ANSWER_ME, CALCULATE, CLASSIFY_ME, SQUAD_CONTEXT))

#: DROP-style answer classes (plus ``none`` for untyped records).
NUMBER, DATE, SPAN, SPANS, NONE = "number", "date", "span", "spans", "none"
ANSWER_TYPES = frozenset((NUMBER, DATE, SPAN, SPANS, NONE))


CONTEXT_MARKER = " context: "

#: JSONL field order; fixed so golden files are bit-exact.
EXAMPLE_FIELDS = ("input", "target", "task", "answer_type", "source_id")
_FIELD_SET = frozenset(EXAMPLE_FIELDS)


def format_input(task: str, question: str, context: str = "") -> str:
    """Build the prefix-tagged input text, question before context.

    Returns ``"<prefix>: <question> context: <context>"``; a calculate
    task with no context yields just ``"calculate: <question>"``.
    """
    if task not in TASKS:
        raise ValidationError(f"unknown task tag: {task!r}")
    question = question.strip()
    context = context.strip()
    if not question:
        raise ValidationError("question must be non-empty")
    if not context:
        if task != CALCULATE:
            raise ValidationError(f"context required for task {task!r}")
        return f"{task}: {question}"
    return f"{task}: {question}{CONTEXT_MARKER}{context}"


class Example:
    """One JSONL record line as five strings; building one checks every record rule.

    ``task`` is in :data:`TASKS` and ``answer_type`` in :data:`ANSWER_TYPES`, ``input``
    starts with the task's prefix and holds a non-blank question, and ``target`` is non-empty.
    """

    __slots__ = EXAMPLE_FIELDS

    def __init__(self, input: str, target: str, task: str, answer_type: str = NONE, source_id: str = ""):
        if task not in TASKS:
            raise ValidationError(f"{task!r} is not a valid task")
        if answer_type not in ANSWER_TYPES:
            raise ValidationError(f"{answer_type!r} is not a valid answer type")
        prefix = task + ": "
        if not input.startswith(prefix):
            raise ValidationError(f"input must start with {task!r} prefix: {input[:40]!r}")
        end = input.find(CONTEXT_MARKER, len(prefix))
        question = input[len(prefix) : end] if end >= 0 else input[len(prefix) :]
        if not question.strip():
            raise ValidationError("input question is empty")
        if not target:
            raise ValidationError("target must be non-empty")
        self.input = input
        self.target = target
        self.task = task
        self.answer_type = answer_type
        self.source_id = source_id

    def __eq__(self, other):
        return _fields(self) == _fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"Example{_fields(self)!r}"

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "target": self.target,
            "task": self.task,
            "answer_type": self.answer_type,
            "source_id": self.source_id,
        }


#: An example's five fields as a tuple, in :data:`EXAMPLE_FIELDS` order.
_fields = attrgetter(*EXAMPLE_FIELDS)


class DateParts:
    __slots__ = ("day", "month", "year")

    def __init__(self, day: str = "", month: str = "", year: str = ""):
        self.day = day
        self.month = month
        self.year = year

    def __eq__(self, other):
        return _date_fields(self) == _date_fields(other) if other.__class__ is self.__class__ else NotImplemented

    def populated(self) -> bool:
        return bool(self.day.strip() or self.month.strip() or self.year.strip())

    def to_text(self) -> str:
        """Canonical "DD month YYYY" rendering, empty fields omitted."""
        return " ".join(p for p in (self.day.strip(), self.month.strip(), self.year.strip()) if p)


_date_fields = attrgetter(*DateParts.__slots__)


class GoldAnswer:
    """One gold answer: a number, a list of spans, or a date."""

    __slots__ = ("number", "spans", "date")

    def __init__(self, number: str = "", spans: tuple[str, ...] = (), date: DateParts | None = None):
        self.number = number
        self.spans = spans
        self.date = DateParts() if date is None else date

    def __eq__(self, other):
        return _gold_fields(self) == _gold_fields(other) if other.__class__ is self.__class__ else NotImplemented

    def is_empty(self) -> bool:
        return not (
            self.number.strip()
            or any(s.strip() for s in self.spans)
            or self.date.populated()
        )


_gold_fields = attrgetter(*GoldAnswer.__slots__)


class DropRecord:
    """One DROP question with its passage and all gold answers."""

    __slots__ = ("passage", "question", "answers", "query_id")

    def __init__(self, passage: str, question: str, answers: tuple[GoldAnswer, ...], query_id: str):
        if not answers or all(a.is_empty() for a in answers):
            raise ValidationError(f"record {query_id!r} has no non-empty gold answer")
        self.passage = passage
        self.question = question
        self.answers = answers
        self.query_id = query_id

    def __eq__(self, other):
        return _drop_fields(self) == _drop_fields(other) if other.__class__ is self.__class__ else NotImplemented


_drop_fields = attrgetter(*DropRecord.__slots__)


class SquadRecord:
    """One SQuAD v1.1 question with its passage and answer texts."""

    def __init__(self, passage: str, question: str, answers: tuple[str, ...], qa_id: str):
        if not answers:
            raise ValidationError(f"record {qa_id!r} has no answers")
        self.passage = passage
        self.question = question
        self.answers = answers
        self.qa_id = qa_id


class LengthLimits:
    """Encoder/decoder token budgets used by the truncation audit."""

    # The defaults, as class attributes too: the command line reads its flag defaults here.
    encoder_max = 512
    decoder_max = 54

    def __init__(self, encoder_max: int = encoder_max, decoder_max: int = decoder_max):
        if encoder_max < 1 or decoder_max < 1:
            raise ValidationError("length limits must be >= 1")
        self.encoder_max = encoder_max
        self.decoder_max = decoder_max


class IngestIssue(NamedTuple):
    """A skipped record: which question and why."""

    question_id: str
    message: str


class IngestResult(NamedTuple):
    records: list
    errors: list[IngestIssue]


def derive_answer_type(answer: GoldAnswer) -> str:
    """Classify a gold answer as number / date / span / spans.

    Priority (number > date > spans) only matters for malformed answers
    where more than one field is populated; valid answers have exactly one.
    """
    if answer.number.strip():
        return NUMBER
    if answer.date.populated():
        return DATE
    spans = [s for s in answer.spans if s.strip()]
    if len(spans) == 1:
        return SPAN
    if len(spans) >= 2:
        return SPANS
    raise ValidationError("cannot type a fully empty gold answer")


#: Separator between spans when a multi-span answer is serialized to one string.
SPAN_DELIMITER = "; "


def gold_answer_spans(answer: GoldAnswer) -> tuple[str, ...]:
    """A gold answer as its stripped span strings (dates render as 'DD month YYYY')."""
    kind = derive_answer_type(answer)
    if kind == NUMBER:
        return (answer.number.strip(),)
    if kind == DATE:
        return (answer.date.to_text(),)
    return tuple(s.strip() for s in answer.spans if s.strip())


def gold_target(answer: GoldAnswer) -> str:
    """Serialize a gold answer to the single target string a model must emit."""
    return SPAN_DELIMITER.join(gold_answer_spans(answer))


def make_classification_example(record: DropRecord) -> Example:
    """Build the question-type classification example for one DROP record."""
    kind = derive_answer_type(record.answers[0])
    return Example(
        input=format_input(CLASSIFY_ME, record.question, record.passage),
        target=kind,
        task=CLASSIFY_ME,
        answer_type=kind,
        source_id=record.query_id,
    )


def make_drop_example(record: DropRecord) -> Example:
    """Build the answer_me example for one DROP record (first gold as target)."""
    kind = derive_answer_type(record.answers[0])
    return Example(
        input=format_input(ANSWER_ME, record.question, record.passage),
        target=gold_target(record.answers[0]),
        task=ANSWER_ME,
        answer_type=kind,
        source_id=record.query_id,
    )


def make_squad_example(record: SquadRecord) -> Example:
    """Build the squad_context example for one SQuAD record."""
    return Example(
        input=format_input(SQUAD_CONTEXT, record.question, record.passage),
        target=record.answers[0],
        task=SQUAD_CONTEXT,
        answer_type=SPAN,
        source_id=record.qa_id,
    )


# ---------------------------------------------------------------------------
# Source-file ingestion
# ---------------------------------------------------------------------------

def load_json(source):
    """Parse one JSON document from a path or a stream; malformed input raises ParseError."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", offset=exc.start) from None
    del data  # parse from the text alone, so the file's bytes are not held beside its objects
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset=byte_offset) from None


def is_json_number(value, kind: type | tuple = (int, float)) -> bool:
    """Whether a decoded JSON value is a number of ``kind``; ``true`` and ``false`` are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


class _WrongType(Exception):
    """A value of the wrong JSON type; the message is the error text from the
    place that raised on. A caller that knows an outer place puts it in front,
    so a DROP file's locations are formatted only for the value that is wrong."""


def _objects(value, name: str) -> list:
    """``value`` as a list of JSON objects (``null`` is an empty list); any
    other shape raises _WrongType naming ``name`` or the entry."""
    if value is None:
        return []
    if type(value) is not list:
        raise _WrongType(f"{name} is not a list")
    for index, item in enumerate(value):
        if type(item) is not dict:
            raise _WrongType(f"{name}[{index}] is not an object")
    return value


def _text(value, field: str, null: str | None = None) -> str:
    """``value`` if it is a string, ``null`` for JSON null where that is
    given; any other value raises _WrongType naming ``field``."""
    if type(value) is str:
        return value
    if value is None and null is not None:
        return null
    raise _WrongType(f"{field} is not a string")


def _gold(raw, index: int) -> GoldAnswer:
    """A qa pair's answer (``index`` -1) or its validated answer ``index``.
    A null number or date part is empty, as an absent one is."""
    try:
        if type(raw) is not dict:
            raise _WrongType(" is not an object")
        date, spans = raw.get("date") or {}, raw.get("spans") or ()
        if type(date) is not dict:
            raise _WrongType(": 'date' is not an object")
        if spans and type(spans) is not list:
            raise _WrongType(": 'spans' is not a list")
        number = _text(raw.get("number"), ": 'number'", "")
        for span in spans:
            _text(span, ": a 'spans' entry")
        day, month = _text(date.get("day"), ": 'date.day'", ""), _text(date.get("month"), ": 'date.month'", "")
        return GoldAnswer(number, tuple(spans), DateParts(day, month, _text(date.get("year"), ": 'date.year'", "")))
    except _WrongType as wrong:
        raise _WrongType(f".validated_answers[{index}]{wrong}" if index >= 0 else f".answer{wrong}") from None


def ingest_drop(source) -> IngestResult:
    """Parse a DROP-layout JSON file into records, one per qa pair.

    All gold answers (primary plus validated) are retained in order,
    empty ones dropped. A qa pair whose every answer is empty is skipped
    and tallied in ``errors`` rather than aborting the whole file. A value
    of the wrong JSON type raises ParseError naming its passage and index.
    The cyclic garbage collector is paused meanwhile: parsing and reading
    only add objects, so its passes over them would free nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = load_json(source)
        if type(data) is not dict:
            raise ParseError("DROP file must be a JSON object keyed by passage id")
        records: list[DropRecord] = []
        errors: list[IngestIssue] = []
        for passage_id, block in data.items():
            if type(block) is not dict or "passage" not in block:
                raise ParseError(f"passage block {passage_id!r} missing 'passage'")
            try:
                passage = _text(block["passage"], "'passage'")
                for index, qa in enumerate(_objects(block.get("qa_pairs"), "qa_pairs")):
                    try:
                        query_id = _text(qa.get("query_id"), ".query_id", "") or f"{passage_id}.{index}"
                        question = _text(qa.get("question", ""), ".question")
                        golds = [_gold(qa.get("answer") or {}, -1)]
                        for j, raw in enumerate(_objects(qa.get("validated_answers"), ".validated_answers")):
                            golds.append(_gold(raw, j))
                    except _WrongType as wrong:
                        raise _WrongType(f"qa_pairs[{index}]{wrong}") from None
                    golds = tuple(gold for gold in golds if not gold.is_empty())
                    if golds:
                        records.append(DropRecord(passage, question, golds, query_id))
                    else:
                        errors.append(IngestIssue(query_id, "every gold answer is empty"))
            except _WrongType as wrong:
                raise ParseError(f"passage {passage_id!r}: {wrong}") from None
        return IngestResult(records, errors)
    finally:
        if collecting:
            gc.enable()


def ingest_squad(source) -> IngestResult:
    """Parse a SQuAD v1.1 JSON file into records, one per qa pair.

    A value of the wrong JSON type raises ParseError naming its indices.
    """
    data = load_json(source)
    if not isinstance(data, dict) or not isinstance(data.get("data", None), list):
        raise ParseError("SQuAD file must be a JSON object with a 'data' list")
    records: list[SquadRecord] = []
    errors: list[IngestIssue] = []
    try:
        for a, article in enumerate(_objects(data["data"], "data")):
            for p, paragraph in enumerate(_objects(article.get("paragraphs"), f"data[{a}].paragraphs")):
                context = _text(paragraph.get("context", ""), f"data[{a}].paragraphs[{p}].context")
                where = f"data[{a}].paragraphs[{p}].qas"
                for q, qa in enumerate(_objects(paragraph.get("qas"), where)):
                    at = f"{where}[{q}]"
                    qa_id = _text(qa.get("id", ""), f"{at}.id")
                    question = _text(qa.get("question", ""), f"{at}.question")
                    answers, field = _objects(qa.get("answers"), f"{at}.answers"), f"{at}.answers: an entry's 'text'"
                    texts = [_text(answer.get("text", ""), field) for answer in answers]
                    texts = [t for t in texts if t.strip()]
                    if texts:
                        records.append(SquadRecord(context, question, tuple(texts), qa_id))
                    else:
                        errors.append(IngestIssue(qa_id, "every answer is empty"))
    except _WrongType as wrong:
        raise ParseError(str(wrong)) from None
    return IngestResult(records, errors)


# ---------------------------------------------------------------------------
# Digit tokenization and the truncation audit
# ---------------------------------------------------------------------------

# \s and \d match the same code points as str.split() and str.isdecimal().
_TOKEN = re.compile(r"\d|[^\s\d]+")


def digit_tokenize(text: str) -> list[str]:
    """Split text into tokens, exploding numbers digit-by-digit.

    Whitespace separates tokens. Each token is a digit (``\\d``, Unicode
    Nd, so ``"²"`` is not one), a point with a digit on each side, or a
    maximal run of other non-space characters
    (e.g. ``"pay 51.4 now"`` -> ``["pay", "5", "1", ".", "4", "now"]``).
    A point between two digits is such a run on its own, so one pattern
    alternative covers both.
    """
    return _TOKEN.findall(text)


# Byte classes for count_tokens: "D" an ASCII digit, " " ASCII whitespace,
# "x" any other byte. Every byte >= 0x80 is "x": in UTF-8 it is part of a
# multi-byte character, even 0x85 and 0xA0 ("à" is C3 A0).
_BYTE_CLASS = b"".join(
    b"D" if char.isdecimal() else b" " if char.isspace() else b"x" for char in map(chr, range(128))
) + b"x" * 128
# A non-ASCII character that is \s or \d; the lookbehind runs only at
# non-ASCII characters, which keeps the scan fast.
_NON_ASCII_SPACE_OR_DIGIT = re.compile(r"[^\x00-\x7f](?<=[\s\d])")


def _ascii_space_or_digit(match: re.Match) -> str:
    return " " if match[0].isspace() else "0"


def count_tokens(text: str) -> int:
    """The truncation audit's token count; always equals ``len(digit_tokenize(text))``.

    Counts from the classes of the text's UTF-8 bytes without building the
    tokens: a token starts at each digit and at each other byte that
    follows whitespace or a digit. A non-ASCII whitespace or Nd character
    is first replaced by an ASCII space or ``0``; ASCII texts skip that scan.
    """
    if not text.isascii():
        text = _NON_ASCII_SPACE_OR_DIGIT.sub(_ascii_space_or_digit, text)
    # A lone surrogate (JSON allows one) is one "other" character; it
    # encodes to three "x" bytes.
    classes = b" " + text.encode("utf-8", "surrogatepass").translate(_BYTE_CLASS)
    return classes.count(b"D") + classes.count(b" x") + classes.count(b"Dx")


def audit_truncation(examples: Iterable[Example], limits: LengthLimits = LengthLimits()) -> dict:
    """Count examples whose input or target would be cut off at the limits.

    Returns the JSON that ``audit`` writes: ``{"total", "encoder_over",
    "decoder_over", "encoder_fraction", "decoder_fraction"}``, where a
    fraction is its count over ``total``, and 0.0 for no examples. Tokens
    are counted by :func:`count_tokens`.
    """
    total = encoder_over = decoder_over = 0
    for example in examples:
        total += 1
        if count_tokens(example.input) > limits.encoder_max:
            encoder_over += 1
        if count_tokens(example.target) > limits.decoder_max:
            decoder_over += 1
    return {
        "total": total,
        "encoder_over": encoder_over,
        "decoder_over": decoder_over,
        "encoder_fraction": encoder_over / total if total else 0.0,
        "decoder_fraction": decoder_over / total if total else 0.0,
    }


# ---------------------------------------------------------------------------
# JSONL record stream
# ---------------------------------------------------------------------------

def example_from_json(obj) -> Example:
    """One decoded JSONL row as an :class:`Example`.

    The row must hold exactly the :data:`EXAMPLE_FIELDS`, each a string;
    :class:`Example` checks the rest. Any violation raises ValidationError.
    """
    if not isinstance(obj, dict) or obj.keys() != _FIELD_SET:
        raise ValidationError(f"expected exactly the fields {EXAMPLE_FIELDS}")
    fields = obj["input"], obj["target"], obj["task"], obj["answer_type"], obj["source_id"]
    if not all(isinstance(value, str) for value in fields):
        raise ValidationError("all example fields must be strings")
    return Example(*fields)


#: Encodes one record line; the same bytes as ``json.dumps(obj, ensure_ascii=False)``
#: without building a new encoder for every record.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def write_examples(records: Iterable, sink, meta: dict | None = None) -> int:
    """Write each record's ``to_json()`` as one UTF-8 JSONL line (\\n-terminated).

    Records are :class:`Example` objects (fixed key order), a generator's
    raw rows, or ``bytes`` that already hold one such line, which are
    written as they are. ``sink`` is a binary stream.
    When ``meta`` is given it is written first as a ``{"meta": ...}``
    record; readers skip it. Returns the number of records written, not
    counting the meta record. A record holding a lone surrogate raises
    ValidationError naming its ``source_id``.
    """
    count = 0
    if meta is not None:
        sink.write(_encode_line({"meta": meta}).encode("utf-8") + b"\n")
    for record in records:
        if isinstance(record, bytes):
            sink.write(record)
        else:
            try:
                line = _encode_line(record.to_json()).encode("utf-8")
            except UnicodeEncodeError:  # JSON input can hold one ("\\ud800"), UTF-8 cannot
                name = getattr(record, "source_id", "")
                raise ValidationError(f"record {name!r} holds a lone surrogate, which UTF-8 cannot encode") from None
            sink.write(line + b"\n")
        count += 1
    return count


def iter_jsonl(source) -> Iterator[tuple[int, int, str, object]]:
    """Yield ``(byte offset, line number, line text, value)`` for each
    non-blank line of a binary JSONL stream, skipping a leading
    ``{"meta": ...}`` record.

    A line that is not UTF-8 or not valid JSON raises :class:`ParseError` naming it.
    """
    offset = 0
    for lineno, raw in enumerate(source, start=1):
        start = offset
        offset += len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}", offset=start + exc.start, line=lineno) from None
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        if not (lineno == 1 and isinstance(obj, dict) and set(obj) == {"meta"}):
            yield start, lineno, text, obj


def iter_examples(source) -> Iterator[tuple[int, int, str, Example]]:
    """Yield ``(byte offset, line number, line text, example)`` for each
    record of a JSONL stream, each read by :func:`example_from_json`.

    ``source`` is a path or a binary stream. Besides the errors of
    :func:`iter_jsonl`, a record that breaks the rules raises
    :class:`ValidationError` naming its line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from iter_examples(handle)
        return
    for offset, lineno, text, obj in iter_jsonl(source):
        try:
            example = example_from_json(obj)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        yield offset, lineno, text, example


#: The line :func:`write_examples` writes for a record whose strings need
#: no JSON escape; a line without a backslash that equals it is canonical.
_CANONICAL_LINE = '{"input": "%s", "target": "%s", "task": "%s", "answer_type": "%s", "source_id": "%s"}\n'
#: A lone surrogate: JSON can hold one (``"\\ud800"``), UTF-8 cannot.
_SURROGATE = re.compile("[\ud800-\udfff]")


class SourceLine(bytes):
    """A drawn canonical record: the bytes of its source line, undecoded."""

    __slots__ = ()

    @property
    def source_id(self) -> str:
        return json.loads(self)["source_id"]


class IndexedExamples(Sequence):
    """The records of an open binary JSONL file, re-read on each access.

    Building it checks every line once, as :func:`iter_examples` does, and
    keeps one 8-byte integer per record: the line's offset if the line is
    canonical, i.e. exactly what :func:`write_examples` writes for its
    record, else the offset's complement ``~offset``, which is negative.
    A canonical record is returned as its line's bytes (a
    :class:`SourceLine`); any other is decoded, checked again and returned
    as an :class:`Example`, so writing either gives the canonical line.
    A record holding a lone surrogate cannot be written as UTF-8 and
    raises ValidationError at indexing. The caller owns and closes
    ``handle`` and must not change the file while it reads records.
    """

    def __init__(self, handle):
        self._handle = handle
        self._offsets = array("q")
        for offset, lineno, text, example in iter_examples(handle):
            fields = _fields(example)
            canonical = "\\" not in text and text == _CANONICAL_LINE % fields
            if not canonical and any(map(_SURROGATE.search, fields)):
                raise ValidationError(f"line {lineno}: holds a lone surrogate, which UTF-8 cannot encode")
            self._offsets.append(offset if canonical else ~offset)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> SourceLine | Example:
        offset = self._offsets[index]
        if offset >= 0:
            self._handle.seek(offset)
            return SourceLine(self._handle.readline())
        self._handle.seek(~offset)
        try:
            example = example_from_json(json.loads(self._handle.readline().decode("utf-8")))
        except ValueError:
            example = None
        if example is None or any(map(_SURROGATE.search, _fields(example))):
            raise ValidationError(f"byte offset {~offset} no longer holds the record indexed there")
        return example
