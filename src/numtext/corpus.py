"""Ingestion, tagging, auditing, and serialization of QA records.

Reads the public DROP and SQuAD v1.1 JSON layouts, derives the
question-type classification task, formats prefix-tagged text-to-text
examples (question placed before context so truncation eats the passage
tail, never the question), maps a gold answer to its spans (the one rule
for targets and scoring), audits length cutoffs, and writes every JSONL
record stream byte-stably through :func:`write_examples`.
Every record line is one :class:`Example`, and :func:`iter_examples` is
the one way to read them back; ``mix`` and ``audit`` vouch at once for the
lines it would read as canonical (:func:`_span_check`).
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import os
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from itertools import accumulate, compress, count
from json.decoder import scanstring
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import shard
from .errors import ParseError, ToolkitError, ValidationError


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
    :data:`_CANONICAL_RECORD` holds these rules too: a rule added here goes there as well.
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
#: The date of every answer that has none; nothing changes a DateParts.
_NO_DATE = DateParts()


class GoldAnswer:
    """One gold answer: a number, a list of spans, or a date."""

    __slots__ = ("number", "spans", "date")

    def __init__(self, number: str = "", spans: tuple[str, ...] = (), date: DateParts = _NO_DATE):
        self.number = number
        self.spans = spans
        self.date = date

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
    """Build the answer_me example for one DROP record: the first gold's spans, joined, are the target."""
    kind = derive_answer_type(record.answers[0])
    return Example(
        input=format_input(ANSWER_ME, record.question, record.passage),
        target=SPAN_DELIMITER.join(gold_answer_spans(record.answers[0])),
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

def _read_text(source) -> str:
    """The text of a path or a stream, its bytes not kept; bytes that are not UTF-8 raise ParseError."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", offset=exc.start) from None


def load_json(source):
    """Parse one JSON document from a path or a stream; malformed input raises ParseError."""
    return _loads(_read_text(source))


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset=byte_offset) from None
    except ValueError:  # json converts an integer of more digits than int() may read
        raise ParseError("malformed JSON: an integer has too many digits") from None
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None


class _Malformed(Exception):
    """A source that is not read member by member: ``json.loads`` would not read it as
    one object, or it cannot seek back to be read whole."""


# An object's marks with the whitespace json.decoder skips; "{" or "," only before a key.
_OPEN = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*(?=")')
_COMMA = re.compile(r'[ \t\n\r]*,[ \t\n\r]*(?=")')
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_CLOSE = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*")
_EMPTY = re.compile(r"[ \t\n\r]*\{[ \t\n\r]*\}[ \t\n\r]*")
# What follows a member's value: only then can no later byte change the value (a number may go on).
_AFTER = re.compile(r"[ \t\n\r]*[,}]")


#: Bytes per read of a DROP file.
_READ_BYTES = 1 << 16


def _members(source) -> Iterator[tuple[str, object]]:
    """The ``(key, value)`` pairs of the JSON object in a seekable binary stream, read
    _READ_BYTES at a time; each value is decoded once the text after it is read. Raises
    _Malformed for a stream that cannot seek and for anything ``json.loads`` would not read as one object."""
    if not source.seekable():
        raise _Malformed
    scan, decode = json.JSONDecoder().scan_once, codecs.getincrementaldecoder("utf-8")().decode
    text, end, mark, ended = "", 0, _OPEN, False
    while True:
        member = None
        try:
            if match := mark.match(text, end):
                key, at = scanstring(text, match.end() + 1)
                if colon := _COLON.match(text, at):
                    member = key, *scan(text, colon.end())
        except (json.JSONDecodeError, StopIteration):
            pass  # the text read so far may end inside the member
        except (ValueError, RecursionError):  # too deep, or an integer of too many digits: more text cannot mend it
            raise _Malformed from None
        if member and (ended or _AFTER.match(text, member[2])):
            yield member[:2]
            end, mark = member[2], _COMMA
        elif ended:
            break
        else:  # read at least what is left unread, so a long value is scanned O(log n) times
            chunk = source.read(max(_READ_BYTES, len(text) - end))
            ended = not chunk
            try:
                text, end = text[end:] + decode(chunk, ended), 0
            except UnicodeDecodeError:
                raise _Malformed from None
    if not (_CLOSE if mark is _COMMA else _EMPTY).fullmatch(text, end):
        raise _Malformed


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
        year = _text(date.get("year"), ": 'date.year'", "")
        return GoldAnswer(number, tuple(spans), DateParts(day, month, year) if day or month or year else _NO_DATE)
    except _WrongType as wrong:
        raise _WrongType(f".validated_answers[{index}]{wrong}" if index >= 0 else f".answer{wrong}") from None


def _drop_passage(passage_id: str, block, transform) -> tuple[list, list]:
    """One passage block's records, given to ``transform`` if that is not None, and its skipped
    questions; a block of the wrong shape raises ParseError."""
    if type(block) is not dict or "passage" not in block:
        raise ParseError(f"passage block {passage_id!r} missing 'passage'")
    records, errors = [], []
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
    return records if transform is None else transform(records), errors


def ingest_drop(source, transform=None) -> IngestResult:
    """Parse a DROP-layout JSON file (a path or a binary stream) into records, one per qa pair.

    All gold answers (primary plus validated) are retained in order,
    empty ones dropped. A qa pair whose every answer is empty is skipped
    and tallied in ``errors`` rather than aborting the whole file. A value
    of the wrong JSON type raises ParseError naming its passage and index.
    ``transform``, if given, maps each passage block's list of records to
    the list kept of it, so a caller drops what it does not read block by block.

    The file is read 64 KiB and one passage block at a time; neither its
    text nor its decoded document is held whole. A pipe, a file that
    ``json.loads`` would not read as one object, and a file with a block of
    the wrong shape are decoded whole by one ``json.loads``, whose result or
    first error is the one given; only such a source pays for that decode.
    A repeated passage id whose first block has the wrong shape and whose
    last block is good takes that path and succeeds. The cyclic garbage
    collector is paused meanwhile: parsing and reading only add objects, so
    its passes over them would free nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as handle:
            start = handle.tell() if handle.seekable() else None
            try:
                parts = {pid: _drop_passage(pid, block, transform) for pid, block in _members(handle)}.values()
            except (_Malformed, ParseError):
                if start is not None:
                    handle.seek(start)
                data = _loads(_read_text(handle))
                if type(data) is not dict:
                    raise ParseError("DROP file must be a JSON object keyed by passage id") from None
                parts = [_drop_passage(pid, block, transform) for pid, block in data.items()]
        return IngestResult([record for part in parts for record in part[0]], [i for part in parts for i in part[1]])
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


#: The truncation audit's default encoder and decoder token budgets.
ENCODER_MAX, DECODER_MAX = 512, 54


def audit_truncation(path, encoder_max: int = ENCODER_MAX, decoder_max: int = DECODER_MAX) -> dict:
    """Count the examples of a JSONL file whose input or target would be cut off at the limits.

    The records are read and counted span by span on every usable CPU (see
    :func:`numtext.shard.over_spans`); a span's canonical lines are vouched for
    at once by the span check, and only its other lines are read one at a time
    (see :func:`_span_check`). A limit below 1 raises ValidationError
    before the file is opened. Returns the JSON that ``audit`` writes:
    ``{"total", "encoder_over", "decoder_over", "encoder_fraction",
    "decoder_fraction"}``, where a fraction is its count over ``total``, and
    0.0 for no examples. Tokens are counted by :func:`count_tokens`, and only
    for a text of more characters than its limit: a token is at least one
    character, so no other text has more tokens than characters.
    """
    if encoder_max < 1 or decoder_max < 1:
        raise ValidationError("length limits must be >= 1")

    def over(data: bytes, start: int, lineno, out) -> None:  # total, encoder_over and decoder_over
        _, records, others = _read_span(data, start, lineno, _examples)
        vouched = list(filter(None, records))
        inputs, targets = list(map(itemgetter("input"), vouched)), list(map(itemgetter("target"), vouched))
        for _, examples in others:
            inputs += [example.input for example in examples]
            targets += [example.target for example in examples]
        counts = len(inputs), _count_over(inputs, encoder_max), _count_over(targets, decoder_max)
        out.write(array("q", counts).tobytes())

    counts = array("q")
    with open(path, "rb") as handle:
        shard.over_spans(handle, over, SimpleNamespace(write=counts.frombytes))
    total, encoder_over, decoder_over = sum(counts[0::3]), sum(counts[1::3]), sum(counts[2::3])
    return {
        "total": total,
        "encoder_over": encoder_over,
        "decoder_over": decoder_over,
        "encoder_fraction": encoder_over / total if total else 0.0,
        "decoder_fraction": decoder_over / total if total else 0.0,
    }


def _count_over(texts: list[str], limit: int) -> int:
    """How many of ``texts`` have more tokens than ``limit``."""
    return sum(count_tokens(text) > limit for text in texts if len(text) > limit)


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
#: The quoted JSON string that encoder writes for a str.
_quote = json.encoder.encode_basestring
#: An :class:`Example` line after its input's context, as ``_encode_line`` writes it.
_EXAMPLE_TAIL = ', "target": %s, "task": %s, "answer_type": %s, "source_id": %s}\n'


def write_examples(records: Iterable, sink, meta: dict | None = None) -> int:
    """Write each record's ``to_json()`` as one UTF-8 JSONL line (\\n-terminated).

    Records are :class:`Example` objects (fixed key order), a generator's
    raw rows, or ``bytes`` that already hold one such line, which are
    written as they are. ``sink`` is a binary stream.
    When ``meta`` is given it is written first as a ``{"meta": ...}``
    record; readers skip it. Returns the number of records written, not
    counting the meta record. A record holding a lone surrogate raises
    ValidationError naming its ``source_id``.

    An Example's input is encoded in two parts, split at its first
    :data:`CONTEXT_MARKER`, and the UTF-8 of the part after it is reused
    while consecutive examples hold an equal one: the questions of a DROP
    or SQuAD passage share it. JSON escapes a string one character at a
    time, so each line is the bytes ``json.dumps(e.to_json(),
    ensure_ascii=False)`` gives.
    """
    count = 0
    if meta is not None:
        sink.write(_encode_line({"meta": meta}).encode("utf-8") + b"\n")
    context = tail = None  # the last context and the UTF-8 of its quoted end
    for record in records:
        if isinstance(record, bytes):
            sink.write(record)
        else:
            try:
                if record.__class__ is Example:
                    start, marker, rest = record.input.partition(CONTEXT_MARKER)
                    if rest != context:
                        tail, context = _quote(rest)[1:].encode("utf-8"), rest
                    head = '{"input": ' + _quote(start)[:-1] + marker
                    end = _EXAMPLE_TAIL % (
                        _quote(record.target), _quote(record.task), _quote(record.answer_type), _quote(record.source_id)
                    )
                    line = head.encode("utf-8") + tail + end.encode("utf-8")
                else:
                    line = _encode_line(record.to_json()).encode("utf-8") + b"\n"
            except UnicodeEncodeError:  # JSON input can hold one ("\\ud800"), UTF-8 cannot
                name = getattr(record, "source_id", "")
                raise ValidationError(f"record {name!r} holds a lone surrogate, which UTF-8 cannot encode") from None
            sink.write(line)
        count += 1
    return count


#: What :func:`_json_line` gives for a blank line and for line 1's meta record.
_NO_RECORD = object()


def _json_line(raw: bytes, start: int, lineno: int):
    """The value of the JSONL line ``raw`` that starts at byte ``start`` on line
    ``lineno``, or _NO_RECORD for a blank line and for a ``{"meta": ...}`` record
    at byte 0; a line that is not UTF-8 or not valid JSON raises ParseError naming it."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", offset=start + exc.start, line=lineno) from None
    if not text.strip():
        return _NO_RECORD
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
    except ValueError:
        raise ParseError("invalid JSON: an integer has too many digits", line=lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line=lineno) from None
    return _NO_RECORD if start == 0 and isinstance(obj, dict) and set(obj) == {"meta"} else obj


def iter_jsonl(source) -> Iterator[tuple[int, int, object]]:
    """Yield ``(byte offset, line number, value)`` for each non-blank line
    of a binary JSONL stream, skipping a leading ``{"meta": ...}`` record.

    A line that is not UTF-8 or not valid JSON raises :class:`ParseError` naming it.
    """
    offset = 0
    for lineno, raw in enumerate(source, start=1):
        value = _json_line(raw, offset, lineno)
        if value is not _NO_RECORD:
            yield offset, lineno, value
        offset += len(raw)


#: The line :func:`write_examples` writes for a record whose strings need no JSON escape.
_CANONICAL_LINE = '{"input": "%s", "target": "%s", "task": "%s", "answer_type": "%s", "source_id": "%s"}\n'
#: Changes to a quote a backslash and every byte below 0x20 but "\n", none of which a canonical line holds.
_ESCAPES = bytes.maketrans(bytes(range(10)) + bytes(range(11, 32)) + b"\\", b'"' * 32)
#: Matches a canonical line without its "\n" whose record keeps every rule of Example,
#: if _ESCAPES does not change the line: the one test of a canonical record.
_CANONICAL_RECORD = re.compile(
    re.escape(_CANONICAL_LINE[:-1])
    % (
        # a question starts with a character that is not a space, or with spaces that start
        # no context marker and then one
        r'(?P<input>(?P<task>%s): (?:[^\s"]|(?:(?!%s)\s)+[^\s"])[^"]*)' % ("|".join(sorted(TASKS)), CONTEXT_MARKER),
        '(?P<target>[^"]+)',
        "(?P=task)",
        "(?P<answer_type>%s)" % "|".join(sorted(ANSWER_TYPES)),
        '(?P<source_id>[^"]*)',
    )
).fullmatch


def iter_examples(source, offset: int = 0, lineno: int = 1) -> Iterator[tuple[int, int, bool, Example]]:
    """Yield ``(byte offset, line number, canonical, example)`` for each
    record of a binary JSONL stream whose first line starts at byte ``offset``
    on line ``lineno``.

    A line is canonical if it is exactly what :func:`write_examples` writes
    for its record and that record keeps every rule of :class:`Example`:
    :data:`_CANONICAL_RECORD` matches it, and its five strings go straight to
    Example. Any other line is read by the rules of :func:`iter_jsonl` and
    :func:`example_from_json`, so either way a line gives the same record or
    the same error. Besides the errors of :func:`iter_jsonl`, a record that
    breaks the rules raises :class:`ValidationError` naming its line.
    """
    for lineno, raw in enumerate(source, lineno):
        start = offset
        offset += len(raw)
        try:
            record = raw.translate(_ESCAPES) == raw and raw.endswith(b"\n") and _CANONICAL_RECORD(raw[:-1].decode("utf-8"))
        except UnicodeDecodeError:
            record = None
        try:
            if record:
                canonical, example = True, Example(*record.group(*EXAMPLE_FIELDS))
            elif (value := _json_line(raw, start, lineno)) is _NO_RECORD:
                continue
            else:
                canonical, example = False, example_from_json(value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        yield start, lineno, canonical, example


#: A lone surrogate: JSON can hold one (``"\\ud800"``), UTF-8 cannot.
_SURROGATE = re.compile("[\ud800-\udfff]")


class SourceLine(bytes):
    """A drawn canonical record: the bytes of its source line, undecoded."""

    __slots__ = ()

    @property
    def source_id(self) -> str:
        return json.loads(self)["source_id"]


def _span_check(data: bytes, start: int) -> tuple[list[int], list]:
    """Vouch at once for the canonical lines of ``data``, whole JSONL lines that
    start at byte ``start`` of their file: the span is decoded once, and
    :data:`_CANONICAL_RECORD` is matched to each of its lines, so no line is
    decoded on its own and no Example is built. The span is matched as
    _ESCAPES changes it, so a line fails at its first escape; if a quote that
    _ESCAPES made sits where a matched line needs one, every line is left to
    the line path.

    A vouched line is one that :func:`iter_examples` reads as canonical, with
    the same strings. Every other line is left to iter_examples: a meta, blank,
    escaped or other non-canonical line, a line that breaks a rule of Example,
    and a last line with no "\n". A span that is not UTF-8 raises UnicodeDecodeError.

    Returns the offset of each line, then where the span ends (one byte on
    when its last line has no "\n"); and for each line the match that vouches
    for it, or None.
    """
    changed = data.translate(_ESCAPES)  # a quote ends a string: no line with an escape is matched
    lines = changed.decode("utf-8").split("\n")
    records = list(map(_CANONICAL_RECORD, lines))
    records[-1] = None  # "" after a final "\n", else the file's last line, which has none
    sizes = lines if data.isascii() else data.split(b"\n")  # the lines' lengths in bytes
    starts = list(accumulate(map((1).__add__, map(len, sizes)), initial=start))
    if not lines[-1]:
        del records[-1], starts[-1]
    if changed != data:  # every byte that _ESCAPES changed must be in a line left to the line path
        cuts = [0]
        for line in compress(count(), map(not_, records)):
            cuts += starts[line] - start, starts[line + 1] - start
        cuts.append(len(data))
        if any(changed[a:b] != data[a:b] for a, b in zip(cuts[::2], cuts[1::2])):
            records = [None] * len(records)
    return starts, records


def _read_span(data: bytes, start: int, lineno, read) -> tuple[list[int], list, list]:
    """What :func:`_span_check` gives for a span, then ``(index, read(lines,
    offset, lineno))`` of each line it left, read one line at a time, in order.
    Only when one raises is the span's first line number ``lineno()`` counted,
    and that line read again with its own number, which the error then names;
    a span that is not UTF-8 is read whole that way, and the first bad line raises."""
    try:
        starts, records = _span_check(data, start)
    except UnicodeDecodeError:  # the line path names the span's first line that is not UTF-8
        read(io.BytesIO(data), start, lineno())
        raise
    others = []
    for line in compress(count(), map(not_, records)):
        lines = (data[starts[line] - start : starts[line + 1] - start],)
        try:
            others.append((line, read(lines, starts[line], 0)))
        except ToolkitError:
            read(lines, starts[line], lineno() + line)
            raise
    return starts, records, others


def _examples(lines, start: int, lineno: int) -> list[Example]:
    """The records of ``lines``, as :func:`iter_examples` reads them."""
    return [example for *_, example in iter_examples(lines, start, lineno)]


def _index_lines(lines, start: int, lineno: int) -> list[int]:
    """The offsets that :class:`IndexedExamples` keeps of the records of ``lines``."""
    offsets = []
    for offset, line, canonical, example in iter_examples(lines, start, lineno):
        if not canonical and any(map(_SURROGATE.search, _fields(example))):
            raise ValidationError(f"line {line}: holds a lone surrogate, which UTF-8 cannot encode")
        offsets.append(offset if canonical else ~offset)
    return offsets


def _index(data: bytes, start: int, lineno, out) -> None:
    """Write the offsets that :class:`IndexedExamples` keeps of a span's records to ``out``."""
    starts, _, others = _read_span(data, start, lineno, _index_lines)
    offsets = starts[:-1]
    for line, row in reversed(others):
        offsets[line : line + 1] = row  # a blank or meta line holds no record
    out.write(array("q", offsets).tobytes())


class IndexedExamples(Sequence):
    """The records of an open, seekable binary JSONL file, re-read on each access.

    Building it checks every line once, as :func:`iter_examples` does, span
    by span on every usable CPU (see :func:`numtext.shard.over_spans`): the
    span check vouches for a span's canonical lines at once, and only its
    other lines are read one at a time (see :func:`_span_check`). It keeps one
    8-byte integer per record: the line's offset if the line is canonical,
    else the offset's complement ``~offset``, which is negative. A draw
    reads from its line's offset to the next record's, or to the file's end,
    with one ``os.pread``; a negative index counts from the end. A canonical
    record is returned as its line's bytes (a :class:`SourceLine`), cut at its
    "\n" only if blank lines follow it; any other is decoded, checked again and
    returned as an :class:`Example`, so writing either gives the canonical
    line. A record holding a lone surrogate cannot be written as UTF-8 and
    raises ValidationError at indexing. The caller owns and closes
    ``handle`` and must not change the file while it reads records.
    """

    def __init__(self, handle):
        self._fd = handle.fileno()
        self._offsets = array("q")
        shard.over_spans(handle, _index, SimpleNamespace(write=self._offsets.frombytes))
        self._end = handle.seek(0, io.SEEK_END)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> SourceLine | Example:
        offsets = self._offsets
        if index < 0:
            index = range(len(offsets))[index]
        offset = offsets[index]
        stop = offsets[index + 1] if index + 1 < len(offsets) else self._end
        start, stop = max(offset, ~offset), max(stop, ~stop)  # a line's offset, whatever its sign
        line = os.pread(self._fd, stop - start, start)
        if offset >= 0:  # a canonical line, cut only where blank lines follow it
            return SourceLine(line if line.endswith(b"}\n") else line[: line.find(b"\n") + 1])
        line = line[: line.find(b"\n") + 1 or len(line)]
        try:
            example = example_from_json(json.loads(line.decode("utf-8")))
        except ValueError:
            example = None
        if example is None or any(map(_SURROGATE.search, _fields(example))):
            raise ValidationError(f"byte offset {start} no longer holds the record indexed there")
        return example
