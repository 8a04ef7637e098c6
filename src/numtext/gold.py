"""The DROP and SQuAD gold files: their records, answer types and spans, and examples.

Reads the public DROP and SQuAD v1.1 JSON layouts into records, types a
gold answer (the question-type classification task), maps it to its spans
(the one rule for targets and scoring), and builds the prefix-tagged
``answer_me``, ``classify_me`` and ``squad_context`` examples. A DROP file
is read 64 KiB and one passage block at a time.
"""

from __future__ import annotations

import codecs
import gc
import json
import re
from collections.abc import Iterator
from contextlib import nullcontext
from json.decoder import scanstring
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import ANSWER_ME, CLASSIFY_ME, DATE, NUMBER, SPAN, SPANS, SQUAD_CONTEXT, Example, format_input, load_json
from .errors import ParseError, ValidationError


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
                data = load_json(handle)
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
