"""Ingestion, tagging, auditing, and serialization of QA records.

Reads the public DROP and SQuAD v1.1 JSON layouts, derives the
question-type classification task, formats prefix-tagged text-to-text
examples (question placed before context so truncation eats the passage
tail, never the question), maps a gold answer to its spans (the one rule
for targets and scoring), audits length cutoffs under a pluggable token
counter, and writes every JSONL record stream byte-stably through
:func:`write_examples`.
"""

from __future__ import annotations

import json
import re
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ParseError, ValidationError


class TaskTag(str, Enum):
    """Prefix tags naming the task of a text-to-text example."""

    ANSWER_ME = "answer_me"
    CALCULATE = "calculate"
    CLASSIFY_ME = "classify_me"
    SQUAD_CONTEXT = "squad_context"


class AnswerType(str, Enum):
    """DROP-style answer classes (plus ``none`` for untyped records)."""

    NUMBER = "number"
    DATE = "date"
    SPAN = "span"
    SPANS = "spans"
    NONE = "none"


CONTEXT_MARKER = " context: "

#: JSONL field order; fixed so golden files are bit-exact.
EXAMPLE_FIELDS = ("input", "target", "task", "answer_type", "source_id")
_FIELD_SET = frozenset(EXAMPLE_FIELDS)


def format_input(task: TaskTag | str, question: str, context: str = "") -> str:
    """Build the prefix-tagged input text, question before context.

    Returns ``"<prefix>: <question> context: <context>"``; a calculate
    task with no context yields just ``"calculate: <question>"``.
    """
    try:
        tag = TaskTag(task)
    except ValueError:
        raise ValidationError(f"unknown task tag: {task!r}") from None
    question = question.strip()
    context = context.strip()
    if not question:
        raise ValidationError("question must be non-empty")
    if not context:
        if tag is not TaskTag.CALCULATE:
            raise ValidationError(f"context required for task {tag.value!r}")
        return f"{tag.value}: {question}"
    return f"{tag.value}: {question}{CONTEXT_MARKER}{context}"


@dataclass(frozen=True)
class Example:
    """One prefix-tagged input/target pair, the universal pipeline record."""

    input: str
    target: str
    task: TaskTag
    answer_type: AnswerType = AnswerType.NONE
    source_id: str = ""

    def __post_init__(self):
        task = TaskTag(self.task)
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "answer_type", AnswerType(self.answer_type))
        prefix = f"{task.value}: "
        if not self.input.startswith(prefix):
            raise ValidationError(f"input must start with {task.value!r} prefix: {self.input[:40]!r}")
        question = self.input[len(prefix) :].split(CONTEXT_MARKER, 1)[0]
        if not question.strip():
            raise ValidationError("input question is empty")
        if not self.target:
            raise ValidationError("target must be non-empty")

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "target": self.target,
            "task": self.task.value,
            "answer_type": self.answer_type.value,
            "source_id": self.source_id,
        }


@dataclass(frozen=True)
class DateParts:
    day: str = ""
    month: str = ""
    year: str = ""

    def populated(self) -> bool:
        return bool(self.day.strip() or self.month.strip() or self.year.strip())

    def to_text(self) -> str:
        """Canonical "DD month YYYY" rendering, empty fields omitted."""
        return " ".join(p for p in (self.day.strip(), self.month.strip(), self.year.strip()) if p)


@dataclass(frozen=True)
class GoldAnswer:
    """One gold answer: a number, a list of spans, or a date."""

    number: str = ""
    spans: tuple[str, ...] = ()
    date: DateParts = field(default_factory=DateParts)

    def is_empty(self) -> bool:
        return not (
            self.number.strip()
            or any(s.strip() for s in self.spans)
            or self.date.populated()
        )


@dataclass(frozen=True)
class DropRecord:
    """One DROP question with its passage and all gold answers."""

    passage: str
    question: str
    answers: tuple[GoldAnswer, ...]
    query_id: str

    def __post_init__(self):
        if not self.answers or all(a.is_empty() for a in self.answers):
            raise ValidationError(f"record {self.query_id!r} has no non-empty gold answer")


@dataclass(frozen=True)
class SquadRecord:
    """One SQuAD v1.1 question with its passage and answer texts."""

    passage: str
    question: str
    answers: tuple[str, ...]
    qa_id: str

    def __post_init__(self):
        if not self.answers:
            raise ValidationError(f"record {self.qa_id!r} has no answers")


@dataclass(frozen=True)
class LengthLimits:
    """Encoder/decoder token budgets used by the truncation audit."""

    encoder_max: int = 512
    decoder_max: int = 54

    def __post_init__(self):
        if self.encoder_max < 1 or self.decoder_max < 1:
            raise ValidationError("length limits must be >= 1")


@dataclass(frozen=True)
class IngestIssue:
    """A skipped record: which question and why."""

    question_id: str
    message: str


@dataclass
class IngestResult:
    records: list
    errors: list[IngestIssue]


def derive_answer_type(answer: GoldAnswer) -> AnswerType:
    """Classify a gold answer as number / date / span / spans.

    Priority (number > date > spans) only matters for malformed answers
    where more than one field is populated; valid answers have exactly one.
    """
    if answer.number.strip():
        return AnswerType.NUMBER
    if answer.date.populated():
        return AnswerType.DATE
    spans = [s for s in answer.spans if s.strip()]
    if len(spans) == 1:
        return AnswerType.SPAN
    if len(spans) >= 2:
        return AnswerType.SPANS
    raise ValidationError("cannot type a fully empty gold answer")


#: Separator between spans when a multi-span answer is serialized to one string.
SPAN_DELIMITER = "; "


def gold_answer_spans(answer: GoldAnswer) -> tuple[str, ...]:
    """A gold answer as its stripped span strings (dates render as 'DD month YYYY')."""
    kind = derive_answer_type(answer)
    if kind is AnswerType.NUMBER:
        return (answer.number.strip(),)
    if kind is AnswerType.DATE:
        return (answer.date.to_text(),)
    return tuple(s.strip() for s in answer.spans if s.strip())


def gold_target(answer: GoldAnswer, span_delimiter: str = SPAN_DELIMITER) -> str:
    """Serialize a gold answer to the single target string a model must emit."""
    return span_delimiter.join(gold_answer_spans(answer))


def make_classification_example(record: DropRecord) -> Example:
    """Build the question-type classification example for one DROP record."""
    kind = derive_answer_type(record.answers[0])
    return Example(
        input=format_input(TaskTag.CLASSIFY_ME, record.question, record.passage),
        target=kind.value,
        task=TaskTag.CLASSIFY_ME,
        answer_type=kind,
        source_id=record.query_id,
    )


def make_drop_example(record: DropRecord, span_delimiter: str = SPAN_DELIMITER) -> Example:
    """Build the answer_me example for one DROP record (first gold as target)."""
    kind = derive_answer_type(record.answers[0])
    return Example(
        input=format_input(TaskTag.ANSWER_ME, record.question, record.passage),
        target=gold_target(record.answers[0], span_delimiter),
        task=TaskTag.ANSWER_ME,
        answer_type=kind,
        source_id=record.query_id,
    )


def make_squad_example(record: SquadRecord) -> Example:
    """Build the squad_context example for one SQuAD record."""
    return Example(
        input=format_input(TaskTag.SQUAD_CONTEXT, record.question, record.passage),
        target=record.answers[0],
        task=TaskTag.SQUAD_CONTEXT,
        answer_type=AnswerType.SPAN,
        source_id=record.qa_id,
    )


# ---------------------------------------------------------------------------
# Source-file ingestion
# ---------------------------------------------------------------------------

def load_json(source):
    """Parse one JSON document from a path or a stream; malformed input raises ParseError."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", offset=exc.start) from None
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset=byte_offset) from None


def _objects(value, where: str) -> list:
    """``value`` as a list of JSON objects (``null`` is an empty list); any
    other shape raises ParseError naming ``where``."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseError(f"{where} is not a list")
    for index, item in enumerate(value):
        if not isinstance(item, dict):
            raise ParseError(f"{where}[{index}] is not an object")
    return value


def _text(value, where: str, field: str, null: str | None = None) -> str:
    """``value`` if it is a string, ``null`` for JSON null where that is
    given; any other value raises ParseError naming ``where`` and ``field``
    (joined only then, as ingestion calls this for every field)."""
    if isinstance(value, str):
        return value
    if value is None and null is not None:
        return null
    raise ParseError(f"{where}{field} is not a string")


def _gold_from_json(raw, where: str) -> GoldAnswer:
    if not isinstance(raw, dict):
        raise ParseError(f"{where} is not an object")
    date_raw = raw.get("date") or {}
    spans = raw.get("spans", []) or []
    if not isinstance(date_raw, dict):
        raise ParseError(f"{where}: 'date' is not an object")
    if not isinstance(spans, list):
        raise ParseError(f"{where}: 'spans' is not a list")
    # A null number or date part is empty, as an absent one is.
    return GoldAnswer(
        number=_text(raw.get("number"), where, ": 'number'", null=""),
        spans=tuple(_text(span, where, ": a 'spans' entry") for span in spans),
        date=DateParts(
            day=_text(date_raw.get("day"), where, ": 'date.day'", null=""),
            month=_text(date_raw.get("month"), where, ": 'date.month'", null=""),
            year=_text(date_raw.get("year"), where, ": 'date.year'", null=""),
        ),
    )


def ingest_drop(source) -> IngestResult:
    """Parse a DROP-layout JSON file into records, one per qa pair.

    All gold answers (primary plus validated) are retained in order,
    empty ones dropped. A qa pair whose every answer is empty is skipped
    and tallied in ``errors`` rather than aborting the whole file. A value
    of the wrong JSON type raises ParseError naming its passage and index.
    """
    data = load_json(source)
    if not isinstance(data, dict):
        raise ParseError("DROP file must be a JSON object keyed by passage id")
    records: list[DropRecord] = []
    errors: list[IngestIssue] = []
    for passage_id, block in data.items():
        if not isinstance(block, dict) or "passage" not in block:
            raise ParseError(f"passage block {passage_id!r} missing 'passage'")
        passage = _text(block["passage"], f"passage {passage_id!r}", ": 'passage'")
        where = f"passage {passage_id!r}: qa_pairs"
        for index, qa in enumerate(_objects(block.get("qa_pairs"), where)):
            at = f"{where}[{index}]"
            query_id = _text(qa.get("query_id"), at, ".query_id", null="") or f"{passage_id}.{index}"
            question = _text(qa.get("question", ""), at, ".question")
            golds = [_gold_from_json(qa.get("answer", {}) or {}, f"{at}.answer")]
            validated = _objects(qa.get("validated_answers"), f"{at}.validated_answers")
            golds.extend(_gold_from_json(v, f"{at}.validated_answers[{j}]") for j, v in enumerate(validated))
            golds = [g for g in golds if not g.is_empty()]
            if not golds:
                errors.append(IngestIssue(query_id, "every gold answer is empty"))
                continue
            records.append(
                DropRecord(
                    passage=passage,
                    question=question,
                    answers=tuple(golds),
                    query_id=query_id,
                )
            )
    return IngestResult(records, errors)


def ingest_squad(source) -> IngestResult:
    """Parse a SQuAD v1.1 JSON file into records, one per qa pair.

    A value of the wrong JSON type raises ParseError naming its indices.
    """
    data = load_json(source)
    if not isinstance(data, dict) or not isinstance(data.get("data", None), list):
        raise ParseError("SQuAD file must be a JSON object with a 'data' list")
    records: list[SquadRecord] = []
    errors: list[IngestIssue] = []
    for a, article in enumerate(_objects(data["data"], "data")):
        for p, paragraph in enumerate(_objects(article.get("paragraphs"), f"data[{a}].paragraphs")):
            context = _text(paragraph.get("context", ""), f"data[{a}].paragraphs[{p}]", ".context")
            where = f"data[{a}].paragraphs[{p}].qas"
            for q, qa in enumerate(_objects(paragraph.get("qas"), where)):
                at = f"{where}[{q}]"
                qa_id = _text(qa.get("id", ""), at, ".id")
                question = _text(qa.get("question", ""), at, ".question")
                answers = _objects(qa.get("answers"), f"{at}.answers")
                texts = [_text(answer.get("text", ""), at, ".answers: an entry's 'text'") for answer in answers]
                texts = [t for t in texts if t.strip()]
                if not texts:
                    errors.append(IngestIssue(qa_id, "every answer is empty"))
                    continue
                records.append(
                    SquadRecord(
                        passage=context,
                        question=question,
                        answers=tuple(texts),
                        qa_id=qa_id,
                    )
                )
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


def count_tokens(text: str) -> int:
    """Default token counter: whitespace words with digits split out."""
    return len(digit_tokenize(text))


@dataclass(frozen=True)
class TruncationAudit:
    total: int
    encoder_over: int
    decoder_over: int

    @property
    def encoder_fraction(self) -> float:
        return self.encoder_over / self.total if self.total else 0.0

    @property
    def decoder_fraction(self) -> float:
        return self.decoder_over / self.total if self.total else 0.0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "encoder_over": self.encoder_over,
            "decoder_over": self.decoder_over,
            "encoder_fraction": self.encoder_fraction,
            "decoder_fraction": self.decoder_fraction,
        }


def audit_truncation(
    examples: Iterable[Example],
    limits: LengthLimits = LengthLimits(),
    counter: Callable[[str], int] = count_tokens,
) -> TruncationAudit:
    """Count examples whose input or target would be cut off at the limits."""
    total = encoder_over = decoder_over = 0
    for example in examples:
        total += 1
        if counter(example.input) > limits.encoder_max:
            encoder_over += 1
        if counter(example.target) > limits.decoder_max:
            decoder_over += 1
    return TruncationAudit(total, encoder_over, decoder_over)


# ---------------------------------------------------------------------------
# JSONL record stream
# ---------------------------------------------------------------------------

def example_from_json(obj: dict) -> Example:
    if not isinstance(obj, dict) or obj.keys() != _FIELD_SET:
        raise ValidationError(f"expected exactly the fields {EXAMPLE_FIELDS}")
    if not all(isinstance(value, str) for value in obj.values()):
        raise ValidationError("all example fields must be strings")
    try:
        return Example(obj["input"], obj["target"], obj["task"], obj["answer_type"], obj["source_id"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


#: Encodes one record line; the same bytes as ``json.dumps(obj, ensure_ascii=False)``
#: without building a new encoder for every record.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def write_examples(records: Iterable, sink, meta: dict | None = None) -> int:
    """Write each record's ``to_json()`` as one UTF-8 JSONL line (\\n-terminated).

    Records are :class:`Example` objects (fixed key order) or a generator's
    raw rows. ``sink`` is a binary stream. When ``meta`` is given it is
    written first as a ``{"meta": ...}`` record; readers skip it. Returns
    the number of records written, not counting the meta record.
    """
    count = 0
    if meta is not None:
        sink.write(_encode_line({"meta": meta}).encode("utf-8") + b"\n")
    for record in records:
        sink.write(_encode_line(record.to_json()).encode("utf-8") + b"\n")
        count += 1
    return count


def iter_jsonl(source) -> Iterator[tuple[int, int, object]]:
    """Yield ``(byte offset, line number, value)`` for each non-blank line
    of a binary JSONL stream, skipping a leading ``{"meta": ...}`` record.

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
            yield start, lineno, obj


def iter_examples(source) -> Iterator[tuple[int, Example]]:
    """Yield ``(byte offset, example)`` for each record of a JSONL stream
    written by :func:`write_examples`, validating as it goes.

    ``source`` is a path or a binary stream. Besides the errors of
    :func:`iter_jsonl`, a record that fails the schema raises
    :class:`ValidationError` naming its line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from iter_examples(handle)
        return
    for offset, lineno, obj in iter_jsonl(source):
        try:
            yield offset, example_from_json(obj)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None


class IndexedExamples(Sequence):
    """The records of an open binary JSONL file, re-read on each access.

    Building it validates every line once, as :func:`iter_examples` does,
    but keeps only an 8-byte line offset per record, so memory does not
    grow with the records' text. The caller owns and closes ``handle``.
    """

    def __init__(self, handle):
        self._handle = handle
        self._offsets = array("q", (offset for offset, _ in iter_examples(handle)))

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> Example:
        self._handle.seek(self._offsets[index])
        return example_from_json(json.loads(self._handle.readline().decode("utf-8")))
