"""The record format: writing, reading, indexing and auditing JSONL examples.

Formats prefix-tagged text-to-text inputs (question placed before context
so truncation eats the passage tail, never the question), writes every
JSONL record stream byte-stably through :func:`write_examples`, audits
length cutoffs, and loads the JSON documents that commands read. Every
record line is one :class:`Example`, and :func:`iter_examples` is the one
way to read them back; ``mix`` and ``audit`` vouch at once for the lines
that are exactly what write_examples writes (:func:`_span_check`) and read
only the others through it. The DROP and SQuAD gold files are read by
:mod:`numtext.gold`.
"""

from __future__ import annotations

import io
import json
import os
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, compress, count
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from types import SimpleNamespace

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


# ---------------------------------------------------------------------------
# JSON documents
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
    text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset=byte_offset) from None
    except ValueError:  # json converts an integer of more digits than int() may read
        raise ParseError("malformed JSON: an integer has too many digits") from None
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None


def is_json_number(value, kind: type | tuple = (int, float)) -> bool:
    """Whether a decoded JSON value is a number of ``kind``; ``true`` and ``false`` are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


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


def iter_jsonl(source, offset: int = 0, lineno: int = 1) -> Iterator[tuple[int, int, object]]:
    """Yield ``(byte offset, line number, value)`` for each non-blank line of a
    binary JSONL stream whose first line starts at byte ``offset`` on line
    ``lineno``, skipping a ``{"meta": ...}`` record at byte 0.

    A line that is not UTF-8 or not valid JSON raises :class:`ParseError` naming it.
    """
    for lineno, raw in enumerate(source, lineno):
        start, offset = offset, offset + len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}", offset=start + exc.start, line=lineno) from None
        if not text.strip():
            continue
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        except ValueError:
            raise ParseError("invalid JSON: an integer has too many digits", line=lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply", line=lineno) from None
        if not (start == 0 and isinstance(value, dict) and set(value) == {"meta"}):
            yield start, lineno, value


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


def iter_examples(source, offset: int = 0, lineno: int = 1) -> Iterator[tuple[int, int, Example]]:
    """Yield ``(byte offset, line number, example)`` for each record of a binary
    JSONL stream whose first line starts at byte ``offset`` on line ``lineno``:
    each value of :func:`iter_jsonl`, read by :func:`example_from_json`.

    Besides the errors of :func:`iter_jsonl`, a record that breaks the rules
    raises :class:`ValidationError` naming its line.
    """
    for start, lineno, value in iter_jsonl(source, offset, lineno):
        try:
            example = example_from_json(value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        yield start, lineno, example


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

    A vouched line is canonical: exactly what :func:`write_examples` writes for
    its record, a record that keeps every rule of Example, and the match holds
    the strings :func:`iter_examples` reads from it. Every other line is left to
    iter_examples: a meta, blank, escaped or other non-canonical line, a line
    that breaks a rule of Example, and a last line with no "\n". A span that is
    not UTF-8 raises UnicodeDecodeError.

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
    """The offsets that :class:`IndexedExamples` keeps of the records of ``lines``, which the span check left."""
    offsets = []
    for offset, line, example in iter_examples(lines, start, lineno):
        if any(map(_SURROGATE.search, _fields(example))):
            raise ValidationError(f"line {line}: holds a lone surrogate, which UTF-8 cannot encode")
        offsets.append(~offset)
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
    8-byte integer per record: the line's offset if the span check vouched for
    the line, else the offset's complement ``~offset``, which is negative. A draw
    reads from its line's offset to the next record's, or to the file's end,
    with one ``os.pread``; a negative index counts from the end. A vouched
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
