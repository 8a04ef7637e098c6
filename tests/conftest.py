import json
from pathlib import Path

import pytest

from numtext import corpus
from numtext.corpus import CONTEXT_MARKER, iter_examples


def read_examples(stream):
    """Every example of a binary JSONL stream, validated by iter_examples."""
    return [example for *_, example in iter_examples(stream)]


def index_and_audit(path) -> list:
    """``IndexedExamples._offsets`` and ``audit_truncation`` of the JSONL file ``path``, or each one's error line."""
    results = []
    try:
        with open(path, "rb") as handle:
            results.append(list(corpus.IndexedExamples(handle)._offsets))
    except ValueError as exc:
        results.append(f"error: {exc}")
    try:
        results.append(corpus.audit_truncation(path))
    except ValueError as exc:
        results.append(f"error: {exc}")
    return results


def read_meta(path):
    """The leading {"meta": ...} record of a JSONL file, or None."""
    first = Path(path).read_bytes().split(b"\n", 1)[0]
    try:
        obj = json.loads(first)
    except json.JSONDecodeError:
        return None
    return obj["meta"] if isinstance(obj, dict) and set(obj) == {"meta"} else None


#: A mix source whose lines are valid records written in ways other than
#: the program's own encoding, between lines that are written that way:
#: escaped non-ASCII, an escaped slash, another key order, extra spaces,
#: an escaped quote, a CRLF line end and a last line without a newline.
NONCANONICAL_SOURCE = (
    b'{"meta": {"tool": "by hand"}}\n'
    b'{"input": "answer_me: who won? context: the reds won", "target": "the reds", "task": "answer_me", '
    b'"answer_type": "span", "source_id": "nc-0"}\n'
    b'{"input": "answer_me: caf\\u00e9 price? context: caf\\u00e9 costs 3", "target": "3", "task": "answer_me", '
    b'"answer_type": "number", "source_id": "nc-1"}\n'
    b'{"input": "calculate: 6 \\/ 3", "target": "2", "task": "calculate", "answer_type": "number", "source_id": "nc-2"}\n'
    b'{"source_id": "nc-3", "target": "7", "input": "calculate: 3 + 4", "task": "calculate", "answer_type": "number"}\n'
    b'{ "input" : "calculate: 2 + 2" , "target":"4", "task": "calculate","answer_type": "number", "source_id": "nc-4" }\n'
    + '{"input": "answer_me: naïve? context: a naïve text", "target": "naïve", "task": "answer_me", '
    '"answer_type": "span", "source_id": "nc-5"}\n'.encode("utf-8")
    + b'{"input": "calculate: 9 - 1", "target": "8", "task": "calculate", "answer_type": "number", "source_id": "nc-6"}\r\n'
    b'{"input": "answer_me: who said \\"hi\\"? context: ann said \\"hi\\"", "target": "ann", "task": "answer_me", '
    b'"answer_type": "span", "source_id": "nc-7"}\n'
    b'{"input": "calculate: 5 * 5", "target": "25", "task": "calculate", "answer_type": "number", "source_id": "nc-8"}'
)


class Forked(Exception):
    """Raised by ``no_fork``; ``run()`` does not catch it, so a test that patches it in fails on a fork."""


def no_fork():
    """A stand-in for ``os.fork`` where no process may start."""
    raise Forked


def parse_input(text):
    """Inverse of format_input: (task, question, context or None)."""
    prefix, _, body = text.partition(": ")
    question, sep, context = body.partition(CONTEXT_MARKER)
    return prefix, question, context if sep else None


MING_RUI_PASSAGE = (
    "In March 1768, Ming Rui began his retreat, pursued by a Burmese army "
    "of 10,000 men and 2000 cavalry."
)
MING_RUI_QUESTION = "How many more men did Ming Rui have than cavalry?"


def drop_answer(number="", spans=(), day="", month="", year=""):
    return {
        "number": str(number),
        "spans": list(spans),
        "date": {"day": day, "month": month, "year": year},
    }


def drop_qa(question, query_id, answer, validated=()):
    return {
        "question": question,
        "query_id": query_id,
        "answer": answer,
        "validated_answers": list(validated),
    }


def build_drop_file(passages):
    """passages: mapping passage_id -> (passage_text, [qa dicts])."""
    return {
        pid: {"passage": text, "qa_pairs": qas} for pid, (text, qas) in passages.items()
    }


def typed_drop_file(counts):
    """A DROP-layout dict with exactly the requested per-type question counts.

    counts: mapping of "number" / "span" / "spans" / "date" -> int. The
    answers are constructed directly here, independent of the package's
    parsing or typing code.
    """
    qas = []
    serial = 0
    for _ in range(counts.get("number", 0)):
        serial += 1
        qas.append(drop_qa(f"How many items in lot {serial}?", f"q{serial:04d}", drop_answer(number=str(serial))))
    for _ in range(counts.get("span", 0)):
        serial += 1
        qas.append(drop_qa(f"Who owns lot {serial}?", f"q{serial:04d}", drop_answer(spans=[f"owner {serial}"])))
    for _ in range(counts.get("spans", 0)):
        serial += 1
        qas.append(
            drop_qa(
                f"Which teams met in game {serial}?",
                f"q{serial:04d}",
                drop_answer(spans=[f"team {serial}a", f"team {serial}b"]),
            )
        )
    for _ in range(counts.get("date", 0)):
        serial += 1
        qas.append(
            drop_qa(f"When was sale {serial}?", f"q{serial:04d}", drop_answer(day="3", month="March", year="1768"))
        )
    return build_drop_file({"fixture_passage": ("Lots and games were recorded over the years.", qas)})


@pytest.fixture
def ming_rui_drop(tmp_path):
    data = build_drop_file(
        {
            "history_1": (
                MING_RUI_PASSAGE,
                [
                    drop_qa(
                        MING_RUI_QUESTION,
                        "mingrui-1",
                        drop_answer(number="8000"),
                        validated=[drop_answer(number="8000")],
                    )
                ],
            )
        }
    )
    path = tmp_path / "drop_mingrui.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture
def squad_file(tmp_path):
    data = {
        "version": "1.1",
        "data": [
            {
                "title": "Carolina",
                "paragraphs": [
                    {
                        "context": "Carolina answered as kicker John Kasay ties the game.",
                        "qas": [
                            {
                                "question": "Which kicker tied the game?",
                                "id": "squad-1",
                                "answers": [
                                    {"text": "John Kasay", "answer_start": 27},
                                    {"text": "Kasay", "answer_start": 32},
                                ],
                            },
                            {
                                "question": "Which team answered?",
                                "id": "squad-2",
                                "answers": [{"text": "Carolina", "answer_start": 0}],
                            },
                        ],
                    }
                ],
            }
        ],
    }
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path
