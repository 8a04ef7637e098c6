import json
from pathlib import Path

import pytest

from numtext.corpus import CONTEXT_MARKER, TaskTag, iter_examples


def read_examples(source):
    """Every example of a JSONL file or binary stream, validated by iter_examples."""
    return [example for _, example in iter_examples(source)]


def read_meta(path):
    """The leading {"meta": ...} record of a JSONL file, or None."""
    first = Path(path).read_bytes().split(b"\n", 1)[0]
    try:
        obj = json.loads(first)
    except json.JSONDecodeError:
        return None
    return obj["meta"] if isinstance(obj, dict) and set(obj) == {"meta"} else None


class Forked(Exception):
    """Raised by ``no_fork``; ``run()`` does not catch it, so a test that patches it in fails on a fork."""


def no_fork():
    """A stand-in for ``os.fork`` where no process may start."""
    raise Forked


def parse_input(text):
    """Inverse of format_input: (task, question, context or None)."""
    prefix, _, body = text.partition(": ")
    question, sep, context = body.partition(CONTEXT_MARKER)
    return TaskTag(prefix), question, context if sep else None


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
