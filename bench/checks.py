"""Output checks that run after timing; each returns a list of failure messages.

The expected values come from the benchmark's own inputs, from its own
digit-token counter below, and from the independent oracles in
``tests/oracles.py`` (imported, never edited). A check stops collecting
after a few messages: one is enough to fail the command.
"""

from __future__ import annotations

import json
from pathlib import Path

MAX_MESSAGES = 5


def _records(path: Path) -> list[dict]:
    """JSONL rows of a program output, without its leading meta record."""
    rows = [json.loads(line) for line in path.read_bytes().splitlines() if line.strip()]
    if rows and set(rows[0]) == {"meta"}:
        rows = rows[1:]
    return rows


def _record_lines(path: Path) -> list[bytes]:
    lines = path.read_bytes().splitlines(keepends=True)
    if lines and lines[0].startswith(b'{"meta": '):
        lines = lines[1:]
    return lines


def token_counts(text: str) -> tuple[int, int]:
    """(tokens, digit tokens) under digit tokenization, by a character scan.

    Whitespace separates words; inside a word each digit and each point
    between digits is a token of its own, and each maximal run of other
    characters is one token.
    """
    tokens = digits = 0
    for word in text.split():
        i, n = 0, len(word)
        while i < n:
            j = i
            if word[i].isdecimal():
                while j < n and word[j].isdecimal():
                    j += 1
                while j + 1 < n and word[j] == "." and word[j + 1].isdecimal():
                    j += 1
                    while j < n and word[j].isdecimal():
                        j += 1
                tokens += j - i
                digits += j - i
            else:
                while j < n and not word[j].isdecimal():
                    j += 1
                tokens += 1
            i = j
    return tokens, digits


def _fail(messages: list[str], text: str) -> bool:
    messages.append(text)
    return len(messages) >= MAX_MESSAGES


def check_num(path: Path, count: int, oracles) -> list[str]:
    """Every ``calculate:`` target equals the exact-rational oracle's answer."""
    messages: list[str] = []
    rows = _records(path)
    if len(rows) != count:
        messages.append(f"{len(rows)} records, expected {count}")
    for row in rows:
        expression = row["input"].removeprefix("calculate: ")
        expected = oracles.fraction_to_text(oracles.oracle_eval(expression, 2))
        if row["target"] != expected and _fail(messages, f"{expression!r}: {row['target']} != {expected}"):
            break
    return messages


def check_examples(path: Path, count: int, example_from_json) -> list[str]:
    """Every line parses as an ``Example``."""
    messages: list[str] = []
    rows = _records(path)
    if len(rows) != count:
        messages.append(f"{len(rows)} records, expected {count}")
    for index, row in enumerate(rows, start=1):
        try:
            example_from_json(row)
        except ValueError as exc:
            if _fail(messages, f"record {index}: {exc}"):
                break
    return messages


def check_mix(path: Path, sample: int, source_lines: dict[str, list[bytes]]) -> list[str]:
    """The stream holds exactly ``sample`` records, each a source line verbatim."""
    messages: list[str] = []
    lines = _record_lines(path)
    if len(lines) != sample:
        messages.append(f"{len(lines)} records, expected {sample}")
    known = {line for rows in source_lines.values() for line in rows}
    for index, line in enumerate(lines, start=1):
        if line not in known and _fail(messages, f"record {index} is not a source record"):
            break
    return messages


def expected_audit(mix_path: Path, encoder_max: int, decoder_max: int) -> dict:
    over_encoder = over_decoder = total = 0
    for row in _records(mix_path):
        total += 1
        over_encoder += token_counts(row["input"])[0] > encoder_max
        over_decoder += token_counts(row["target"])[0] > decoder_max
    return {"total": total, "encoder_over": over_encoder, "decoder_over": over_decoder}


def check_audit(path: Path, sample: int, expected: dict) -> list[str]:
    """The audit total is the sample size and its counts match our own count."""
    report = json.loads(path.read_text(encoding="utf-8"))
    messages = []
    if report["total"] != sample:
        messages.append(f"total {report['total']}, expected {sample}")
    for key in ("encoder_over", "decoder_over"):
        if report[key] != expected[key]:
            messages.append(f"{key} {report[key]}, expected {expected[key]}")
    return messages


def check_lr_table(path: Path, rows: int) -> list[str]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    if lines[:1] != ["global_batch,epoch,lr"] or len(lines) - 1 != rows:
        return [f"{len(lines) - 1} rows, expected {rows}"]
    return []


def check_pipeline(path: Path, name: str, stages: int) -> list[str]:
    plan = json.loads(path.read_text(encoding="utf-8"))
    if plan.get("pipeline") != name or len(plan.get("stages", [])) != stages:
        return [f"expected pipeline {name!r} with {stages} stages"]
    return []


def gold_text(answer: dict) -> str:
    if answer["number"]:
        return answer["number"]
    date = answer["date"]
    if date["year"]:
        return " ".join(part for part in (date["day"], date["month"], date["year"]) if part)
    return "; ".join(answer["spans"])


def check_ingest(path: Path, expected: dict, task: str) -> list[str]:
    """One record per question; target is the first gold (answer_me) or its type (classify_me)."""
    messages: list[str] = []
    rows = _records(path)
    if len(rows) != len(expected):
        messages.append(f"{len(rows)} records, expected {len(expected)}")
    for row in rows:
        want = expected.get(row["source_id"])
        if want is None:
            if _fail(messages, f"unknown record {row['source_id']!r}"):
                break
            continue
        target = want["type"] if task == "classify_me" else gold_text(want["golds"][0])
        if (row["task"], row["answer_type"], row["target"]) != (task, want["type"], target):
            if _fail(messages, f"{row['source_id']}: {row['target']!r} != {target!r}"):
                break
    return messages


def check_score(path: Path, expected: dict, oracles) -> list[str]:
    """Per-question EM and F1 equal the brute-force oracle's."""
    report = json.loads(path.read_text(encoding="utf-8"))
    messages: list[str] = []
    rows = report["per_question"]
    if len(rows) != len(expected):
        messages.append(f"{len(rows)} questions, expected {len(expected)}")
    for row in rows:
        want = expected[row["id"]]
        em, f1 = oracles.bf_score(want["prediction"], want["golds"])
        if (row["em"], row["f1"]) != (em, f1):
            if _fail(messages, f"{row['id']}: em/f1 {row['em']}/{row['f1']} != oracle {em}/{f1}"):
                break
    return messages
