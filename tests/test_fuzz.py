"""Fuzz the command line in process with mutated flags and input files.

Each example takes one valid command, then changes one flag value, drops
one flag, or mutates one input file: a JSON value replaced by one of
another type (``NaN``, huge integers, lists, objects, ...), bytes that are
not UTF-8, or a truncated file. Whatever the input, ``run()`` must return
0, 1 or 2 without raising, write no traceback, and after a non-zero exit
leave neither its target nor a ``.<name>.*`` temp file. Counts stay tiny,
so no example does real work, and nothing starts a process: ``os.fork``
raises an exception that ``run()`` does not catch.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from numtext.cli import run

from conftest import build_drop_file, drop_answer, drop_qa, no_fork

_EXAMPLE = {
    "input": "answer_me: How many? context: Ann had 2 figs.",
    "target": "2",
    "task": "answer_me",
    "answer_type": "number",
    "source_id": "txt-1",
}
_VOCAB = {
    "containers": ["Ann", "Bo"],
    "entities": ["figs", "nuts"],
    "sentence_templates": {
        "observe": ["{container} had {qty} {entity}."],
        "gain": ["{container} got {qty} {entity}."],
        "lose": ["{container} lost {qty} {entity}."],
        "transfer": ["{container} gave {qty} {entity} to {target}."],
    },
    "question_templates": {
        "how_many": ["How many {entity} does {container} have?"],
        "how_many_more": ["How many more {entity} does {container} have than {other}?"],
        "total": ["How many {entity} in all?"],
    },
}

#: The valid input files; .jsonl files are lists of rows.
INPUTS = {
    "drop.json": build_drop_file({
        "p1": ("Ann had 2 figs in March 1768.", [
            drop_qa("How many figs?", "q1", drop_answer(number="2"), validated=[drop_answer(number="2.0")]),
            drop_qa("Who?", "q2", drop_answer(spans=["Ann", "Bo"])),
            drop_qa("When?", "q3", drop_answer(day="3", month="March", year="1768")),
        ]),
    }),
    "squad.json": {"data": [{"paragraphs": [{"context": "Ann kicked.", "qas": [
        {"question": "Who kicked?", "id": "s1", "answers": [{"text": "Ann", "answer_start": 0}]},
    ]}]}]},
    "stats.json": [{"name": "num", "length": 4}, {"name": "txt", "length": 3, "scale": 2.0, "cap": 10}],
    "spec.json": {"name": "p", "stages": [
        {"name": "s", "datasets": ["num", "txt"], "validation": ["num"], "temperature": 2.0, "mode": "cover_all_epoch"},
    ]},
    "vocab.json": _VOCAB,
    "num.cfg": {"count": 3, "seed": 1, "min_value": "0", "max_value": "50", "max_frac_digits": 1,
                "families": "addition_sub,argmax_like", "emit": "raw"},
    "txt.cfg": {"count": 3, "seed": 1, "min_events": 2, "max_events": 3, "max_quantity": 9, "frac_digits": 1,
                "emit": "examples"},
    "lr.cfg": {"epochs": 2, "batches_per_epoch": 3, "warmup_start": 1e-08, "warmup_end": 0.0001,
               "decay_rate": 0.001, "warmup_fraction": 0.1},
    "num.jsonl": [{"meta": {"seed": 1}}] + [{**_EXAMPLE, "source_id": f"num-{i}"} for i in range(4)],
    "txt.jsonl": [{**_EXAMPLE, "source_id": f"txt-{i}"} for i in range(3)],
    "pred.jsonl": [{"id": "q1", "prediction": "2"}, {"id": "q2", "prediction": "Ann; Bo"}],
}

#: Valid commands: (argv, the input files it reads). "OUT" is the target and
#: "SOURCES" the --sources list of num.jsonl and txt.jsonl.
COMMANDS = [
    (["gen-num", "--count", "3", "--seed", "4", "--max-value", "90", "--max-frac-digits", "2",
      "--families", "combination=2,difference", "--out", "OUT"], []),
    (["gen-num", "--config", "num.cfg", "--out", "OUT"], ["num.cfg"]),
    (["gen-txt", "--count", "3", "--seed", "4", "--max-events", "4", "--frac-digits", "1",
      "--vocab", "vocab.json", "--out", "OUT"], ["vocab.json"]),
    (["gen-txt", "--config", "txt.cfg", "--emit", "raw", "--out", "OUT"], ["txt.cfg"]),
    (["ingest", "--format", "drop", "--in", "drop.json", "--out", "OUT"], ["drop.json"]),
    (["ingest", "--format", "squad", "--in", "squad.json", "--out", "OUT"], ["squad.json"]),
    (["derive-class", "--in", "drop.json", "--out", "OUT"], ["drop.json"]),
    (["mix", "--stats", "stats.json", "-T", "2", "--out", "OUT"], ["stats.json"]),
    (["mix", "--stats", "stats.json", "-T", "3", "--sample", "6", "--sources", "SOURCES",
      "--seed", "2", "--out", "OUT"], ["stats.json", "num.jsonl", "txt.jsonl"]),
    (["audit", "--in", "num.jsonl", "--encoder-max", "5", "--decoder-max", "1", "--out", "OUT"], ["num.jsonl"]),
    (["score", "--gold", "drop.json", "--pred", "pred.jsonl", "--delimiter", "; ", "--out", "OUT"],
     ["drop.json", "pred.jsonl"]),
    (["lr-table", "--epochs", "2", "--batches-per-epoch", "3", "--decay-rate", "0.5", "--out", "OUT"], []),
    (["lr-table", "--config", "lr.cfg", "--out", "OUT"], ["lr.cfg"]),
    (["pipeline", "--spec", "spec.json", "--stats", "stats.json", "--batch-size", "2", "--out", "OUT"],
     ["spec.json", "stats.json"]),
    (["pipeline", "--name", "rc-2", "--stats", "stats.json", "--batch-size", "3", "--out", "OUT"], ["stats.json"]),
]

#: Flags that set how much work a run does get only small replacement values.
SIZE_FLAGS = {"--count", "--epochs", "--batches-per-epoch", "--sample", "--max-events", "--min-events"}
SIZE_KEYS = {"count", "epochs", "batches_per_epoch", "min_events", "max_events"}
SMALL_TEXT = ["", "0", "-1", "2", "1.5", "x", "nan", "inf", "é", "[]", "null"]
ANY_TEXT = SMALL_TEXT + ["1e400", "-1e400", "9" * 40, "0.000001", "1e-400", "\x00", "a=1,=", ",", "; "]
SMALL_JSON = [None, True, -1, 0, 2.5, "", "x", "é", [], {}, [1], {"a": 1}, float("nan"), float("inf")]
ANY_JSON = SMALL_JSON + [10**40, -(10**40), 10**400, 1e300, "9" * 40]


def _json_paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _encode(name, value) -> bytes:
    if name.endswith(".jsonl"):
        return b"".join(json.dumps(row, ensure_ascii=False).encode("utf-8") + b"\n" for row in value)
    return json.dumps(value, ensure_ascii=False).encode("utf-8")


def _mutated_file(data, name):
    """The bytes of input ``name`` after one mutation drawn from ``data``."""
    value = INPUTS[name]
    kind = data.draw(st.sampled_from(["retype", "bytes", "truncate"]))
    if kind == "retype":
        paths = list(_json_paths(value))[name.endswith(".jsonl"):]  # a .jsonl file's root is its lines
        path = data.draw(st.sampled_from(paths))
        pool = SMALL_JSON if (path and path[-1] in SIZE_KEYS) else ANY_JSON
        return _encode(name, _replaced(value, path, data.draw(st.sampled_from(pool))))
    raw = _encode(name, value)
    cut = data.draw(st.integers(0, len(raw)))
    if kind == "truncate":
        return raw[:cut]
    return raw[:cut] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\n\n{"])) + raw[cut:]


def _resolved(token: str, root: Path) -> str:
    if token == "OUT":
        return str(root / "target.out")
    if token == "SOURCES":
        return f"num={root / 'num.jsonl'},txt={root / 'txt.jsonl'}"
    return str(root / token) if token in INPUTS else token


def _mutated_argv(data, argv):
    """``argv`` with one flag value replaced or one flag dropped (never --out)."""
    flags = [i for i, token in enumerate(argv) if token.startswith("-") and i + 1 < len(argv) and token != "--out"]
    if not flags:
        return argv
    index = data.draw(st.sampled_from(flags))
    if data.draw(st.booleans()):
        return argv[:index] + argv[index + 2:]
    pool = SMALL_TEXT if argv[index] in SIZE_FLAGS else ANY_TEXT
    return argv[: index + 1] + [data.draw(st.sampled_from(pool))] + argv[index + 2:]


@settings(max_examples=300, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_commands_fail_cleanly(data):
    argv, reads = data.draw(st.sampled_from(COMMANDS))
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    if reads and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(reads))
        files[name] = _mutated_file(data, name)
    else:
        argv = _mutated_argv(data, argv)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, raw in files.items():
            (root / name).write_bytes(raw)
        target = root / "target.out"
        argv = [_resolved(token, root) for token in argv]
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with (
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
            mock.patch.object(os, "fork", no_fork),
        ):
            code = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert not target.exists(), argv
            assert not [p.name for p in root.iterdir() if p.name.startswith(".")], argv
