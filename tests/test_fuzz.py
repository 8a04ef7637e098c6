"""Fuzz the command line in process with mutated flags and input files.

Each example takes one valid command, then changes one flag value, drops
one flag, gives one entry of a comma list (``--families``, ``--sources``)
twice in a row, adds a byte that argv cannot decode to one path or name,
or mutates one input file: a JSON value replaced by one of
another type (``NaN``, huge integers, lists, objects, lone surrogates
written as ``\\u`` escapes, ...), one element of a JSON list repeated, one
list element or one ``; ``-joined span of a prediction grown to
GROW_TIMES copies, one value wrapped in more arrays than the decoder can
nest, bytes that are not UTF-8, or a truncated file. Whatever the input,
``run()`` must return 0, 1 or 2 without raising (within RUN_SECONDS on a
grown input), write no traceback, and after a non-zero exit leave neither its target nor a
``.<name>.*`` temp file. A repeat among names that must differ (the stats
rows, the spec's stages, a stage's datasets, the entries of a comma list)
and a value nested too deeply must exit 1 with exactly one ``error:``
line. A file named by a name argv cannot decode is read or written as
under its own name.
Counts stay small, so no example does much work, and nothing starts a
process: a run is pinned to one CPU, and ``os.fork`` raises an exception
that ``run()`` does not catch.
"""

import contextlib
import io
import json
import os
import re
import signal
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from numtext import shard
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
    "rc-stats.json": [{"name": "DROP", "length": 5}, {"name": "DROP-class", "length": 5},
                      {"name": "SQuAD", "length": 4, "cap": 3}],
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

#: Valid commands: (argv, the input files it reads). "OUT" is the target.
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
    (["mix", "--stats", "stats.json", "-T", "3", "--sample", "6", "--sources", "num=num.jsonl,txt=txt.jsonl",
      "--seed", "2", "--out", "OUT"], ["stats.json", "num.jsonl", "txt.jsonl"]),
    (["audit", "--in", "num.jsonl", "--encoder-max", "5", "--decoder-max", "1", "--out", "OUT"], ["num.jsonl"]),
    (["score", "--gold", "drop.json", "--pred", "pred.jsonl", "--delimiter", "; ", "--out", "OUT"],
     ["drop.json", "pred.jsonl"]),
    (["lr-table", "--epochs", "2", "--batches-per-epoch", "3", "--decay-rate", "0.5", "--out", "OUT"], []),
    (["lr-table", "--config", "lr.cfg", "--out", "OUT"], ["lr.cfg"]),
    (["pipeline", "--spec", "spec.json", "--stats", "stats.json", "--batch-size", "2", "--out", "OUT"],
     ["spec.json", "stats.json"]),
    (["pipeline", "--name", "rc-2", "--stats", "rc-stats.json", "--batch-size", "3", "--out", "OUT"],
     ["rc-stats.json"]),
]

#: Flags that set how much work a run does get only small replacement values.
SIZE_FLAGS = {"--count", "--epochs", "--batches-per-epoch", "--sample", "--max-events", "--min-events"}
SIZE_KEYS = {"count", "epochs", "batches_per_epoch", "min_events", "max_events"}
SMALL_TEXT = ["", "0", "-1", "2", "1.5", "x", "nan", "inf", "é", "[]", "null"]
ANY_TEXT = SMALL_TEXT + ["1e400", "-1e400", "9" * 40, "0.000001", "1e-400", "\x00", "a=1,=", ",", "; "]
SMALL_JSON = [None, True, -1, 0, 2.5, "", "x", "é", [], {}, [1], {"a": 1}, float("nan"), float("inf"),
              "\ud800", "n\udcff"]
ANY_JSON = SMALL_JSON + [10**40, -(10**40), 10**400, 1e300, "9" * 40]
#: The files a command names: its inputs and its target.
FILES = {*INPUTS, "OUT"}
#: Flags whose value is a comma list of entries that must name different families or sources.
LIST_FLAGS = {"--families", "--sources"}
#: What argv gives for a byte that is not UTF-8: os.fsdecode turns it into a lone surrogate.
UNDECODABLE = os.fsdecode(b"\xff")


def _json_paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _paths(name):
    """Every path into input ``name``; a .jsonl file's root is its lines and is left out."""
    return list(_json_paths(INPUTS[name]))[name.endswith(".jsonl"):]


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _dumps(value) -> bytes:
    # A lone surrogate cannot be UTF-8, so it goes into the file as its \u escape.
    text = json.dumps(value, ensure_ascii=False)
    return re.sub("[\ud800-\udfff]", lambda match: f"\\u{ord(match[0]):04x}", text).encode("utf-8")


def _encode(name, value) -> bytes:
    if name.endswith(".jsonl"):
        return b"".join(_dumps(row) + b"\n" for row in value)
    return _dumps(value)


def _repeated(value, path, index):
    """``value`` with element ``index`` of its list at ``path`` given twice in a row."""
    items = _at(value, path)
    return _replaced(value, path, items[: index + 1] + items[index:])


#: How many copies the "grow" mutation gives of one list element or prediction
#: span, and the wall seconds a run on a grown input may take: a run that
#: scores a prediction or gold answer of that many spans must not hang.
GROW_TIMES, RUN_SECONDS = 3000, 5


def _grow_targets(value, paths):
    """``(path, index)`` of each element of a non-empty list and of each span of a prediction."""
    for path in paths:
        item = _at(value, path)
        if isinstance(item, list):
            yield from ((path, index) for index in range(len(item)))
        elif path[-1:] == ("prediction",):
            yield from ((path, index) for index in range(len(item.split("; "))))


def _grown(value, path, index):
    """``value`` with element ``index`` of its list or prediction at ``path`` given GROW_TIMES times in a row."""
    item = _at(value, path)
    parts = item.split("; ") if isinstance(item, str) else item
    grown = parts[:index] + [parts[index]] * GROW_TIMES + parts[index + 1:]
    return _replaced(value, path, "; ".join(grown) if isinstance(item, str) else grown)


#: How deep the "nest" mutation wraps a value in arrays: deeper than any
#: recursion limit a run here has. Hypothesis sets the limit 2000 frames
#: above the test's own depth, which it keeps at or under 1000.
NEST_DEPTH = 5000


def _nested(name, value, path):
    """The bytes of input ``name`` with the value at ``path`` wrapped in NEST_DEPTH arrays."""
    marker = "nested value"
    raw = _encode(name, _replaced(value, path, marker))
    return raw.replace(_dumps(marker), b"[" * NEST_DEPTH + _dumps(_at(value, path)) + b"]" * NEST_DEPTH, 1)


def _names_must_differ(name, path) -> bool:
    """Whether the list at ``path`` of input ``name`` holds names that must differ."""
    if name in ("stats.json", "rc-stats.json"):
        return path == ()
    return name == "spec.json" and (path == ("stages",) or (len(path) == 3 and path[::2] == ("stages", "datasets")))


def _mutated_file(data, name):
    """The bytes of input ``name`` after one mutation drawn from ``data``,
    whether the run must exit 1 with one ``error:`` line (the mutation
    repeated a name that must differ, or nested a value too deeply), and
    whether it grew the input."""
    value = INPUTS[name]
    paths = _paths(name)
    lists = [path for path in paths if isinstance(_at(value, path), list) and _at(value, path)]
    grows = list(_grow_targets(value, paths))
    kinds = ["retype", "bytes", "truncate", "nest"] + ["repeat"] * bool(lists) + ["grow"] * bool(grows)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "grow":
        path, index = data.draw(st.sampled_from(grows))
        return _encode(name, _grown(value, path, index)), _names_must_differ(name, path), True
    if kind == "nest":
        return _nested(name, value, data.draw(st.sampled_from(paths))), True, False
    if kind == "retype":
        path = data.draw(st.sampled_from(paths))
        pool = SMALL_JSON if (path and path[-1] in SIZE_KEYS) else ANY_JSON
        return _encode(name, _replaced(value, path, data.draw(st.sampled_from(pool)))), False, False
    if kind == "repeat":
        path = data.draw(st.sampled_from(lists))
        index = data.draw(st.integers(0, len(_at(value, path)) - 1))
        return _encode(name, _repeated(value, path, index)), _names_must_differ(name, path), False
    raw = _encode(name, value)
    cut = data.draw(st.integers(0, len(raw)))
    if kind == "truncate":
        return raw[:cut], False, False
    bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\n\n{"]))
    return raw[:cut] + bad + raw[cut:], False, False


def _resolved(token: str, root: Path) -> str:
    """``token`` with each file it names made a path under ``root``: a name in FILES,
    alone or as the file of a ``name=file`` comma entry, maybe with an UNDECODABLE suffix."""
    entries = []
    for entry in token.split(","):
        name, equals, file = entry.rpartition("=")
        entries.append(name + equals + (str(root / file) if file.removesuffix(UNDECODABLE) in FILES else file))
    return ",".join(entries)


def _with_entry(argv, index, entry, new):
    """``argv`` with comma entry ``entry`` of ``argv[index]`` replaced by the entries ``new``."""
    entries = argv[index].split(",")
    return argv[:index] + [",".join(entries[:entry] + new + entries[entry + 1:])] + argv[index + 1:]


def _mutated_argv(data, argv):
    """``argv`` after one mutation drawn from ``data``, and whether the run must exit 1
    with one ``error:`` line. It replaces one flag value or drops one flag (never
    --out), gives one entry of a comma list twice in a row (the entries name families
    or sources, which must differ), or adds UNDECODABLE to one entry or to the name of
    a ``name=...`` entry."""
    index = data.draw(st.sampled_from([i + 1 for i, token in enumerate(argv[:-1]) if token.startswith("-")]))
    flag, entries = argv[index - 1], argv[index].split(",")
    kinds = ["undecodable"] + ["replace", "drop"] * (flag != "--out") + ["repeat"] * (flag in LIST_FLAGS)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        return argv[: index - 1] + argv[index + 1:], False
    if kind == "replace":
        pool = SMALL_TEXT if flag in SIZE_FLAGS else ANY_TEXT
        return argv[:index] + [data.draw(st.sampled_from(pool))] + argv[index + 1:], False
    entry = data.draw(st.integers(0, len(entries) - 1))
    if kind == "repeat":
        return _with_entry(argv, index, entry, [entries[entry]] * 2), True
    if "=" in entries[entry] and data.draw(st.booleans()):
        return _with_entry(argv, index, entry, [entries[entry].replace("=", UNDECODABLE + "=", 1)]), False
    return _with_entry(argv, index, entry, [entries[entry] + UNDECODABLE]), False


@settings(max_examples=300, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_commands_fail_cleanly(data):
    argv, reads = data.draw(st.sampled_from(COMMANDS))
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    grown = False
    if reads and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(reads))
        files[name], one_error, grown = _mutated_file(data, name)
    else:
        argv, one_error = _mutated_argv(data, argv)
    _check_run(argv, files, one_error, timed=grown)


#: Every repeat among names that must differ, per command that reads it. The
#: fuzzer draws each of these rarely, so each also runs once here.
_NAME_REPEATS = [
    pytest.param(argv, name, path, index, id=f"{number}-{name}-{'/'.join(map(str, path)) or 'rows'}-{index}")
    for number, (argv, reads) in enumerate(COMMANDS)
    for name in reads
    for path in _json_paths(INPUTS[name])
    if _names_must_differ(name, path)
    for index in range(len(_at(INPUTS[name], path)))
]


@pytest.mark.parametrize("argv, name, path, index", _NAME_REPEATS)
def test_every_repeated_name_is_one_error_line(argv, name, path, index):
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    files[name] = _encode(name, _repeated(INPUTS[name], path, index))
    _check_run(argv, files, one_error=True)


#: (command number, argv, value index, entry index, entry) of each comma entry
#: of each flag value of the commands. The fuzzer draws each repeat of a list
#: entry and each file renamed past decoding rarely, so each also runs once here.
_ENTRIES = [
    (number, argv, index, entry, text)
    for number, (argv, _) in enumerate(COMMANDS)
    for index in range(1, len(argv))
    if argv[index - 1].startswith("-")
    for entry, text in enumerate(argv[index].split(","))
]


@pytest.mark.parametrize(
    "argv, index, entry",
    [pytest.param(argv, index, entry, id=f"{number}-{text}") for number, argv, index, entry, text in _ENTRIES
     if argv[index - 1] in LIST_FLAGS],
)
def test_every_repeated_list_entry_is_one_error_line(argv, index, entry):
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    _check_run(_with_entry(argv, index, entry, [argv[index].split(",")[entry]] * 2), files, one_error=True)


@pytest.mark.parametrize(
    "argv, index, entry",
    [pytest.param(argv, index, entry, id=f"{number}-{text}") for number, argv, index, entry, text in _ENTRIES
     if text.rpartition("=")[2] in FILES],
)
def test_every_file_under_a_name_argv_cannot_decode_gives_the_same_exit(argv, index, entry):
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    renamed = _with_entry(argv, index, entry, [argv[index].split(",")[entry] + UNDECODABLE])
    assert _check_run(renamed, files, one_error=False) == _check_run(argv, files, one_error=False)


#: Every grow of an input that score reads: a run that scores the grown input
#: must end within RUN_SECONDS. The fuzzer draws each of these rarely, so
#: each also runs once here.
_SCORE_GROWS = [
    pytest.param(argv, name, path, index, id=f"{name}-{'/'.join(map(str, path))}-{index}")
    for argv, reads in COMMANDS
    if argv[0] == "score"
    for name in reads
    for path, index in _grow_targets(INPUTS[name], _paths(name))
]


@pytest.mark.parametrize("argv, name, path, index", _SCORE_GROWS)
def test_every_grown_score_input_ends_in_time(argv, name, path, index):
    files = {name: _encode(name, INPUTS[name]) for name in INPUTS}
    files[name] = _encode(name, _grown(INPUTS[name], path, index))
    _check_run(argv, files, one_error=False, timed=True)


class _TooSlow(Exception):
    """Raised in a run that takes more than RUN_SECONDS; ``run()`` does not catch it."""


def _too_slow(signum, frame):
    raise _TooSlow


def _check_run(argv, files, one_error, timed=False):
    """Run ``argv`` over ``files`` in a new directory, check the properties
    above and return the exit code; a ``timed`` run that takes more than
    RUN_SECONDS fails."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, raw in files.items():
            (root / name).write_bytes(raw)
            (root / (name + UNDECODABLE)).write_bytes(raw)  # the same input, for a name argv cannot decode
        argv = [_resolved(token, root) for token in argv]
        target = Path(argv[argv.index("--out") + 1])
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _too_slow)
        signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS if timed else 0)
        try:
            with (
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(stderr),
                mock.patch.object(shard, "usable_cpus", lambda: 1),
                mock.patch.object(os, "fork", no_fork),
            ):
                code = run(argv)
        except _TooSlow:
            code = f"still running after {RUN_SECONDS} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        if one_error:
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
            assert code == 1 and len(errors) == 1, (argv, code, stderr.getvalue())
        if code != 0:
            assert not target.exists(), argv
            assert not [p.name for p in root.iterdir() if p.name.startswith(".")], argv
    return code
