"""Sharded commands across forked workers: the same bytes as one process.

gen-num, gen-txt, ingest and derive-class write their records in blocks,
score scores its questions in blocks, and mix and audit read their JSONL
inputs in spans of whole lines.

Every test here starts at most two workers. The usable CPUs are pinned
(two unless a test pins one), so the worker count does not depend on the
host, and ``os.fork`` is counted, so each test knows whether a worker
really ran.
"""

import io
import json
import os
import threading
import time

import pytest

from numtext import corpus, numgen, scoring, shard
from numtext.cli import run
from numtext.corpus import DropRecord, GoldAnswer
from numtext.errors import ConfigError, ValidationError
from numtext.numgen import NumGenConfig, generate_num
from numtext.txtgen import TxtGenConfig, generate_txt

from conftest import (
    NONCANONICAL_SOURCE,
    build_drop_file,
    drop_answer,
    drop_qa,
    index_and_audit,
    no_fork,
    read_examples,
)

#: Three blocks, the last one short: worker 2 owns block 1, this process blocks 0 and 2.
COUNT = 2 * shard.BLOCK_SIZE + 37


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs; the list collects one entry per fork."""
    _pin_cpus(monkeypatch, 2)
    calls, real_fork = [], os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield calls
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("emit", ["examples", "raw"])
@pytest.mark.parametrize("command", ["gen-num", "gen-txt"])
def test_two_workers_write_the_bytes_of_one(tmp_path, monkeypatch, capsysbinary, forks, command, emit):
    argv = [command, "--count", str(COUNT), "--seed", "3", "--emit", emit]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    _pin_cpus(monkeypatch, 1)
    assert run(argv + ["--out", str(one)]) == 0
    assert forks == []
    _pin_cpus(monkeypatch, 2)
    assert run(argv + ["--out", str(two)]) == 0
    assert forks == [1]
    assert run(argv + ["--out", "-"]) == 0
    assert forks == [1, 1]
    assert two.read_bytes() == one.read_bytes()
    assert capsysbinary.readouterr().out == one.read_bytes()
    assert len(one.read_bytes().splitlines()) == 1 + COUNT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl", "two.jsonl"]


def test_one_worker_per_usable_cpu_and_none_for_one_block(tmp_path, forks):
    assert run(["gen-num", "--count", str(COUNT), "--seed", "3", "--out", str(tmp_path / "a.jsonl")]) == 0
    assert forks == [1]
    assert run(["gen-num", "--count", str(shard.BLOCK_SIZE), "--seed", "3", "--out", str(tmp_path / "b.jsonl")]) == 0
    assert forks == [1]


@pytest.mark.parametrize("generate, config", [(generate_num, NumGenConfig()), (generate_txt, TxtGenConfig())])
def test_start_gives_that_slice_of_the_run_from_zero(generate, config):
    full = list(generate(60, config, seed=4))
    assert list(generate(25, config, seed=4, start=20)) == full[20:45]


def _expression(index):
    return next(generate_num(1, NumGenConfig(), seed=5, start=index)).expression


def test_a_worker_self_check_failure_is_the_one_process_error_line(tmp_path, monkeypatch, capsys, forks):
    # Index 700 is in block 1 (worker 2), index 1200 in block 2 (this
    # process); one process fails on 700 first, and so must two.
    first, later = _expression(700), _expression(1200)
    real_eval = numgen.eval_expr

    def wrong_twice(expression, frac_digits=2):
        return real_eval(expression, frac_digits) + (1 if expression in (first, later) else 0)

    monkeypatch.setattr(numgen, "eval_expr", wrong_twice)
    lines = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"w{cpus}.jsonl"
        assert run(["gen-num", "--count", str(COUNT), "--seed", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines.append([line for line in err.splitlines() if line.startswith("error: ")])
        assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file
    assert forks == [1]
    assert lines[0] == lines[1] and len(lines[0]) == 1
    assert first in lines[0][0]


def _exit_3():
    os._exit(3)


def _raise_runtime_error():
    raise RuntimeError("worker failure")


@pytest.mark.parametrize("fail", [_exit_3, _raise_runtime_error], ids=["exit", "raise"])
def test_a_worker_that_fails_costs_time_not_the_run(tmp_path, monkeypatch, capfd, forks, fail):
    # The worker fails on index 700 (block 1, which it owns); this process
    # then builds that block and the rest itself, as one process would.
    argv = ["gen-num", "--count", str(COUNT), "--seed", "5", "--out"]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    _pin_cpus(monkeypatch, 1)
    assert run(argv + [str(one)]) == 0
    parent, failing = os.getpid(), _expression(700)
    real_eval = numgen.eval_expr

    def fail_in_the_worker(expression, frac_digits=2):
        if expression == failing and os.getpid() != parent:
            fail()
        return real_eval(expression, frac_digits)

    monkeypatch.setattr(numgen, "eval_expr", fail_in_the_worker)
    _pin_cpus(monkeypatch, 2)
    capfd.readouterr()
    assert run(argv + [str(two)]) == 0
    assert forks == [1]
    assert capfd.readouterr() == ("", "")
    assert two.read_bytes() == one.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl", "two.jsonl"]


def _query_id(index):
    return f"q{index:05d}"


def _write_qa_inputs(directory, question=lambda index: f"How many lots were in sale {index}?"):
    """A DROP gold file, its predictions and a SQuAD file, each of COUNT questions."""
    passages, predictions = {}, []
    for index in range(COUNT):
        kind = index % 4
        if kind == 0:
            answer, prediction = drop_answer(number=str(index)), str(index)
        elif kind == 1:
            answer, prediction = drop_answer(spans=[f"lot {index}"]), f"the lot {index + index % 3}"
        elif kind == 2:
            answer, prediction = drop_answer(spans=[f"team {index}", "reds"]), f"reds; team {index}; blues"
        else:
            answer, prediction = drop_answer(day="3", month="March", year=str(1700 + index)), f"March {1700 + index}"
        qa = drop_qa(question(index), _query_id(index), answer, validated=[drop_answer(number=str(index))][: kind % 2])
        passages.setdefault(f"p{index // 10}", (f"Sales {index // 10} listed lots, teams and dates.", []))[1].append(qa)
        if index % 7:
            predictions.append(json.dumps({"id": _query_id(index), "prediction": prediction}) + "\n")
    (directory / "gold.json").write_text(json.dumps(build_drop_file(passages)))
    (directory / "pred.jsonl").write_text("".join(predictions))
    qas = [{"id": _query_id(i), "question": question(i), "answers": [{"text": f"lot {i}"}]} for i in range(COUNT)]
    squad = {"data": [{"paragraphs": [{"context": "Every lot was sold.", "qas": qas}]}]}
    (directory / "squad.json").write_text(json.dumps(squad))


QA_COMMANDS = {
    "ingest-drop": ["ingest", "--format", "drop", "--in", "gold.json"],
    "ingest-squad": ["ingest", "--format", "squad", "--in", "squad.json"],
    "derive-class": ["derive-class", "--in", "gold.json"],
    "score": ["score", "--gold", "gold.json", "--pred", "pred.jsonl"],
}


@pytest.mark.parametrize("command", list(QA_COMMANDS))
def test_two_workers_tag_and_score_the_bytes_of_one(tmp_path, monkeypatch, forks, command):
    monkeypatch.chdir(tmp_path)
    _write_qa_inputs(tmp_path)
    _pin_cpus(monkeypatch, 1)
    assert run(QA_COMMANDS[command] + ["--out", "one"]) == 0
    assert forks == []
    _pin_cpus(monkeypatch, 2)
    assert run(QA_COMMANDS[command] + ["--out", "two"]) == 0
    assert forks == [1]
    assert (tmp_path / "two").read_bytes() == (tmp_path / "one").read_bytes()
    if command == "score":
        assert json.loads((tmp_path / "one").read_text())["overall"]["count"] == COUNT
    else:
        assert len((tmp_path / "one").read_bytes().splitlines()) == 1 + COUNT


@pytest.mark.parametrize("fail", [_exit_3, _raise_runtime_error], ids=["exit", "raise"])
def test_a_score_worker_that_fails_costs_time_not_the_run(tmp_path, monkeypatch, capfd, forks, fail):
    # The worker fails on question 701 (block 1, which it owns); this process
    # then scores that block and the rest itself, as one process would.
    monkeypatch.chdir(tmp_path)
    _write_qa_inputs(tmp_path)
    argv = QA_COMMANDS["score"] + ["--out"]
    _pin_cpus(monkeypatch, 1)
    assert run(argv + ["one"]) == 0
    parent, real_score_record = os.getpid(), scoring.score_record

    def fail_in_the_worker(record, predicted, span_delimiter):
        if record.query_id == _query_id(701) and os.getpid() != parent:
            fail()
        return real_score_record(record, predicted, span_delimiter)

    monkeypatch.setattr(scoring, "score_record", fail_in_the_worker)
    _pin_cpus(monkeypatch, 2)
    capfd.readouterr()
    assert run(argv + ["two"]) == 0
    assert forks == [1]
    assert capfd.readouterr() == ("", "")
    assert (tmp_path / "two").read_bytes() == (tmp_path / "one").read_bytes()


@pytest.mark.parametrize("command", ["ingest-drop", "derive-class"])
def test_a_lone_surrogate_in_a_worker_block_is_the_one_process_error_line(tmp_path, monkeypatch, capsys, forks,
                                                                          command):
    # Question 700 is in block 1, which the worker owns.
    monkeypatch.chdir(tmp_path)
    _write_qa_inputs(tmp_path, question=lambda index: "How many\ud800?" if index == 700 else f"How many in {index}?")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    lines = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        assert run(QA_COMMANDS[command] + ["--out", "o.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines.append([line for line in err.splitlines() if line.startswith("error: ")])
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
    assert forks == [1]
    assert lines == [[f"error: record '{_query_id(700)}' holds a lone surrogate, which UTF-8 cannot encode"]] * 2


@pytest.mark.parametrize(
    "predictions, delimiter, error",
    [({"nope": "1"}, "; ", ValidationError), ({}, "", ConfigError)],
    ids=["unknown-id", "empty-delimiter"],
)
def test_build_report_checks_its_input_before_any_fork(monkeypatch, predictions, delimiter, error):
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    records = [DropRecord("p", "q", (GoldAnswer(number="1"),), _query_id(i)) for i in range(COUNT)]
    with pytest.raises(error):
        scoring.build_report(records, predictions, span_delimiter=delimiter)


def test_a_small_block_reaches_the_caller_before_the_worker_builds_its_next(tmp_path, forks):
    # The worker owns blocks 1 and 3 and writes block 3 only once the sink
    # holds block 1, or after five seconds. A block of a few bytes that waited in
    # the worker's buffer would reach the sink only after that wait.
    received = tmp_path / "received"

    def write(a, b, out):
        if a // shard.BLOCK_SIZE == 3:
            deadline = time.monotonic() + 5
            while not received.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            out.write(b"on time" if received.exists() else b"late")
        else:
            out.write(b"block %d, " % (a // shard.BLOCK_SIZE))

    class Sink(io.BytesIO):
        def write(self, block):
            if block == b"block 1, ":  # the worker's block, as its pipe framed it
                received.touch()
            return super().write(block)

    sink = Sink()
    shard.write_blocks(write, 4 * shard.BLOCK_SIZE, sink)
    assert forks == [1]
    assert sink.getvalue() == b"block 0, block 1, block 2, on time"


@pytest.mark.parametrize("count", [0, 1, shard.BLOCK_SIZE, shard.BLOCK_SIZE + 1, 3 * shard.BLOCK_SIZE])
def test_write_blocks_writes_every_index_once_in_order_on_one_or_two_cpus(monkeypatch, forks, count):
    def write(a, b, out):
        out.write(b"".join(b"%d\n" % index for index in range(a, b)))

    written = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        sink = io.BytesIO()
        shard.write_blocks(write, count, sink)
        written.append(sink.getvalue())
    assert written == [b"".join(b"%d\n" % index for index in range(count))] * 2
    assert forks == ([1] if count > shard.BLOCK_SIZE else [])  # a count of 0 forks nothing


@pytest.mark.parametrize("command", ["ingest-drop", "derive-class"])
def test_an_ingest_that_skips_every_question_writes_only_its_meta_line(tmp_path, monkeypatch, capsys, forks, command):
    monkeypatch.chdir(tmp_path)
    qas = [drop_qa(f"How many in {index}?", _query_id(index), drop_answer()) for index in range(3)]
    (tmp_path / "gold.json").write_text(json.dumps(build_drop_file({"p": ("Nothing was sold.", qas)})))
    assert run(QA_COMMANDS[command] + ["--out", "o.jsonl"]) == 0
    assert forks == []
    lines = (tmp_path / "o.jsonl").read_bytes().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["meta"]["records"] == 0
    assert capsys.readouterr().err.count("every gold answer is empty") == 3


#: ``mix`` over a NUM and a TXT source, and ``audit`` of the NUM one.
SPAN_COMMANDS = {
    "mix": ["mix", "--stats", "stats.json", "-T", "2", "--sample", "3000", "--sources", "num=num.jsonl,txt=txt.jsonl",
            "--seed", "3"],
    "audit": ["audit", "--in", "num.jsonl", "--encoder-max", "9", "--decoder-max", "3"],
}


@pytest.fixture
def span_inputs(tmp_path, monkeypatch, forks):
    """Two sources of many 4 KiB spans written in one process, the TXT one ending in
    lines that are not canonical; the working directory is theirs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(shard, "SPAN_BYTES", 4096)
    _pin_cpus(monkeypatch, 1)
    assert run(["gen-num", "--count", str(COUNT), "--seed", "3", "--out", "num.jsonl"]) == 0
    assert run(["gen-txt", "--count", str(COUNT), "--seed", "4", "--out", "txt.jsonl"]) == 0
    with open("txt.jsonl", "ab") as handle:
        handle.write(NONCANONICAL_SOURCE.split(b"\n", 1)[1])  # all but its meta line
    stats = [{"name": "num", "length": COUNT}, {"name": "txt", "length": COUNT + 9}]
    (tmp_path / "stats.json").write_text(json.dumps(stats))
    _pin_cpus(monkeypatch, 2)
    return tmp_path


def _spans(path) -> list[list]:
    """``[start, first line number, bytes]`` of each span of the file ``path`` that
    holds a line: span k holds the lines that start in [k, k + 1) * shard.SPAN_BYTES."""
    spans, start = {}, 0
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, 1):
            spans.setdefault(start // shard.SPAN_BYTES, [start, lineno, b""])[2] += line
            start += len(line)
    return [span for _, span in sorted(spans.items())]


@pytest.mark.parametrize("command", list(SPAN_COMMANDS))
def test_two_workers_index_and_audit_the_bytes_of_one(span_inputs, monkeypatch, forks, command):
    assert len(_spans("num.jsonl")) > 20 and len(_spans("txt.jsonl")) > 20
    _pin_cpus(monkeypatch, 1)
    assert run(SPAN_COMMANDS[command] + ["--out", "one"]) == 0
    assert forks == []
    _pin_cpus(monkeypatch, 2)
    assert run(SPAN_COMMANDS[command] + ["--out", "two"]) == 0
    assert forks == ([1, 1] if command == "mix" else [1])  # one worker per source
    assert (span_inputs / "two").read_bytes() == (span_inputs / "one").read_bytes()
    if command == "mix":
        with open("one", "rb") as handle:
            assert {row.source_id for row in read_examples(handle)} >= {"nc-1", "nc-8"}
    else:
        assert json.loads((span_inputs / "one").read_text())["total"] == COUNT


@pytest.mark.parametrize("fail", [_exit_3, _raise_runtime_error], ids=["exit", "raise"])
@pytest.mark.parametrize("command", list(SPAN_COMMANDS))
def test_a_span_worker_that_fails_costs_time_not_the_run(span_inputs, monkeypatch, capfd, forks, command, fail):
    # The worker fails on its first span; this process then builds that span and
    # every later one itself, as one process would.
    _pin_cpus(monkeypatch, 1)
    assert run(SPAN_COMMANDS[command] + ["--out", "one"]) == 0
    parent, real_span_check = os.getpid(), corpus._span_check

    def fail_in_the_worker(*args):
        if os.getpid() != parent:
            fail()
        return real_span_check(*args)

    monkeypatch.setattr(corpus, "_span_check", fail_in_the_worker)
    _pin_cpus(monkeypatch, 2)
    capfd.readouterr()
    assert run(SPAN_COMMANDS[command] + ["--out", "two"]) == 0
    assert forks == ([1, 1] if command == "mix" else [1])
    assert capfd.readouterr() == ("", "")
    assert (span_inputs / "two").read_bytes() == (span_inputs / "one").read_bytes()


@pytest.mark.parametrize("command", list(SPAN_COMMANDS))
def test_a_malformed_line_in_a_worker_span_is_the_one_process_error_line(span_inputs, monkeypatch, capsys, forks,
                                                                          command):
    # A bad line in span 1 (the worker's) and another in span 2 (this process's):
    # one process fails on the first, and so must two.
    spans = _spans("num.jsonl")
    lines = (span_inputs / "num.jsonl").read_bytes().splitlines(keepends=True)
    first = spans[1][1] + 3
    lines[first - 1] = b'{"bogus": true}\n'
    lines[spans[2][1] + 3 - 1] = b'{"input": "calculate: ", "target": "1", "task": "calculate"}\n'
    (span_inputs / "num.jsonl").write_bytes(b"".join(lines))
    errors = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        assert run(SPAN_COMMANDS[command] + ["--out", "o.json"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors.append([line for line in err.splitlines() if line.startswith("error: ")])
    assert forks == [1]
    prefix = "error: source num.jsonl: " if command == "mix" else "error: "
    assert errors == [[f"{prefix}line {first}: expected exactly the fields {corpus.EXAMPLE_FIELDS}"]] * 2
    assert not (span_inputs / "o.json").exists()


def test_an_input_of_one_span_forks_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _pin_cpus(monkeypatch, 2)
    assert run(["gen-num", "--count", "300", "--seed", "3", "--out", "num.jsonl"]) == 0
    assert run(["gen-txt", "--count", "100", "--seed", "4", "--out", "txt.jsonl"]) == 0
    (tmp_path / "stats.json").write_text(json.dumps([{"name": "num", "length": 300}, {"name": "txt", "length": 100}]))
    assert [len(_spans(name)) for name in ("num.jsonl", "txt.jsonl")] == [1, 1]
    monkeypatch.setattr(os, "fork", no_fork)
    for command in SPAN_COMMANDS.values():
        assert run(command + ["--out", "o"]) == 0
    with open("num.jsonl", "rb") as handle:
        assert len(corpus.IndexedExamples(handle)) == 300


def _over_spans(path) -> list[list]:
    """``[start, lineno(), lines]`` of each ``write`` call that shard.over_spans makes for ``path``."""

    def write(lines, start, lineno, out):
        out.write(json.dumps([start, lineno(), lines.decode("latin-1")]).encode() + b"\n")

    sink = io.BytesIO()
    with open(path, "rb") as handle:
        shard.over_spans(handle, write, sink)
    rows = map(json.loads, sink.getvalue().splitlines())
    return [[start, lineno, lines.encode("latin-1")] for start, lineno, lines in rows]


#: Files cut into 64-byte spans.
_CUT_FILES = {
    "empty": b"",
    "one-line": b'{"a": 1}\n',
    "no-final-newline": b"a\n" * 40 + b"last",
    "line-at-a-cut": b"a" * 63 + b"\n" + b"b" * 63 + b"\n" + b"c\n" * 70,
    "longer-than-two-spans": b"a\n" + b"b" * 200 + b"\n" + b"c\n" * 40 + b"d" * 300,
    "blank-lines": b"\n" * 100 + b"x\n" + b" \n" * 50,
}


@pytest.mark.parametrize("name", list(_CUT_FILES))
def test_over_spans_cuts_lines_that_start_in_each_span_on_one_or_two_cpus(tmp_path, monkeypatch, forks, name):
    monkeypatch.setattr(shard, "SPAN_BYTES", 64)
    monkeypatch.setattr(shard, "_CUT_BYTES", 8)  # a cut that reads past a long line doubles its read
    data = _CUT_FILES[name]
    (tmp_path / "f.jsonl").write_bytes(data)
    expected = _spans(tmp_path / "f.jsonl")
    assert b"".join(lines for *_, lines in expected) == data
    if name == "line-at-a-cut":
        assert [start for start, *_ in expected[:3]] == [0, 64, 128]
    if name == "longer-than-two-spans":
        assert [start // 64 for start, *_ in expected] == [0, 3, 4]  # spans 1, 2 and 5 to 9 are empty
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        assert _over_spans(tmp_path / "f.jsonl") == expected
    assert forks == ([1] if len(data) > 64 else [])


def _numbered_lines(count: int) -> list[bytes]:
    sink = io.BytesIO()
    corpus.write_examples([corpus.Example(f"calculate: {i} + 1", str(i + 1), "calculate") for i in range(count)], sink)
    return sink.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("where", [1, 2])
def test_a_meta_record_is_skipped_on_line_1_only_on_one_or_two_cpus(tmp_path, monkeypatch, forks, where):
    monkeypatch.setattr(shard, "SPAN_BYTES", 256)
    lines = _numbered_lines(40)
    lines.insert(where - 1, b'{"meta": {"seed": 1, "note": "' + b"m" * 300 + b'"}}\n')  # line 2 starts in a later span
    (tmp_path / "m.jsonl").write_bytes(b"".join(lines))
    results = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        results.append(index_and_audit(tmp_path / "m.jsonl"))
    assert results[0] == results[1]
    assert forks == [1, 1]
    if where == 1:
        assert len(results[0][0]) == 40 and results[0][1]["total"] == 40
    else:
        assert results[0] == [f"error: line 2: expected exactly the fields {corpus.EXAMPLE_FIELDS}"] * 2


def test_a_malformed_line_in_a_late_span_names_its_line_on_one_or_two_cpus(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(shard, "SPAN_BYTES", 256)
    lines = _numbered_lines(300)
    lines[286] = lines[286].replace(b'"target": "287"', b'"target": ""')
    (tmp_path / "m.jsonl").write_bytes(b"".join(lines))
    assert len(_spans(tmp_path / "m.jsonl")) > 50
    results = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        results.append(index_and_audit(tmp_path / "m.jsonl"))
    assert forks == [1, 1]
    assert results == [["error: line 287: target must be non-empty"] * 2] * 2


def test_audit_of_a_fifo_is_read_in_one_process_and_writes_the_files_bytes(span_inputs, monkeypatch, forks):
    argv = SPAN_COMMANDS["audit"]
    assert run(argv + ["--out", "file.json"]) == 0
    assert forks == [1]
    data = (span_inputs / "num.jsonl").read_bytes()
    os.unlink("num.jsonl")
    os.mkfifo("num.jsonl")
    threading.Thread(target=(span_inputs / "num.jsonl").write_bytes, args=(data,), daemon=True).start()
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(argv + ["--out", "fifo.json"]) == 0
    assert (span_inputs / "fifo.json").read_bytes() == (span_inputs / "file.json").read_bytes()
