"""What the benchmark's tracer reads from the program's results.

``bench/tracing.py`` wraps the layer functions and reads these values from
their arguments and results:

- ``Tracer._on_sample_stream`` (line 180): ``args[0].ratios`` of the plan
  that ``mix`` passes to ``mixing.sample_stream``, a name -> ``p`` dict;
- ``Tracer._on_build_report`` (line 166): ``len(result.per_question)`` of
  what ``scoring.build_report`` returns, one row per question;
- ``Tracer._on_draw`` (line 183): ``item.source_id`` of each draw, a
  ``corpus.SourceLine`` for a canonical source line;
- ``Tracer._on_write_examples`` (line 158): the record count that
  ``corpus.write_examples`` returns;
- ``Tracer._wrap`` (line 83): a result that is a ``types.GeneratorType``
  is timed per item, as ``numgen.generate_num``, ``txtgen.generate_txt``
  and ``mixing.sample_stream`` return;
- ``Tracer._on_score_pair`` (lines 168-176): ``args[0]`` and ``args[1]``
  of ``scoring.score_pair``, the predicted string and a gold answer with
  ``number``, ``date.populated()`` and ``spans``.

A simplification that drops one of them fails here instead of leaving
``bench/run.py --trace 1`` to break.
"""

import json
from types import GeneratorType

from numtext import corpus, mixing, numgen, scoring, shard, txtgen
from numtext.cli import run

from conftest import build_drop_file, drop_answer, drop_qa, read_examples, read_meta


def test_the_three_streams_are_generators():
    plan = mixing.compute_plan(mixing.check_stats([{"name": "a", "length": 2}]), 1.0)
    streams = numgen.generate_num(2), txtgen.generate_txt(2), mixing.sample_stream(plan, {"a": ["x", "y"]}, 2)
    assert all(isinstance(stream, GeneratorType) for stream in streams)


def test_mix_gives_the_plan_ratios_each_draw_source_id_and_the_record_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-num", "--count", "6", "--seed", "1", "--out", "num.jsonl"]) == 0
    assert run(["gen-txt", "--count", "6", "--seed", "2", "--out", "txt.jsonl"]) == 0
    (tmp_path / "stats.json").write_text(json.dumps([{"name": "num", "length": 6}, {"name": "txt", "length": 2}]))
    seen = {"draws": []}
    real_sample_stream, real_write_examples = mixing.sample_stream, corpus.write_examples

    def sample_stream(*args, **kwargs):
        seen["ratios"] = args[0].ratios
        for item in real_sample_stream(*args, **kwargs):
            seen["draws"].append(item)
            yield item

    def write_examples(*args, **kwargs):
        seen["written"] = real_write_examples(*args, **kwargs)
        return seen["written"]

    monkeypatch.setattr(mixing, "sample_stream", sample_stream)
    monkeypatch.setattr(corpus, "write_examples", write_examples)
    argv = ["mix", "--stats", "stats.json", "-T", "2", "--sample", "9", "--sources", "num=num.jsonl,txt=txt.jsonl"]
    assert run(argv + ["--out", "mix.jsonl"]) == 0

    plan = read_meta(tmp_path / "mix.jsonl")["plan"]
    assert type(seen["ratios"]) is dict
    assert seen["ratios"] == {row["name"]: row["p"] for row in plan["datasets"]}
    assert all(type(item) is corpus.SourceLine for item in seen["draws"])
    with open(tmp_path / "mix.jsonl", "rb") as handle:
        assert [item.source_id for item in seen["draws"]] == [row.source_id for row in read_examples(handle)]
    assert seen["written"] == 9


def test_source_line_reads_its_source_id():
    line = b'{"input": "calculate: 1 + 1", "target": "2", "task": "calculate", "answer_type": "number", '
    assert corpus.SourceLine(line + b'"source_id": "num-3"}\n').source_id == "num-3"


def test_score_report_lists_one_row_per_question(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    qas = [drop_qa(f"How many in lot {i}?", f"q{i}", drop_answer(number=str(i))) for i in range(5)]
    (tmp_path / "gold.json").write_text(json.dumps(build_drop_file({"p": ("Lots were counted.", qas)})))
    (tmp_path / "pred.jsonl").write_text('{"id": "q1", "prediction": "1"}\n')
    reports = []
    real_build_report = scoring.build_report

    def build_report(*args, **kwargs):
        reports.append(real_build_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(scoring, "build_report", build_report)
    assert run(["score", "--gold", "gold.json", "--pred", "pred.jsonl", "--out", "report.json"]) == 0
    [report] = reports
    assert type(report.per_question) is list and len(report.per_question) == 5
    assert json.loads((tmp_path / "report.json").read_text())["per_question"] == report.per_question


def test_score_pair_gets_the_prediction_and_a_gold_answer_positionally(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    qas = [
        drop_qa("How many?", "q1", drop_answer(number="3")),
        drop_qa("When?", "q2", drop_answer(day="3", month="March", year="1768")),
        drop_qa("Who?", "q3", drop_answer(spans=["Ann", "Bo"])),
    ]
    (tmp_path / "gold.json").write_text(json.dumps(build_drop_file({"p": ("Ann met Bo.", qas)})))
    (tmp_path / "pred.jsonl").write_text("".join(f'{{"id": "q{i}", "prediction": "Ann; 3"}}\n' for i in (1, 2, 3)))
    calls = []
    real_score_pair = scoring.score_pair

    def score_pair(*args, **kwargs):
        calls.append(args)
        return real_score_pair(*args, **kwargs)

    monkeypatch.setattr(scoring, "score_pair", score_pair)
    monkeypatch.setattr(shard, "usable_cpus", lambda: 1)  # every pair is scored in this process
    assert run(["score", "--gold", "gold.json", "--pred", "pred.jsonl", "--out", "report.json"]) == 0
    assert [(predicted, gold.number, gold.date.populated(), tuple(gold.spans)) for predicted, gold, *_ in calls] == [
        ("Ann; 3", "3", False, ()), ("Ann; 3", "", True, ()), ("Ann; 3", "", False, ("Ann", "Bo"))
    ]
