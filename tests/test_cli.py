import hashlib
import json
import os
import stat
from pathlib import Path

import pytest

from numtext import cli, numgen
from numtext.cli import run
from numtext.corpus import TaskTag
from numtext.decimals import MAX_FRAC_DIGITS

from conftest import NONCANONICAL_SOURCE, build_drop_file, drop_answer, drop_qa, read_examples, read_meta


def _read_json_file(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_one(capsys):
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "gen-num" in capsys.readouterr().out


def test_subcommand_help_lists_flags(capsys):
    assert run(["gen-num", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--count", "--seed", "--out", "--min-value", "--max-value",
                 "--max-frac-digits", "--families", "--emit", "--config", "--dump-config"):
        assert flag in text


def test_gen_num_is_byte_identical_across_runs(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["gen-num", "--count", "200", "--seed", "7", "--out", str(first)]) == 0
    assert run(["gen-num", "--count", "200", "--seed", "7", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    examples = read_examples(first)
    assert len(examples) == 200
    assert all(e.task == TaskTag.CALCULATE.value for e in examples)


def test_gen_num_meta_line_records_seed(tmp_path):
    out = tmp_path / "n.jsonl"
    run(["gen-num", "--count", "5", "--seed", "3", "--out", str(out)])
    meta = read_meta(out)
    assert meta["seed"] == 3
    assert meta["tool"].startswith("numtext ")
    assert "config_sha256" in meta


def test_gen_num_raw_emit(tmp_path):
    out = tmp_path / "raw.jsonl"
    run(["gen-num", "--count", "10", "--seed", "1", "--emit", "raw", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 11  # meta + 10 rows
    row = json.loads(lines[1])
    assert set(row) == {"expression", "answer", "family", "seed"}


def test_gen_num_bad_count_exits_one(tmp_path, capsys):
    assert run(["gen-num", "--count", "0", "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_num_failure_leaves_no_partial_file(tmp_path):
    out = tmp_path / "never.jsonl"
    assert run(["gen-num", "--count", "0", "--out", str(out)]) == 1
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # no temp litter either


def test_gen_num_self_check_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    real_eval, calls = numgen.eval_expr, []

    def wrong_from_the_third_call(expression, frac_digits=2):
        calls.append(expression)
        return real_eval(expression, frac_digits) + (1 if len(calls) >= 3 else 0)

    monkeypatch.setattr(numgen, "eval_expr", wrong_from_the_third_call)
    out = tmp_path / "never.jsonl"
    assert run(["gen-num", "--count", "5", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "self-check failed" in errors[0]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file


def test_gen_txt_round_trip_and_determinism(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["gen-txt", "--count", "50", "--seed", "11", "--out", str(first)]) == 0
    assert run(["gen-txt", "--count", "50", "--seed", "11", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    examples = read_examples(first)
    assert all(e.task == TaskTag.ANSWER_ME.value for e in examples)


def test_config_file_round_trip(tmp_path):
    dumped = tmp_path / "cfg.json"
    direct = tmp_path / "direct.jsonl"
    via_config = tmp_path / "via.jsonl"
    assert (
        run(
            [
                "gen-num", "--count", "30", "--seed", "5", "--max-frac-digits", "1",
                "--dump-config", str(dumped), "--out", str(direct),
            ]
        )
        == 0
    )
    assert run(["gen-num", "--config", str(dumped), "--out", str(via_config)]) == 0
    assert direct.read_bytes() == via_config.read_bytes()


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"count": 5, "seed": 1}), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    run(["gen-num", "--config", str(config), "--count", "9", "--out", str(out)])
    assert len(read_examples(out)) == 9


def test_ingest_drop_cli(tmp_path, ming_rui_drop, capsys):
    out = tmp_path / "drop.jsonl"
    assert run(["ingest", "--format", "drop", "--in", str(ming_rui_drop), "--out", str(out)]) == 0
    examples = read_examples(out)
    assert len(examples) == 1
    assert examples[0].input.startswith("answer_me: How many more men")
    assert examples[0].target == "8000"
    assert "wrote 1 examples" in capsys.readouterr().err


def test_ingest_squad_cli(tmp_path, squad_file):
    out = tmp_path / "squad.jsonl"
    assert run(["ingest", "--format", "squad", "--in", str(squad_file), "--out", str(out)]) == 0
    examples = read_examples(out)
    assert len(examples) == 2
    assert all(e.task == TaskTag.SQUAD_CONTEXT.value for e in examples)


def test_derive_class_cli(tmp_path, ming_rui_drop):
    out = tmp_path / "class.jsonl"
    assert run(["derive-class", "--in", str(ming_rui_drop), "--out", str(out)]) == 0
    examples = read_examples(out)
    assert examples[0].task == TaskTag.CLASSIFY_ME.value
    assert examples[0].target == "number"


def test_ingest_missing_file_exits_two(tmp_path, capsys):
    code = run(["ingest", "--format", "drop", "--in", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def _write_stats(tmp_path):
    stats = [
        {"name": "NUM", "length": 1_000_000},
        {"name": "TXT", "length": 2_000_000},
        {"name": "DROP", "length": 96_000},
    ]
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(stats), encoding="utf-8")
    return path


def test_mix_plan_to_stdout(tmp_path, capsys):
    stats = _write_stats(tmp_path)
    assert run(["mix", "--stats", str(stats), "--temperature", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"] == 1.0
    ratios = {row["name"]: row["p"] for row in payload["datasets"]}
    assert abs(ratios["TXT"] - 2_000_000 / 3_096_000) < 1e-12
    assert set(payload["datasets"][0]) == {"name", "length", "scale", "cap", "r", "p"}


def test_mix_sample_deterministic(tmp_path):
    stats = tmp_path / "stats.json"
    stats.write_text(
        json.dumps([{"name": "num", "length": 40}, {"name": "txt", "length": 40}]),
        encoding="utf-8",
    )
    num, txt = tmp_path / "num.jsonl", tmp_path / "txt.jsonl"
    run(["gen-num", "--count", "40", "--seed", "1", "--out", str(num)])
    run(["gen-txt", "--count", "40", "--seed", "2", "--out", str(txt)])
    first, second = tmp_path / "mix1.jsonl", tmp_path / "mix2.jsonl"
    argv = [
        "mix", "--stats", str(stats), "--temperature", "2", "--sample", "100",
        "--sources", f"num={num},txt={txt}", "--seed", "9",
    ]
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(read_examples(first)) == 100


def test_lr_table_cli(tmp_path):
    out = tmp_path / "lr.csv"
    assert run(["lr-table", "--epochs", "10", "--batches-per-epoch", "100", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# numtext ")
    assert lines[1] == "global_batch,epoch,lr"
    first_row = lines[2].split(",")
    assert float(first_row[2]) == 1e-8
    assert len(lines) == 2 + 109


def test_audit_cli(tmp_path):
    examples = tmp_path / "ex.jsonl"
    run(["gen-num", "--count", "20", "--seed", "1", "--out", str(examples)])
    out = tmp_path / "audit.json"
    assert run(["audit", "--in", str(examples), "--encoder-max", "512", "--decoder-max", "54", "--out", str(out)]) == 0
    payload = _read_json_file(out)
    assert payload["total"] == 20
    assert payload["encoder_fraction"] == 0.0


def test_score_cli(tmp_path):
    gold = tmp_path / "gold.json"
    data = build_drop_file(
        {
            "p1": (
                "passage one",
                [
                    drop_qa("How many?", "q1", drop_answer(number="8000")),
                    drop_qa("Who?", "q2", drop_answer(spans=["John Kasay"])),
                ],
            )
        }
    )
    gold.write_text(json.dumps(data), encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        json.dumps({"id": "q1", "prediction": "8000"})
        + "\n"
        + json.dumps({"id": "q2", "prediction": "Kasay"})
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert run(["score", "--gold", str(gold), "--pred", str(preds), "--out", str(out)]) == 0
    payload = _read_json_file(out)
    assert payload["overall"]["em"] == 0.5
    assert abs(payload["overall"]["f1"] - (1.0 + 2 / 3) / 2) < 1e-12
    assert payload["per_type"]["number"]["em"] == 1.0


def test_score_unknown_id_exits_one(tmp_path, capsys):
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps(build_drop_file({"p": ("x", [drop_qa("Q?", "q1", drop_answer(number="1"))])})),
        encoding="utf-8",
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "nope", "prediction": "1"}) + "\n", encoding="utf-8")
    assert run(["score", "--gold", str(gold), "--pred", str(preds)]) == 1
    assert "nope" in capsys.readouterr().err


def _gold_with_a_skipped_question(tmp_path):
    gold = tmp_path / "gold.json"
    qas = [drop_qa("How many?", "q1", drop_answer(number="5")), drop_qa("Who?", "q2", drop_answer())]
    gold.write_text(json.dumps(build_drop_file({"p": ("x", qas)})), encoding="utf-8")
    return gold


@pytest.mark.parametrize("command", ["ingest", "derive-class", "score"])
def test_drop_commands_skip_a_question_without_gold_alike(tmp_path, capsys, command):
    gold, out = _gold_with_a_skipped_question(tmp_path), tmp_path / "out"
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        json.dumps({"id": "q1", "prediction": "5"}) + "\n" + json.dumps({"id": "q2", "prediction": "5"}) + "\n",
        encoding="utf-8",
    )
    argv = {
        "ingest": ["ingest", "--format", "drop", "--in", str(gold)],
        "derive-class": ["derive-class", "--in", str(gold)],
        "score": ["score", "--gold", str(gold), "--pred", str(preds)],
    }[command]
    assert run(argv + ["--out", str(out)]) == 0
    assert "skipped q2: every gold answer is empty\n" in capsys.readouterr().err
    if command == "score":
        payload = _read_json_file(out)
        assert payload["overall"] == {"count": 1, "em": 1.0, "f1": 1.0}
        assert [q["id"] for q in payload["per_question"]] == ["q1"]
    else:
        assert len(read_examples(out)) == 1


def test_score_keeps_the_prediction_of_an_id_a_skipped_question_shares(tmp_path):
    gold, out = tmp_path / "gold.json", tmp_path / "report.json"
    qas = [drop_qa("How many?", "q1", drop_answer(number="5")), drop_qa("Who?", "q1", drop_answer())]
    gold.write_text(json.dumps(build_drop_file({"p": ("x", qas)})), encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "q1", "prediction": "5"}) + "\n", encoding="utf-8")
    assert run(["score", "--gold", str(gold), "--pred", str(preds), "--out", str(out)]) == 0
    assert _read_json_file(out)["overall"] == {"count": 1, "em": 1.0, "f1": 1.0}


def test_score_rejects_a_prediction_id_given_twice(tmp_path, capsys):
    gold, out = _gold_with_a_skipped_question(tmp_path), tmp_path / "report.json"
    preds = tmp_path / "preds.jsonl"
    rows = [{"id": "q1", "prediction": "5"}, {"id": "q2", "prediction": "5"}, {"id": "q1", "prediction": "6"}]
    preds.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run(["score", "--gold", str(gold), "--pred", str(preds), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: line 3: prediction id 'q1' is also on line 1"
    ]
    assert not out.exists()


def test_score_names_a_prediction_line_that_is_not_an_object(tmp_path, capsys):
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps(build_drop_file({"p": ("x", [drop_qa("Q?", "q1", drop_answer(number="1"))])})),
        encoding="utf-8",
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "q1", "prediction": "1"}) + "\n5\n", encoding="utf-8")
    assert run(["score", "--gold", str(gold), "--pred", str(preds)]) == 1
    assert "error: line 2: prediction rows are objects" in capsys.readouterr().err


def test_vocabulary_content_goes_into_the_config_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    vocab = {
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
    (tmp_path / "v1.json").write_text(json.dumps(vocab), encoding="utf-8")
    (tmp_path / "v2.json").write_text(json.dumps({**vocab, "entities": ["figs", "plums"]}), encoding="utf-8")
    hashes = {}
    for name in ("v1", "v2", None):
        argv = ["gen-txt", "--count", "2", "--seed", "1", "--out", f"{name}.jsonl", "--dump-config", f"{name}.cfg"]
        assert run(argv + (["--vocab", f"{name}.json"] if name else [])) == 0
        hashes[name] = read_meta(tmp_path / f"{name}.jsonl")["config_sha256"]
        dumped = _read_json_file(tmp_path / f"{name}.cfg")
        if name:
            digest = hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
            assert dumped["vocab_sha256"] == digest
        else:
            assert "vocab_sha256" not in dumped
    assert len(set(hashes.values())) == 3


def test_config_that_records_a_vocabulary_needs_that_vocabulary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    vocab = {
        "containers": ["Ann", "Bo"],
        "entities": ["figs", "nuts"],
        "sentence_templates": {verb: ["{container} met {qty} {entity}."] for verb in ("observe", "gain", "lose")},
        "question_templates": {kind: ["How many {entity}?"] for kind in ("how_many", "how_many_more", "total")},
    }
    vocab["sentence_templates"]["transfer"] = ["{container} gave {qty} {entity} to {target}."]
    (tmp_path / "v.json").write_text(json.dumps(vocab), encoding="utf-8")
    (tmp_path / "w.json").write_text(json.dumps({**vocab, "entities": ["figs", "plums"]}), encoding="utf-8")
    argv = ["gen-txt", "--count", "3", "--seed", "2"]
    assert run(argv + ["--vocab", "v.json", "--out", "a.jsonl", "--dump-config", "a.cfg"]) == 0
    capsys.readouterr()

    assert run(["gen-txt", "--config", "a.cfg", "--out", "missing.jsonl"]) == 1
    assert run(["gen-txt", "--config", "a.cfg", "--vocab", "w.json", "--out", "other.jsonl"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: --config records vocab_sha256 ") for line in err)
    assert err[0].endswith("give that vocabulary with --vocab") and err[1].endswith("--vocab is not that vocabulary")
    assert not (tmp_path / "missing.jsonl").exists() and not (tmp_path / "other.jsonl").exists()

    assert run(["gen-txt", "--config", "a.cfg", "--vocab", "v.json", "--out", "same.jsonl"]) == 0
    assert (tmp_path / "same.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


def test_gen_txt_hashes_the_vocabulary_bytes_it_parsed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    vocab = {
        "containers": ["Ann", "Bo"],
        "entities": ["figs", "nuts"],
        "sentence_templates": {verb: ["{container} met {qty} {entity}."] for verb in ("observe", "gain", "lose")},
        "question_templates": {kind: ["How many {entity}?"] for kind in ("how_many", "how_many_more", "total")},
    }
    vocab["sentence_templates"]["transfer"] = ["{container} gave {qty} {entity} to {target}."]
    parsed = json.dumps(vocab).encode("utf-8")
    (tmp_path / "v.json").write_bytes(parsed)
    read_bytes = Path.read_bytes

    def read_then_replace(path):
        # The file is replaced right after it is read, so a second read
        # would see another vocabulary.
        data = read_bytes(path)
        if path.name == "v.json":
            path.write_text(json.dumps({**vocab, "entities": ["figs", "plums"]}), encoding="utf-8")
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_replace)
    argv = ["gen-txt", "--count", "2", "--seed", "1", "--vocab", "v.json", "--out", "a.jsonl", "--dump-config", "a.cfg"]
    assert run(argv) == 0
    assert _read_json_file(tmp_path / "a.cfg")["vocab_sha256"] == hashlib.sha256(parsed).hexdigest()


def test_pipeline_list(capsys):
    assert run(["pipeline", "--list"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["name"] for p in payload["pipelines"]] == [
        "validation-1", "validation-2", "rc-1", "rc-2", "multitask",
    ]


def test_pipeline_expand_deterministic(tmp_path):
    stats = _write_stats(tmp_path)
    extra = json.loads(stats.read_text())
    extra += [{"name": "DROP-class", "length": 96_000}, {"name": "SQuAD", "length": 87_599}]
    stats.write_text(json.dumps(extra), encoding="utf-8")
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["pipeline", "--name", "multitask", "--stats", str(stats), "--batch-size", "32", "--seed", "4"]
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = _read_json_file(first)
    assert payload["stages"][0]["steps"] == 3000


def test_pipeline_requires_name_xor_spec(capsys):
    assert run(["pipeline"]) == 1
    assert run(["pipeline", "--name", "multitask", "--spec", "x.json"]) == 1


def test_output_file_mode_follows_umask(tmp_path):
    out = tmp_path / "n.jsonl"
    previous = os.umask(0o022)
    try:
        assert run(["gen-num", "--count", "3", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_out_dash_streams_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-num", "--count", "3", "--seed", "1", "--out", "n.jsonl"]) == 0
    assert run(["gen-num", "--count", "3", "--seed", "1", "--out", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (tmp_path / "n.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.jsonl"]


def test_malformed_config_file_is_a_one_line_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("{bad", encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert run(["gen-num", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "file_values, flags",
    [
        ({"count": 4, "seed": 2, "func": "nope", "vocab": "x", "bogus": 1}, ["--count", "4", "--seed", "2"]),
        ({"count": 4, "seed": None, "max_frac_digits": None}, ["--count", "4"]),  # null means the default
    ],
)
def test_config_file_sets_only_the_commands_keys(tmp_path, file_values, flags):
    config = tmp_path / "cfg.json"
    elsewhere = tmp_path / "elsewhere.jsonl"
    config.write_text(json.dumps({**file_values, "out": str(elsewhere)}), encoding="utf-8")
    via_config, direct = tmp_path / "via.jsonl", tmp_path / "direct.jsonl"
    assert run(["gen-num", "--config", str(config), "--out", str(via_config)]) == 0
    assert run(["gen-num", *flags, "--out", str(direct)]) == 0
    assert via_config.read_bytes() == direct.read_bytes()
    assert not elsewhere.exists()


_BAD_INPUT_FILES = {
    "stats.json": '[{"name": "a", "length": 5}]',
    "stats-no-name.json": '[{"length": 5}]',
    "stats-nan-scale.json": '[{"name": "a", "length": 5, "scale": NaN}]',
    "stats-list-name.json": '[{"name": ["a"], "length": 5}]',
    "stats-huge-length.json": '[{"name": "a", "length": 1' + "0" * 400 + '}]',
    "stats-float-length.json": '[{"name": "a", "length": 2.9}]',
    "stats-bool-length.json": '[{"name": "a", "length": true}]',
    "stats-text-scale.json": '[{"name": "a", "length": 5, "scale": "2"}]',
    "stats-bool-scale.json": '[{"name": "a", "length": 5, "scale": true}]',
    "stats-text-cap.json": '[{"name": "a", "length": 5, "cap": "3"}]',
    "stats-bool-cap.json": '[{"name": "a", "length": 5, "cap": false}]',
    "cfg-list-count.json": '{"count": [3]}',
    "cfg-nan-count.json": '{"count": NaN}',
    "drop-bad-qa.json": '{"p": {"passage": "x", "qa_pairs": [3]}}',
    "drop-number-answer.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": 5}]}}',
    "drop-text-date.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": {"date": "x"}}]}}',
    "drop-number-validated.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "validated_answers": [5]}]}}',
    "drop-text-spans.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": {"spans": "abc"}}]}}',
    "drop-number-passage.json": '{"p": {"passage": 5, "qa_pairs": []}}',
    "drop-null-question.json": '{"p": {"passage": "x", "qa_pairs": [{"question": null, "answer": {"number": "1"}}]}}',
    "drop-number-query-id.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "query_id": 5, "answer": {"number": "1"}}]}}',
    "drop-object-number.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": {"number": {"a": 1}}}]}}',
    "drop-null-span.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": {"spans": ["7", null]}}]}}',
    "drop-number-date-part.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "answer": {"date": {"day": 3}}}]}}',
    "squad-number-article.json": '{"data": [5]}',
    "squad-number-answer.json": '{"data": [{"paragraphs": [{"context": "c", "qas": [{"question": "q", "answers": [5]}]}]}]}',
    "squad-number-context.json": '{"data": [{"paragraphs": [{"context": 5, "qas": []}]}]}',
    "squad-null-question.json": '{"data": [{"paragraphs": [{"context": "c", "qas": [{"question": null, "answers": []}]}]}]}',
    "squad-number-id.json": '{"data": [{"paragraphs": [{"context": "c", "qas": [{"question": "q", "id": 5, "answers": []}]}]}]}',
    "squad-null-answer-text.json": '{"data": [{"paragraphs": [{"context": "c", "qas": [{"question": "q", "answers": [{"text": null}]}]}]}]}',
    "spec-no-datasets.json": '{"name": "x", "stages": [{"name": "s"}]}',
    "spec-nan-temperature.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "temperature": NaN}]}',
    "spec-text-temperature.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "temperature": "x"}]}',
    "spec-numeric-text-temperature.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "temperature": "10"}]}',
    "spec-bool-temperature.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "temperature": true}]}',
    "spec-huge-temperature.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "temperature": 1' + "0" * 400 + '}]}',
    "spec-unknown-mode.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "mode": "zzz"}]}',
    "spec-number-datasets.json": '{"name": "x", "stages": [{"name": "s", "datasets": 5}]}',
    "spec-number-validation.json": '{"name": "x", "stages": [{"name": "s", "datasets": ["a"], "validation": 7}]}',
    "spec-list-name.json": '{"name": "x", "stages": [{"name": ["x"], "datasets": ["a"]}]}',
    "spec-list-pipeline-name.json": '{"name": ["x"], "stages": [{"name": "s", "datasets": ["a"]}]}',
    "vocab-no-containers.json": '{"entities": ["a", "b"]}',
    "vocab-malformed.json": '{"containers": [',
    "vocab-number-containers.json": '{"containers": 5, "entities": ["a", "b"]}',
    "gold.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "query_id": "q1", "answer": {"number": "1"}}]}}',
    "pred.jsonl": '{"id": "q1", "prediction": "1"}\n',
    "pred-number.jsonl": '5\n',
    "pred-null.jsonl": 'null\n',
    "pred-list.jsonl": '[1]\n',
    "pred-null-prediction.jsonl": '{"id": "q1", "prediction": null}\n',
    "pred-number-prediction.jsonl": '{"id": "q1", "prediction": 1}\n',
    "pred-list-prediction.jsonl": '{"id": "q1", "prediction": ["1"]}\n',
    "gold-id-7.json": '{"p": {"passage": "x", "qa_pairs": [{"question": "q", "query_id": "7", "answer": {"number": "1"}}]}}',
    "pred-number-id.jsonl": '{"id": 7, "prediction": "1"}\n',
    "stats-one.json": '[{"name": "s", "length": 1}]',
    "record.jsonl": '{"input": "calculate: 1 + 1", "target": "2", "task": "calculate", "answer_type": "number", "source_id": ""}\n',
    "surrogate.jsonl": '{"input": "answer_me: q\\ud800?", "target": "t", "task": "answer_me", "answer_type": "span", "source_id": ""}\n',
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["gen-num", "--count", "3", "--families", "nosuch", "--out", "o.jsonl"], id="unknown-family"),
        pytest.param(["gen-num", "--count", "3", "--families", "combination=nan", "--out", "o.jsonl"], id="nan-weight"),
        pytest.param(
            ["gen-num", "--count", "3", "--families", "argmax_like", "--min-value", "0", "--max-value", "1",
             "--max-frac-digits", "0", "--out", "o.jsonl"],
            id="argmax-grid-too-small",
        ),
        pytest.param(
            ["gen-num", "--count", "5", "--families", "difference", "--min-value", "0.1", "--max-value", "0.9",
             "--max-frac-digits", "0", "--out", "o.jsonl"],
            id="value-range-grid-empty",
        ),
        pytest.param(
            ["gen-num", "--count", "3", "--max-frac-digits", str(MAX_FRAC_DIGITS + 1), "--out", "o.jsonl"],
            id="gen-num-frac-digits-over-bound",
        ),
        pytest.param(
            ["gen-txt", "--count", "3", "--frac-digits", str(MAX_FRAC_DIGITS + 1), "--out", "o.jsonl"],
            id="gen-txt-frac-digits-over-bound",
        ),
        pytest.param(["mix", "--stats", "stats-no-name.json"], id="stats-row-without-name"),
        pytest.param(["mix", "--stats", "stats-nan-scale.json"], id="stats-nan-scale"),
        pytest.param(["mix", "--stats", "stats-list-name.json"], id="stats-list-name"),
        pytest.param(["mix", "--stats", "stats-huge-length.json"], id="stats-huge-length"),
        pytest.param(["mix", "--stats", "stats-float-length.json"], id="stats-float-length"),
        pytest.param(["mix", "--stats", "stats-bool-length.json"], id="stats-bool-length"),
        *(
            pytest.param(["mix", "--stats", f"stats-{case}.json"], id=f"stats-{case}")
            for case in ("text-scale", "bool-scale", "text-cap", "bool-cap")
        ),
        pytest.param(["gen-num", "--config", "cfg-list-count.json", "--out", "o.jsonl"], id="config-list-count"),
        pytest.param(["gen-num", "--config", "cfg-nan-count.json", "--out", "o.jsonl"], id="config-nan-count"),
        pytest.param(["gen-num", "--count", "3", "--config", "\x00", "--out", "o.jsonl"], id="nul-argument"),
        pytest.param(["mix", "--stats", "stats.json", "-T", "nan"], id="mix-T-nan"),
        pytest.param(["mix", "--stats", "stats.json", "-T", "inf"], id="mix-T-inf"),
        pytest.param(["audit", "--in", "o.jsonl", "--encoder-max", "abc"], id="audit-encoder-max-abc"),
        pytest.param(["ingest", "--format", "drop", "--in", "drop-bad-qa.json", "--out", "o.jsonl"], id="drop-qa-not-object"),
        *(
            pytest.param(["ingest", "--format", "drop", "--in", f"drop-{case}.json", "--out", "o.jsonl"], id=f"drop-{case}")
            for case in (
                "number-answer", "text-date", "number-validated", "text-spans", "number-passage", "null-question",
                "number-query-id", "object-number", "null-span", "number-date-part",
            )
        ),
        *(
            pytest.param(["ingest", "--format", "squad", "--in", f"squad-{case}.json", "--out", "o.jsonl"], id=f"squad-{case}")
            for case in (
                "number-article", "number-answer", "number-context", "null-question", "number-id", "null-answer-text",
            )
        ),
        pytest.param(
            ["pipeline", "--spec", "spec-no-datasets.json", "--stats", "stats.json", "--batch-size", "2"],
            id="stage-without-datasets",
        ),
        pytest.param(
            ["pipeline", "--spec", "spec-nan-temperature.json", "--stats", "stats.json", "--batch-size", "2"],
            id="stage-nan-temperature",
        ),
        *(
            pytest.param(
                ["pipeline", "--spec", f"spec-{case}.json", "--stats", "stats.json", "--batch-size", "2"],
                id=f"stage-{case}",
            )
            for case in (
                "text-temperature", "numeric-text-temperature", "bool-temperature", "huge-temperature",
                "unknown-mode", "number-datasets", "number-validation", "list-name",
            )
        ),
        pytest.param(
            ["pipeline", "--spec", "spec-list-pipeline-name.json", "--stats", "stats.json", "--batch-size", "2"],
            id="spec-list-name",
        ),
        pytest.param(
            ["lr-table", "--epochs", "1", "--batches-per-epoch", "1", "--decay-rate", "nan", "--dump-config", "-"],
            id="lr-decay-nan-dump-config",
        ),
        *(
            pytest.param(["gen-txt", "--count", "3", "--vocab", f"vocab-{case}.json", "--out", "o.jsonl"], id=f"vocab-{case}")
            for case in ("no-containers", "malformed", "number-containers")
        ),
        *(
            pytest.param(["score", "--gold", "gold.json", "--pred", f"pred-{case}.jsonl"], id=f"pred-{case}")
            for case in ("number", "null", "list", "null-prediction", "number-prediction", "list-prediction")
        ),
        pytest.param(["score", "--gold", "gold-id-7.json", "--pred", "pred-number-id.jsonl"], id="pred-number-id"),
        pytest.param(["score", "--gold", "gold.json", "--pred", "pred.jsonl", "--delimiter", ""], id="score-empty-delimiter"),
        pytest.param(
            ["mix", "--stats", "stats-one.json", "--sample", "2", "--sources", "s=surrogate.jsonl", "--out", "o.jsonl"],
            id="mix-lone-surrogate",
        ),
        pytest.param(
            ["mix", "--stats", "stats-one.json", "--sample", "2", "--sources", "s=record.jsonl,s=record.jsonl",
             "--out", "o.jsonl"],
            id="mix-source-named-twice",
        ),
        pytest.param(
            ["mix", "--stats", "stats-one.json", "--sample", "2", "--sources", "s=record.jsonl,extra=record.jsonl",
             "--out", "o.jsonl"],
            id="mix-source-not-in-plan",
        ),
        pytest.param(
            ["mix", "--stats", "stats-one.json", "--sample", "2", "--sources", "s=record.jsonl,=record.jsonl",
             "--out", "o.jsonl"],
            id="mix-empty-source-name",
        ),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert len([line for line in captured.err.splitlines() if line.startswith("error: ")]) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no plan or config, NaN-bearing or not, reached stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_BAD_INPUT_FILES)


def _assert_failed_cleanly(directory, target, before):
    assert sorted(p.name for p in directory.iterdir()) == before
    assert not [p for p in directory.iterdir() if p.name.startswith(f".{target.name}.")]


def test_mix_no_repeats_failing_mid_stream_leaves_no_output(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps([{"name": "num", "length": 5}, {"name": "txt", "length": 5}]), encoding="utf-8")
    num, txt = tmp_path / "num.jsonl", tmp_path / "txt.jsonl"
    assert run(["gen-num", "--count", "5", "--seed", "1", "--out", str(num)]) == 0
    assert run(["gen-txt", "--count", "5", "--seed", "2", "--out", str(txt)]) == 0
    argv = ["mix", "--stats", str(stats), "--sample", "40", "--sources", f"num={num},txt={txt}", "--no-repeats"]
    out = tmp_path / "mix.jsonl"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(argv + ["--out", str(out)]) == 1
    assert "exhausted" in capsys.readouterr().err
    _assert_failed_cleanly(tmp_path, out, before)

    out.write_bytes(b"previous contents\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(argv + ["--out", str(out)]) == 1
    assert out.read_bytes() == b"previous contents\n"
    _assert_failed_cleanly(tmp_path, out, before)


def test_audit_counts_a_lone_surrogate(tmp_path):
    source = tmp_path / "surrogate.jsonl"
    source.write_text(_BAD_INPUT_FILES["surrogate.jsonl"], encoding="utf-8")
    assert run(["audit", "--in", str(source), "--out", str(tmp_path / "audit.json")]) == 0
    assert json.loads((tmp_path / "audit.json").read_text(encoding="utf-8"))["total"] == 1


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(path.stat().st_size // 2)


def _rewrite_a_byte(path):
    # Same size; the mtime is moved on explicitly, as on some file systems
    # timestamps are coarser than a fast test.
    data = path.read_bytes()
    index = data.rindex(b'"source_id": "') + len(b'"source_id": "')
    with open(path, "r+b") as handle:
        handle.seek(index)
        handle.write(b"x" if data[index : index + 1] != b"x" else b"y")
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


@pytest.mark.parametrize("change", [_truncate, _rewrite_a_byte], ids=["truncated", "same-size"])
@pytest.mark.parametrize("source", ["num", "nc"])
def test_mix_source_changed_in_place_while_drawing_is_one_error(tmp_path, monkeypatch, capsys, change, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nc.jsonl").write_bytes(NONCANONICAL_SOURCE)
    assert run(["gen-num", "--count", "20", "--seed", "3", "--out", "num.jsonl"]) == 0
    (tmp_path / "stats.json").write_text(json.dumps([{"name": "nc", "length": 9}, {"name": "num", "length": 20}]))
    real_sample_stream = cli.sample_stream

    def changing_stream(*args, **kwargs):
        for index, draw in enumerate(real_sample_stream(*args, **kwargs)):
            if index == 1:
                change(tmp_path / f"{source}.jsonl")
            yield draw

    monkeypatch.setattr(cli, "sample_stream", changing_stream)
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["mix", "--stats", "stats.json", "-T", "10", "--sample", "60", "--sources", "nc=nc.jsonl,num=num.jsonl"]
    capsys.readouterr()
    assert run(argv + ["--out", "mix.jsonl"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        f"error: source {source}.jsonl changed while mix read it"
    ], err
    assert "Traceback" not in err
    _assert_failed_cleanly(tmp_path, tmp_path / "mix.jsonl", before)


def test_ingest_failing_on_a_late_record_leaves_no_output(tmp_path, capsys):
    qas = [drop_qa(f"How many in lot {i}?", f"q{i}", drop_answer(number=str(i))) for i in range(30)]
    qas.append(drop_qa("   ", "q-empty", drop_answer(number="1")))
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps(build_drop_file({"p": ("Lots were counted.", qas)})), encoding="utf-8")
    out = tmp_path / "drop.jsonl"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["ingest", "--format", "drop", "--in", str(gold), "--out", str(out)]) == 1
    assert "question must be non-empty" in capsys.readouterr().err
    _assert_failed_cleanly(tmp_path, out, before)

    out.write_bytes(b"previous contents\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["ingest", "--format", "drop", "--in", str(gold), "--out", str(out)]) == 1
    assert out.read_bytes() == b"previous contents\n"
    _assert_failed_cleanly(tmp_path, out, before)
