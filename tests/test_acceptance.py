"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print (they also appear in captured output with ``-rA``).
"""

import io
import json
import os
import random
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path


from numtext import corpus, txtgen
from numtext.cli import run
from numtext.corpus import Example, audit_truncation, write_examples
from numtext.gold import GoldAnswer, derive_answer_type, ingest_drop
from numtext.decimals import render
from numtext.mixing import check_stats, compute_plan, sample_stream
from numtext.numgen import NumGenConfig, eval_expr, generate_num
from numtext.pipelines import builtin_pipelines, expand
from numtext.schedule import LrSchedule
from numtext.scoring import score_pair, score_record
from numtext.txtgen import Event, WorldState, generate_txt

from conftest import typed_drop_file
from oracles import bf_score, oracle_eval, resimulate
from test_scoring import FIXTURE, _gold_from_dict, _record

PAPER_STATS = check_stats([
    {"name": "NUM", "length": 1_000_000},
    {"name": "TXT", "length": 2_000_000},
    {"name": "DROP", "length": 96_000},
])


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] C{number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"C{number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"[ACCEPTANCE] C{number} {label}: PASS ({elapsed:.2f}s)")


def test_c1_lr_schedule():
    with criterion(1, "lr-schedule endpoints and first decay step", 1.0):
        schedule = LrSchedule(total_epochs=10, batches_per_epoch=100)
        assert schedule.lr_at(0) == 1e-8
        assert schedule.lr_at(schedule.warmup_batches - 1) == 1e-4
        after = schedule.lr_at((schedule.warmup_epochs + 1) * 100)
        expected = 1e-4 / 1.001
        assert abs(after - expected) / expected < 1e-12


def test_c2_mixing():
    with criterion(2, "mixing ratios and sampler frequencies", 5.0):
        proportional = compute_plan(PAPER_STATS, 1.0)
        total = sum(stat["length"] for stat in PAPER_STATS)
        for stat, row in zip(PAPER_STATS, proportional.datasets):
            assert abs(row["p"] - stat["length"] / total) < 1e-12

        uniform = compute_plan(PAPER_STATS, 1e9)
        for row in uniform.datasets:
            assert abs(row["p"] - 1 / 3) < 1e-6

        flattened = compute_plan(PAPER_STATS, 10.0)
        assert flattened.ratios["TXT"] < proportional.ratios["TXT"]

        sources = {stat["name"]: list(range(2000)) for stat in PAPER_STATS}
        draws = Counter()
        for _, name in _tagged_stream(flattened, sources, 100_000, seed=12):
            draws[name] += 1
        for row in flattened.datasets:
            assert abs(draws[row["name"]] / 100_000 - row["p"]) <= 0.01


def _tagged_stream(plan, sources, total, seed):
    tagged = {name: [(name, item) for item in items] for name, items in sources.items()}
    for name, item in sample_stream(plan, tagged, total, seed=seed):
        yield item, name


def test_c3_num_generator():
    with criterion(3, "NUM oracle agreement and worked instances", 30.0):
        config = NumGenConfig()
        agreed = 0
        for example in generate_num(10_000, config, seed=42):
            expected = oracle_eval(example.expression, config.max_frac_digits)
            assert Fraction(render(example.answer)) == expected, example.expression
            agreed += 1
        assert agreed == 10_000
        assert eval_expr("0.1 + 0.2") == Decimal("0.3")
        assert eval_expr("517.4 - 17484 - 10071.75 + 1013.21") == Decimal("-26025.14")


def test_c4_txt_generator():
    with criterion(4, "TXT re-simulation agreement and conservation", 30.0):
        agreed = 0
        for example in generate_txt(10_000, seed=42):
            events = [event.to_json() for event in example.events]
            assert resimulate(events, example.question_spec.to_json()) == example.answer
            agreed += 1
        assert agreed == 10_000

        rng = random.Random(99)
        containers = ("A", "B", "C")
        for _ in range(1_000):
            state = WorldState()
            for name in containers:
                state.apply(Event(txtgen.OBSERVE, name, "e", Decimal(rng.randint(0, 50))))
            expected_total = state.total("e")
            for _ in range(rng.randint(1, 8)):
                source = rng.choice(containers)
                target = rng.choice([c for c in containers if c != source])
                held = state.count(source, "e")
                amount = Decimal(rng.randint(0, int(held)))
                state.apply(Event(txtgen.TRANSFER, source, "e", amount, target=target))
                assert state.total("e") == expected_total


def test_c5_evaluator():
    with criterion(5, "scorer fixture and hand-derived cases", 5.0):
        cases = json.loads(FIXTURE.read_text(encoding="utf-8"))
        assert len(cases) >= 50
        for case in cases:
            golds = [_gold_from_dict(raw) for raw in case["golds"]]
            em, f1 = score_record(_record(golds, case["id"]), case["prediction"])
            assert abs(em - case["em"]) < 1e-4, case["id"]
            assert abs(f1 - case["f1"]) < 1e-4, case["id"]
            # the fixture itself must still agree with the brute-force scorer
            bf_em, bf_f1 = bf_score(case["prediction"], case["golds"])
            assert bf_em == case["em"] and abs(bf_f1 - case["f1"]) < 1e-12

        em, f1 = score_pair("Kasay", GoldAnswer(spans=("John Kasay",)))
        assert em == 0.0 and abs(f1 - 2 / 3) < 1e-12
        _, gated_f1 = score_pair("13 million", GoldAnswer(spans=("12 million",)))
        assert gated_f1 == 0.0


def test_c6_corpus(tmp_path):
    with criterion(6, "corpus typing counts and truncation audit", 30.0):
        counts = {"number": 61, "span": 32, "spans": 5, "date": 2}
        data = typed_drop_file(counts)
        result = ingest_drop(io.BytesIO(json.dumps(data).encode()))
        assert len(result.records) == 100 and not result.errors
        derived = Counter(derive_answer_type(r.answers[0]) for r in result.records)
        assert dict(derived) == counts

        examples = [
            Example(
                input="answer_me: " + " ".join(["word"] * (600 if i < 4 else 10)),
                target="ok",
                task=corpus.ANSWER_ME,
            )
            for i in range(100)
        ]
        with open(tmp_path / "examples.jsonl", "wb") as sink:
            write_examples(examples, sink)
        audit = audit_truncation(tmp_path / "examples.jsonl", 512, 54)
        assert audit["encoder_fraction"] == 0.04

        real_drop = os.environ.get("NUMTEXT_DROP_TRAIN", "data/drop_dataset_train.json")
        if Path(real_drop).exists():
            real = ingest_drop(real_drop)
            derived = Counter(derive_answer_type(r.answers[0]) for r in real.records)
            total = sum(derived.values())
            for kind, expected_pct in (("number", 61), ("span", 32), ("spans", 6), ("date", 2)):
                observed_pct = 100 * derived[kind] / total
                assert abs(observed_pct - expected_pct) <= 5, (kind, observed_pct)
            print(f"  (real DROP train checked: {total} questions)")
        else:
            print("  (real DROP train file not present; fixture checks only)")


def test_c7_pipelines():
    with criterion(7, "five builtin pipelines and multitask steps", 5.0):
        specs = builtin_pipelines()
        assert len(specs) == 5
        by_name = {spec["name"]: spec for spec in specs}
        assert by_name["multitask"]["stages"][0]["datasets"] == ["DROP", "TXT", "NUM", "SQuAD"]
        assert by_name["multitask"]["stages"][0]["temperature"] == 10.0
        assert by_name["rc-2"]["stages"][0]["datasets"] == ["DROP", "DROP-class", "SQuAD"]
        assert by_name["rc-1"]["stages"][0]["datasets"] == ["DROP", "SQuAD"]
        assert [s["datasets"] for s in by_name["validation-1"]["stages"]] == [
            ["DROP", "NUM"], ["DROP", "TXT"], ["DROP", "DROP-class"], ["DROP"],
        ]
        assert by_name["validation-2"]["stages"][0]["validation"] == ["NUM"]

        stats = check_stats([
            {"name": "DROP", "length": 96_000},
            {"name": "DROP-class", "length": 96_000},
            {"name": "NUM", "length": 1_000_000},
            {"name": "TXT", "length": 2_000_000},
            {"name": "SQuAD", "length": 87_599},
        ])
        plan = expand(by_name["multitask"], stats, batch_size=32)
        assert plan["stages"][0]["steps"] == 3000
        for spec in specs:
            expand(spec, stats, batch_size=32)  # every builtin expands cleanly


def test_c8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns of generate/mix/expand", 30.0):
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(
            json.dumps(
                [
                    {"name": "num", "length": 60},
                    {"name": "txt", "length": 60},
                    {"name": "DROP", "length": 96_000},
                    {"name": "DROP-class", "length": 96_000},
                    {"name": "NUM", "length": 1_000_000},
                    {"name": "TXT", "length": 2_000_000},
                    {"name": "SQuAD", "length": 87_599},
                ]
            ),
            encoding="utf-8",
        )
        num_path = tmp_path / "num.jsonl"
        txt_path = tmp_path / "txt.jsonl"
        commands = {
            "gen-num": ["gen-num", "--count", "300", "--seed", "7", "--out"],
            "gen-txt": ["gen-txt", "--count", "300", "--seed", "7", "--out"],
        }
        outputs = {}
        for name, argv in commands.items():
            first, second = tmp_path / f"{name}-1.out", tmp_path / f"{name}-2.out"
            assert run(argv + [str(first)]) == 0
            assert run(argv + [str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
            outputs[name] = first
        # feed the generated files into a sampled mix
        assert run(["gen-num", "--count", "60", "--seed", "1", "--out", str(num_path)]) == 0
        assert run(["gen-txt", "--count", "60", "--seed", "2", "--out", str(txt_path)]) == 0
        mix = [
            "mix", "--stats", str(stats_path), "--temperature", "3", "--sample", "200",
            "--sources", f"num={num_path},txt={txt_path}", "--seed", "5", "--out",
        ]
        # mix only reads the stats it samples from; trim the stats file
        stats_path.write_text(
            json.dumps([{"name": "num", "length": 60}, {"name": "txt", "length": 60}]),
            encoding="utf-8",
        )
        first, second = tmp_path / "mix-1.jsonl", tmp_path / "mix-2.jsonl"
        assert run(mix + [str(first)]) == 0
        assert run(mix + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        stats_path.write_text(
            json.dumps(
                [
                    {"name": "DROP", "length": 96_000},
                    {"name": "DROP-class", "length": 96_000},
                    {"name": "NUM", "length": 1_000_000},
                    {"name": "TXT", "length": 2_000_000},
                    {"name": "SQuAD", "length": 87_599},
                ]
            ),
            encoding="utf-8",
        )
        expand_argv = [
            "pipeline", "--name", "multitask", "--stats", str(stats_path),
            "--batch-size", "32", "--seed", "3", "--out",
        ]
        first, second = tmp_path / "plan-1.json", tmp_path / "plan-2.json"
        assert run(expand_argv + [str(first)]) == 0
        assert run(expand_argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
