"""Pinned SHA-256 of every CLI output at fixed seeds.

Each command runs inside a scratch directory on relative paths, so the
config hashes embedded in the outputs do not depend on where the test
runs. A change that keeps these digests keeps every output byte; a change
that means to alter an output must update its digest here and say why.
"""

import hashlib
import json

import pytest

from numtext.cli import run

from conftest import NONCANONICAL_SOURCE, build_drop_file, drop_answer, drop_qa, typed_drop_file

SEED = "301"
#: 10^30, past the 28 digits of the default decimal context.
WIDE = str(10**30)

#: case -> (argv, output file or "-" for stdout, SHA-256 of that output)
CASES = {
    "gen-num-examples": (
        ["gen-num", "--count", "25", "--seed", SEED, "--max-frac-digits", "1", "--out", "out"],
        "out",
        "0173ab0185d00d8019dbb5e1cc2390e4c9c44e2ec360d8a79c4e1f5187966b6f",
    ),
    "gen-num-raw": (
        ["gen-num", "--count", "25", "--seed", SEED, "--emit", "raw", "--out", "out"],
        "out",
        "916367c98cbb8a8868c8bd7986c378c35f1a369d60d24276e8544a94954b7cb6",
    ),
    "gen-num-dump-config": (
        ["gen-num", "--count", "25", "--seed", SEED, "--families", "addition_sub=2,argmax_like",
         "--dump-config", "out", "--out", "ignored"],
        "out",
        "4d44a402b2ae60c8e90ae3468d755ea26150617a02ce3469c2fb3dbec591e70b",
    ),
    "gen-num-from-config": (
        ["gen-num", "--config", "gen-num.cfg", "--seed", "302", "--out", "out"],
        "out",
        "2e9456d84462ffa2a8464445abd409447bfa024d701e51d8156e2d75278b0745",
    ),
    "gen-num-wide": (
        ["gen-num", "--count", "25", "--seed", SEED, "--max-frac-digits", "4", "--max-value", WIDE, "--out", "out"],
        "out",
        "ed1a6179f5be84ce0e66a5eca7d4819b7b16c9c796726acce7562af173fa7c0d",
    ),
    "gen-txt-examples": (
        ["gen-txt", "--count", "25", "--seed", SEED, "--frac-digits", "1", "--out", "out"],
        "out",
        "b84f504d33a9879aa08bd9f2fe5fa445e215561d37e66486896212659335c839",
    ),
    "gen-txt-raw": (
        ["gen-txt", "--count", "25", "--seed", SEED, "--emit", "raw", "--out", "out"],
        "out",
        "b436821d2a6a22edfed93ec216e98edaf40b354e16f1019e01737caf25f4489d",
    ),
    "gen-txt-dump-config": (
        ["gen-txt", "--count", "25", "--seed", SEED, "--dump-config", "out", "--out", "ignored"],
        "out",
        "c3298e152f2af7c21b8acf3635072619370916b553bf56657b521770185238f0",
    ),
    "gen-txt-from-config": (
        ["gen-txt", "--config", "gen-txt.cfg", "--out", "out"],
        "out",
        "e4f825b7c11c7c1cdd79a7ee7153c3d1ba064aae9b0085a31cb0fb6c6016e336",
    ),
    "gen-txt-wide": (
        ["gen-txt", "--count", "25", "--seed", SEED, "--frac-digits", "2", "--max-quantity", WIDE, "--out", "out"],
        "out",
        "4b3cbe2e028d5096d190131b0eb780d1e53179cd03dc00817d971bb3a782f7d7",
    ),
    "ingest-drop": (
        ["ingest", "--format", "drop", "--in", "drop.json", "--out", "out"],
        "out",
        "6d84508b07cb725029a0fac0d266fa5d753107f8ee9ec92928326cb8f03abf3f",
    ),
    "ingest-squad": (
        ["ingest", "--format", "squad", "--in", "squad.json", "--out", "out"],
        "out",
        "f2e3a3d3c4dc9c22dcea396f9b97b1fcd34a35a01586d3fb5fa94210c9fcf9e4",
    ),
    "derive-class": (
        ["derive-class", "--in", "drop.json", "--out", "out"],
        "out",
        "b2f0570c70eea3ebf62746105e4916be0d94f31e9603769c45a4d695438bcf44",
    ),
    "mix-plan": (
        ["mix", "--stats", "paper-stats.json", "-T", "10"],
        "-",
        "b528325c2540090f3f9b427511f08c191db7859ea43e8f1ef468013cbd5160ca",
    ),
    "mix-sample": (
        ["mix", "--stats", "mix-stats.json", "-T", "2", "--sample", "90",
         "--sources", "num=num.jsonl,txt=txt.jsonl,drop=drop.jsonl", "--seed", SEED, "--out", "out"],
        "out",
        "cfe908c557922a77c6dd8969cf0f2400fe282643657f886267a03408d217995f",
    ),
    "mix-noncanonical": (
        ["mix", "--stats", "nc-stats.json", "-T", "10", "--sample", "60",
         "--sources", "nc=noncanonical.jsonl,num=num.jsonl", "--seed", SEED, "--out", "out"],
        "out",
        "90631f31677f1915e7e60084c633c215f7dab2cd4eec36599ff4ba14dff28857",
    ),
    "audit": (
        ["audit", "--in", "txt.jsonl", "--encoder-max", "40", "--decoder-max", "1", "--out", "out"],
        "out",
        "0a3ffd4c3cafd342b8d87092464d3915935f0e4f9ab2f73efd571e3acbe61815",
    ),
    "audit-unicode": (
        ["audit", "--in", "unicode.jsonl", "--encoder-max", "6", "--decoder-max", "2", "--out", "out"],
        "out",
        "848325e306a437e649423e8b978b45012f18ef9d9e434b7757d2e27cc82d8145",
    ),
    "score": (
        ["score", "--gold", "drop.json", "--pred", "pred.jsonl", "--out", "out"],
        "out",
        "e62a54349860d97a7aec859d539671d7e73cd2ce9156a33d862e5997155be081",
    ),
    "lr-table": (
        ["lr-table", "--epochs", "3", "--batches-per-epoch", "7", "--out", "out"],
        "out",
        "2553a117ea359189041c9d81146f437063efa14ed7100450872cf7b14a083f47",
    ),
    "lr-table-stdout": (
        ["lr-table", "--config", "lr.cfg", "--warmup-end", "0.001"],
        "-",
        "1523dfc3e1927b3bf981c5dd17ec1f95058226a7fcbaa268934753092fad1abe",
    ),
    "lr-table-dump-config": (
        ["lr-table", "--epochs", "2", "--batches-per-epoch", "5", "--dump-config", "out", "--out", "ignored"],
        "out",
        "acbe36fde55a4211a440af2543ec68505d97ae3db6ce1957c4e43639fa07a2e3",
    ),
    "pipeline-multitask": (
        ["pipeline", "--name", "multitask", "--stats", "paper-stats.json", "--batch-size", "32",
         "--seed", SEED, "--out", "out"],
        "out",
        "a526e9e667e84bfa4697680f2f20cb1212fd534a17a5e6fbd5fcfcba6e4eed82",
    ),
    "pipeline-list": (
        ["pipeline", "--list"],
        "-",
        "e1cb9ff0e8d9ba536b54d7e3879bd3bdd70c8c2df0c13cbdf9663de779744156",
    ),
    "pipeline-spec": (
        ["pipeline", "--spec", "spec.json", "--stats", "paper-stats.json", "--batch-size", "32",
         "--seed", SEED, "--out", "out"],
        "out",
        "2aaa4fc2bb79b9b1829ded3e029649aa4f8b2646cd59b492f9fd54f74908817c",
    ),
}

#: (input, target) pairs whose token counts sit at the audit-unicode limits
#: (6 and 2), so one token more or less flips a count: accented letters
#: ("à" is the bytes C3 A0), NBSP, Arabic-Indic digits and 4-byte digits.
UNICODE_TEXTS = [
    ("answer_me: déjàvu café 12 naïve", "déjàvu à-la"),
    ("answer_me: 5\xa0kg\xa0rice was sold today", "5\xa0kg\xa0rice"),
    ("answer_me: room \u0663\u0664 is open now", "\u0663\u0664\u0665"),
    ("answer_me: \U0001d7d8\U0001d7d9 and \U0001d7da ok fine", "\U0001d7d8\U0001d7d9"),
    ("answer_me: plain 1 ascii text here", "12"),
    ("answer_me: plain 12 ascii text here", "1 2 3"),
]

#: A spec that leaves ``validation``, ``temperature`` and ``mode`` to their
#: defaults in its first stage and gives an integer temperature in its second.
SPEC = {
    "name": "mine",
    "stages": [
        {"name": "pretrain", "datasets": ["DROP", "NUM", "TXT"]},
        {"name": "finetune", "datasets": ["DROP", "DROP-class"], "temperature": 10, "mode": "drop_epoch_exception"},
    ],
}

PAPER_STATS = [
    {"name": "DROP", "length": 96_000},
    {"name": "DROP-class", "length": 96_000},
    {"name": "NUM", "length": 1_000_000},
    {"name": "TXT", "length": 2_000_000},
    {"name": "SQuAD", "length": 87_599},
]


def _write_json(path, value):
    path.write_text(json.dumps(value), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch, squad_file):
    """A directory holding every input the cases read, as the cwd."""
    monkeypatch.chdir(tmp_path)
    drop = typed_drop_file({"number": 6, "span": 3, "spans": 2, "date": 1})
    drop.update(
        build_drop_file(
            {
                "p2": (
                    "The Bears kicked a 39-yard field goal and a 22-yard field goal.",
                    [
                        drop_qa(
                            "How long was the first field goal?",
                            "p2-q1",
                            drop_answer(number="39"),
                            validated=[drop_answer(number="39"), drop_answer()],
                        ),
                        drop_qa("Which kicks were made?", "p2-q2", drop_answer()),
                    ],
                )
            }
        )
    )
    _write_json(tmp_path / "drop.json", drop)
    predictions = [
        {"id": "q0001", "prediction": "1"},
        {"id": "q0002", "prediction": "3"},
        {"id": "q0003", "prediction": "3.0"},
        {"id": "q0007", "prediction": "the owner 7"},
        {"id": "q0010", "prediction": "team 10b; team 10a"},
        {"id": "q0011", "prediction": "team 11a"},
        {"id": "q0012", "prediction": "3 March 1768"},
        {"id": "p2-q1", "prediction": "39 yards"},
    ]
    (tmp_path / "pred.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in predictions), encoding="utf-8"
    )
    _write_json(tmp_path / "paper-stats.json", PAPER_STATS)
    _write_json(tmp_path / "spec.json", SPEC)
    (tmp_path / "unicode.jsonl").write_text(
        "".join(
            json.dumps({"input": text, "target": target, "task": "answer_me", "answer_type": "span", "source_id": f"u{i}"},
                       ensure_ascii=False) + "\n"
            for i, (text, target) in enumerate(UNICODE_TEXTS)
        ),
        encoding="utf-8",
    )
    _write_json(
        tmp_path / "mix-stats.json",
        [{"name": "num", "length": 30}, {"name": "txt", "length": 30, "scale": 2.0}, {"name": "drop", "length": 14}],
    )
    (tmp_path / "noncanonical.jsonl").write_bytes(NONCANONICAL_SOURCE)
    _write_json(tmp_path / "nc-stats.json", [{"name": "nc", "length": 9}, {"name": "num", "length": 30}])
    _write_json(tmp_path / "gen-num.cfg", {"count": 12, "seed": 9, "max_value": "500", "emit": "examples"})
    _write_json(tmp_path / "gen-txt.cfg", {"count": 12, "seed": 9, "max_events": 4, "max_quantity": 9})
    _write_json(tmp_path / "lr.cfg", {"epochs": 2, "batches_per_epoch": 6, "decay_rate": 0.01})
    for argv in (
        ["gen-num", "--count", "30", "--seed", "11", "--out", "num.jsonl"],
        ["gen-txt", "--count", "30", "--seed", "12", "--out", "txt.jsonl"],
        ["ingest", "--format", "drop", "--in", "drop.json", "--out", "drop.jsonl"],
    ):
        assert run(argv) == 0, argv
    assert squad_file.name == "squad.json"
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, workdir, capsys):
    argv, output, digest = CASES[case]
    capsys.readouterr()
    assert run(argv) == 0
    captured = capsys.readouterr()
    data = captured.out.encode("utf-8") if output == "-" else (workdir / output).read_bytes()
    assert data, case
    assert hashlib.sha256(data).hexdigest() == digest
