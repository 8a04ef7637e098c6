"""A command runs only the layers it uses and starts without OpenSSL or
``dataclasses``, ``import numtext.cli`` still binds every layer, as the
benchmark's tracer and checks expect, and no module is big enough to cost
every command more memory to compile.

Each case runs in a fresh interpreter. ``cli`` binds each layer lazily: the
module's class becomes ``types.ModuleType`` when its code first runs, and
``type()`` does not run it, so the class tells which layers ran.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from numtext.cli import run

from conftest import build_drop_file, drop_answer, drop_qa

SRC = Path(__file__).resolve().parent.parent / "src"

#: Each layer with a public function of its own that a command or the benchmark calls.
LAYERS = {
    "corpus": "example_from_json",
    "decimals": "render",
    "gold": "ingest_drop",
    "mixing": "sample_stream",
    "numgen": "generate_num",
    "pipelines": "expand",
    "schedule": "emit_table",
    "scoring": "score_pair",
    "seeding": "derive_seed",
    "shard": "write_blocks",
    "txtgen": "generate_txt",
}

_RUN_AND_LIST_LAYERS_RUN = """
import sys, types
import numtext.cli
code = numtext.cli.run(sys.argv[1:])
ran = [name for name in %r if type(sys.modules["numtext." + name]) is types.ModuleType]
print(json.dumps([code, ran]))
"""


def _python(code: str, *argv: str, cwd: Path) -> str:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in paths if path)}
    done = subprocess.run(
        [sys.executable, "-c", "import json\n" + code, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.fixture
def inputs(tmp_path):
    assert run(["gen-num", "--count", "20", "--seed", "1", "--out", str(tmp_path / "num.jsonl")]) == 0
    assert run(["gen-txt", "--count", "20", "--seed", "2", "--out", str(tmp_path / "txt.jsonl")]) == 0
    (tmp_path / "stats.json").write_text(json.dumps([{"name": "num", "length": 20}, {"name": "txt", "length": 20}]))
    qas = [drop_qa("How many lots?", "q1", drop_answer(number="3"))]
    (tmp_path / "gold.json").write_text(json.dumps(build_drop_file({"p": ("Three lots.", qas)})))
    (tmp_path / "pred.jsonl").write_text(json.dumps({"id": "q1", "prediction": "3"}) + "\n")
    stats = [{"name": name, "length": 100} for name in ("DROP", "DROP-class", "TXT", "NUM", "SQuAD")]
    (tmp_path / "pipeline-stats.json").write_text(json.dumps(stats))
    return tmp_path


@pytest.mark.parametrize(
    "argv, may_run",
    [
        pytest.param(["--version"], set(), id="version"),
        pytest.param(["--help"], set(), id="help"),
        pytest.param(["lr-table", "--epochs", "2", "--batches-per-epoch", "3", "--out", "lr.csv"], {"schedule"},
                     id="lr-table"),
        pytest.param(["score", "--gold", "gold.json", "--pred", "pred.jsonl", "--out", "report.json"],
                     {"corpus", "gold", "scoring", "shard"}, id="score"),
        pytest.param(["mix", "--stats", "stats.json", "-T", "2", "--sample", "8", "--sources",
                      "num=num.jsonl,txt=txt.jsonl", "--out", "mix.jsonl"],
                     set(LAYERS) - {"gold", "numgen", "txtgen", "scoring"}, id="mix"),
        pytest.param(["audit", "--in", "num.jsonl", "--out", "audit.json"], {"corpus", "shard"}, id="audit"),
        pytest.param(["gen-num", "--count", "20", "--seed", "3", "--out", "n.jsonl"],
                     set(LAYERS) - {"gold", "mixing", "pipelines", "schedule", "scoring", "txtgen"}, id="gen-num"),
        pytest.param(["gen-txt", "--count", "20", "--seed", "3", "--out", "t.jsonl"],
                     set(LAYERS) - {"gold", "mixing", "pipelines", "schedule", "scoring", "numgen"}, id="gen-txt"),
        pytest.param(["pipeline", "--name", "multitask", "--stats", "pipeline-stats.json", "--batch-size", "32",
                      "--seed", "3", "--out", "pipeline.json"], set(LAYERS) - {"gold", "numgen", "txtgen", "scoring"},
                     id="pipeline"),
    ],
)
def test_a_command_runs_only_its_layers(inputs, argv, may_run):
    code, ran = json.loads(_python(_RUN_AND_LIST_LAYERS_RUN % (tuple(LAYERS),), *argv, cwd=inputs))
    assert code == 0
    assert set(ran) <= may_run


def test_importing_cli_binds_every_layer_and_vars_runs_it(tmp_path):
    probe = """
import sys, types
import numtext, numtext.cli
modules = {name: sys.modules["numtext." + name] for name in %r}
found = {
    "bound": [name for name, module in modules.items() if vars(numtext)[name] is module],
    "ran on import": [name for name, module in modules.items() if type(module) is types.ModuleType],
    "functions": [name for name, function in %r.items() if vars(modules[name])[function].__module__ == "numtext." + name],
    "ran by vars": [name for name, module in modules.items() if type(module) is types.ModuleType],
}
print(json.dumps(found))
""" % (tuple(LAYERS), LAYERS)
    found = json.loads(_python(probe, cwd=tmp_path))
    assert found == {"bound": list(LAYERS), "ran on import": [], "functions": list(LAYERS), "ran by vars": list(LAYERS)}


#: Modules that no command needs: ``hashlib`` loads OpenSSL (through ``_hashlib``),
#: and ``dataclasses`` loads ``inspect`` and, through it, ``ast``, ``dis`` and ``tokenize``.
#: Where the interpreter has no ``_sha256`` (Python 3.12 renamed it), SHA-256 comes from ``hashlib``.
HEAVY = ("dataclasses", "inspect") + (("hashlib", "_hashlib") if importlib.util.find_spec("_sha256") else ())

_RUN_AND_LIST_HEAVY_MODULES_ADDED = """
import sys
before = set(sys.modules)
import numtext.cli
code = numtext.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(set(%r) & set(sys.modules) - before)]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--version"], id="version"),
        pytest.param(["--help"], id="help"),
        pytest.param(["gen-num", "--count", "20", "--seed", "3", "--out", "n.jsonl"], id="gen-num"),
        pytest.param(["gen-txt", "--count", "20", "--seed", "3", "--out", "t.jsonl"], id="gen-txt"),
        pytest.param(["ingest", "--format", "drop", "--in", "gold.json", "--out", "drop.jsonl"], id="ingest"),
        pytest.param(["derive-class", "--in", "gold.json", "--out", "class.jsonl"], id="derive-class"),
        pytest.param(["score", "--gold", "gold.json", "--pred", "pred.jsonl", "--out", "score.json"], id="score"),
        pytest.param(["mix", "--stats", "stats.json", "-T", "10", "--sample", "8", "--sources",
                      "num=num.jsonl,txt=txt.jsonl", "--seed", "3", "--out", "mix.jsonl"], id="mix-sample"),
        pytest.param(["audit", "--in", "num.jsonl", "--out", "audit.json"], id="audit"),
        pytest.param(["lr-table", "--epochs", "10", "--batches-per-epoch", "30", "--out", "lr.csv"], id="lr-table"),
        pytest.param(["pipeline", "--name", "multitask", "--stats", "pipeline-stats.json", "--batch-size", "32",
                      "--seed", "3", "--out", "pipeline.json"], id="pipeline"),
    ],
)
def test_a_command_starts_without_openssl_or_dataclasses(inputs, argv):
    code, added = json.loads(_python(_RUN_AND_LIST_HEAVY_MODULES_ADDED % (HEAVY,), *argv, cwd=inputs))
    assert code == 0
    assert added == []


#: CPython 3.11's parser doubles its token array each time it fills, and
#: without cached bytecode every command compiles the modules it imports, so
#: a module that passes this many tokens raises each command's peak RSS.
TOKEN_STEP = 8192


def _tokens(path: Path) -> int:
    """The tokens of a module that the parser keeps: all but comments, non-logical newlines and the encoding."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as source:
        return sum(1 for token in tokenize.tokenize(source.readline) if token.type not in skipped)


def test_every_module_stays_below_the_next_token_array_step():
    # This guard goes once the benchmark compiles bytecode before it times
    # a command (ROADMAP item 3): the compile cost then leaves every run.
    sizes = {path.name: _tokens(path) for path in sorted((SRC / "numtext").glob("*.py"))}
    assert sizes["corpus.py"] > 1000  # the count sees a module's code
    assert {name: size for name, size in sizes.items() if size >= TOKEN_STEP} == {}
