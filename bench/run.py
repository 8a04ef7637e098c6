#!/usr/bin/env python3
"""numtext benchmark: three workloads timed end to end per subcommand, plus a traced run.

Run from the repository root; stdlib only, one worker process at a time.

Every end-to-end metric, by name and unit, for each workload::

    python3 bench/run.py --workload all --seed 1 --seconds 30

prints, per workload, ``setup_s``, ``wall_s``, ``records_per_s``,
``peak_rss_mb``, ``error_rate`` and the wall time of each command the
workload runs (``gen_num_s``, ``gen_txt_s``; ``mix_s``, ``audit_s``;
``ingest_s``, ``derive_class_s``, ``score_s``) with its
``output_sha256``. One workload::

    python3 bench/run.py --workload synth --seed 1 --seconds 30 --trace 0

ends its output with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` whose metrics are the ``end_to_end`` list of
``BENCHMARK.json``. The per-command times, ``error_rate`` (``failed`` /
``attempted``) and everything else go to the lines above it and to
``bench/out/<workload>-seed<N>-trace0.json``.

The traced run::

    python3 bench/run.py --workload synth --seed 1 --seconds 30 --trace 1

runs the same commands in this process through ``numtext.cli.run``,
alternating untraced and traced rounds, and reports the ``per_layer``
metrics of ``BENCHMARK.json`` (medians over traced rounds), including
``trace.overhead_s`` (traced minus untraced wall time). It writes the
spans and counts of its last traced round to
``bench/out/<workload>-seed<N>-spans.json`` and the full record to
``bench/out/<workload>-seed<N>-trace1.json``.

Untraced rounds run each command in a fresh ``python -m numtext.cli``
subprocess, because that is how users run the tool; wall time includes
interpreter start-up, and peak RSS is the child's ``ru_maxrss`` from
``os.wait4``. A run repeats whole rounds until ``--seconds`` have passed
and reports medians over rounds. Inputs come from ``--seed`` only. After
timing, every output is checked (see ``checks.py``) and every repeat of
a command must have produced the same SHA-256; a failed check or exit
code counts as a failed operation.

Each round also runs ``reference.py``, a fixed program that does not use
``numtext``. All reported times (and ``records_per_s``) are scaled by
``REFERENCE_NOMINAL_S / median(reference wall time)``: seconds on a host
where the reference takes 0.4 s. On a shared host the machine's speed
drifts by 25% or more over minutes. The program and the reference drift
together, so the scaled numbers stay steady. The unscaled medians and the
scale factor are printed as well and recorded in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = BENCH / "out"
WORK = BENCH / "work"

SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
MIN_ROUNDS = 3
STARTUP_PROBES = 5
COMMAND_TIMEOUT_S = 150.0
#: Reported times are scaled to a host on which reference.py takes this long.
REFERENCE_NOMINAL_S = 0.4


class Command(NamedTuple):
    """One CLI invocation; ``metric`` names its per-command wall time, if reported."""

    name: str
    argv: list[str]
    out: str
    metric: str | None = None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Synth:
    """gen-num then gen-txt, default flags, same count and seed."""

    name = "synth"
    count = 3000

    def write_inputs(self, work: Path, seed: int) -> dict:
        return {}

    def commands(self, seed: int) -> list[Command]:
        common = ["--count", str(self.count), "--seed", str(seed)]
        return [
            Command("gen-num", ["gen-num", *common, "--out", "num.jsonl"], "num.jsonl", "gen_num_s"),
            Command("gen-txt", ["gen-txt", *common, "--out", "txt.jsonl"], "txt.jsonl", "gen_txt_s"),
        ]

    def records(self) -> int:
        return 2 * self.count

    def check(self, work: Path, context: dict, oracles, numtext) -> dict:
        """Output checks per command, as thunks run after timing."""
        return {
            "gen-num": lambda: checks.check_num(work / "num.jsonl", self.count, oracles),
            "gen-txt": lambda: checks.check_examples(work / "txt.jsonl", self.count, numtext.corpus.example_from_json),
        }

    def properties(self, work: Path, context: dict) -> dict:
        return {"count_per_command": self.count}

    sources: dict = {}


class MultitaskPrep:
    """mix at T=10 over four written sources, then audit, lr-table and pipeline."""

    name = "multitask_prep"
    sizes = {"NUM": 8000, "TXT": 8000, "DROP": 6000, "SQuAD": 6000}
    # source name -> (source_id prefix, records), to attribute drawn records
    sources = {name: (inputs.SOURCE_PREFIXES[name], size) for name, size in sizes.items()}
    sample = 12000
    encoder_max, decoder_max = 512, 54
    # Batch 32 gives 96k/32 = 3000 steps per DROP epoch; 10 epochs with 10%
    # warmup give 3000 warmup rows plus one row for each of the other 9 epochs.
    epochs, batches_per_epoch, batch_size, lr_rows = 10, 3000, 32, 3009

    def write_inputs(self, work: Path, seed: int) -> dict:
        return inputs.write_multitask(work, seed, self.sizes)

    def commands(self, seed: int) -> list[Command]:
        sources = ",".join(f"{name}=src-{name}.jsonl" for name in self.sizes)
        return [
            Command("mix", [
                "mix", "--stats", "mix-stats.json", "-T", "10", "--sample", str(self.sample),
                "--sources", sources, "--seed", str(seed), "--out", "mix.jsonl",
            ], "mix.jsonl", "mix_s"),
            Command("audit", ["audit", "--in", "mix.jsonl", "--out", "audit.json"], "audit.json", "audit_s"),
            Command("lr-table", [
                "lr-table", "--epochs", str(self.epochs), "--batches-per-epoch", str(self.batches_per_epoch),
                "--out", "lr.csv",
            ], "lr.csv"),
            Command("pipeline", [
                "pipeline", "--name", "multitask", "--stats", "pipeline-stats.json",
                "--batch-size", str(self.batch_size), "--seed", str(seed), "--out", "pipeline.json",
            ], "pipeline.json"),
        ]

    def records(self) -> int:
        return 2 * self.sample  # drawn by mix, then audited

    def check(self, work: Path, context: dict, oracles, numtext) -> dict:
        mix = work / "mix.jsonl"

        def audit():
            context["expected_audit"] = checks.expected_audit(mix, self.encoder_max, self.decoder_max)
            return checks.check_audit(work / "audit.json", self.sample, context["expected_audit"])

        return {
            "mix": lambda: checks.check_mix(mix, self.sample, context["lines"]),
            "audit": audit,
            "lr-table": lambda: checks.check_lr_table(work / "lr.csv", self.lr_rows),
            "pipeline": lambda: checks.check_pipeline(work / "pipeline.json", "multitask", 3),
        }

    def properties(self, work: Path, context: dict) -> dict:
        per_source = {}
        for name, lines in context["lines"].items():
            digit_tokens = sum(checks.token_counts(json.loads(line)["input"])[1] for line in lines)
            per_source[name] = {"records": len(lines), "mean_digit_tokens_per_input": digit_tokens / len(lines)}
        return {
            "sample": self.sample,
            "source_records_total": sum(self.sizes.values()),
            "sources": per_source,
            "expected_audit": context.get("expected_audit"),
            "encoder_max": self.encoder_max,
            "decoder_max": self.decoder_max,
        }


class DropEval:
    """ingest --format drop, derive-class and score over a written gold/predictions pair."""

    name = "drop_eval"
    passages, per_passage = 800, 10

    def write_inputs(self, work: Path, seed: int) -> dict:
        return inputs.write_drop_eval(work, seed, self.passages, self.per_passage)

    def commands(self, seed: int) -> list[Command]:
        return [
            Command("ingest", ["ingest", "--format", "drop", "--in", "drop-gold.json", "--out", "drop.jsonl"],
                    "drop.jsonl", "ingest_s"),
            Command("derive-class", ["derive-class", "--in", "drop-gold.json", "--out", "class.jsonl"],
                    "class.jsonl", "derive_class_s"),
            Command("score", ["score", "--gold", "drop-gold.json", "--pred", "predictions.jsonl", "--out", "score.json"],
                    "score.json", "score_s"),
        ]

    def records(self) -> int:
        return 3 * self.passages * self.per_passage  # ingested, classified, scored

    def check(self, work: Path, context: dict, oracles, numtext) -> dict:
        expected = context["expected"]
        return {
            "ingest": lambda: checks.check_ingest(work / "drop.jsonl", expected, "answer_me"),
            "derive-class": lambda: checks.check_ingest(work / "class.jsonl", expected, "classify_me"),
            "score": lambda: checks.check_score(work / "score.json", expected, oracles),
        }

    def properties(self, work: Path, context: dict) -> dict:
        types: dict[str, int] = {}
        alignment: dict[int, int] = {}
        for want in context["expected"].values():
            types[want["type"]] = types.get(want["type"], 0) + 1
            pred_spans = len(want["prediction"].split("; "))
            for gold in want["golds"]:
                gold_spans = len(gold["spans"]) if want["type"] == "spans" or want["type"] == "span" else 1
                size = max(pred_spans, gold_spans)
                alignment[size] = alignment.get(size, 0) + 1
        return {
            "passages": self.passages,
            "questions": len(context["expected"]),
            "answer_types": types,
            "pairs_by_alignment_size": {str(k): alignment[k] for k in sorted(alignment)},
        }

    sources: dict = {}


WORKLOADS = {w.name: w for w in (Synth(), MultitaskPrep(), DropEval())}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

class Spawner:
    """Runs ``numtext`` commands in fresh interpreters through ``spawner.py``."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], work: Path) -> tuple[float, float, float, int]:
        """(wall s, peak RSS MB, CPU s, exit code) of one ``python -m numtext.cli`` run."""
        return self._run(["-m", "numtext.cli", *argv], work)

    def reference(self, work: Path) -> float:
        """Wall seconds of one run of ``reference.py``."""
        wall, _, _, code = self._run([str(BENCH / "reference.py")], work)
        if code != 0:
            raise SystemExit(f"error: reference.py exited {code}: {(work / 'stderr.txt').read_text()}")
        return wall

    def _run(self, args: list[str], work: Path) -> tuple[float, float, float, int]:
        request = {
            "argv": [sys.executable, *args],
            "cwd": str(work),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "stderr": str(work / "stderr.txt"),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: the command spawner exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["maxrss_kb"] / 1024, reply["cpu_s"], reply["code"]


def run_in_process(cli, argv: list[str], work: Path) -> tuple[float, int]:
    """Call ``numtext.cli.run`` with ``work`` as the working directory: (wall s, exit code)."""
    previous = os.getcwd()
    sink = io.StringIO()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.run(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return wall, code


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Ledger:
    """Per-command runs, failures and output digests for one workload run."""

    def __init__(self, commands: list[Command]):
        self.commands = commands
        self.runs = {cmd.name: 0 for cmd in commands}
        self.failed = {cmd.name: 0 for cmd in commands}
        self.digests = {cmd.name: None for cmd in commands}
        self.errors: dict[str, list[str]] = {cmd.name: [] for cmd in commands}

    def record(self, cmd: Command, code: int, work: Path, detail: str = "") -> None:
        self.runs[cmd.name] += 1
        digest = sha256(work / cmd.out) if code == 0 else None
        if code != 0:
            self.failed[cmd.name] += 1
            self.errors[cmd.name].append(f"exit {code}: {detail.strip()[-300:]}")
        elif self.digests[cmd.name] is None:
            self.digests[cmd.name] = digest
        elif digest != self.digests[cmd.name]:
            self.failed[cmd.name] += 1
            self.errors[cmd.name].append(f"output sha256 {digest} differs from first run {self.digests[cmd.name]}")

    def apply_checks(self, thunks: dict) -> None:
        """Run each command's output check; an unreadable output fails it too."""
        for name, thunk in thunks.items():
            try:
                messages = thunk()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                messages = [f"output unreadable: {type(exc).__name__}: {exc}"]
            if messages:
                self.failed[name] = self.runs[name]  # every run wrote the same bytes
                self.errors[name].extend(messages)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def load_program():
    """Import the checkout's ``numtext`` and the test oracles into this process."""
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numtext.cli  # noqa: F401  (imports every layer module)
    import oracles

    if Path(numtext.__file__).resolve().parent != SRC / "numtext":
        raise SystemExit(f"error: imported numtext from {numtext.__file__}, not {SRC}")
    return sys.modules["numtext"], oracles


def setup(workload, spawner: Spawner, work: Path, seed: int, repeats: int, seconds: float) -> tuple[dict, list[float]]:
    """Write the inputs and start the program once, ``repeats`` times and for ``seconds``; inputs must not vary."""
    times, digests, context = [], None, {}
    deadline = time.perf_counter() + seconds
    while len(times) < repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        context = workload.write_inputs(work, seed)
        _, _, _, code = spawner.run(["--version"], work)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"error: numtext --version exited {code}: {(work / 'stderr.txt').read_text()}")
        written = {p.name: sha256(p) for p in sorted(work.iterdir()) if p.name != "stderr.txt"}
        if digests is not None and written != digests:
            raise SystemExit("error: benchmark inputs differ between set-ups of one seed")
        digests = written
    return context, times


def run_untraced(spawner: Spawner, work: Path, seconds: float, ledger: Ledger) -> dict:
    commands = ledger.commands
    walls = {cmd.name: [] for cmd in commands}
    rss = {cmd.name: [] for cmd in commands}
    cpu = {cmd.name: [] for cmd in commands}
    rounds, reference = [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        reference.append(spawner.reference(work))
        total = peak = 0.0
        for cmd in commands:
            wall, peak_mb, cpu_s, code = spawner.run(cmd.argv, work)
            detail = (work / "stderr.txt").read_text(errors="replace") if code else ""
            ledger.record(cmd, code, work, detail)
            walls[cmd.name].append(wall)
            rss[cmd.name].append(peak_mb)
            cpu[cmd.name].append(cpu_s)
            total += wall
            peak = max(peak, peak_mb)
        rounds.append((total, peak))
    return {"walls": walls, "rss": rss, "cpu": cpu, "rounds": rounds, "reference": reference}


def run_traced(workload, spawner: Spawner, work: Path, seconds: float, ledger: Ledger, context: dict, numtext, seed: int):
    """Alternate untraced and traced in-process rounds; per-layer medians over traced rounds."""
    cli = numtext.cli
    tracer = tracing.Tracer(workload.sources)
    untraced, traced, per_round = [], [], []
    names, spans, counts = [], [], {}

    def one_round() -> float:
        total = 0.0
        for cmd in ledger.commands:
            try:
                wall, code = run_in_process(cli, cmd.argv, work)
                detail = ""
            except Exception as exc:  # a crash in the program is a failed operation, not a benchmark crash
                wall, code, detail = 0.0, 1, f"{type(exc).__name__}: {exc}"
            ledger.record(cmd, code, work, detail)
            total += wall
        return total

    one_round()  # warm-up: lazy imports and caches fill before anything is timed
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(one_round())
        with tracer:
            wall = one_round()
        names, spans, counts, plan_ratios = tracer.reset()
        metrics = tracing.layer_metrics(tracing.analyse(names, spans), counts, tracer.sources, plan_ratios)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - self_sum
        traced.append(wall)
        per_round.append(metrics)
    layer = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        layer[key] = statistics.median_low(values) if all(isinstance(v, int) for v in values) else median(values)
    layer["trace.overhead_s"] = median(traced) - median(untraced)
    startup = [spawner.run(["--version"], work)[0] for _ in range(STARTUP_PROBES)]
    layer["cli.startup_s"] = median(startup)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"names": names, "spans": spans, "counts": counts,
                   "fields": ["name_index", "start_s", "end_s", "parent_span"]}, handle)
    return layer, {"untraced_walls": untraced, "traced_walls": traced, "startup_walls": startup,
                   "spans_file": str(spans_path.relative_to(ROOT))}


def run_workload(workload, spawner: Spawner, seed: int, seconds: float, trace: bool) -> dict:
    numtext, oracles = load_program()
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    try:
        repeats, setup_seconds = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS)
        context, setup_times = setup(workload, spawner, work, seed, repeats, setup_seconds)
        ledger = Ledger(workload.commands(seed))
        if trace:
            metrics, samples = run_traced(workload, spawner, work, seconds, ledger, context, numtext, seed)
            commands = {}
        else:
            samples = run_untraced(spawner, work, seconds, ledger)
            scale = REFERENCE_NOMINAL_S / median(samples["reference"])
            round_walls = [total for total, _ in samples["rounds"]]
            raw = {
                "setup_s": median(setup_times),
                "wall_s": median(round_walls),
                "records_per_s": median([workload.records() / wall for wall in round_walls]),
            }
            metrics = {
                "setup_s": raw["setup_s"] * scale,
                "wall_s": raw["wall_s"] * scale,
                "records_per_s": raw["records_per_s"] / scale,
                "peak_rss_mb": median([peak for _, peak in samples["rounds"]]),
            }
            samples.update(raw_metrics=raw, host_scale=scale)
            commands = {
                cmd.name: {
                    "metric": cmd.metric,
                    "wall_s": median(samples["walls"][cmd.name]) * scale,
                    "raw_wall_s": median(samples["walls"][cmd.name]),
                    "cpu_s": median(samples["cpu"][cmd.name]),
                    "peak_rss_mb": median(samples["rss"][cmd.name]),
                    "runs": len(samples["walls"][cmd.name]),
                }
                for cmd in ledger.commands
            }
        ledger.apply_checks(workload.check(work, context, oracles, numtext))
        for cmd in ledger.commands:
            commands.setdefault(cmd.name, {})["output_sha256"] = ledger.digests[cmd.name]
        properties = workload.properties(work, context)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload.name,
        "trace": int(trace),
        "correct": ledger.failures == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failures,
        "error_rate": ledger.failures / ledger.attempted,
        "metrics": metrics,
        "commands": commands,
        "errors": {name: errs for name, errs in ledger.errors.items() if errs},
        "inputs": properties,
        "setup_times_s": setup_times,
        "samples": samples,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numtext": numtext.__version__,
            "seed": seed,
            "seconds": seconds,
        },
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def summary(result: dict, units: dict) -> list[str]:
    lines = [f"== {result['workload']} (trace {result['trace']}, seed {result['environment']['seed']})"]
    for name, unit in units.items():
        lines.append(f"  {name:<28} {result['metrics'][name]:>14.6g} {unit}")
    lines.append(f"  {'error_rate':<28} {result['error_rate']:>14.6g} ratio"
                 f"  ({result['failed']} failed of {result['attempted']} attempted)")
    for name, row in result["commands"].items():
        if row.get("metric"):
            lines.append(f"  {row['metric']:<28} {row['wall_s']:>14.6g} s  (median of {row['runs']} runs)")
    if "host_scale" in result["samples"]:
        raw = ", ".join(f"{key} {value:.6g}" for key, value in result["samples"]["raw_metrics"].items())
        lines.append(f"  times above are scaled by {result['samples']['host_scale']:.4f}; unscaled: {raw}")
    for name, row in result["commands"].items():
        lines.append(f"  output_sha256 {name:<14} {row['output_sha256']}")
    for name, errs in result["errors"].items():
        for message in errs[:3]:
            lines.append(f"  FAILED {name}: {message}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "numtext" / "cli.py", TESTS / "oracles.py") if not p.is_file()]
    if missing:
        print(f"error: not a numtext checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    units = declared_metrics()[args.trace]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    OUT.mkdir(parents=True, exist_ok=True)
    with Spawner() as spawner:  # started first, while this process is still small
        for name in names:
            results[name] = report(run_workload(WORKLOADS[name], spawner, args.seed, args.seconds, bool(args.trace)), units)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


def report(result: dict, units: dict) -> dict:
    """Write the full record, print the summary, and return the contract's result object."""
    name, seed = result["workload"], result["environment"]["seed"]
    (OUT / f"{name}-seed{seed}-trace{result['trace']}.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(summary(result, units)), flush=True)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": result["metrics"][key], "unit": unit} for key, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
