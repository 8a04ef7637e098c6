"""Command-line entry point.

Subcommands: gen-num, gen-txt, ingest, derive-class, mix, lr-table,
audit, score, pipeline. Every output embeds a metadata record (tool
version, seed, config hash), all randomness flows from the --seed flag,
outputs are streamed to a temp file that is renamed into place on success,
diagnostics go to stderr, and exit codes are 0 (ok), 1 (validation/config
error), 2 (I/O error).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path

from . import __version__
from .corpus import (
    SPAN_DELIMITER,
    IndexedExamples,
    LengthLimits,
    audit_truncation,
    count_tokens,
    ingest_drop,
    ingest_squad,
    is_json_number,
    iter_examples,
    iter_jsonl,
    load_json,
    make_classification_example,
    make_drop_example,
    make_squad_example,
    write_examples,
)
from .decimals import parse_decimal
from .errors import ConfigError, ToolkitError, ValidationError
from .mixing import DatasetStat, compute_plan, sample_stream
from .numgen import NumGenConfig, TemplateFamily, ValueRange, generate_num, num_to_example
from .pipelines import builtin_pipelines, expand, load_pipeline_spec
from .schedule import LrConfig, LrSchedule, emit_table
from .scoring import build_report
from .shard import write_blocks
from .txtgen import DEFAULT_VOCAB, TxtGenConfig, Vocabulary, generate_txt, txt_to_example

#: Per command, the flags its effective config records, in --dump-config
#: order. A --config file may set exactly these; other keys are ignored,
#: except a gen-txt file's ``vocab_sha256``, which --vocab must match.
_CONFIG_KEYS = {
    "gen-num": ("count", "seed", "min_value", "max_value", "max_frac_digits", "families", "emit"),
    "gen-txt": ("count", "seed", "min_events", "max_events", "max_quantity", "frac_digits", "emit"),
    "lr-table": ("epochs", "batches_per_epoch", "warmup_start", "warmup_end", "decay_rate", "warmup_fraction"),
}


def _meta(config: dict, seed: int | None = None, **extra) -> dict:
    meta = {"tool": f"numtext {__version__}"}
    if seed is not None:
        meta["seed"] = seed
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=False)
    meta["config_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    meta.update(extra)
    return meta


@contextmanager
def atomic_output(path: str | None):
    """Yield a binary stream for ``path``, or for stdout when it is absent or ``-``.

    A file is streamed to a temp file beside the target, given mode
    ``0o666 & ~umask`` and renamed over the target on success. On any
    exception the temp file is removed, so the target is either complete
    or as it was before.
    """
    if path is None or path == "-":
        sys.stdout.flush()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, payload: dict) -> int:
    with atomic_output(path) as sink:
        sink.write((json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8"))
    return 0


def _command_config(args: argparse.Namespace, **extra) -> dict:
    """The command's effective config plus ``extra``, also written to --dump-config if given."""
    config = {key: getattr(args, key) for key in _CONFIG_KEYS[args.command]}
    config.update(extra)
    if args.dump_config:
        _write_json(args.dump_config, config)
    return config


def _write_generated(args: argparse.Namespace, config: dict, generate, to_example) -> int:
    """Write items 0..--count-1 of ``generate(count, start=...)`` to --out, block by block on the
    usable CPUs (see shard), as tagged examples or, with --emit raw, as their own rows."""
    if args.count < 1:
        raise ConfigError("--count must be >= 1")  # before the meta record is written

    def records(start, stop):
        items = generate(stop - start, start=start)
        return items if args.emit == "raw" else map(to_example, items)

    with atomic_output(args.out) as sink:
        write_blocks(records, args.count, sink, meta=_meta(config, seed=args.seed))
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_num(args) -> int:
    if args.count is None:
        raise ConfigError("--count is required")
    config = _command_config(args)
    weights = {family: 1.0 for family in TemplateFamily}
    if args.families:
        weights = {}
        for part in args.families.split(","):
            name, _, weight = part.partition("=")
            try:
                weights[TemplateFamily(name.strip())] = float(weight) if weight else 1.0
            except ValueError:
                known = ", ".join(family.value for family in TemplateFamily)
                raise ConfigError(f"bad --families entry {part!r}; families are {known}") from None
    gen_config = NumGenConfig(
        ranges=ValueRange(
            min_value=parse_decimal(args.min_value),
            max_value=parse_decimal(args.max_value),
            max_frac_digits=args.max_frac_digits,
        ),
        family_weights=weights,
    )
    generate = partial(generate_num, config=gen_config, seed=args.seed)
    return _write_generated(args, config, generate, num_to_example)


def cmd_gen_txt(args) -> int:
    if args.count is None:
        raise ConfigError("--count is required")
    vocab, extra = DEFAULT_VOCAB, {}
    if args.vocab:
        # The vocabulary's content, not its path, goes into the config hash.
        data = Path(args.vocab).read_bytes()
        vocab = Vocabulary.from_json(load_json(io.BytesIO(data)))
        extra["vocab_sha256"] = hashlib.sha256(data).hexdigest()
    recorded = args.config_values.get("vocab_sha256")
    if recorded is not None and recorded != extra.get("vocab_sha256"):
        problem = "--vocab is not that vocabulary" if args.vocab else "give that vocabulary with --vocab"
        raise ConfigError(f"--config records vocab_sha256 {str(recorded)[:16]}...; {problem}")
    config = _command_config(args, **extra)
    gen_config = TxtGenConfig(
        vocab=vocab,
        min_events=args.min_events,
        max_events=args.max_events,
        max_quantity=args.max_quantity,
        frac_digits=args.frac_digits,
    )
    generate = partial(generate_txt, config=gen_config, seed=args.seed)
    return _write_generated(args, config, generate, txt_to_example)


def _ingest(path: str, read=ingest_drop):
    """``read(path)``, a DROP file by default, after one ``skipped ID: reason`` line per skipped question."""
    result = read(path)
    for issue in result.errors:
        print(f"skipped {issue.question_id}: {issue.message}", file=sys.stderr)
    return result


def cmd_ingest(args) -> int:
    read, to_example = (ingest_drop, make_drop_example) if args.format == "drop" else (ingest_squad, make_squad_example)
    result = _ingest(args.input, read)
    meta = _meta({"format": args.format, "input": args.input}, records=len(result.records))
    with atomic_output(args.out) as sink:
        written = write_examples(map(to_example, result.records), sink, meta=meta)
    print(f"wrote {written} examples ({len(result.errors)} skipped)", file=sys.stderr)
    return 0


def cmd_derive_class(args) -> int:
    result = _ingest(args.input)
    meta = _meta({"input": args.input}, records=len(result.records))
    with atomic_output(args.out) as sink:
        written = write_examples(map(make_classification_example, result.records), sink, meta=meta)
    print(f"wrote {written} classification examples", file=sys.stderr)
    return 0


def _load_stats(path: str) -> list[DatasetStat]:
    rows = load_json(path)
    if not isinstance(rows, list):
        raise ConfigError("stats file must hold a JSON list")
    stats = []
    for index, row in enumerate(rows):
        try:
            name, length, scale, cap = row["name"], row["length"], row.get("scale", 1.0), row.get("cap")
            numbers = is_json_number(length, int) and is_json_number(scale) and (cap is None or is_json_number(cap))
            if not (isinstance(name, str) and numbers):
                raise TypeError
            scale, cap = float(scale), None if cap is None else float(cap)
        except (KeyError, TypeError, OverflowError):
            raise ConfigError(
                f"stats row {index} needs a string 'name', an integer 'length' and numeric 'scale' and 'cap'"
            ) from None
        stats.append(DatasetStat(name=name, length=length, scale=scale, cap=cap))
    return stats


def _size_and_mtime(handle) -> tuple[int, int]:
    stat = os.fstat(handle.fileno())
    return stat.st_size, stat.st_mtime_ns


def cmd_mix(args) -> int:
    stats = _load_stats(args.stats)
    plan = compute_plan(stats, args.temperature)
    config = {"stats": args.stats, "temperature": args.temperature}

    if args.sample is None:
        return _write_json(args.out, {"meta": _meta(config), **plan.to_json()})

    if not args.sources or args.out is None:
        raise ConfigError("--sample needs --sources and --out")
    config.update({"sample": args.sample, "seed": args.seed})
    paths = {}
    for part in args.sources.split(","):
        name, _, path = part.partition("=")
        name = name.strip()
        if not (name and path):
            raise ConfigError(f"bad --sources entry: {part!r}")
        if name in paths:
            raise ConfigError(f"--sources names {name!r} twice")
        if name not in plan.ratios:
            raise ConfigError(f"--sources names {name!r}, which the plan does not hold")
        paths[name] = path
    with ExitStack() as stack:
        sources, opened = {}, []
        for name, path in paths.items():
            handle = stack.enter_context(open(path, "rb"))
            opened.append((path, handle, _size_and_mtime(handle)))
            try:
                sources[name] = IndexedExamples(handle)
            except ToolkitError as exc:
                raise type(exc)(f"source {path}: {exc}") from None
        stream = sample_stream(plan, sources, args.sample, args.seed, allow_repeats=not args.no_repeats)
        with atomic_output(args.out) as sink:
            try:
                write_examples(stream, sink, meta=_meta(config, seed=args.seed, plan=plan.to_json()))
            finally:
                # Draws copy the lines at the indexed offsets, so a source
                # changed in place since may have given other bytes; that
                # is the error to report, also when a draw failed on it.
                for path, handle, indexed in opened:
                    if _size_and_mtime(handle) != indexed:
                        raise ValidationError(f"source {path} changed while mix read it")
    return 0


def cmd_lr_table(args) -> int:
    if args.epochs is None or args.batches_per_epoch is None:
        raise ConfigError("--epochs and --batches-per-epoch are required")
    lr_config = LrConfig(
        total_epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        warmup_start=args.warmup_start,
        warmup_end=args.warmup_end,
        decay_rate=args.decay_rate,
        warmup_fraction=args.warmup_fraction,
    )
    config = _command_config(args)
    schedule = LrSchedule(lr_config)
    meta = _meta(config)
    with atomic_output(args.out) as sink:
        emit_table(schedule, sink, meta=f"{meta['tool']} config_sha256={meta['config_sha256']}")
    return 0


def cmd_audit(args) -> int:
    examples = (example for *_, example in iter_examples(args.input))
    limits = LengthLimits(encoder_max=args.encoder_max, decoder_max=args.decoder_max)
    audit = audit_truncation(examples, limits, count_tokens)
    config = {"input": args.input, "encoder_max": limits.encoder_max, "decoder_max": limits.decoder_max}
    return _write_json(args.out, {"meta": _meta(config), **audit.to_json()})


def cmd_score(args) -> int:
    result = _ingest(args.gold)
    predictions = {}
    with open(args.pred, "rb") as handle:
        for _, lineno, _, row in iter_jsonl(handle):
            if not (isinstance(row, dict) and isinstance(row.get("id"), str) and isinstance(row.get("prediction"), str)):
                raise ValidationError(f"line {lineno}: prediction rows are objects with string 'id' and 'prediction'")
            if row["id"] in predictions:  # find the first line again rather than keep every line number
                handle.seek(0)
                first = next(n for _, n, _, earlier in iter_jsonl(handle) if earlier["id"] == row["id"])
                raise ValidationError(f"line {lineno}: prediction id {row['id']!r} is also on line {first}")
            predictions[row["id"]] = row["prediction"]
    for query_id in {issue.question_id for issue in result.errors} - {record.query_id for record in result.records}:
        predictions.pop(query_id, None)  # a question skipped for empty gold is not scored
    report = build_report(result.records, predictions, span_delimiter=args.delimiter)
    config = {"gold": args.gold, "pred": args.pred, "delimiter": args.delimiter}
    return _write_json(args.out, {"meta": _meta(config), **report.to_json()})


def cmd_pipeline(args) -> int:
    pipelines = {spec.name: spec for spec in builtin_pipelines()}
    if args.list:
        payload = {"meta": _meta({}), "pipelines": [spec.to_json() for spec in pipelines.values()]}
        return _write_json(args.out, payload)
    if bool(args.name) == bool(args.spec):
        raise ConfigError("pass exactly one of --name or --spec")
    if args.name and args.name not in pipelines:
        raise ConfigError(f"unknown pipeline {args.name!r}; builtins: {sorted(pipelines)}")
    spec = pipelines[args.name] if args.name else load_pipeline_spec(args.spec)
    if args.stats is None or args.batch_size is None:
        raise ConfigError("--stats and --batch-size are required")
    stats = _load_stats(args.stats)
    plan = expand(spec, stats, args.batch_size, args.seed)
    config = {"pipeline": spec.name, "stats": args.stats, "batch_size": args.batch_size, "seed": args.seed}
    return _write_json(args.out, {"meta": _meta(config, seed=args.seed), **plan.to_json()})


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="numtext", description=__doc__)
    parser.add_argument("--version", action="version", version=f"numtext {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.commands = commands.choices  # name -> subparser, for --config defaults

    def add(name, func, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        return sub

    def add_config_flags(sub):
        sub.add_argument("--config", help="JSON object of flag values; flags given on the command line win")
        sub.add_argument("--dump-config", dest="dump_config")

    sub = add("gen-num", cmd_gen_num, "generate synthetic arithmetic expressions")
    sub.add_argument("--count", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-value", dest="min_value", default=str(ValueRange.min_value))
    sub.add_argument("--max-value", dest="max_value", default=str(ValueRange.max_value))
    sub.add_argument("--max-frac-digits", dest="max_frac_digits", type=int, default=ValueRange.max_frac_digits)
    sub.add_argument("--families", help="comma list of family[=weight]")
    sub.add_argument("--emit", choices=["examples", "raw"], default="examples")
    add_config_flags(sub)

    sub = add("gen-txt", cmd_gen_txt, "generate synthetic word problems")
    sub.add_argument("--count", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-events", dest="min_events", type=int, default=TxtGenConfig.min_events)
    sub.add_argument("--max-events", dest="max_events", type=int, default=TxtGenConfig.max_events)
    sub.add_argument("--max-quantity", dest="max_quantity", type=int, default=TxtGenConfig.max_quantity)
    sub.add_argument("--frac-digits", dest="frac_digits", type=int, default=TxtGenConfig.frac_digits)
    sub.add_argument("--vocab", help="JSON vocabulary file")
    sub.add_argument("--emit", choices=["examples", "raw"], default="examples")
    add_config_flags(sub)

    sub = add("ingest", cmd_ingest, "convert a DROP/SQuAD JSON file to tagged examples")
    sub.add_argument("--format", choices=["drop", "squad"], required=True)
    sub.add_argument("--in", dest="input", required=True)
    sub.add_argument("--out", required=True)

    sub = add("derive-class", cmd_derive_class, "derive the DROP question-type task")
    sub.add_argument("--in", dest="input", required=True)
    sub.add_argument("--out", required=True)

    sub = add("mix", cmd_mix, "compute a mixture plan; optionally sample a stream")
    sub.add_argument("--stats", required=True, help="JSON list of {name, length, scale?, cap?}")
    sub.add_argument("--temperature", "-T", default=1.0, type=float)
    sub.add_argument("--sample", type=int, help="draw this many examples")
    sub.add_argument("--sources", help="comma list of name=examples.jsonl")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--no-repeats", dest="no_repeats", action="store_true")
    sub.add_argument("--out")

    sub = add("lr-table", cmd_lr_table, "emit the learning-rate schedule as CSV")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batches-per-epoch", dest="batches_per_epoch", type=int)
    sub.add_argument("--warmup-start", dest="warmup_start", type=float, default=LrConfig.warmup_start)
    sub.add_argument("--warmup-end", dest="warmup_end", type=float, default=LrConfig.warmup_end)
    sub.add_argument("--decay-rate", dest="decay_rate", type=float, default=LrConfig.decay_rate)
    sub.add_argument("--warmup-fraction", dest="warmup_fraction", type=float, default=LrConfig.warmup_fraction)
    sub.add_argument("--out")
    add_config_flags(sub)

    sub = add("audit", cmd_audit, "report encoder/decoder truncation fractions")
    sub.add_argument("--in", dest="input", required=True)
    sub.add_argument("--encoder-max", dest="encoder_max", type=int, default=LengthLimits.encoder_max)
    sub.add_argument("--decoder-max", dest="decoder_max", type=int, default=LengthLimits.decoder_max)
    sub.add_argument("--out")

    sub = add("score", cmd_score, "score predictions against DROP gold answers")
    sub.add_argument("--gold", required=True, help="DROP-layout JSON file")
    sub.add_argument("--pred", required=True, help="JSONL of {id, prediction}")
    sub.add_argument("--delimiter", default=SPAN_DELIMITER)
    sub.add_argument("--out")

    sub = add("pipeline", cmd_pipeline, "list built-in pipelines or expand one")
    sub.add_argument("--list", action="store_true")
    sub.add_argument("--name")
    sub.add_argument("--spec", help="JSON pipeline spec file")
    sub.add_argument("--stats")
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; with --config, parse again after the file's non-null values
    for the command's _CONFIG_KEYS become its defaults (flag > file > default).
    The values become text first, so argparse converts and checks them as it
    does the flags. ``args.config_values`` holds the whole file (``{}``
    without --config)."""
    if any("\x00" in arg for arg in argv or ()):
        raise ConfigError("an argument contains a NUL character")
    args = parser.parse_args(argv)
    values = {}
    if getattr(args, "config", None):
        values = load_json(args.config)
        if not isinstance(values, dict):
            raise ConfigError("--config file must hold a JSON object")
        keys = _CONFIG_KEYS[args.command]
        parser.commands[args.command].set_defaults(
            **{key: str(values[key]) for key in keys if values.get(key) is not None}
        )
        args = parser.parse_args(argv)
    args.config_values = values
    return args


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
