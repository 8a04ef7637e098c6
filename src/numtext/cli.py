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
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path

from . import __version__, sha256
from .errors import ConfigError, ToolkitError, ValidationError


def _lazy_layer(name: str):
    """The module ``numtext.<name>``, put in ``sys.modules`` and on the package
    as an import puts it, but executed only when one of its attributes is
    first read (``importlib.util.LazyLoader``). A command thus runs only the
    layers it uses, and an import error in a layer shows at that first use."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every layer is bound, seeding too, which cli does not call, so that
# ``import numtext.cli`` makes every layer available.
_LAYERS = ("corpus", "decimals", "mixing", "numgen", "pipelines", "schedule", "scoring", "seeding", "shard", "txtgen")
corpus, decimals, mixing, numgen, pipelines, schedule, scoring, seeding, shard, txtgen = map(_lazy_layer, _LAYERS)

#: Per command, the flags its effective config records, in --dump-config
#: order. A --config file may set exactly these; other keys are ignored,
#: except a gen-txt file's ``vocab_sha256``, which --vocab must match.
_CONFIG_KEYS = {
    "gen-num": ("count", "seed", "min_value", "max_value", "max_frac_digits", "families", "emit"),
    "gen-txt": ("count", "seed", "min_events", "max_events", "max_quantity", "frac_digits", "emit"),
    "lr-table": ("epochs", "batches_per_epoch", "warmup_start", "warmup_end", "decay_rate", "warmup_fraction"),
}

#: Per command, the flag defaults that its layers own. They are read once
#: the command is known, so parsing loads no layer that the command does not run.
_LAYER_DEFAULTS = {
    "gen-num": lambda: {
        "min_value": str(numgen.NumGenConfig.min_value),
        "max_value": str(numgen.NumGenConfig.max_value),
        "max_frac_digits": numgen.NumGenConfig.max_frac_digits,
    },
    "gen-txt": lambda: {
        key: getattr(txtgen.TxtGenConfig, key) for key in ("min_events", "max_events", "max_quantity", "frac_digits")
    },
    "lr-table": lambda: {
        key: getattr(schedule.LrSchedule, key)
        for key in ("warmup_start", "warmup_end", "decay_rate", "warmup_fraction")
    },
    "audit": lambda: {"encoder_max": corpus.ENCODER_MAX, "decoder_max": corpus.DECODER_MAX},
    "score": lambda: {"delimiter": corpus.SPAN_DELIMITER},
}


def _meta(config: dict, seed: int | None = None, **extra) -> dict:
    meta = {"tool": f"numtext {__version__}"}
    if seed is not None:
        meta["seed"] = seed
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=False)
    # A path argv could not decode, or a JSON string, can hold a lone surrogate;
    # text without one encodes to the same bytes either way.
    meta["config_sha256"] = sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()[:16]
    meta.update(extra)
    return meta


@contextmanager
def atomic_output(path: str | None):
    """Yield a binary stream for ``path``, or for stdout when it is absent or ``-``.

    A symlink is followed to the file it names. A regular file, or a path
    that does not exist yet, is streamed to a temp file beside it, given
    mode ``0o666 & ~umask`` and renamed over it on success. On any
    exception the temp file is removed, so the file is either complete or
    as it was before. Any other existing target (a FIFO, a device) cannot
    be replaced and is opened and written directly, as stdout is, so a
    failed run may leave part of its output there.
    """
    if path is None or path == "-":
        sys.stdout.flush()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.")
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
    text = json.dumps(payload, indent=2, allow_nan=False)
    with atomic_output(path) as sink:
        sink.write(text.encode("utf-8") + b"\n")
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

    _write_blocks(args.out, _meta(config, seed=args.seed), records, args.count)
    return 0


def _write_blocks(path: str, meta: dict, records, count: int) -> None:
    """Write the meta record to ``path``, then ``records(a, b)``, the records of
    indices a..b-1, block by block on the usable CPUs (see shard)."""
    with atomic_output(path) as sink:
        corpus.write_examples((), sink, meta=meta)
        shard.write_blocks(lambda a, b, out: corpus.write_examples(records(a, b), out), count, sink)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_num(args) -> int:
    if args.count is None:
        raise ConfigError("--count is required")
    config = _command_config(args)
    weights = {}
    for part in (args.families or ",".join(numgen.FAMILIES)).split(","):
        name, _, weight = part.partition("=")
        name = name.strip()
        if name in weights:
            raise ConfigError(f"--families names {name!r} twice")
        try:
            if name not in numgen.FAMILIES:
                raise ValueError(name)
            weights[name] = float(weight) if weight else 1.0
        except ValueError:
            raise ConfigError(f"bad --families entry {part!r}; families are {', '.join(numgen.FAMILIES)}") from None
    gen_config = numgen.NumGenConfig(
        min_value=decimals.parse_decimal(args.min_value),
        max_value=decimals.parse_decimal(args.max_value),
        max_frac_digits=args.max_frac_digits,
        family_weights=weights,
    )
    generate = partial(numgen.generate_num, config=gen_config, seed=args.seed)
    return _write_generated(args, config, generate, numgen.num_to_example)


def cmd_gen_txt(args) -> int:
    if args.count is None:
        raise ConfigError("--count is required")
    vocab, extra = txtgen.DEFAULT_VOCAB, {}
    if args.vocab:
        # The vocabulary's content, not its path, goes into the config hash.
        data = Path(args.vocab).read_bytes()
        vocab = txtgen.Vocabulary.from_json(corpus.load_json(io.BytesIO(data)))
        extra["vocab_sha256"] = sha256(data).hexdigest()
    recorded = args.config_values.get("vocab_sha256")
    if recorded is not None and recorded != extra.get("vocab_sha256"):
        problem = "--vocab is not that vocabulary" if args.vocab else "give that vocabulary with --vocab"
        raise ConfigError(f"--config records vocab_sha256 {str(recorded)[:16]}...; {problem}")
    config = _command_config(args, **extra)
    gen_config = txtgen.TxtGenConfig(
        vocab=vocab,
        min_events=args.min_events,
        max_events=args.max_events,
        max_quantity=args.max_quantity,
        frac_digits=args.frac_digits,
    )
    generate = partial(txtgen.generate_txt, config=gen_config, seed=args.seed)
    return _write_generated(args, config, generate, txtgen.txt_to_example)


def _ingest(path: str, read):
    """``read(path)``, a corpus ingest function, after one ``skipped ID: reason`` line per skipped question."""
    result = read(path)
    for issue in result.errors:
        print(f"skipped {issue.question_id}: {issue.message}", file=sys.stderr)
    return result


def cmd_ingest(args) -> int:
    if args.format == "drop":
        read, to_example = corpus.ingest_drop, corpus.make_drop_example
    else:
        read, to_example = corpus.ingest_squad, corpus.make_squad_example
    result = _ingest(args.input, read)
    meta = _meta({"format": args.format, "input": args.input}, records=len(result.records))
    _write_blocks(args.out, meta, lambda a, b: map(to_example, result.records[a:b]), len(result.records))
    print(f"wrote {len(result.records)} examples ({len(result.errors)} skipped)", file=sys.stderr)
    return 0


def cmd_derive_class(args) -> int:
    result = _ingest(args.input, corpus.ingest_drop)
    meta = _meta({"input": args.input}, records=len(result.records))
    _write_blocks(args.out, meta, lambda a, b: map(corpus.make_classification_example, result.records[a:b]),
                  len(result.records))
    print(f"wrote {len(result.records)} classification examples", file=sys.stderr)
    return 0


def _size_and_mtime(handle) -> tuple[int, int]:
    stat = os.fstat(handle.fileno())
    return stat.st_size, stat.st_mtime_ns


def cmd_mix(args) -> int:
    plan = mixing.compute_plan(mixing.check_stats(corpus.load_json(args.stats)), args.temperature)
    config = {"stats": args.stats, "temperature": args.temperature}

    if args.sample is None:
        return _write_json(args.out, {"meta": _meta(config), **plan._asdict()})

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
    mixing.check_sample(plan, paths, args.sample)  # before any source is opened
    with ExitStack() as stack:
        sources, opened = {}, []
        for name, path in paths.items():
            handle = stack.enter_context(open(path, "rb"))
            opened.append((path, handle, _size_and_mtime(handle)))
            try:
                sources[name] = corpus.IndexedExamples(handle)
            except ToolkitError as exc:
                raise type(exc)(f"source {path}: {exc}") from None
        stream = mixing.sample_stream(plan, sources, args.sample, args.seed)
        with atomic_output(args.out) as sink:
            try:
                corpus.write_examples(stream, sink, meta=_meta(config, seed=args.seed, plan=plan._asdict()))
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
    lr_schedule = schedule.LrSchedule(
        total_epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        warmup_start=args.warmup_start,
        warmup_end=args.warmup_end,
        decay_rate=args.decay_rate,
        warmup_fraction=args.warmup_fraction,
    )
    config = _command_config(args)
    meta = _meta(config)
    with atomic_output(args.out) as sink:
        schedule.emit_table(lr_schedule, sink, meta=f"{meta['tool']} config_sha256={meta['config_sha256']}")
    return 0


def cmd_audit(args) -> int:
    audit = corpus.audit_truncation(args.input, args.encoder_max, args.decoder_max)
    config = {"input": args.input, "encoder_max": args.encoder_max, "decoder_max": args.decoder_max}
    return _write_json(args.out, {"meta": _meta(config), **audit})


def _gold_only(records: list) -> list:
    """What ``score`` reads of each DROP record: its id and gold answers."""
    return [corpus.DropRecord("", "", record.answers, record.query_id) for record in records]


def _gold_records(path: str, unscored: set) -> list:
    """The records of the gold file for ``score``; adds to ``unscored`` each id skipped for empty gold."""
    result = _ingest(path, partial(corpus.ingest_drop, transform=_gold_only))
    unscored.update({issue.question_id for issue in result.errors} - {record.query_id for record in result.records})
    return result.records


def _predictions(path: str, unscored: set) -> dict:
    """The predictions file as ``{id: prediction}``, without the ids in ``unscored``."""
    predictions = {}
    with open(path, "rb") as handle:
        for _, lineno, row in corpus.iter_jsonl(handle):
            if not (isinstance(row, dict) and isinstance(row.get("id"), str) and isinstance(row.get("prediction"), str)):
                raise ValidationError(f"line {lineno}: prediction rows are objects with string 'id' and 'prediction'")
            if row["id"] in predictions:  # find the first line again rather than keep every line number
                handle.seek(0)
                first = next(n for _, n, earlier in corpus.iter_jsonl(handle) if earlier["id"] == row["id"])
                raise ValidationError(f"line {lineno}: prediction id {row['id']!r} is also on line {first}")
            predictions[row["id"]] = row["prediction"]
    for query_id in unscored:
        predictions.pop(query_id, None)  # a question skipped for empty gold is not scored
    return predictions


def cmd_score(args) -> int:
    unscored = set()
    # The records and predictions are handed over, not kept here, so build_report
    # frees them before it builds its per-question rows.
    report = scoring.build_report(
        _gold_records(args.gold, unscored), _predictions(args.pred, unscored), span_delimiter=args.delimiter
    )
    config = {"gold": args.gold, "pred": args.pred, "delimiter": args.delimiter}
    with atomic_output(args.out) as sink:
        scoring.write_report(sink, _meta(config), report)
    return 0


def cmd_pipeline(args) -> int:
    builtins = {spec["name"]: spec for spec in pipelines.builtin_pipelines()}
    if args.list:
        return _write_json(args.out, {"meta": _meta({}), "pipelines": list(builtins.values())})
    if bool(args.name) == bool(args.spec):
        raise ConfigError("pass exactly one of --name or --spec")
    if args.name and args.name not in builtins:
        raise ConfigError(f"unknown pipeline {args.name!r}; builtins: {sorted(builtins)}")
    spec = builtins[args.name] if args.name else pipelines.check_spec(corpus.load_json(args.spec))
    if args.stats is None or args.batch_size is None:
        raise ConfigError("--stats and --batch-size are required")
    plan = pipelines.expand(spec, mixing.check_stats(corpus.load_json(args.stats)), args.batch_size, args.seed)
    config = {"pipeline": spec["name"], "stats": args.stats, "batch_size": args.batch_size, "seed": args.seed}
    return _write_json(args.out, {"meta": _meta(config, seed=args.seed), **plan})


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
        sub.add_argument("--dump-config")

    sub = add("gen-num", cmd_gen_num, "generate synthetic arithmetic expressions")
    sub.add_argument("--count", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-value")
    sub.add_argument("--max-value")
    sub.add_argument("--max-frac-digits", type=int)
    sub.add_argument("--families", help="comma list of family[=weight]")
    sub.add_argument("--emit", choices=["examples", "raw"], default="examples")
    add_config_flags(sub)

    sub = add("gen-txt", cmd_gen_txt, "generate synthetic word problems")
    sub.add_argument("--count", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-events", type=int)
    sub.add_argument("--max-events", type=int)
    sub.add_argument("--max-quantity", type=int)
    sub.add_argument("--frac-digits", type=int)
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
    sub.add_argument("--out")

    sub = add("lr-table", cmd_lr_table, "emit the learning-rate schedule as CSV")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batches-per-epoch", type=int)
    sub.add_argument("--warmup-start", type=float)
    sub.add_argument("--warmup-end", type=float)
    sub.add_argument("--decay-rate", type=float)
    sub.add_argument("--warmup-fraction", type=float)
    sub.add_argument("--out")
    add_config_flags(sub)

    sub = add("audit", cmd_audit, "report encoder/decoder truncation fractions")
    sub.add_argument("--in", dest="input", required=True)
    sub.add_argument("--encoder-max", type=int)
    sub.add_argument("--decoder-max", type=int)
    sub.add_argument("--out")

    sub = add("score", cmd_score, "score predictions against DROP gold answers")
    sub.add_argument("--gold", required=True, help="DROP-layout JSON file")
    sub.add_argument("--pred", required=True, help="JSONL of {id, prediction}")
    sub.add_argument("--delimiter")
    sub.add_argument("--out")

    sub = add("pipeline", cmd_pipeline, "list built-in pipelines or expand one")
    sub.add_argument("--list", action="store_true")
    sub.add_argument("--name")
    sub.add_argument("--spec", help="JSON pipeline spec file")
    sub.add_argument("--stats")
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv once to learn the command, set its defaults in one step, and
    parse again. The defaults are the command's _LAYER_DEFAULTS with, under
    --config, the file's non-null values for its _CONFIG_KEYS on top, so a
    value comes from the flag, else the file, else the layer's class. File
    values become text first, so argparse converts and checks them as it
    does the flags. ``args.config_values`` holds the whole file (``{}``
    without --config)."""
    if any("\x00" in arg for arg in argv or ()):
        raise ConfigError("an argument contains a NUL character")
    args = parser.parse_args(argv)
    defaults, values = _LAYER_DEFAULTS.get(args.command, dict)(), {}
    if getattr(args, "config", None):
        values = corpus.load_json(args.config)
        if not isinstance(values, dict):
            raise ConfigError("--config file must hold a JSON object")
        defaults.update({key: str(values[key]) for key in _CONFIG_KEYS[args.command] if values.get(key) is not None})
    if defaults:
        parser.commands[args.command].set_defaults(**defaults)
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
