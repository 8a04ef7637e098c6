"""In-process span tracing of the ``numtext`` layers, from outside the package.

:class:`Tracer` wraps every public function of each layer module (and
``Example.__init__``) and rebinds every module-level name that points at
one, because the modules import names directly (``cli`` binds
``generate_num``, ``numgen`` binds ``canonical``). A function that
returns a generator gets its iterator wrapped too, so each ``next()`` is
a span of its own (``numgen.generate_num.next``).

A span is ``(name id, start, end, parent index)``, kept in memory and
written out by the caller. Self time of a span is its duration minus the
durations of its direct children; a layer's self time is the sum over its
spans, so the layers' self times add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from types import FunctionType, GeneratorType

LAYERS = ("cli", "numgen", "txtgen", "decimals", "seeding", "corpus", "mixing", "schedule", "pipelines", "scoring")


def _is_path(value) -> bool:
    return isinstance(value, str) or hasattr(value, "__fspath__")


class Tracer:
    """Records spans and counts while installed; restores every binding on exit."""

    def __init__(self, sources: dict):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        # source name -> (source_id prefix, record count), so sampled records
        # can be attributed to the source they came from.
        self.sources = sources
        self.plan_ratios: dict[str, float] = {}
        self._observers = {
            "corpus.write_examples": self._on_write_examples,
            "schedule.emit_table": self._on_emit_table,
            "scoring.build_report": self._on_build_report,
            "scoring.score_pair": self._on_score_pair,
            "mixing.sample_stream": self._on_sample_stream,
            "mixing.sample_stream.next": self._on_draw,
        }

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)
        iter_name = name + ".next"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if observe is not None:
                observe(args, result)
            if isinstance(result, GeneratorType):
                return self._iterate(iter_name, result)
            return result

        return traced

    def _iterate(self, name: str, iterator):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)
        counts = self.counts
        while True:
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            counts[name + ".items"] += 1
            if observe is not None:
                observe((), item)
            yield item

    # -- install / uninstall ---------------------------------------------------

    def __enter__(self):
        modules = {name: sys.modules[f"numtext.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and attr != "main"
                ):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name == "numtext" or module_name.startswith("numtext."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._patch(module, attr, wrapped[id(value)])
        example = modules["corpus"].Example
        self._patch(example, "__init__", self._wrap("corpus.Example.__init__", example.__init__))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> tuple[list[str], list, Counter, dict]:
        """Start a new round; return the names, spans, counts and plan recorded so far."""
        taken = (list(self.names), list(self.spans), Counter(self.counts), self.plan_ratios)
        self.spans.clear()
        self.counts.clear()
        self.plan_ratios = {}
        return taken

    # -- observers: counts that need a call's arguments or result ---------------

    def _on_write_examples(self, args, result) -> None:
        sink = args[1] if len(args) > 1 else None
        if sink is not None and not _is_path(sink):  # the inner call of a path sink
            self.counts["corpus.records_written"] += result
            self.counts["corpus.bytes_written"] += sink.tell()  # sinks start empty

    def _on_emit_table(self, args, result) -> None:
        if len(args) > 1 and not _is_path(args[1]):
            self.counts["schedule.rows"] += result

    def _on_build_report(self, args, result) -> None:
        self.counts["scoring.questions"] += len(result.per_question)

    def _on_score_pair(self, args, result) -> None:
        predicted, gold = args[0], args[1]
        delimiter = args[2] if len(args) > 2 else "; "
        pred_spans = predicted.count(delimiter) + 1 if delimiter in predicted else 1
        if gold.number.strip() or gold.date.populated():
            gold_spans = 1
        else:
            gold_spans = sum(1 for span in gold.spans if span.strip())
        if max(pred_spans, gold_spans) > 6:
            self.counts["scoring.pairs_over_6_spans"] += 1

    def _on_sample_stream(self, args, result) -> None:
        self.plan_ratios = dict(args[0].ratios)

    def _on_draw(self, args, item) -> None:
        prefix = item.source_id.split("-", 1)[0]
        self.counts["mixing.draws_from." + prefix] += 1


def analyse(names: list[str], spans: list) -> dict:
    """Per span name: calls, inclusive seconds (outside direct recursion), self seconds."""
    calls = Counter()
    inclusive = Counter()
    self_time = Counter()
    for nid, start, end, parent in spans:
        duration = end - start
        calls[nid] += 1
        self_time[nid] += duration
        if parent >= 0:
            parent_nid = spans[parent][0]
            self_time[parent_nid] -= duration
            if parent_nid == nid:
                continue
        inclusive[nid] += duration
    return {
        names[nid]: {"calls": calls[nid], "inclusive_s": inclusive[nid], "self_s": self_time[nid]}
        for nid in calls
    }


def layer_metrics(by_name: dict, counts: Counter, sources: dict, plan_ratios: dict) -> dict:
    """The per-layer metrics of one traced round, zero where a layer was idle."""

    def inclusive(*names):
        return sum(by_name.get(name, {}).get("inclusive_s", 0.0) for name in names)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in by_name.items() if name.split(".", 1)[0] == layer
        )
    metrics.update({
        "numgen.examples": counts["numgen.generate_num.next.items"],
        "numgen.generate_s": inclusive("numgen.generate_num.next"),
        "numgen.instantiate_s": inclusive("numgen.instantiate"),
        "numgen.eval_expr_s": inclusive("numgen.eval_expr"),
        "numgen.eval_expr_calls": calls("numgen.eval_expr"),
        "numgen.to_example_s": inclusive("numgen.num_to_example"),
        "decimals.canonical_s": inclusive("decimals.canonical"),
        "decimals.canonical_calls": calls("decimals.canonical"),
        "decimals.render_s": inclusive("decimals.render"),
        "seeding.derive_seed_s": inclusive("seeding.derive_seed"),
        "txtgen.examples": counts["txtgen.generate_txt.next.items"],
        "txtgen.generate_s": inclusive("txtgen.generate_txt.next"),
        "txtgen.apply_event_s": inclusive("txtgen.apply_event"),
        "txtgen.apply_event_calls": calls("txtgen.apply_event"),
        "txtgen.answer_question_s": inclusive("txtgen.answer_question"),
        "txtgen.to_example_s": inclusive("txtgen.txt_to_example"),
        "corpus.example_init_s": inclusive("corpus.Example.__init__"),
        "corpus.examples_built": calls("corpus.Example.__init__"),
        "corpus.write_examples_s": inclusive("corpus.write_examples"),
        "corpus.records_written": counts["corpus.records_written"],
        "corpus.bytes_written": counts["corpus.bytes_written"],
        "corpus.read_examples_s": inclusive("corpus.read_examples"),
        "corpus.example_from_json_s": inclusive("corpus.example_from_json"),
        "corpus.records_read": calls("corpus.example_from_json"),
        "corpus.count_tokens_s": inclusive("corpus.count_tokens"),
        "corpus.count_tokens_calls": calls("corpus.count_tokens"),
        "corpus.audit_truncation_s": inclusive("corpus.audit_truncation"),
        "corpus.ingest_drop_s": inclusive("corpus.ingest_drop"),
        "corpus.make_example_s": inclusive(
            "corpus.make_drop_example", "corpus.make_classification_example", "corpus.make_squad_example"
        ),
        "mixing.compute_plan_s": inclusive("mixing.compute_plan"),
        "mixing.sample_s": inclusive("mixing.sample_stream.next"),
        "mixing.draws": counts["mixing.sample_stream.next.items"],
        "schedule.emit_table_s": inclusive("schedule.emit_table"),
        "schedule.rows": counts["schedule.rows"],
        "pipelines.expand_s": inclusive("pipelines.expand"),
        "scoring.questions": counts["scoring.questions"],
        "scoring.build_report_s": inclusive("scoring.build_report"),
        "scoring.score_record_s": inclusive("scoring.score_record"),
        "scoring.score_pair_s": inclusive("scoring.score_pair"),
        "scoring.score_pair_calls": calls("scoring.score_pair"),
        "scoring.answer_bags_s": inclusive("scoring.answer_bags"),
        "scoring.pairs_over_6_spans": counts["scoring.pairs_over_6_spans"],
    })
    # Realized mix against the plan, attributed by the record's source_id prefix.
    draws = {name: counts[f"mixing.draws_from.{prefix}"] for name, (prefix, _) in sources.items()}
    total = sum(draws.values())
    metrics["mixing.source_passes_max"] = metrics["mixing.ratio_abs_err_max"] = 0.0
    if total:
        metrics["mixing.source_passes_max"] = max(draws[name] / size for name, (_, size) in sources.items())
        metrics["mixing.ratio_abs_err_max"] = max(abs(draws[name] / total - plan_ratios[name]) for name in sources)
    return metrics
