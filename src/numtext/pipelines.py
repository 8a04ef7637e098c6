"""Training pipelines as JSON, and their expansion into data plans.

A pipeline has one form, the layout of a ``pipeline --spec`` file::

    {"name": ..., "stages": [{"name", "datasets", "validation"?, "temperature"?, "mode"?}]}

:func:`check_spec` is its one reader. The five built-ins and spec files
both go through it, and it returns a new object with every stage's
defaults filled in: ``validation`` a copy of the stage's datasets,
``temperature`` a float (1.0) and ``mode`` :data:`COVER_ALL`. One
function, not a class per level, holds the spec rules, so :func:`expand`
takes a spec that :func:`check_spec` returned and checks it no further.
Expansion turns it into the plan JSON: per-stage mixture plans, step
counts and output shard names. Launching a trainer on those files is
the user's job.
"""

from __future__ import annotations

import math
from typing import Sequence

from .corpus import is_json_number
from .errors import ConfigError, ValidationError
from .mixing import compute_plan

#: Step-count modes: an epoch covers every example of the stage, or is one
#: pass of the :data:`DROP` dataset (NT5's multitask exception).
COVER_ALL = "cover_all_epoch"
DROP_EXCEPTION = "drop_epoch_exception"
MODES = (COVER_ALL, DROP_EXCEPTION)

DROP = "DROP"
DROP_CLASS = "DROP-class"
NUM = "NUM"
TXT = "TXT"
SQUAD = "SQuAD"

_FINETUNE = [{"name": "finetune-class", "datasets": [DROP, DROP_CLASS]}, {"name": "finetune-drop", "datasets": [DROP]}]

#: The five built-ins, in the spec-file layout. All pre-train on a mix that
#: always includes DROP, then fine-tune on DROP classification and DROP.
#: The two validation variants differ in which dev sets select checkpoints
#: during synthetic pre-training; the two RC variants place SQuAD in
#: pre-training vs. fine-tuning; the multitask variant mixes everything in
#: one first stage at T=10, stepping one DROP-sized epoch, validating on
#: DROP only.
_BUILTINS = (
    {"name": "validation-1", "stages": [
        {"name": "pretrain-num", "datasets": [DROP, NUM], "validation": [DROP]},
        {"name": "pretrain-txt", "datasets": [DROP, TXT], "validation": [DROP]},
        *_FINETUNE,
    ]},
    {"name": "validation-2", "stages": [
        {"name": "pretrain-num", "datasets": [DROP, NUM], "validation": [NUM]},
        {"name": "pretrain-txt", "datasets": [DROP, TXT], "validation": [TXT]},
        *_FINETUNE,
    ]},
    {"name": "rc-1", "stages": [{"name": "pretrain-squad", "datasets": [DROP, SQUAD]}, *_FINETUNE]},
    {"name": "rc-2", "stages": [
        {"name": "finetune-squad-class", "datasets": [DROP, DROP_CLASS, SQUAD]},
        {"name": "finetune-drop", "datasets": [DROP]},
    ]},
    {"name": "multitask", "stages": [
        {"name": "pretrain-all", "datasets": [DROP, TXT, NUM, SQUAD], "validation": [DROP],
         "temperature": 10.0, "mode": DROP_EXCEPTION},
        *_FINETUNE,
    ]},
)


def builtin_pipelines() -> list[dict]:
    """The five built-in experiment pipelines, each a new :func:`check_spec` result."""
    return [check_spec(spec) for spec in _BUILTINS]


def check_spec(spec) -> dict:
    """Check a decoded pipeline spec and return a new one with the defaults
    filled in; ``spec`` itself is left as it is. Each stage is checked for
    types, then values, in order; then the pipeline's stage list. The first
    broken rule raises ConfigError. Keys outside the layout are dropped."""
    if not isinstance(spec, dict) or "name" not in spec or not isinstance(spec.get("stages"), list):
        raise ConfigError("pipeline spec needs 'name' and a 'stages' list")
    if not isinstance(spec["name"], str):
        raise ConfigError("pipeline spec: 'name' must be a string")
    stages = [_check_stage(spec["name"], index, raw) for index, raw in enumerate(spec["stages"])]
    if not stages:
        raise ConfigError(f"pipeline {spec['name']!r} has no stages")
    names = [stage["name"] for stage in stages]
    if len(set(names)) != len(names):
        raise ConfigError(f"pipeline {spec['name']!r} has duplicate stage names: {names}")
    return {"name": spec["name"], "stages": stages}


def _check_stage(pipeline: str, index: int, raw) -> dict:
    if not isinstance(raw, dict) or "name" not in raw or "datasets" not in raw:
        raise ConfigError(f"pipeline stage {index} needs 'name' and 'datasets'")
    name = raw["name"]
    if not isinstance(name, str):
        raise ConfigError(f"pipeline stage {index}: 'name' must be a string")
    for key in ("datasets", "validation"):
        names = raw.get(key, [])
        if not isinstance(names, list) or not all(isinstance(item, str) for item in names):
            raise ConfigError(f"pipeline stage {index}: {key!r} must be a list of dataset names")
    temperature = raw.get("temperature", 1.0)
    try:
        if not is_json_number(temperature):
            raise TypeError
        temperature = float(temperature)
    except (TypeError, OverflowError):
        raise ConfigError(f"pipeline stage {index}: 'temperature' must be a number") from None
    mode = raw.get("mode", COVER_ALL)
    if mode not in MODES:
        raise ConfigError(f"pipeline stage {index}: unknown 'mode' {mode!r}; modes are {', '.join(MODES)}")

    datasets = list(raw["datasets"])
    validation = list(raw.get("validation", datasets))
    if not datasets:
        raise ConfigError(f"stage {name!r} has no datasets")
    if len(set(datasets)) != len(datasets):
        raise ConfigError(f"pipeline {pipeline!r} stage {name!r} lists a dataset twice: {datasets}")
    stray = set(validation) - set(datasets)
    if stray:
        raise ConfigError(f"stage {name!r} validates on unknown datasets: {sorted(stray)}")
    if not 0 < temperature < math.inf:
        raise ConfigError(f"stage {name!r}: temperature must be a finite number > 0")
    return {"name": name, "datasets": datasets, "validation": validation, "temperature": temperature, "mode": mode}


def steps_per_epoch(stats: Sequence[dict], batch_size: int, mode: str = COVER_ALL) -> int:
    """Steps for one epoch of :func:`~numtext.mixing.check_stats` rows: cover
    every example, or one pass of the :data:`DROP` dataset in
    :data:`DROP_EXCEPTION` mode."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; modes are {', '.join(MODES)}")
    if mode == COVER_ALL:
        return -(-sum(row["length"] for row in stats) // batch_size)
    for row in stats:
        if row["name"] == DROP:
            return -(-row["length"] // batch_size)
    raise ConfigError(f"reference dataset {DROP!r} not in stats")


def expand(spec: dict, stats: Sequence[dict], batch_size: int, seed: int = 0) -> dict:
    """Expand a :func:`check_spec` result over :func:`~numtext.mixing.check_stats`
    rows into the plan JSON: ``{"pipeline", "seed", "batch_size", "stages":
    [{"stage", "plan", "steps", "shards"}]}``.

    Pure and random-free: ``seed`` is only copied into the plan, for the
    sampling run that uses it, so it changes no stage, step or shard. The
    plan shares no object with ``spec``.
    """
    by_name = {row["name"]: row for row in stats}
    stages = []
    for index, stage in enumerate(spec["stages"]):
        missing = [name for name in stage["datasets"] if name not in by_name]
        if missing:
            raise ValidationError(f"stage {stage['name']!r} references unknown datasets: {missing}")
        stage_stats = [by_name[name] for name in stage["datasets"]]
        stages.append({
            "stage": dict(stage, datasets=list(stage["datasets"]), validation=list(stage["validation"])),
            "plan": compute_plan(stage_stats, stage["temperature"])._asdict(),
            "steps": steps_per_epoch(stage_stats, batch_size, stage["mode"]),
            "shards": [f"{spec['name']}/{index:02d}-{stage['name']}.jsonl"],
        })
    return {"pipeline": spec["name"], "seed": seed, "batch_size": batch_size, "stages": stages}
