"""Training-pipeline stage descriptors and their expansion into data plans.

Pipelines are declarative: each stage names its datasets, validation
datasets, mixing temperature, and step-count mode. Expansion turns a
pipeline into per-stage mixture plans, step counts, and output shard
names — launching a trainer on those files is the user's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import is_json_number, load_json
from .errors import ConfigError, ValidationError
from .mixing import DROP, DatasetStat, EpochMode, MixturePlan, compute_plan, steps_per_epoch

DROP_CLASS = "DROP-class"
NUM = "NUM"
TXT = "TXT"
SQUAD = "SQuAD"


@dataclass(frozen=True)
class StageSpec:
    """One stage; ``validation`` defaults (``None``) to the stage's datasets."""

    name: str
    datasets: tuple[str, ...]
    validation: tuple[str, ...] | None = None
    temperature: float = 1.0
    mode: EpochMode = EpochMode.COVER_ALL

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        validation = self.datasets if self.validation is None else self.validation
        object.__setattr__(self, "validation", tuple(validation))
        object.__setattr__(self, "mode", EpochMode(self.mode))
        if not self.datasets:
            raise ConfigError(f"stage {self.name!r} has no datasets")
        stray = set(self.validation) - set(self.datasets)
        if stray:
            raise ConfigError(f"stage {self.name!r} validates on unknown datasets: {sorted(stray)}")
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"stage {self.name!r}: temperature must be a finite number > 0")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "validation": list(self.validation),
            "temperature": self.temperature,
            "mode": self.mode.value,
        }


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ConfigError(f"pipeline {self.name!r} has no stages")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"pipeline {self.name!r} has duplicate stage names: {names}")

    def to_json(self) -> dict:
        return {"name": self.name, "stages": [stage.to_json() for stage in self.stages]}


def builtin_pipelines() -> tuple[PipelineSpec, ...]:
    """The five built-in experiment pipelines.

    All pre-train on a mix that always includes DROP, then fine-tune on
    DROP classification and DROP. The two validation variants differ in
    which dev sets select checkpoints during synthetic pre-training; the
    two RC variants place SQuAD in pre-training vs. fine-tuning; the
    multitask variant mixes everything in one first stage at T=10, stepping
    one DROP-sized epoch, validating on DROP only.
    """
    validation_1 = PipelineSpec(
        "validation-1",
        (
            StageSpec("pretrain-num", (DROP, NUM), (DROP,)),
            StageSpec("pretrain-txt", (DROP, TXT), (DROP,)),
            StageSpec("finetune-class", (DROP, DROP_CLASS)),
            StageSpec("finetune-drop", (DROP,)),
        ),
    )
    validation_2 = PipelineSpec(
        "validation-2",
        (
            StageSpec("pretrain-num", (DROP, NUM), (NUM,)),
            StageSpec("pretrain-txt", (DROP, TXT), (TXT,)),
            StageSpec("finetune-class", (DROP, DROP_CLASS)),
            StageSpec("finetune-drop", (DROP,)),
        ),
    )
    rc_1 = PipelineSpec(
        "rc-1",
        (
            StageSpec("pretrain-squad", (DROP, SQUAD)),
            StageSpec("finetune-class", (DROP, DROP_CLASS)),
            StageSpec("finetune-drop", (DROP,)),
        ),
    )
    rc_2 = PipelineSpec(
        "rc-2",
        (
            StageSpec("finetune-squad-class", (DROP, DROP_CLASS, SQUAD)),
            StageSpec("finetune-drop", (DROP,)),
        ),
    )
    multitask = PipelineSpec(
        "multitask",
        (
            StageSpec(
                "pretrain-all",
                (DROP, TXT, NUM, SQUAD),
                (DROP,),
                temperature=10.0,
                mode=EpochMode.DROP_EXCEPTION,
            ),
            StageSpec("finetune-class", (DROP, DROP_CLASS)),
            StageSpec("finetune-drop", (DROP,)),
        ),
    )
    return (validation_1, validation_2, rc_1, rc_2, multitask)


def load_pipeline_spec(path) -> PipelineSpec:
    """Load a pipeline spec from a JSON file mirroring PipelineSpec.

    Stage fields ``validation`` (default: the stage's datasets),
    ``temperature`` (default 1.0) and ``mode`` (default cover_all_epoch)
    are optional.
    """
    source = load_json(path)
    if not isinstance(source, dict) or "name" not in source or not isinstance(source.get("stages"), list):
        raise ConfigError("pipeline spec needs 'name' and a 'stages' list")
    if not isinstance(source["name"], str):
        raise ConfigError("pipeline spec: 'name' must be a string")
    return PipelineSpec(source["name"], tuple(_stage_from_json(i, raw) for i, raw in enumerate(source["stages"])))


def _stage_from_json(index: int, raw) -> StageSpec:
    if not isinstance(raw, dict) or "name" not in raw or "datasets" not in raw:
        raise ConfigError(f"pipeline stage {index} needs 'name' and 'datasets'")
    if not isinstance(raw["name"], str):
        raise ConfigError(f"pipeline stage {index}: 'name' must be a string")
    for key in ("datasets", "validation"):
        names = raw.get(key, [])
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ConfigError(f"pipeline stage {index}: {key!r} must be a list of dataset names")
    temperature = raw.get("temperature", 1.0)
    try:
        if not is_json_number(temperature):
            raise TypeError
        temperature = float(temperature)
    except (TypeError, OverflowError):
        raise ConfigError(f"pipeline stage {index}: 'temperature' must be a number") from None
    try:
        mode = EpochMode(raw.get("mode", EpochMode.COVER_ALL.value))
    except ValueError:
        known = ", ".join(mode.value for mode in EpochMode)
        raise ConfigError(f"pipeline stage {index}: unknown 'mode' {raw['mode']!r}; modes are {known}") from None
    return StageSpec(raw["name"], raw["datasets"], raw.get("validation"), temperature, mode)


@dataclass(frozen=True)
class StagePlan:
    stage: StageSpec
    mixture: MixturePlan
    steps: int
    shards: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "stage": self.stage.to_json(),
            "plan": self.mixture.to_json(),
            "steps": self.steps,
            "shards": list(self.shards),
        }


@dataclass(frozen=True)
class PipelinePlan:
    """Per-stage plans of one pipeline. ``seed`` is only recorded: expansion draws nothing."""

    name: str
    seed: int
    batch_size: int
    stages: tuple[StagePlan, ...]

    def to_json(self) -> dict:
        return {
            "pipeline": self.name,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "stages": [stage.to_json() for stage in self.stages],
        }


def expand(
    spec: PipelineSpec,
    stats: Mapping[str, DatasetStat] | Sequence[DatasetStat],
    batch_size: int,
    seed: int = 0,
) -> PipelinePlan:
    """Expand a pipeline into per-stage mixture plans, steps, and shard names.

    Pure and random-free: ``seed`` is only copied into the plan, for the
    sampling run that uses it, so it changes no stage, step or shard.
    """
    if not isinstance(stats, Mapping):
        stats = {stat.name: stat for stat in stats}
    plans = []
    for index, stage in enumerate(spec.stages):
        missing = [name for name in stage.datasets if name not in stats]
        if missing:
            raise ValidationError(f"stage {stage.name!r} references unknown datasets: {missing}")
        stage_stats = [stats[name] for name in stage.datasets]
        mixture = compute_plan(stage_stats, stage.temperature)
        steps = steps_per_epoch(stage_stats, batch_size, stage.mode)
        shards = (f"{spec.name}/{index:02d}-{stage.name}.jsonl",)
        plans.append(StagePlan(stage, mixture, steps, shards))
    return PipelinePlan(spec.name, seed, batch_size, tuple(plans))
