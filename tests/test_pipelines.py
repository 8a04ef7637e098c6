import json

import pytest

from numtext.errors import ConfigError, ValidationError
from numtext.mixing import DatasetStat, EpochMode
from numtext.pipelines import (
    PipelineSpec,
    StageSpec,
    builtin_pipelines,
    expand,
    load_pipeline_spec,
)

STATS = {
    "DROP": DatasetStat("DROP", 96_000),
    "DROP-class": DatasetStat("DROP-class", 96_000),
    "NUM": DatasetStat("NUM", 1_000_000),
    "TXT": DatasetStat("TXT", 2_000_000),
    "SQuAD": DatasetStat("SQuAD", 87_599),
}


def _by_name():
    return {spec.name: spec for spec in builtin_pipelines()}


def test_exactly_five_builtins():
    assert len(builtin_pipelines()) == 5


def test_multitask_first_stage_datasets():
    multitask = _by_name()["multitask"]
    stage = multitask.stages[0]
    assert stage.datasets == ("DROP", "TXT", "NUM", "SQuAD")
    assert stage.temperature == 10.0
    assert stage.mode is EpochMode.DROP_EXCEPTION
    assert stage.validation == ("DROP",)


def test_rc2_moves_squad_into_finetuning():
    rc2 = _by_name()["rc-2"]
    assert rc2.stages[0].datasets == ("DROP", "DROP-class", "SQuAD")
    assert rc2.stages[-1].datasets == ("DROP",)
    rc1 = _by_name()["rc-1"]
    assert rc1.stages[0].datasets == ("DROP", "SQuAD")


def test_validation_variants_differ_only_in_validation_sets():
    v1, v2 = _by_name()["validation-1"], _by_name()["validation-2"]
    assert [s.datasets for s in v1.stages] == [s.datasets for s in v2.stages]
    assert v1.stages[0].validation == ("DROP",)
    assert v2.stages[0].validation == ("NUM",)
    assert v2.stages[1].validation == ("TXT",)


def test_every_builtin_references_known_datasets():
    for spec in builtin_pipelines():
        for stage in spec.stages:
            assert set(stage.datasets) <= set(STATS)
            assert set(stage.validation) <= set(stage.datasets)
            assert stage.temperature > 0


def test_all_builtins_expand_with_standard_stats():
    for spec in builtin_pipelines():
        plan = expand(spec, STATS, batch_size=32, seed=1)
        assert len(plan.stages) == len(spec.stages)
        for stage_plan in plan.stages:
            assert stage_plan.steps >= 1
            assert abs(sum(e.ratio for e in stage_plan.mixture.entries) - 1.0) < 1e-12


def test_multitask_expansion_steps():
    plan = expand(_by_name()["multitask"], STATS, batch_size=32)
    assert plan.stages[0].steps == 3000  # one DROP-sized epoch
    # stage two covers every example: ceil((96000 + 96000) / 32)
    assert plan.stages[1].steps == 6000


def test_t1_stage_plan_is_proportional():
    plan = expand(_by_name()["validation-1"], STATS, batch_size=32)
    stage = plan.stages[0]  # DROP + NUM at T=1
    total = 96_000 + 1_000_000
    assert abs(stage.mixture.ratios["NUM"] - 1_000_000 / total) < 1e-12


def test_expansion_is_pure():
    spec = _by_name()["multitask"]
    a = expand(spec, STATS, batch_size=32, seed=7).to_json()
    b = expand(spec, STATS, batch_size=32, seed=7).to_json()
    assert a == b


def test_manifest_preserves_stage_order():
    plan = expand(_by_name()["validation-2"], STATS, batch_size=16)
    names = [sp.stage.name for sp in plan.stages]
    assert names == [s.name for s in _by_name()["validation-2"].stages]
    shards = [shard for sp in plan.stages for shard in sp.shards]
    assert shards == sorted(shards)  # indexed prefixes keep file order stable


def test_unknown_dataset_rejected():
    spec = PipelineSpec("bad", (StageSpec("s", ("FOO",), ("FOO",)),))
    with pytest.raises(ValidationError, match="FOO"):
        expand(spec, STATS, batch_size=8)


def test_stage_validation_subset_enforced():
    with pytest.raises(ConfigError):
        StageSpec("s", ("DROP",), ("NUM",))


def test_duplicate_stage_names_rejected():
    stage = StageSpec("s", ("DROP",), ("DROP",))
    with pytest.raises(ConfigError):
        PipelineSpec("p", (stage, stage))


def test_spec_file_round_trip(tmp_path):
    spec = _by_name()["multitask"]
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    assert load_pipeline_spec(path) == spec


def test_spec_file_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(
        json.dumps({"name": "mine", "stages": [{"name": "only", "datasets": ["DROP"]}]}),
        encoding="utf-8",
    )
    spec = load_pipeline_spec(path)
    stage = spec.stages[0]
    assert stage.validation == ("DROP",)
    assert stage.temperature == 1.0
    assert stage.mode is EpochMode.COVER_ALL
