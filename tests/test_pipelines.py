import copy
import json

import pytest

from numtext.corpus import load_json
from numtext.errors import ConfigError, ValidationError
from numtext.mixing import check_stats
from numtext.pipelines import (
    COVER_ALL,
    DROP_EXCEPTION,
    builtin_pipelines,
    check_spec,
    expand,
    steps_per_epoch,
)

STATS = check_stats([
    {"name": "DROP", "length": 96_000},
    {"name": "DROP-class", "length": 96_000},
    {"name": "NUM", "length": 1_000_000},
    {"name": "TXT", "length": 2_000_000},
    {"name": "SQuAD", "length": 87_599},
])
BY_NAME = {row["name"]: row for row in STATS}


def _by_name():
    return {spec["name"]: spec for spec in builtin_pipelines()}


def _spec(*stages, name="p"):
    return check_spec({"name": name, "stages": list(stages)})


def test_exactly_five_builtins():
    assert len(builtin_pipelines()) == 5


def test_multitask_first_stage_datasets():
    multitask = _by_name()["multitask"]
    stage = multitask["stages"][0]
    assert stage["datasets"] == ["DROP", "TXT", "NUM", "SQuAD"]
    assert stage["temperature"] == 10.0
    assert stage["mode"] == DROP_EXCEPTION
    assert stage["validation"] == ["DROP"]


def test_rc2_moves_squad_into_finetuning():
    rc2 = _by_name()["rc-2"]
    assert rc2["stages"][0]["datasets"] == ["DROP", "DROP-class", "SQuAD"]
    assert rc2["stages"][-1]["datasets"] == ["DROP"]
    rc1 = _by_name()["rc-1"]
    assert rc1["stages"][0]["datasets"] == ["DROP", "SQuAD"]


def test_validation_variants_differ_only_in_validation_sets():
    v1, v2 = _by_name()["validation-1"], _by_name()["validation-2"]
    assert [s["datasets"] for s in v1["stages"]] == [s["datasets"] for s in v2["stages"]]
    assert v1["stages"][0]["validation"] == ["DROP"]
    assert v2["stages"][0]["validation"] == ["NUM"]
    assert v2["stages"][1]["validation"] == ["TXT"]


def test_every_builtin_references_known_datasets():
    for spec in builtin_pipelines():
        for stage in spec["stages"]:
            assert set(stage["datasets"]) <= set(BY_NAME)
            assert set(stage["validation"]) <= set(stage["datasets"])
            assert stage["temperature"] > 0


def test_all_builtins_expand_with_standard_stats():
    for spec in builtin_pipelines():
        plan = expand(spec, STATS, batch_size=32, seed=1)
        assert len(plan["stages"]) == len(spec["stages"])
        for stage_plan in plan["stages"]:
            assert stage_plan["steps"] >= 1
            assert abs(sum(e["p"] for e in stage_plan["plan"]["datasets"]) - 1.0) < 1e-12


def test_multitask_expansion_steps():
    plan = expand(_by_name()["multitask"], STATS, batch_size=32)
    assert plan["stages"][0]["steps"] == 3000  # one DROP-sized epoch
    # stage two covers every example: ceil((96000 + 96000) / 32)
    assert plan["stages"][1]["steps"] == 6000


def test_t1_stage_plan_is_proportional():
    plan = expand(_by_name()["validation-1"], STATS, batch_size=32)
    stage = plan["stages"][0]  # DROP + NUM at T=1
    total = 96_000 + 1_000_000
    ratios = {entry["name"]: entry["p"] for entry in stage["plan"]["datasets"]}
    assert abs(ratios["NUM"] - 1_000_000 / total) < 1e-12


def test_expansion_is_pure():
    spec = _by_name()["multitask"]
    a = expand(spec, STATS, batch_size=32, seed=7)
    b = expand(spec, STATS, batch_size=32, seed=7)
    assert a == b


def test_manifest_preserves_stage_order():
    plan = expand(_by_name()["validation-2"], STATS, batch_size=16)
    names = [sp["stage"]["name"] for sp in plan["stages"]]
    assert names == [s["name"] for s in _by_name()["validation-2"]["stages"]]
    shards = [shard for sp in plan["stages"] for shard in sp["shards"]]
    assert shards == sorted(shards)  # indexed prefixes keep file order stable


def test_unknown_dataset_rejected():
    spec = _spec({"name": "s", "datasets": ["FOO"], "validation": ["FOO"]}, name="bad")
    with pytest.raises(ValidationError, match="FOO"):
        expand(spec, STATS, batch_size=8)


def test_stage_validation_subset_enforced():
    with pytest.raises(ConfigError):
        _spec({"name": "s", "datasets": ["DROP"], "validation": ["NUM"]})


def test_duplicate_stage_names_rejected():
    stage = {"name": "s", "datasets": ["DROP"], "validation": ["DROP"]}
    with pytest.raises(ConfigError):
        _spec(stage, stage)


def test_a_stage_naming_a_dataset_twice_is_rejected_with_its_pipeline_and_stage():
    with pytest.raises(ConfigError, match=r"^pipeline 'p' stage 's' lists a dataset twice: \['DROP', 'NUM', 'DROP'\]$"):
        _spec({"name": "s", "datasets": ["DROP", "NUM", "DROP"]})


def test_spec_file_round_trip(tmp_path):
    spec = _by_name()["multitask"]
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert check_spec(load_json(path)) == spec


def test_spec_file_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(
        json.dumps({"name": "mine", "stages": [{"name": "only", "datasets": ["DROP"]}]}),
        encoding="utf-8",
    )
    spec = check_spec(load_json(path))
    stage = spec["stages"][0]
    assert stage["validation"] == ["DROP"]
    assert stage["temperature"] == 1.0
    assert stage["mode"] == COVER_ALL


def test_check_spec_fills_defaults_as_new_objects():
    raw = {"name": "p", "extra": 1, "stages": [{"name": "s", "datasets": ["DROP"], "temperature": 3, "junk": 0}]}
    spec = check_spec(raw)
    stage = spec["stages"][0]
    assert spec == {"name": "p", "stages": [stage]}
    assert stage == {"name": "s", "datasets": ["DROP"], "validation": ["DROP"], "temperature": 3.0, "mode": COVER_ALL}
    assert type(stage["temperature"]) is float
    assert stage["validation"] is not stage["datasets"]
    assert stage["datasets"] is not raw["stages"][0]["datasets"]


def test_returned_specs_and_plans_share_nothing_with_the_builtins():
    before = builtin_pipelines()
    raw = {"name": "p", "stages": [{"name": "s", "datasets": ["DROP", "NUM"], "validation": ["NUM"]}]}
    kept = copy.deepcopy(raw)
    checked = check_spec(raw)
    assert raw == kept  # check_spec leaves its input as it is

    spec = builtin_pipelines()[-1]
    plan = expand(spec, STATS, batch_size=32)
    spec_kept = copy.deepcopy(spec)
    for stage_plan in plan["stages"]:
        stage_plan["stage"]["datasets"].append("NUM")
        stage_plan["stage"]["validation"].clear()
        stage_plan["stage"]["mode"] = "x"
        stage_plan["shards"].clear()
    assert spec == spec_kept  # the plan shares no object with its spec

    for mutated in [checked, spec, *builtin_pipelines()]:
        mutated["name"] = "renamed"
        for stage in mutated["stages"]:
            stage["datasets"].append("NUM")
            stage["validation"].clear()
            stage["temperature"] = -1
        mutated["stages"].append({})
    assert builtin_pipelines() == before


# ---------------------------------------------------------------------------
# steps_per_epoch
# ---------------------------------------------------------------------------

def _one(name, length):
    return check_stats([{"name": name, "length": length}])


def test_steps_cover_all():
    stats = check_stats([{"name": "a", "length": 10}, {"name": "b", "length": 20}])
    assert steps_per_epoch(stats, 5, COVER_ALL) == 6


def test_steps_drop_exception_mode():
    stats = [BY_NAME["NUM"], BY_NAME["TXT"], BY_NAME["DROP"]]
    assert steps_per_epoch(stats, 32, DROP_EXCEPTION) == 3000


def test_steps_batch_larger_than_total():
    assert steps_per_epoch(_one("a", 10), 100) == 1


def test_steps_missing_reference_rejected():
    with pytest.raises(ConfigError):
        steps_per_epoch(_one("a", 10), 4, DROP_EXCEPTION)


def test_steps_bad_batch_rejected():
    with pytest.raises(ConfigError):
        steps_per_epoch(_one("a", 10), 0)


def test_steps_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode"):
        steps_per_epoch(_one("DROP", 10), 4, "drop_epoch")
