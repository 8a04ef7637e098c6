import copy
import math
import random
from collections import Counter
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from numtext.errors import ConfigError, StreamError
from numtext.mixing import _epochs, check_stats, compute_plan, sample_stream

PAPER_SIZES = [("NUM", 1_000_000), ("TXT", 2_000_000), ("DROP", 96_000)]


def _stats(sizes=PAPER_SIZES, **kwargs):
    return check_stats([{"name": name, "length": length, **kwargs} for name, length in sizes])


def _rows(*rows):
    return check_stats([{"name": name, "length": length, "scale": scale} for name, length, scale in rows])


# ---------------------------------------------------------------------------
# compute_plan
# ---------------------------------------------------------------------------

def test_t1_is_examples_proportional():
    plan = compute_plan(_stats(), 1.0)
    total = sum(length for _, length in PAPER_SIZES)
    for (name, length), row in zip(PAPER_SIZES, plan.datasets):
        assert row["name"] == name
        assert abs(row["p"] - length / total) < 1e-12


def test_large_t_is_nearly_uniform():
    plan = compute_plan(_stats(), 1e9)
    for row in plan.datasets:
        assert abs(row["p"] - 1 / 3) < 1e-6


def test_t10_matches_high_precision_evaluation():
    plan = compute_plan(_stats(), 10.0)
    with mpmath.workdps(60):
        rates = [mpmath.power(length, mpmath.mpf(1) / 10) for _, length in PAPER_SIZES]
        expected = [float(rate / sum(rates)) for rate in rates]
    for row, want in zip(plan.datasets, expected):
        assert abs(row["p"] - want) < 1e-12
    # the values the direct evaluation gives, to 3 places
    assert [round(row["p"], 3) for row in plan.datasets] == [0.349, 0.374, 0.276]


def test_higher_t_lowers_largest_dataset_ratio():
    at_1 = compute_plan(_stats(), 1.0).ratios["TXT"]
    at_10 = compute_plan(_stats(), 10.0).ratios["TXT"]
    assert at_10 < at_1


def test_monotone_flattening_keeps_order():
    previous = 1.0
    for temperature in (1.0, 2.0, 5.0, 10.0, 100.0):
        plan = compute_plan(_stats(), temperature)
        ratios = plan.ratios
        assert ratios["TXT"] < previous
        assert ratios["TXT"] > ratios["NUM"] > ratios["DROP"]
        previous = ratios["TXT"]


def test_single_dataset_gets_ratio_one():
    plan = compute_plan(_stats([("only", 123)]), 3.0)
    assert plan.datasets[0]["p"] == 1.0


def test_ratios_sum_to_one():
    for temperature in (0.5, 1.0, 7.3, 1e6):
        plan = compute_plan(_stats(), temperature)
        assert abs(sum(row["p"] for row in plan.datasets) - 1.0) < 1e-12


def test_scale_invariance_power_of_two_is_exact():
    base = _rows(("a", 12345, 1.5), ("b", 777, 0.25), ("c", 99, 3.0))
    doubled = _rows(*[(row["name"], row["length"], row["scale"] * 4.0) for row in base])
    for temperature in (1.0, 2.5, 10.0):
        assert compute_plan(base, temperature).ratios == compute_plan(doubled, temperature).ratios


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.5, max_value=50))
@settings(max_examples=100)
def test_scale_invariance_general_within_tolerance(factor, temperature):
    base = _rows(("a", 1000, 2.0), ("b", 50, 1.0), ("c", 9, 0.1))
    scaled = _rows(*[(row["name"], row["length"], row["scale"] * factor) for row in base])
    for name, ratio in compute_plan(base, temperature).ratios.items():
        other = compute_plan(scaled, temperature).ratios[name]
        assert math.isclose(ratio, other, rel_tol=1e-12)


def test_cap_limits_rate_and_lifting_it_restores():
    capped = check_stats([{"name": "big", "length": 1_000_000, "cap": 96_000.0}, {"name": "small", "length": 96_000}])
    plan = compute_plan(capped, 1.0)
    assert abs(plan.ratios["big"] - 0.5) < 1e-12
    lifted = check_stats([{"name": "big", "length": 1_000_000, "cap": 5e9}, {"name": "small", "length": 96_000}])
    uncapped = _stats([("big", 1_000_000), ("small", 96_000)])
    assert compute_plan(lifted, 1.0).ratios == compute_plan(uncapped, 1.0).ratios


def test_config_errors():
    with pytest.raises(ConfigError):
        check_stats([])
    with pytest.raises(ConfigError):
        compute_plan(_stats(), 0.0)
    with pytest.raises(ConfigError):
        compute_plan(_stats(), -2.0)
    with pytest.raises(ConfigError):
        _stats([("x", 0)])
    with pytest.raises(ConfigError):
        _stats([("x", 10)], scale=0.0)
    with pytest.raises(ConfigError):
        _stats([("a", 10), ("a", 20)])


def test_check_stats_fills_defaults_into_new_rows_that_the_plan_extends():
    raw = [{"name": "a", "length": 7, "extra": 1}, {"name": "b", "length": 3, "scale": 2, "cap": 4}]
    kept = copy.deepcopy(raw)
    stats = check_stats(raw)
    assert raw == kept  # check_stats leaves its input as it is
    assert stats == [
        {"name": "a", "length": 7, "scale": 1.0, "cap": None},
        {"name": "b", "length": 3, "scale": 2.0, "cap": 4.0},
    ]
    assert [type(row["scale"]) for row in stats] == [float, float] and type(stats[1]["cap"]) is float
    for temperature in (1.0, 10.0):
        rows = compute_plan(stats, temperature)._asdict()["datasets"]
        assert [{key: row[key] for key in row if key not in ("r", "p")} for row in rows] == stats
        assert [list(row) for row in rows] == [["name", "length", "scale", "cap", "r", "p"]] * 2


# ---------------------------------------------------------------------------
# sample_stream
# ---------------------------------------------------------------------------

def _sources(names, size=200):
    return {name: [f"{name}-{i}" for i in range(size)] for name in names}


def test_single_dataset_stream():
    plan = compute_plan(_stats([("only", 10)]), 1.0)
    items = list(sample_stream(plan, _sources(["only"], 10), 30, seed=1))
    assert len(items) == 30
    assert all(item.startswith("only-") for item in items)


def test_stream_is_deterministic():
    plan = compute_plan(_stats(), 10.0)
    sources = _sources([name for name, _ in PAPER_SIZES])
    a = list(sample_stream(plan, sources, 5000, seed=9))
    b = list(sample_stream(plan, sources, 5000, seed=9))
    assert a == b


def test_stream_frequencies_track_ratios():
    plan = compute_plan(_stats(), 10.0)
    sources = _sources([name for name, _ in PAPER_SIZES])
    counts = Counter(item.split("-")[0] for item in sample_stream(plan, sources, 100_000, seed=3))
    for row in plan.datasets:
        assert abs(counts[row["name"]] / 100_000 - row["p"]) <= 0.01


def test_stream_chi_square_not_rejected():
    plan = compute_plan(_stats(), 10.0)
    sources = _sources([name for name, _ in PAPER_SIZES])
    counts = Counter(item.split("-")[0] for item in sample_stream(plan, sources, 100_000, seed=31))
    observed = [counts[row["name"]] for row in plan.datasets]
    expected = [row["p"] * 100_000 for row in plan.datasets]
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 1e-4


def test_epoch_shuffle_full_permutation_before_repeats():
    plan = compute_plan(_stats([("only", 10)]), 1.0)
    items = list(sample_stream(plan, _sources(["only"], 10), 20, seed=4))
    assert sorted(items[:10]) == sorted(set(items[:10]))  # first epoch: each once
    assert sorted(items[10:]) == sorted(items[:10])  # second epoch: same pool
    assert items[:10] != items[10:]  # reshuffled between epochs


@pytest.mark.parametrize("size", [1, 2, 3, 7, 500])
@pytest.mark.parametrize("seed", range(5))
def test_the_lazy_walk_gives_the_eager_shuffles_reversed_order(size, seed):
    # The reference walk: shuffle each epoch's whole permutation first, then
    # read it backwards.
    rng, expected = random.Random(seed), []
    for _ in range(3):
        order = list(range(size))
        rng.shuffle(order)
        expected += reversed(order)
    assert list(islice(_epochs(range(size), random.Random(seed), "x"), 3 * size)) == expected


def test_empty_source_is_a_stream_error():
    plan = compute_plan(_stats([("only", 5)]), 1.0)
    with pytest.raises(StreamError, match="^dataset 'only' is empty$"):
        list(sample_stream(plan, {"only": []}, 1, seed=2))


def test_missing_source_rejected():
    plan = compute_plan(_stats(), 1.0)
    with pytest.raises(ConfigError):
        list(sample_stream(plan, _sources(["NUM"]), 5, seed=0))

