import math
from collections import Counter

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from numtext.errors import ConfigError, StreamError
from numtext.mixing import DatasetStat, compute_plan, sample_stream

PAPER_SIZES = [("NUM", 1_000_000), ("TXT", 2_000_000), ("DROP", 96_000)]


def _stats(sizes=PAPER_SIZES, **kwargs):
    return [DatasetStat(name, length, **kwargs) for name, length in sizes]


# ---------------------------------------------------------------------------
# compute_plan
# ---------------------------------------------------------------------------

def test_t1_is_examples_proportional():
    plan = compute_plan(_stats(), 1.0)
    total = sum(length for _, length in PAPER_SIZES)
    for (name, length), entry in zip(PAPER_SIZES, plan.entries):
        assert entry.name == name
        assert abs(entry.ratio - length / total) < 1e-12


def test_large_t_is_nearly_uniform():
    plan = compute_plan(_stats(), 1e9)
    for entry in plan.entries:
        assert abs(entry.ratio - 1 / 3) < 1e-6


def test_t10_matches_high_precision_evaluation():
    plan = compute_plan(_stats(), 10.0)
    with mpmath.workdps(60):
        rates = [mpmath.power(length, mpmath.mpf(1) / 10) for _, length in PAPER_SIZES]
        expected = [float(rate / sum(rates)) for rate in rates]
    for entry, want in zip(plan.entries, expected):
        assert abs(entry.ratio - want) < 1e-12
    # the values the direct evaluation gives, to 3 places
    assert [round(e.ratio, 3) for e in plan.entries] == [0.349, 0.374, 0.276]


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
    plan = compute_plan([DatasetStat("only", 123)], 3.0)
    assert plan.entries[0].ratio == 1.0


def test_ratios_sum_to_one():
    for temperature in (0.5, 1.0, 7.3, 1e6):
        plan = compute_plan(_stats(), temperature)
        assert abs(sum(e.ratio for e in plan.entries) - 1.0) < 1e-12


def test_scale_invariance_power_of_two_is_exact():
    base = [DatasetStat("a", 12345, scale=1.5), DatasetStat("b", 777, scale=0.25), DatasetStat("c", 99, scale=3.0)]
    doubled = [DatasetStat(s.name, s.length, scale=s.scale * 4.0) for s in base]
    for temperature in (1.0, 2.5, 10.0):
        assert compute_plan(base, temperature).ratios == compute_plan(doubled, temperature).ratios


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.5, max_value=50))
@settings(max_examples=100)
def test_scale_invariance_general_within_tolerance(factor, temperature):
    base = [DatasetStat("a", 1000, scale=2.0), DatasetStat("b", 50), DatasetStat("c", 9, scale=0.1)]
    scaled = [DatasetStat(s.name, s.length, scale=s.scale * factor) for s in base]
    for name, ratio in compute_plan(base, temperature).ratios.items():
        other = compute_plan(scaled, temperature).ratios[name]
        assert math.isclose(ratio, other, rel_tol=1e-12)


def test_cap_limits_rate_and_lifting_it_restores():
    capped = [DatasetStat("big", 1_000_000, cap=96_000.0), DatasetStat("small", 96_000)]
    plan = compute_plan(capped, 1.0)
    assert abs(plan.ratios["big"] - 0.5) < 1e-12
    lifted = [DatasetStat("big", 1_000_000, cap=5e9), DatasetStat("small", 96_000)]
    uncapped = [DatasetStat("big", 1_000_000), DatasetStat("small", 96_000)]
    assert compute_plan(lifted, 1.0).ratios == compute_plan(uncapped, 1.0).ratios


def test_config_errors():
    with pytest.raises(ConfigError):
        compute_plan([], 1.0)
    with pytest.raises(ConfigError):
        compute_plan(_stats(), 0.0)
    with pytest.raises(ConfigError):
        compute_plan(_stats(), -2.0)
    with pytest.raises(ConfigError):
        DatasetStat("x", 0)
    with pytest.raises(ConfigError):
        DatasetStat("x", 10, scale=0.0)
    with pytest.raises(ConfigError):
        compute_plan([DatasetStat("a", 10), DatasetStat("a", 20)], 1.0)


# ---------------------------------------------------------------------------
# sample_stream
# ---------------------------------------------------------------------------

def _sources(names, size=200):
    return {name: [f"{name}-{i}" for i in range(size)] for name in names}


def test_single_dataset_stream():
    plan = compute_plan([DatasetStat("only", 10)], 1.0)
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
    for entry in plan.entries:
        assert abs(counts[entry.name] / 100_000 - entry.ratio) <= 0.01


def test_stream_chi_square_not_rejected():
    plan = compute_plan(_stats(), 10.0)
    sources = _sources([name for name, _ in PAPER_SIZES])
    counts = Counter(item.split("-")[0] for item in sample_stream(plan, sources, 100_000, seed=31))
    observed = [counts[e.name] for e in plan.entries]
    expected = [e.ratio * 100_000 for e in plan.entries]
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 1e-4


def test_epoch_shuffle_full_permutation_before_repeats():
    plan = compute_plan([DatasetStat("only", 10)], 1.0)
    items = list(sample_stream(plan, _sources(["only"], 10), 20, seed=4))
    assert sorted(items[:10]) == sorted(set(items[:10]))  # first epoch: each once
    assert sorted(items[10:]) == sorted(items[:10])  # second epoch: same pool
    assert items[:10] != items[10:]  # reshuffled between epochs


def test_exhausted_source_with_repeats_disabled():
    plan = compute_plan([DatasetStat("only", 5)], 1.0)
    stream = sample_stream(plan, _sources(["only"], 5), 6, seed=2, allow_repeats=False)
    with pytest.raises(StreamError, match="only"):
        list(stream)


def test_missing_source_rejected():
    plan = compute_plan(_stats(), 1.0)
    with pytest.raises(ConfigError):
        list(sample_stream(plan, _sources(["NUM"]), 5, seed=0))

