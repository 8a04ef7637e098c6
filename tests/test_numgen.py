import random
import re
from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from numtext import numgen
from numtext.decimals import EXACT, exact, parse_decimal, render
from numtext.errors import ConfigError, ParseError
from numtext.numgen import (
    NumGenConfig,
    eval_expr,
    generate_num,
    instantiate,
    num_to_example,
)

from oracles import oracle_eval


# ---------------------------------------------------------------------------
# eval_expr
# ---------------------------------------------------------------------------

def test_eval_paper_style_chain():
    assert eval_expr("517.4 - 17484 - 10071.75 + 1013.21") == Decimal("-26025.14")


def test_eval_is_exact_in_decimal():
    assert eval_expr("0.1 + 0.2") == Decimal("0.3")


def test_eval_trivial_cases():
    assert eval_expr("max(1, 2, 3)") == Decimal(3)
    assert eval_expr("0 + 0") == Decimal(0)
    assert eval_expr("min(4, 9)") == Decimal(4)
    assert eval_expr("avg(2, 4, 6)") == Decimal(4)


def test_eval_reconstructed_forms():
    assert eval_expr("argmax(3, 17, 2)") == Decimal(2)
    assert eval_expr("argmin(3, 17, 2)") == Decimal(3)
    assert eval_expr("diff(9, 4.5)") == Decimal("4.5")
    assert eval_expr("diff(4.5, 9)") == Decimal("4.5")
    assert eval_expr("12% of 400") == Decimal(48)
    assert eval_expr("12.5% of 517.4") == Decimal("64.675")


def test_eval_avg_rounds_half_even():
    assert eval_expr("avg(1, 2, 4)") == Decimal("2.33")
    assert eval_expr("avg(0.01, 0.02)") == Decimal("0.02")  # tie 0.015 -> even
    assert eval_expr("avg(0.03, 0.04)") == Decimal("0.04")  # tie 0.035 -> even
    assert eval_expr("avg(1, 2)", frac_digits=0) == Decimal(2)


def test_eval_leading_sign():
    assert eval_expr("-5 + 3") == Decimal(-2)
    assert eval_expr("+5 - 3") == Decimal(2)


def test_eval_parse_error_carries_column():
    with pytest.raises(ParseError) as info:
        eval_expr("1 + x")
    assert info.value.column == 4


def test_eval_rejects_unsupported_operator():
    with pytest.raises(ParseError):
        eval_expr("median(1, 2, 3)")
    with pytest.raises(ParseError):
        eval_expr("1 * 2")


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

def test_combination_template_can_yield_paper_shape():
    example = instantiate(numgen.COMBINATION, 4, random.Random(3))
    # shape: four decimal terms joined by " + " / " - ", maybe a leading '-'
    terms = example.expression.replace(" - ", " + ").split(" + ")
    assert len(terms) == 4
    assert eval_expr(example.expression) == example.answer


def test_instantiate_is_deterministic():
    config = NumGenConfig(max_frac_digits=2)
    a = instantiate(numgen.COMBINATION, 3, random.Random(11), config)
    b = instantiate(numgen.COMBINATION, 3, random.Random(11), config)
    assert a == b


def test_empty_range_is_config_error():
    with pytest.raises(ConfigError):
        NumGenConfig(min_value=Decimal(5), max_value=Decimal(5))


def test_coarse_grids_without_a_value_redraw_the_scale():
    # No integer lies in [0.1, 0.9]: scale 0 is redrawn, and a range whose
    # finest grid is empty too is refused before anything is drawn.
    families = {numgen.DIFFERENCE: 1.0, numgen.MIN_MAX_AVG: 1.0}  # every literal is a drawn value
    config = NumGenConfig(Decimal("0.1"), Decimal("0.9"), max_frac_digits=2, family_weights=families)
    for example in generate_num(300, config, seed=1):
        drawn = [Decimal(literal) for literal in re.findall(r"\d+(?:\.\d+)?", example.expression)]
        assert drawn and all(Decimal("0.1") <= value <= Decimal("0.9") for value in drawn), example.expression
        assert Fraction(render(example.answer)) == oracle_eval(example.expression, 2)
    with pytest.raises(ConfigError, match="fractional digits"):
        NumGenConfig(Decimal("0.1"), Decimal("0.9"), max_frac_digits=0)


def test_negative_magnitude_rejected():
    with pytest.raises(ConfigError):
        NumGenConfig(min_value=Decimal(-1), max_value=Decimal(10))


def test_argmax_like_needs_enough_distinct_values_on_the_grid():
    # argmax_like redraws until its up to LIST_TERMS[1] values are distinct:
    # a grid of 2 values must be refused before anything is drawn.
    argmax_only = {numgen.ARGMAX_LIKE: 1.0}
    with pytest.raises(ConfigError, match="distinct values"):
        NumGenConfig(0, 1, max_frac_digits=0, family_weights=argmax_only)
    NumGenConfig(0, 3, max_frac_digits=0, family_weights=argmax_only)
    NumGenConfig(0, Decimal("0.3"), max_frac_digits=1, family_weights=argmax_only)
    small_but_unused = {numgen.ARGMAX_LIKE: 0.0, numgen.DIFFERENCE: 1.0}
    NumGenConfig(0, 1, max_frac_digits=0, family_weights=small_but_unused)


def test_unknown_family_is_config_error():
    with pytest.raises(ConfigError, match="unknown template family 'nosuch'; families are combination, "):
        NumGenConfig(family_weights={"nosuch": 1.0})


# ---------------------------------------------------------------------------
# generate_num
# ---------------------------------------------------------------------------

def test_generate_count_zero_rejected():
    with pytest.raises(ConfigError):
        list(generate_num(0))


def test_generate_is_reproducible():
    first = [e.to_json() for e in generate_num(500, seed=7)]
    second = [e.to_json() for e in generate_num(500, seed=7)]
    assert first == second


def test_generate_different_seeds_differ():
    a = [e.expression for e in generate_num(50, seed=1)]
    b = [e.expression for e in generate_num(50, seed=2)]
    assert a != b


def test_generated_examples_agree_with_rational_oracle():
    config = NumGenConfig()
    count = 0
    for example in generate_num(2000, config, seed=13):
        expected = oracle_eval(example.expression, config.max_frac_digits)
        assert Fraction(render(example.answer)) == expected, example.expression
        count += 1
    assert count == 2000


def test_exactness_survives_wide_magnitudes():
    # regression: canonicalization used to round through the default
    # 28-digit decimal context once operands got wider than that
    config = NumGenConfig(min_value=Decimal(0), max_value=Decimal(10) ** 25, max_frac_digits=6)
    for example in generate_num(500, config, seed=1):
        expected = oracle_eval(example.expression, 6)
        assert Fraction(render(example.answer)) == expected, example.expression


@pytest.mark.parametrize("max_frac_digits", [0, 2])
def test_exactness_survives_magnitudes_past_200_digits(max_frac_digits):
    config = NumGenConfig(max_value=Decimal(10**250), max_frac_digits=max_frac_digits)
    for example in generate_num(300, config, seed=2):
        expected = oracle_eval(example.expression, max_frac_digits)
        assert Fraction(render(example.answer)) == expected, example.expression


def test_family_weights_respected():
    config = NumGenConfig(family_weights={numgen.MIN_MAX_AVG: 1.0})
    families = {e.family for e in generate_num(50, config, seed=5)}
    assert families == {numgen.MIN_MAX_AVG}


def test_sign_coverage_is_fair(monkeypatch):
    monkeypatch.setattr(numgen, "COMBINATION_TERMS", (3, 3))
    config = NumGenConfig(family_weights={numgen.COMBINATION: 1.0})
    plus = [0, 0, 0]
    total = 0
    for example in generate_num(10_000, config, seed=21):
        # slot signs: leading '-' or not, then the two explicit operators
        expr = example.expression
        plus[0] += 0 if expr.startswith("-") else 1
        operators = [c for c in expr.split() if c in "+-"]
        assert len(operators) == 2
        for i, op in enumerate(operators, start=1):
            plus[i] += 1 if op == "+" else 0
        total += 1
    for count in plus:
        assert abs(count / total - 0.5) <= 0.02


def test_rendering_round_trip():
    for example in generate_num(300, seed=3):
        assert parse_decimal(render(example.answer)) == example.answer


@given(st.integers(-10**12, 10**12), st.integers(0, 6))
def test_render_parse_round_trip_property(mantissa, scale):
    value = Decimal(mantissa).scaleb(-scale)
    assert parse_decimal(render(value)) == value


def _canonical_render(value: Decimal) -> str:
    # Reference: render() as it was built on a canonical() that quantized
    # integers and normalized the rest in a context sized to the operand.
    if value == 0:
        return "0"
    context = getcontext().copy()
    context.prec = len(value.as_tuple().digits) + abs(value.as_tuple().exponent) + 2
    if value == value.to_integral_value(context=context):
        return format(value.quantize(Decimal(1), context=context), "f")
    return format(value.normalize(context), "f")


@given(
    st.booleans(),
    st.integers(0, 10**250) | st.integers(0, 10**6),
    st.integers(0, 40),
    st.integers(-300, 300),
)
def test_render_matches_canonical_reference(negative, magnitude, trailing_zeros, exponent):
    value = Decimal(f"{'-' if negative else ''}{magnitude * 10**trailing_zeros}e{exponent}")
    assert render(value) == _canonical_render(value)


def test_num_to_example_uses_calculate_prefix():
    example = num_to_example(next(iter(generate_num(1, seed=2))))
    assert example.input.startswith("calculate: ")
    assert example.task == "calculate"
    assert example.target == render(eval_expr(example.input[len("calculate: "):]))


# ---------------------------------------------------------------------------
# The exact context: entered once per example, never held across a yield
# ---------------------------------------------------------------------------

def test_generate_num_leaves_the_callers_decimal_context_unchanged():
    config = NumGenConfig(max_value=Decimal(10**40), max_frac_digits=4)
    with localcontext(Context()):
        examples = generate_num(5, config, seed=1)
        next(examples)
        context = getcontext()
        assert context.prec == 28
        assert not context.traps[Inexact] and not context.traps[Rounded]
        assert Decimal(1) / 3 == Decimal("0.3333333333333333333333333333")
        next(examples)
        assert getcontext().prec == 28


@exact
def _round_to_tenths(text: str) -> Decimal:
    return Decimal(text).quantize(Decimal("0.1"))


@pytest.mark.parametrize(
    "missing, text, signal",
    [(Inexact, "1.25", Inexact), (Rounded, "1.20", Rounded)],
    ids=["without-inexact-trap", "without-rounded-trap"],
)
def test_exact_enters_exact_when_a_trap_is_missing(missing, text, signal):
    # The context is EXACT but for one trap, so exact must not take it for
    # EXACT. "1.20" -> "1.2" rounds away a zero: Rounded without Inexact.
    context = EXACT.copy()
    context.traps[missing] = False
    assert context.prec == MAX_PREC
    with localcontext(context):
        with pytest.raises(signal):
            _round_to_tenths(text)


def test_value_range_grids_hold_every_scale():
    config = NumGenConfig(min_value=Decimal("0.15"), max_value=Decimal("2.5"), max_frac_digits=3)
    assert config.grids == ((1, 2), (2, 25), (15, 250), (150, 2500))
