"""Synthetic arithmetic-expression data with exact decimal answers.

Expressions are built from six template families and evaluated exactly
(no binary floating point anywhere). Two families follow documented
shapes — signed addition/subtraction chains like
``517.4 - 17484 - 10071.75 + 1013.21`` and ``min/max/avg(f1, f2, f3)``
lists — and the remaining four are reconstructions behind config flags:
two-term add/sub, argmax/argmin position, ``P% of X``, and absolute
difference. Averages of n values may be non-terminating in decimal, so
they are rounded half-even to the configured number of fractional digits
and the rounded value is the stored gold answer.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from enum import Enum
from typing import Iterator, Mapping

from .corpus import AnswerType, Example, TaskTag, format_input
from .decimals import MAX_FRAC_DIGITS, exact, parse_decimal, render, round_ratio_half_even, scaled_integer_ratio
from .errors import ConfigError, ParseError, SelfCheckError
from .seeding import derive_seed


class TemplateFamily(str, Enum):
    COMBINATION = "combination"
    MIN_MAX_AVG = "min_max_avg"
    ADDITION_SUB = "addition_sub"
    ARGMAX_LIKE = "argmax_like"
    PERCENT = "percent"
    DIFFERENCE = "difference"


@dataclass(frozen=True)
class ValueRange:
    """Magnitude range and decimal grid for drawn numbers."""

    min_value: Decimal = Decimal(0)
    max_value: Decimal = Decimal(20000)
    max_frac_digits: int = 2

    def __post_init__(self):
        object.__setattr__(self, "min_value", Decimal(self.min_value))
        object.__setattr__(self, "max_value", Decimal(self.max_value))
        if self.min_value < 0:
            raise ConfigError("min_value is a magnitude and must be >= 0")
        if self.max_value <= self.min_value:
            raise ConfigError("empty value range")
        if not 0 <= self.max_frac_digits <= MAX_FRAC_DIGITS:
            raise ConfigError(f"max_frac_digits must be between 0 and {MAX_FRAC_DIGITS}")
        low, high = self.grid(self.max_frac_digits)
        if low > high:
            raise ConfigError(f"no number with at most {self.max_frac_digits} fractional digits is in the value range")

    @exact
    def grid(self, frac_digits: int) -> tuple[int, int]:
        """Lowest and highest integer n with n * 10**-frac_digits inside the range."""
        low = int(self.min_value.scaleb(frac_digits).to_integral_value(rounding=ROUND_CEILING))
        high = int(self.max_value.scaleb(frac_digits).to_integral_value(rounding=ROUND_FLOOR))
        return low, high


@dataclass(frozen=True)
class NumGenConfig:
    ranges: ValueRange = field(default_factory=ValueRange)
    family_weights: Mapping[TemplateFamily, float] = field(
        default_factory=lambda: {family: 1.0 for family in TemplateFamily}
    )
    combination_terms: tuple[int, int] = (3, 5)
    list_terms: tuple[int, int] = (3, 4)
    percent_range: tuple[int, int] = (1, 100)

    def __post_init__(self):
        weights = {TemplateFamily(k): float(v) for k, v in self.family_weights.items()}
        if not weights or all(w <= 0 for w in weights.values()):
            raise ConfigError("at least one template family must have positive weight")
        if not all(0 <= w < math.inf for w in weights.values()):
            raise ConfigError("family weights must be finite and >= 0")
        object.__setattr__(self, "family_weights", weights)
        for name in ("combination_terms", "list_terms", "percent_range"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < (2 if name != "percent_range" else 1):
                raise ConfigError(f"bad {name}: {(lo, hi)}")
        if weights.get(TemplateFamily.ARGMAX_LIKE, 0.0) > 0:
            # argmax_like redraws until its values are distinct; the finest
            # grid holds every value any coarser one can draw.
            low, high = self.ranges.grid(self.ranges.max_frac_digits)
            if high - low + 1 < self.list_terms[1]:
                raise ConfigError(
                    f"argmax_like needs {self.list_terms[1]} distinct values, "
                    f"but the value range holds only {high - low + 1}"
                )


@dataclass(frozen=True)
class NumExample:
    expression: str
    answer: Decimal
    family: TemplateFamily
    rng_seed: int = 0

    def to_json(self) -> dict:
        return {
            "expression": self.expression,
            "answer": render(self.answer),
            "family": self.family.value,
            "seed": self.rng_seed,
        }


# ---------------------------------------------------------------------------
# Exact expression evaluation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[a-z_]+)|(?P<punct>[()+,%-]))")

_LIST_OPS = ("min", "max", "avg", "argmax", "argmin", "diff")


def _tokenize_expr(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            column = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", column=column)
        for kind in ("number", "name", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize_expr(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", column=len(self.text))
        self.index += 1
        return token

    def expect(self, value: str):
        kind, text, column = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", column=column)

    def number(self) -> Decimal:
        kind, text, column = self.next()
        if kind != "number":
            raise ParseError(f"expected a number, found {text!r}", column=column)
        return parse_decimal(text)


def _eval_list_op(name: str, values: list[Decimal], column: int, frac_digits: int) -> Decimal:
    if name in ("min", "max"):
        return min(values) if name == "min" else max(values)
    if name == "avg":
        total = Decimal(0)
        for value in values:
            total += value
        numerator, denominator = scaled_integer_ratio(total)
        return round_ratio_half_even(numerator, denominator * len(values), frac_digits)
    if name == "argmax":
        return Decimal(values.index(max(values)) + 1)
    if name == "argmin":
        return Decimal(values.index(min(values)) + 1)
    if name == "diff":
        if len(values) != 2:
            raise ParseError("diff takes exactly two values", column=column)
        return abs(values[0] - values[1])
    raise ParseError(f"unsupported operator {name!r}", column=column)


@exact
def eval_expr(expression: str, frac_digits: int = 2) -> Decimal:
    """Evaluate an expression exactly; ``frac_digits`` bounds avg rounding.

    Supported forms: a flat left-associative +/- chain over decimal
    literals (optionally signed first term), ``op(v1, v2, ...)`` for op in
    min/max/avg/argmax/argmin/diff, and ``P% of X``.
    """
    parser = _Parser(expression)
    first = parser.peek()
    if first is None:
        raise ParseError("empty expression", column=0)

    if first[0] == "name":
        name, column = first[1], first[2]
        parser.next()
        if name not in _LIST_OPS:
            raise ParseError(f"unsupported operator {name!r}", column=column)
        parser.expect("(")
        values = [parser.number()]
        while parser.peek() and parser.peek()[1] == ",":
            parser.next()
            values.append(parser.number())
        parser.expect(")")
        if parser.peek() is not None:
            raise ParseError("trailing input after expression", column=parser.peek()[2])
        return _eval_list_op(name, values, column, frac_digits)

    # Leading sign, then either a percent form or a +/- chain.
    sign = Decimal(1)
    if first[0] == "punct" and first[1] in "+-":
        parser.next()
        sign = Decimal(-1) if first[1] == "-" else Decimal(1)
    value = parser.number() * sign

    token = parser.peek()
    if token is not None and token[1] == "%":
        parser.next()
        kind, text, column = parser.next()
        if (kind, text) != ("name", "of"):
            raise ParseError(f"expected 'of' after '%', found {text!r}", column=column)
        base = parser.number()
        if parser.peek() is not None:
            raise ParseError("trailing input after expression", column=parser.peek()[2])
        return (value * base).scaleb(-2)

    while (token := parser.peek()) is not None:
        kind, text, column = token
        if kind != "punct" or text not in "+-":
            raise ParseError(f"expected '+' or '-', found {text!r}", column=column)
        parser.next()
        operand = parser.number()
        value = value + operand if text == "+" else value - operand
    return value


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

def _draw_decimal(rng: random.Random, ranges: ValueRange) -> Decimal:
    # Draw the number of fractional digits first, then uniformly on that grid,
    # so integers and short decimals stay common at any max_frac_digits. A
    # coarse grid may hold no value of the range; the finest one always does.
    while True:
        scale = rng.randint(0, ranges.max_frac_digits)
        low, high = ranges.grid(scale)
        if low <= high:
            return Decimal(rng.randint(low, high)).scaleb(-scale)


@exact
def instantiate(
    family: TemplateFamily,
    terms: int,
    rng: random.Random,
    ranges: ValueRange = ValueRange(),
    percent_range: tuple[int, int] = (1, 100),
    rng_seed: int = 0,
) -> NumExample:
    """Draw an expression of ``family`` over ``terms`` values and compute its exact answer.

    ``terms`` counts the signed terms of an addition chain or the values of
    a list operator; percent and difference always take two values.
    """
    if family in (TemplateFamily.COMBINATION, TemplateFamily.ADDITION_SUB):
        signs = []
        numbers = []
        for _ in range(terms):
            signs.append(rng.choice("+-"))
            numbers.append(_draw_decimal(rng, ranges))
        parts = [f"-{render(numbers[0])}" if signs[0] == "-" else render(numbers[0])]
        answer = -numbers[0] if signs[0] == "-" else numbers[0]
        for sign, number in zip(signs[1:], numbers[1:]):
            parts.append(f" {sign} {render(number)}")
            answer = answer + number if sign == "+" else answer - number
        return NumExample("".join(parts), answer, family, rng_seed)

    if family in (TemplateFamily.MIN_MAX_AVG, TemplateFamily.ARGMAX_LIKE):
        ops = ("min", "max", "avg") if family is TemplateFamily.MIN_MAX_AVG else ("argmax", "argmin")
        op = rng.choice(ops)
        numbers = [_draw_decimal(rng, ranges) for _ in range(terms)]
        if family is TemplateFamily.ARGMAX_LIKE:
            # Redraw until values are distinct so the position is unambiguous.
            while len(set(numbers)) != len(numbers):
                numbers = [_draw_decimal(rng, ranges) for _ in range(terms)]
        expression = f"{op}({', '.join(render(n) for n in numbers)})"
        answer = _eval_list_op(op, numbers, 0, ranges.max_frac_digits)
        return NumExample(expression, answer, family, rng_seed)

    if family is TemplateFamily.PERCENT:
        percent = Decimal(rng.randint(*percent_range))
        base = _draw_decimal(rng, ranges)
        expression = f"{render(percent)}% of {render(base)}"
        return NumExample(expression, (percent * base).scaleb(-2), family, rng_seed)

    if family is TemplateFamily.DIFFERENCE:
        a = _draw_decimal(rng, ranges)
        b = _draw_decimal(rng, ranges)
        expression = f"diff({render(a)}, {render(b)})"
        return NumExample(expression, abs(a - b), family, rng_seed)

    raise ConfigError(f"unknown family: {family}")


def generate_num(count: int, config: NumGenConfig = NumGenConfig(), seed: int = 0) -> Iterator[NumExample]:
    """Yield ``count`` reproducible examples, each self-checked against eval_expr.

    Example i draws everything from a child seed derived as (seed, "num", i),
    so any index range can be generated independently (sharding).
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    families = [f for f, w in config.family_weights.items() if w > 0]
    weights = [config.family_weights[f] for f in families]
    return _generate_num(count, config, seed, families, weights)


def _generate_num(count, config, seed, families, weights) -> Iterator[NumExample]:
    for index in range(count):
        child = derive_seed(seed, "num", index)
        rng = random.Random(child)
        family = rng.choices(families, weights=weights, k=1)[0]
        if family in (TemplateFamily.COMBINATION, TemplateFamily.ADDITION_SUB):
            terms = 2 if family is TemplateFamily.ADDITION_SUB else rng.randint(*config.combination_terms)
        elif family in (TemplateFamily.MIN_MAX_AVG, TemplateFamily.ARGMAX_LIKE):
            terms = rng.randint(*config.list_terms)
        else:
            terms = 2
        example = instantiate(family, terms, rng, config.ranges, config.percent_range, rng_seed=child)
        check = eval_expr(example.expression, config.ranges.max_frac_digits)
        if check != example.answer:
            raise SelfCheckError(f"self-check failed for {example.expression!r}: {check} != {example.answer}")
        yield example


def num_to_example(example: NumExample) -> Example:
    """Wrap a NumExample as a calculate-task corpus record."""
    return Example(
        input=format_input(TaskTag.CALCULATE, example.expression),
        target=render(example.answer),
        task=TaskTag.CALCULATE,
        answer_type=AnswerType.NUMBER,
        source_id=f"num-{example.rng_seed:016x}",
    )
