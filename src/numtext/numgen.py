"""Synthetic arithmetic-expression data with exact decimal answers.

Expressions are built from six template families and evaluated exactly
(no binary floating point anywhere). Two families follow documented
shapes — signed addition/subtraction chains like
``517.4 - 17484 - 10071.75 + 1013.21`` and ``min/max/avg(f1, f2, f3)``
lists — and the remaining four are reconstructions behind config flags:
two-term add/sub, argmax/argmin position, ``P% of X``, and absolute
difference. Averages of n values may be non-terminating in decimal, so
they are rounded half-even to the configured number of fractional digits
and the rounded value is the stored gold answer. ``generate_num`` is a
generator: its argument errors raise at the first draw, not at the call.
"""

from __future__ import annotations

import math
import random
import re
from decimal import Decimal, localcontext
from typing import Iterator, Mapping, NamedTuple

from .corpus import CALCULATE, NUMBER, Example, format_input
from .decimals import EXACT, MAX_FRAC_DIGITS, exact, render, round_ratio_half_even
from .errors import ConfigError, ParseError, SelfCheckError
from .seeding import derive_seed


#: The template families, in the order the default weights draw them.
FAMILIES = COMBINATION, MIN_MAX_AVG, ADDITION_SUB, ARGMAX_LIKE, PERCENT, DIFFERENCE = (
    "combination", "min_max_avg", "addition_sub", "argmax_like", "percent", "difference"
)


#: Inclusive ranges drawn for each example: the terms of a combination
#: chain, the values of a min/max/avg or argmax/argmin list, and P in "P% of X".
COMBINATION_TERMS = (3, 5)
LIST_TERMS = (3, 4)
PERCENT_RANGE = (1, 100)


class NumGenConfig:
    """Magnitude range, decimal grid and template family weights for drawn numbers.

    ``grids[s]`` is the lowest and highest integer n with n * 10**-s
    inside the range, for each scale s up to ``max_frac_digits``. The range,
    then the weights, then argmax_like's need for distinct values on the
    grid are checked; the first broken rule raises ConfigError.
    """

    # The defaults, as class attributes too: the command line reads its flag defaults here.
    min_value = Decimal(0)
    max_value = Decimal(20000)
    max_frac_digits = 2

    def __init__(
        self,
        min_value: Decimal = min_value,
        max_value: Decimal = max_value,
        max_frac_digits: int = max_frac_digits,
        family_weights: Mapping[str, float] = dict.fromkeys(FAMILIES, 1.0),  # only read: a copy is kept
    ):
        self.min_value = min_value = Decimal(min_value)
        self.max_value = max_value = Decimal(max_value)
        self.max_frac_digits = max_frac_digits
        if min_value < 0:
            raise ConfigError("min_value is a magnitude and must be >= 0")
        if max_value <= min_value:
            raise ConfigError("empty value range")
        if not 0 <= max_frac_digits <= MAX_FRAC_DIGITS:
            raise ConfigError(f"max_frac_digits must be between 0 and {MAX_FRAC_DIGITS}")
        # Ceiling and floor of the exact rational bounds, in int arithmetic.
        min_num, min_den = min_value.as_integer_ratio()
        max_num, max_den = max_value.as_integer_ratio()
        self.grids = tuple(
            (-(-min_num * 10**scale // min_den), max_num * 10**scale // max_den)
            for scale in range(max_frac_digits + 1)
        )
        low, high = self.grids[-1]
        if low > high:
            raise ConfigError(f"no number with at most {max_frac_digits} fractional digits is in the value range")
        for name in family_weights:
            if name not in FAMILIES:
                raise ConfigError(f"unknown template family {name!r}; families are {', '.join(FAMILIES)}")
        weights = {k: float(v) for k, v in family_weights.items()}
        if not weights or all(w <= 0 for w in weights.values()):
            raise ConfigError("at least one template family must have positive weight")
        if not all(0 <= w < math.inf for w in weights.values()):
            raise ConfigError("family weights must be finite and >= 0")
        self.family_weights = weights
        # argmax_like redraws until its values are distinct; the finest grid
        # holds every value any coarser one can draw.
        if weights.get(ARGMAX_LIKE, 0.0) > 0 and high - low + 1 < LIST_TERMS[1]:
            raise ConfigError(
                f"argmax_like needs {LIST_TERMS[1]} distinct values, but the value range holds only {high - low + 1}"
            )


class NumExample(NamedTuple):
    expression: str
    answer: Decimal
    family: str
    rng_seed: int = 0

    def to_json(self) -> dict:
        return {
            "expression": self.expression,
            "answer": render(self.answer),
            "family": self.family,
            "seed": self.rng_seed,
        }


# ---------------------------------------------------------------------------
# Exact expression evaluation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[a-z_]+)|(?P<punct>[()+,%-])|(?P<bad>\S))"
)

_LIST_OPS = ("min", "max", "avg", "argmax", "argmin", "diff")


def _tokenize_expr(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) of each token, then an ``end`` token at len(text)."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}", column=match.start(kind))
        tokens.append((kind, match[kind], match.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _number(token: tuple[str, str, int]) -> Decimal:
    kind, text, column = token
    if kind != "number":
        _not_end(token)
        raise ParseError(f"expected a number, found {text!r}", column=column)
    return Decimal(text)  # the token is digits with an optional point: always a plain literal


def _expect(token: tuple[str, str, int], value: str) -> None:
    _not_end(token)
    if token[1] != value:
        raise ParseError(f"expected {value!r}, found {token[1]!r}", column=token[2])


def _not_end(token: tuple[str, str, int]) -> None:
    if token[0] == "end":
        raise ParseError("unexpected end of expression", column=token[2])


def _at_end(token: tuple[str, str, int]) -> None:
    if token[0] != "end":
        raise ParseError("trailing input after expression", column=token[2])


def _eval_list_op(name: str, values: list[Decimal], column: int, frac_digits: int) -> Decimal:
    if name in ("min", "max"):
        return min(values) if name == "min" else max(values)
    if name == "avg":
        total = Decimal(0)
        for value in values:
            total += value
        numerator, denominator = total.as_integer_ratio()
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
    min/max/avg/argmax/argmin/diff, and ``P% of X``. The parser walks the
    token list by index; the ``end`` token stops every loop.
    """
    tokens = _tokenize_expr(expression)
    kind, text, column = tokens[0]
    if kind == "end":
        raise ParseError("empty expression", column=0)

    if kind == "name":
        if text not in _LIST_OPS:
            raise ParseError(f"unsupported operator {text!r}", column=column)
        _expect(tokens[1], "(")
        values = [_number(tokens[2])]
        index = 3
        while tokens[index][1] == ",":
            values.append(_number(tokens[index + 1]))
            index += 2
        _expect(tokens[index], ")")
        _at_end(tokens[index + 1])
        return _eval_list_op(text, values, column, frac_digits)

    # Leading sign, then either a percent form or a +/- chain.
    signed = kind == "punct" and text in "+-"
    index = 1 if signed else 0
    value = _number(tokens[index])
    if signed and text == "-":
        value = value.copy_negate()

    index += 1
    kind, text, column = tokens[index]
    if text == "%":
        of = tokens[index + 1]
        _not_end(of)
        if of[:2] != ("name", "of"):
            raise ParseError(f"expected 'of' after '%', found {of[1]!r}", column=of[2])
        base = _number(tokens[index + 2])
        _at_end(tokens[index + 3])
        return (value * base).scaleb(-2)

    while kind != "end":
        if kind != "punct" or text not in "+-":
            raise ParseError(f"expected '+' or '-', found {text!r}", column=column)
        operand = _number(tokens[index + 1])
        value = value + operand if text == "+" else value - operand
        index += 2
        kind, text, column = tokens[index]
    return value


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

def _draw_decimal(rng: random.Random, config: NumGenConfig) -> Decimal:
    # Draw the number of fractional digits first, then uniformly on that grid,
    # so integers and short decimals stay common at any max_frac_digits. A
    # coarse grid may hold no value of the range; the finest one always does.
    while True:
        scale = rng.randint(0, config.max_frac_digits)
        low, high = config.grids[scale]
        if low <= high:
            return Decimal(rng.randint(low, high)).scaleb(-scale)


@exact
def instantiate(
    family: str,
    terms: int,
    rng: random.Random,
    config: NumGenConfig = NumGenConfig(),
    rng_seed: int = 0,
) -> NumExample:
    """Draw an expression of ``family`` over ``terms`` values and compute its exact answer.

    ``terms`` counts the signed terms of an addition chain or the values of
    a list operator; percent and difference always take two values.
    """
    if family in (COMBINATION, ADDITION_SUB):
        signs = []
        numbers = []
        for _ in range(terms):
            signs.append(rng.choice("+-"))
            numbers.append(_draw_decimal(rng, config))
        parts = [f"-{render(numbers[0])}" if signs[0] == "-" else render(numbers[0])]
        answer = -numbers[0] if signs[0] == "-" else numbers[0]
        for sign, number in zip(signs[1:], numbers[1:]):
            parts.append(f" {sign} {render(number)}")
            answer = answer + number if sign == "+" else answer - number
        return NumExample("".join(parts), answer, family, rng_seed)

    if family in (MIN_MAX_AVG, ARGMAX_LIKE):
        ops = ("min", "max", "avg") if family == MIN_MAX_AVG else ("argmax", "argmin")
        op = rng.choice(ops)
        numbers = [_draw_decimal(rng, config) for _ in range(terms)]
        if family == ARGMAX_LIKE:
            # Redraw until values are distinct so the position is unambiguous.
            while len(set(numbers)) != len(numbers):
                numbers = [_draw_decimal(rng, config) for _ in range(terms)]
        expression = f"{op}({', '.join(render(n) for n in numbers)})"
        answer = _eval_list_op(op, numbers, 0, config.max_frac_digits)
        return NumExample(expression, answer, family, rng_seed)

    if family == PERCENT:
        percent = Decimal(rng.randint(*PERCENT_RANGE))
        base = _draw_decimal(rng, config)
        expression = f"{render(percent)}% of {render(base)}"
        return NumExample(expression, (percent * base).scaleb(-2), family, rng_seed)

    if family == DIFFERENCE:
        a = _draw_decimal(rng, config)
        b = _draw_decimal(rng, config)
        expression = f"diff({render(a)}, {render(b)})"
        return NumExample(expression, abs(a - b), family, rng_seed)

    raise ConfigError(f"unknown family: {family}")


def generate_num(
    count: int, config: NumGenConfig = NumGenConfig(), seed: int = 0, start: int = 0
) -> Iterator[NumExample]:
    """Yield examples ``start`` to ``start + count - 1``, each self-checked against eval_expr.

    Example i draws everything from a child seed derived as (seed, "num", i),
    so any index range gives the same examples as that slice of a run from 0
    (this is what lets workers share a run). A ``count`` below 1 or a
    negative ``start`` raises ConfigError at the first draw.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if start < 0:
        raise ConfigError("start must be >= 0")
    families = [f for f, w in config.family_weights.items() if w > 0]
    weights = [config.family_weights[f] for f in families]
    for index in range(start, start + count):
        # One exact context per example, left before the yield (see decimals).
        with localcontext(EXACT):
            child = derive_seed(seed, "num", index)
            rng = random.Random(child)
            family = rng.choices(families, weights=weights, k=1)[0]
            terms = 2  # addition_sub, percent and difference
            if family == COMBINATION:
                terms = rng.randint(*COMBINATION_TERMS)
            elif family in (MIN_MAX_AVG, ARGMAX_LIKE):
                terms = rng.randint(*LIST_TERMS)
            example = instantiate(family, terms, rng, config, rng_seed=child)
            check = eval_expr(example.expression, config.max_frac_digits)
            if check != example.answer:
                raise SelfCheckError(f"self-check failed for {example.expression!r}: {check} != {example.answer}")
        yield example


def num_to_example(example: NumExample) -> Example:
    """Wrap a NumExample as a calculate-task corpus record."""
    return Example(
        input=format_input(CALCULATE, example.expression),
        target=render(example.answer),
        task=CALCULATE,
        answer_type=NUMBER,
        source_id=f"num-{example.rng_seed:016x}",
    )
