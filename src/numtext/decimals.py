"""Exact decimal helpers shared by the generators.

All gold answers are plain decimal strings computed without binary
floating point. This module owns the one rule that keeps them exact: every
function that computes a gold value runs under :func:`exact`, in the
:data:`EXACT` context. Its precision and exponent range are the largest
the ``decimal`` module allows, and it traps ``Inexact`` and ``Rounded``,
so a result that would round is an error, never a silently wrong answer.
Addition, subtraction and multiplication of finite decimals are exact
there; the package never divides a Decimal. The one potentially
non-terminating operation (averaging) is rounded half-even with integer
arithmetic. Values are never normalized: they compare by value, and
:func:`render` alone decides their text.

The generators enter EXACT once per example: each example is built inside
one ``localcontext(EXACT)``, where :func:`exact` finds the context already
exact and calls its function directly. A generator runs in its caller's
context, so it yields each example only after leaving that block and never
holds EXACT across a ``yield``.
"""

import functools
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    getcontext,
    localcontext,
)

from .errors import ParseError

EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)

#: Most fractional digits a generated number may carry. Under EXACT a
#: finer grid is not wrong, only as wide as asked for, so this bound keeps
#: a mistyped setting from building a value of millions of digits.
MAX_FRAC_DIGITS = 1000


def _is_exact(context: Context) -> bool:
    """True when ``context`` has EXACT's precision, exponent limits and traps,
    so that it computes exactly what EXACT computes or raises where EXACT would."""
    traps = context.traps
    return (
        context.prec == MAX_PREC
        and context.Emax == MAX_EMAX
        and context.Emin == MIN_EMIN
        and traps[Inexact]
        and traps[Rounded]
        and traps[InvalidOperation]
        and traps[DivisionByZero]
        and traps[Overflow]
    )


def exact(function):
    """Run ``function``'s Decimal arithmetic in EXACT, entering it only when
    the current context is not already exact."""

    @functools.wraps(function)
    def in_exact_context(*args, **kwargs):
        if _is_exact(getcontext()):
            return function(*args, **kwargs)
        with localcontext(EXACT):
            return function(*args, **kwargs)

    return in_exact_context


def parse_decimal(text: str) -> Decimal:
    """Parse a plain decimal literal; rejects exponents and specials."""
    cleaned = text.strip()
    try:
        value = Decimal(cleaned)
    except InvalidOperation:
        raise ParseError(f"not a decimal literal: {text!r}") from None
    if not value.is_finite() or "e" in cleaned.lower():
        raise ParseError(f"not a plain decimal literal: {text!r}")
    return value


def render(value: Decimal) -> str:
    """Render without exponent notation or trailing fractional zeros; -0 renders as 0."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def round_ratio_half_even(numerator: int, denominator: int, places: int) -> Decimal:
    """Round numerator/denominator to ``places`` fractional digits, ties to even."""
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    scaled = numerator * 10**places
    quotient, remainder = divmod(scaled, denominator)
    # divmod floors toward -inf, so remainder is already in [0, denominator).
    double = 2 * remainder
    if double > denominator or (double == denominator and quotient % 2 == 1):
        quotient += 1
    return Decimal(f"{quotient}e-{places}")
