"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the package's own code paths:
expressions are re-evaluated with exact rationals via regex splitting,
world states are re-simulated on plain dicts, and answer scoring is a
permutation brute force written straight from the public DROP scorer's
behavior (set bags, str(float) number form, intersection gate).
"""

from __future__ import annotations

import itertools
import re
import string
from fractions import Fraction

# ---------------------------------------------------------------------------
# Exact-rational expression oracle
# ---------------------------------------------------------------------------

_FUNC_RE = re.compile(r"^(min|max|avg|argmax|argmin|diff)\((.*)\)$")
_PERCENT_RE = re.compile(r"^(\d+(?:\.\d+)?)% of (\d+(?:\.\d+)?)$")
_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:\.\d+)?)")


def round_fraction_half_even(value: Fraction, places: int) -> Fraction:
    scaled = value * 10**places
    floor = scaled.numerator // scaled.denominator
    remainder = scaled - floor
    half = Fraction(1, 2)
    if remainder > half or (remainder == half and floor % 2 == 1):
        floor += 1
    return Fraction(floor, 10**places)


def oracle_eval(expression: str, places: int = 2) -> Fraction:
    """Evaluate an expression exactly with Fractions (avg rounded half-even)."""
    expr = expression.strip()
    match = _FUNC_RE.match(expr)
    if match:
        op, args = match.groups()
        values = [Fraction(arg.strip()) for arg in args.split(",")]
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        if op == "avg":
            return round_fraction_half_even(Fraction(sum(values), len(values)), places)
        if op == "argmax":
            return Fraction(values.index(max(values)) + 1)
        if op == "argmin":
            return Fraction(values.index(min(values)) + 1)
        assert op == "diff" and len(values) == 2
        return abs(values[0] - values[1])
    match = _PERCENT_RE.match(expr)
    if match:
        return Fraction(match.group(1)) * Fraction(match.group(2)) / 100
    total = Fraction(0)
    matched = 0
    for sign, literal in _TERM_RE.findall(expr):
        term = Fraction(literal)
        total = total - term if sign == "-" else total + term
        matched += 1
    assert matched > 0, f"oracle cannot read {expression!r}"
    return total


def fraction_to_text(value: Fraction) -> str:
    """Render an exactly-decimal Fraction the way the package renders answers."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    places = 0
    while value.denominator != 1:
        value *= 10
        places += 1
        assert places <= 30, "not a decimal fraction"
    digits = str(value.numerator).rjust(places + 1, "0")
    if places:
        whole, frac = digits[:-places], digits[-places:]
        frac = frac.rstrip("0")
        text = f"{whole}.{frac}" if frac else whole
    else:
        text = digits
    return "0" if text == "0" else sign + text


# ---------------------------------------------------------------------------
# World-state re-simulation oracle
# ---------------------------------------------------------------------------

def resimulate(events: list[dict], question: dict) -> str:
    """Replay serialized events on a plain dict and answer the question."""
    counts: dict[tuple[str, str], Fraction] = {}
    seen_containers: set[str] = set()
    for event in events:
        quantity = Fraction(event["quantity"])
        assert quantity >= 0
        key = (event["container"], event["entity"])
        seen_containers.add(event["container"])
        verb = event["verb"]
        if verb == "observe":
            counts[key] = quantity
        elif verb == "gain":
            counts[key] = counts.get(key, Fraction(0)) + quantity
        elif verb == "lose":
            held = counts.get(key, Fraction(0))
            assert held >= quantity, "underflow"
            counts[key] = held - quantity
        else:
            assert verb == "transfer" and event["target"] != event["container"]
            held = counts.get(key, Fraction(0))
            assert held >= quantity, "underflow"
            counts[key] = held - quantity
            target_key = (event["target"], event["entity"])
            counts[target_key] = counts.get(target_key, Fraction(0)) + quantity
            seen_containers.add(event["target"])
        assert all(value >= 0 for value in counts.values()), "negative count"

    kind = question["kind"]
    entity = question["entity"]
    if kind == "how_many":
        assert question["container"] in seen_containers
        value = counts.get((question["container"], entity), Fraction(0))
    elif kind == "how_many_more":
        assert {question["container"], question["other"]} <= seen_containers
        value = counts.get((question["container"], entity), Fraction(0)) - counts.get(
            (question["other"], entity), Fraction(0)
        )
    else:
        assert kind == "total"
        value = sum(
            (count for (_, ent), count in counts.items() if ent == entity), Fraction(0)
        )
    return fraction_to_text(value)


# ---------------------------------------------------------------------------
# Brute-force answer scorer (public DROP scorer behavior)
# ---------------------------------------------------------------------------

_BF_PUNCT = set(string.punctuation)
_BF_ARTICLES = re.compile(r"\b(a|an|the)\b", re.UNICODE)


def _bf_is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def bf_normalize(text: str) -> str:
    tokens = []
    for token in text.lower().split():
        if not _bf_is_number(token):
            token = "".join(ch for ch in token if ch not in _BF_PUNCT)
        if _bf_is_number(token):
            token = str(float(token))
        else:
            token = " ".join(_BF_ARTICLES.sub(" ", token).split())
        if token:
            tokens.append(token)
    return " ".join(tokens)


def bf_gold_spans(gold: dict) -> list[str]:
    """DROP answer dict -> span strings (number, spans, or joined date)."""
    if str(gold.get("number", "")).strip():
        return [str(gold["number"]).strip()]
    date = gold.get("date") or {}
    date_text = " ".join(
        part for part in (date.get("day", ""), date.get("month", ""), date.get("year", "")) if part
    )
    if date_text:
        return [date_text]
    return [span for span in gold.get("spans", []) if span.strip()]


def _bf_pair_f1(pred: frozenset, gold: frozenset) -> float:
    gold_numbers = {t for t in gold if _bf_is_number(t)}
    pred_numbers = {t for t in pred if _bf_is_number(t)}
    if gold_numbers and not (gold_numbers & pred_numbers):
        return 0.0
    overlap = len(pred & gold)
    precision = overlap / len(pred) if pred else 1.0
    recall = overlap / len(gold) if gold else 1.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def bf_score_one(prediction: str, gold: dict, delimiter: str = "; ") -> tuple[float, float]:
    """(em, f1) of a prediction against one gold answer dict."""
    pred_spans = prediction.split(delimiter) if delimiter in prediction else [prediction]
    gold_spans = bf_gold_spans(gold)
    pred_norm = [bf_normalize(s) for s in pred_spans]
    gold_norm = [bf_normalize(s) for s in gold_spans]
    em = 1.0 if set(pred_norm) == set(gold_norm) and len(pred_norm) == len(gold_norm) else 0.0

    pred_bags = [frozenset(s.split()) for s in pred_norm]
    gold_bags = [frozenset(s.split()) for s in gold_norm]
    size = max(len(pred_bags), len(gold_bags))
    matrix = [
        [_bf_pair_f1(p, g) for p in pred_bags] + [0.0] * (size - len(pred_bags))
        for g in gold_bags
    ] + [[0.0] * size for _ in range(size - len(gold_bags))]
    best = max(
        sum(matrix[row][col] for row, col in enumerate(perm))
        for perm in itertools.permutations(range(size))
    )
    return em, best / size


def bf_score(prediction: str, golds: list[dict], delimiter: str = "; ") -> tuple[float, float]:
    """Best em and best f1 over all gold answers, independently."""
    scores = [bf_score_one(prediction, gold, delimiter) for gold in golds]
    return max(s[0] for s in scores), max(s[1] for s in scores)


# ---------------------------------------------------------------------------
# Digit tokenizer oracle
# ---------------------------------------------------------------------------


def oracle_tokenize(text: str) -> list[str]:
    """Digit tokens by a character scan (the rule of bench/checks.token_counts).

    Whitespace (``str.isspace``) separates words. Each decimal digit
    (``str.isdecimal``: Unicode Nd, so ``"²"`` is not one) and each point
    with a digit on both sides is a token of its own; each maximal run of
    other non-space characters is one token.
    """
    tokens: list[str] = []
    run = ""
    for i, char in enumerate(text):
        between_digits = (
            char == "." and 0 < i < len(text) - 1 and text[i - 1].isdecimal() and text[i + 1].isdecimal()
        )
        if char.isspace() or char.isdecimal() or between_digits:
            if run:
                tokens.append(run)
                run = ""
            if not char.isspace():
                tokens.append(char)
        else:
            run += char
    if run:
        tokens.append(run)
    return tokens
