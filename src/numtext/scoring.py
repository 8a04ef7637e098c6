"""DROP-style exact-match and numeracy-gated bag-of-words F1.

Semantics track the public DROP evaluator so scores line up with the
leaderboard: answers are lowercased, de-articled, and de-punctuated
per whitespace token (punctuation survives inside tokens that parse as
numbers); number tokens are canonicalized by value; EM needs the same set
of normalized spans and the same span count; per-span token bags are
aligned one-to-one by maximum total F1; a span pair scores 0 when the
gold span contains numbers and none of them matches the prediction's; and
with several gold answers EM and F1 each take the best over all of them.
F1 is macro-averaged over questions. Unlike the public evaluator, tokens
are not split at hyphens and per-question F1 is not rounded to 2 decimals.

The fast paths below (no ``float()`` call for an all-letter word, no article
regex for an alphanumeric token, no assignment for one span against one)
are exact restatements of these rules, not new semantics: they give the
same result for every input.
"""

from __future__ import annotations

import re
import string
from array import array
from contextlib import closing
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import DropRecord, GoldAnswer, SPAN_DELIMITER, derive_answer_type, gold_answer_spans
from .errors import ConfigError, ValidationError
from .shard import blocks

_ARTICLES = re.compile(r"\b(a|an|the)\b", re.UNICODE)
_DELETE_PUNCTUATION = str.maketrans("", "", string.punctuation)
_FLOAT_WORDS = frozenset(("inf", "infinity", "nan"))


def _is_number(token: str) -> bool:
    # A token holds no whitespace, and float() reads only Nd digits, ".",
    # "e", signs, "_" and the float words (in any case), so a lowercased
    # all-letter token that is not one of those words cannot parse: skip
    # the raised and caught ValueError.
    if token.isalpha() and token not in _FLOAT_WORDS:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _canonical_number(token: str) -> str:
    # Value-based canonical form; the ".0" suffix float() puts on integers
    # is dropped so "4300000" stays "4300000".
    text = str(float(token))
    return text[:-2] if text.endswith(".0") else text


def normalize_span(text: str) -> str:
    """Normalize one answer span to its canonical whitespace-joined form."""
    parts = []
    for token in text.lower().split():
        if not _is_number(token):
            token = token.translate(_DELETE_PUNCTUATION)
        if _is_number(token):
            token = _canonical_number(token)
        elif token.isalnum():
            # re's \w is isalnum() plus "_", so \b falls only at the ends:
            # the article regex removes the whole token or nothing.
            token = "" if token in ("a", "an", "the") else token
        else:
            token = " ".join(_ARTICLES.sub(" ", token).split())
        if token:
            parts.append(token)
    return " ".join(parts)


def answer_bags(spans: Sequence[str]) -> tuple[list[str], list[frozenset[str]]]:
    """Normalized strings and token bags, one per span."""
    normalized = [normalize_span(span) for span in spans]
    return normalized, [frozenset(text.split()) for text in normalized]


def split_prediction(text: str, span_delimiter: str = SPAN_DELIMITER) -> list[str]:
    """A predicted string is one span unless the delimiter appears."""
    return text.split(span_delimiter)


def _numbers_in(bag: frozenset[str]) -> frozenset[str]:
    return frozenset(token for token in bag if _is_number(token))


def _bag_f1(predicted: frozenset[str], gold: frozenset[str]) -> float:
    gold_numbers = _numbers_in(gold)
    if gold_numbers and not gold_numbers & _numbers_in(predicted):
        return 0.0  # numeric mismatch invalidates all matching material
    overlap = len(predicted & gold)
    precision = overlap / len(predicted) if predicted else 1.0
    recall = overlap / len(gold) if gold else 1.0
    if precision == recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _max_weight_assignment(scores: list[list[float]]) -> list[int]:
    """Column of each row in a maximum-total-weight assignment of a square matrix.

    Kuhn-Munkres (Hungarian) method with row and column potentials,
    O(n^3): row ``r`` is added by a shortest augmenting path over the
    reduced costs ``-scores[r][c] - u[r] - v[c]``. Index 0 of ``u``,
    ``v``, ``owner`` and ``via`` is a virtual column that starts each path.
    """
    n = len(scores)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)  # owner[c]: 1-based row holding column c, 0 if free
    via = [0] * (n + 1)  # previous column on the augmenting path
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = [float("inf")] * (n + 1)
        used = [False] * (n + 1)
        while owner[col]:
            used[col] = True
            r = owner[col]
            weights = scores[r - 1]
            delta, nxt = float("inf"), 0
            for c in range(1, n + 1):
                if not used[c]:
                    reduced = -weights[c - 1] - u[r] - v[c]
                    if reduced < slack[c]:
                        slack[c], via[c] = reduced, col
                    if slack[c] < delta:
                        delta, nxt = slack[c], c
            for c in range(n + 1):
                if used[c]:
                    u[owner[c]] += delta
                    v[c] -= delta
                else:
                    slack[c] -= delta
            col = nxt
        while col:
            owner[col] = owner[via[col]]
            col = via[col]
    columns = [0] * n
    for c in range(1, n + 1):
        columns[owner[c] - 1] = c - 1
    return columns


def _align_bags(predicted: list[frozenset[str]], gold: list[frozenset[str]]) -> float:
    """Mean of the best one-to-one span assignment over max(#pred, #gold)."""
    size = max(len(predicted), len(gold))
    if size == 0:
        return 1.0
    if size == 1:  # one span against one: the only assignment, and its mean is its F1
        return _bag_f1(predicted[0], gold[0])
    scores = [[0.0] * size for _ in range(size)]
    for g, gold_bag in enumerate(gold):
        for p, pred_bag in enumerate(predicted):
            scores[g][p] = _bag_f1(pred_bag, gold_bag)
    columns = _max_weight_assignment(scores)
    return sum(scores[row][col] for row, col in enumerate(columns)) / size


class PairScore:
    __slots__ = ("em", "f1")

    def __init__(self, em: float, f1: float):
        self.em = em
        self.f1 = f1

    def __eq__(self, other):
        return (self.em, self.f1) == (other.em, other.f1) if other.__class__ is self.__class__ else NotImplemented


def score_pair(
    predicted: str,
    gold: GoldAnswer,
    span_delimiter: str = SPAN_DELIMITER,
) -> PairScore:
    """Score one predicted string against one gold answer."""
    gold_spans = gold_answer_spans(gold)
    pred_spans = split_prediction(predicted, span_delimiter)
    pred_strings, pred_bags = answer_bags(pred_spans)
    gold_strings, gold_bags = answer_bags(gold_spans)
    same = len(pred_strings) == len(gold_strings) and set(pred_strings) == set(gold_strings)
    em = 1.0 if same else 0.0
    return PairScore(em=em, f1=_align_bags(pred_bags, gold_bags))


def score_record(
    record: DropRecord,
    predicted: str,
    span_delimiter: str = SPAN_DELIMITER,
) -> PairScore:
    """Best EM and best F1 over all of a record's gold answers, independently."""
    best_em = best_f1 = 0.0
    for gold in record.answers:
        pair = score_pair(predicted, gold, span_delimiter)
        best_em = max(best_em, pair.em)
        best_f1 = max(best_f1, pair.f1)
    return PairScore(em=best_em, f1=best_f1)


class ScoreReport(NamedTuple):
    overall: dict
    per_type: dict[str, dict]
    per_question: list[dict]

    def to_json(self) -> dict:
        return self._asdict()


def build_report(
    records: Iterable[DropRecord],
    predictions: Mapping[str, str],
    span_delimiter: str = SPAN_DELIMITER,
) -> ScoreReport:
    """Macro-averaged EM/F1 overall and per answer type (type of first gold).

    The report holds the JSON that ``score`` writes: ``overall`` is
    ``{"count", "em", "f1"}``, ``per_type`` maps each answer type present,
    in name order, to the same three keys, and ``per_question`` holds one
    ``{"id", "answer_type", "em", "f1"}`` row per record, in record order.
    Each mean is the sum over those rows in record order divided by their
    count, and 0.0 for no rows.

    Records without a prediction score 0. A question with no non-empty
    gold answer is not scored: ``ingest_drop`` skips it, so it is no record
    here. Prediction ids that match no record raise :class:`ValidationError`
    listing them. An empty ``span_delimiter`` raises :class:`ConfigError`.
    Both are checked first; then the questions are scored in blocks on the
    usable CPUs (see :mod:`numtext.shard`) and added up here in record order.
    """
    if not span_delimiter:
        raise ConfigError("the span delimiter must be non-empty")
    records = list(records)
    known = {record.query_id for record in records}
    unknown = sorted(set(predictions) - known)
    if unknown:
        raise ValidationError(f"predictions for unknown question ids: {unknown}")

    def score_block(a: int, b: int) -> bytes:
        pairs = array("d")  # em, f1 of each question: IEEE doubles hold both floats exactly
        for record in records[a:b]:
            predicted = predictions.get(record.query_id)
            if predicted is None:
                pairs.extend((0.0, 0.0))
            else:
                pair = score_record(record, predicted, span_delimiter)
                pairs.extend((pair.em, pair.f1))
        return pairs.tobytes()

    per_question = []
    with closing(blocks(score_block, len(records))) as built:
        for a, b, block in built:
            pairs = array("d", score_block(a, b) if block is None else block)
            for record, em, f1 in zip(records[a:b], pairs[::2], pairs[1::2]):
                kind = derive_answer_type(record.answers[0])
                per_question.append({"id": record.query_id, "answer_type": kind, "em": em, "f1": f1})

    def totals(rows: list[dict]) -> dict:
        count = len(rows)
        em = sum(row["em"] for row in rows) / count if count else 0.0
        f1 = sum(row["f1"] for row in rows) / count if count else 0.0
        return {"count": count, "em": em, "f1": f1}

    by_type = {}
    for row in per_question:
        by_type.setdefault(row["answer_type"], []).append(row)
    per_type = {kind: totals(by_type[kind]) for kind in sorted(by_type)}
    return ScoreReport(totals(per_question), per_type, per_question)
