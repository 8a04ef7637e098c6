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
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import AnswerType, DropRecord, GoldAnswer, SPAN_DELIMITER, derive_answer_type, gold_answer_spans
from .errors import ConfigError, ValidationError

_ARTICLES = re.compile(r"\b(a|an|the)\b", re.UNICODE)
_PUNCTUATION = set(string.punctuation)


def _is_number(token: str) -> bool:
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
            token = "".join(ch for ch in token if ch not in _PUNCTUATION)
        if _is_number(token):
            token = _canonical_number(token)
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
    scores = [[0.0] * size for _ in range(size)]
    for g, gold_bag in enumerate(gold):
        for p, pred_bag in enumerate(predicted):
            scores[g][p] = _bag_f1(pred_bag, gold_bag)
    columns = _max_weight_assignment(scores)
    return sum(scores[row][col] for row, col in enumerate(columns)) / size


@dataclass(frozen=True)
class PairScore:
    em: float
    f1: float


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


@dataclass(frozen=True)
class QuestionScore:
    query_id: str
    answer_type: AnswerType
    em: float
    f1: float


@dataclass(frozen=True)
class TypeAggregate:
    count: int
    em: float
    f1: float


@dataclass(frozen=True)
class ScoreReport:
    overall_em: float
    overall_f1: float
    per_type: dict[str, TypeAggregate]
    per_question: tuple[QuestionScore, ...]

    def to_json(self) -> dict:
        return {
            "overall": {
                "count": len(self.per_question),
                "em": self.overall_em,
                "f1": self.overall_f1,
            },
            "per_type": {
                name: {"count": agg.count, "em": agg.em, "f1": agg.f1}
                for name, agg in sorted(self.per_type.items())
            },
            "per_question": [
                {"id": q.query_id, "answer_type": q.answer_type.value, "em": q.em, "f1": q.f1}
                for q in self.per_question
            ],
        }


def build_report(
    records: Iterable[DropRecord],
    predictions: Mapping[str, str],
    span_delimiter: str = SPAN_DELIMITER,
) -> ScoreReport:
    """Macro-averaged EM/F1 overall and per answer type (type of first gold).

    Records without a prediction score 0. A question with no non-empty
    gold answer is not scored: ``ingest_drop`` skips it, so it is no record
    here. Prediction ids that match no record raise :class:`ValidationError`
    listing them. An empty ``span_delimiter`` raises :class:`ConfigError`.
    """
    if not span_delimiter:
        raise ConfigError("the span delimiter must be non-empty")
    records = list(records)
    known = {record.query_id for record in records}
    unknown = sorted(set(predictions) - known)
    if unknown:
        raise ValidationError(f"predictions for unknown question ids: {unknown}")

    per_question = []
    for record in records:
        answer_type = derive_answer_type(record.answers[0])
        predicted = predictions.get(record.query_id)
        if predicted is None:
            pair = PairScore(0.0, 0.0)
        else:
            pair = score_record(record, predicted, span_delimiter)
        per_question.append(QuestionScore(record.query_id, answer_type, pair.em, pair.f1))

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    per_type = {}
    for kind in AnswerType:
        scored = [q for q in per_question if q.answer_type is kind]
        if scored:
            per_type[kind.value] = TypeAggregate(
                len(scored), _mean([q.em for q in scored]), _mean([q.f1 for q in scored])
            )
    return ScoreReport(
        overall_em=_mean([q.em for q in per_question]),
        overall_f1=_mean([q.f1 for q in per_question]),
        per_type=per_type,
        per_question=tuple(per_question),
    )
