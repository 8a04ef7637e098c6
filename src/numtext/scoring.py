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
regex for an alphanumeric token, the assignment on the rectangle of real
spans, not a padded square) are exact restatements of these rules, not new
semantics: they give the same result for every input, up to the last bit
where two optimal alignments tie.
"""

from __future__ import annotations

import json
import re
import string
from array import array
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .gold import DropRecord, GoldAnswer, SPAN_DELIMITER, derive_answer_type, gold_answer_spans
from .errors import ConfigError, ValidationError
from .shard import write_blocks

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


def _bag_f1(
    predicted: frozenset[str], predicted_numbers: frozenset[str], gold: frozenset[str], gold_numbers: frozenset[str]
) -> float:
    """F1 of two token bags, each given with the set of its number tokens."""
    if gold_numbers and not gold_numbers & predicted_numbers:
        return 0.0  # numeric mismatch invalidates all matching material
    overlap = len(predicted & gold)
    precision = overlap / len(predicted) if predicted else 1.0
    recall = overlap / len(gold) if gold else 1.0
    if precision == recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _max_weight_assignment(scores: list[list[float]]) -> list[int]:
    """Column of each row in a maximum-total-weight assignment of an n x m
    matrix with n <= m, each row to its own column.

    Kuhn-Munkres (Hungarian) method with row and column potentials,
    O(n^2 m): row ``r`` is added by a shortest augmenting path over the
    reduced costs ``-scores[r][c] - u[r] - v[c]``. Index 0 of ``u``,
    ``v``, ``owner`` and ``via`` is a virtual column that starts each path.
    """
    n, m = len(scores), len(scores[0])
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    owner = [0] * (m + 1)  # owner[c]: 1-based row holding column c, 0 if free
    via = [0] * (m + 1)  # previous column on the augmenting path
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = [float("inf")] * (m + 1)
        used = [False] * (m + 1)
        while owner[col]:
            used[col] = True
            r = owner[col]
            weights = scores[r - 1]
            delta, nxt = float("inf"), 0
            for c in range(1, m + 1):
                if not used[c]:
                    reduced = -weights[c - 1] - u[r] - v[c]
                    if reduced < slack[c]:
                        slack[c], via[c] = reduced, col
                    if slack[c] < delta:
                        delta, nxt = slack[c], c
            for c in range(m + 1):
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
    for c in range(1, m + 1):
        if owner[c]:
            columns[owner[c] - 1] = c - 1
    return columns


def _align_bags(predicted: list[frozenset[str]], gold: list[frozenset[str]]) -> float:
    """Mean of the best one-to-one span assignment over max(#pred, #gold).

    Every F1 is >= 0, so spans left over on the longer side add nothing: the
    assignment runs on the #gold x #pred rectangle, its shorter side as rows,
    in O(k^2 n), so a side of one span takes its best pair in one pass.
    Matched F1s are summed in gold order. Two long sides stay cubic in the
    shorter one; a DROP gold answer has a few spans.
    """
    size = max(len(predicted), len(gold))
    if size == 0:
        return 1.0
    # Each bag with its number tokens, found once per bag rather than once per pair.
    preds = [(bag, frozenset(filter(_is_number, bag))) for bag in predicted]
    golds = [(bag, frozenset(filter(_is_number, bag))) for bag in gold]
    if size == 1:  # one span against one: the only assignment, and its mean is its F1
        return _bag_f1(*preds[0], *golds[0])
    scores = [[_bag_f1(*pred, *gold_bag) for pred in preds] for gold_bag in golds]
    if len(gold) <= len(predicted):
        matched = enumerate(_max_weight_assignment(scores))
    else:  # predicted spans as rows
        matched = sorted((g, p) for p, g in enumerate(_max_weight_assignment(list(zip(*scores)))))
    return sum(scores[g][p] for g, p in matched) / size


def score_pair(
    predicted: str,
    gold: GoldAnswer,
    span_delimiter: str = SPAN_DELIMITER,
) -> tuple[float, float]:
    """EM and F1 of one predicted string against one gold answer."""
    gold_spans = gold_answer_spans(gold)
    pred_strings, pred_bags = answer_bags(predicted.split(span_delimiter))
    gold_strings, gold_bags = answer_bags(gold_spans)
    same = len(pred_strings) == len(gold_strings) and set(pred_strings) == set(gold_strings)
    return (1.0 if same else 0.0), _align_bags(pred_bags, gold_bags)


def score_record(
    record: DropRecord,
    predicted: str,
    span_delimiter: str = SPAN_DELIMITER,
) -> tuple[float, float]:
    """Best EM and best F1 over all of a record's gold answers, independently."""
    best_em = best_f1 = 0.0
    for gold in record.answers:
        em, f1 = score_pair(predicted, gold, span_delimiter)
        best_em = max(best_em, em)
        best_f1 = max(best_f1, f1)
    return best_em, best_f1


class ScoreReport(NamedTuple):
    overall: dict
    per_type: dict[str, dict]
    per_question: list[dict]


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
    The ``per_question`` rows are built only once this function holds no
    record or prediction, so a caller that hands both over without keeping
    them never holds them together with the rows. Nothing passed in is changed.
    """
    if not span_delimiter:
        raise ConfigError("the span delimiter must be non-empty")
    records = list(records)
    unknown = sorted(set(predictions) - {record.query_id for record in records})
    if unknown:
        raise ValidationError(f"predictions for unknown question ids: {unknown}")

    def score_block(a: int, b: int, out) -> None:
        pairs = array("d")  # em, f1 of each question: IEEE doubles hold both floats exactly
        for record in records[a:b]:
            predicted = predictions.get(record.query_id)
            pairs.extend((0.0, 0.0) if predicted is None else score_record(record, predicted, span_delimiter))
        out.write(pairs.tobytes())

    pairs = array("d")
    write_blocks(score_block, len(records), SimpleNamespace(write=pairs.frombytes))
    ids = [record.query_id for record in records]
    kinds = [derive_answer_type(record.answers[0]) for record in records]
    del records, predictions
    per_question = [
        {"id": query_id, "answer_type": kind, "em": em, "f1": f1}
        for query_id, kind, em, f1 in zip(ids, kinds, pairs[::2], pairs[1::2])
    ]

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


#: One ``per_question`` row as ``json.dumps(report, indent=2)`` writes it: an
#: ASCII-escaped id and answer type, and the ``repr`` of each score.
_ROW = '\n    {\n      "id": %s,\n      "answer_type": %s,\n      "em": %r,\n      "f1": %r\n    }'
#: Rows encoded per write.
_ROWS_PER_WRITE = 256


def write_report(sink, meta: dict, report: ScoreReport) -> None:
    """Write ``{"meta": meta, **report._asdict()}`` to the binary stream ``sink``
    as the bytes of ``json.dumps(..., indent=2, allow_nan=False)`` and a newline.

    Everything but the rows goes through that encoder, which CPython runs in
    pure Python when it indents; each row is filled into one template, and
    the rows are written _ROWS_PER_WRITE at a time. A score that is NaN or
    infinite makes the overall mean one too, so the encoder raises as before.
    """
    head = json.dumps({"meta": meta, **report._asdict(), "per_question": []}, indent=2, allow_nan=False)
    rows = report.per_question
    if not rows:
        sink.write(head.encode("utf-8") + b"\n")
        return
    sink.write(head[: -len("]\n}")].encode("utf-8"))  # ends in '"per_question": ['
    for at in range(0, len(rows), _ROWS_PER_WRITE):
        text = ",".join(
            _ROW % (encode_basestring_ascii(row["id"]), encode_basestring_ascii(row["answer_type"]), row["em"], row["f1"])
            for row in rows[at : at + _ROWS_PER_WRITE]
        )
        sink.write((text if at == 0 else "," + text).encode("ascii"))
    sink.write(b"\n  ]\n}\n")
