#!/usr/bin/env python3
"""Regenerate tests/fixtures/scorer_cases.json.

Expected values come from the brute-force reference scorer in
tests/oracles.py (permutation alignment, set bags, intersection gate),
never from the package implementation, so the fixture stays an
independent check on src/numtext/scoring.py.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from oracles import bf_score  # noqa: E402


def number(value):
    return {"number": str(value), "spans": [], "date": {"day": "", "month": "", "year": ""}}


def spans(*texts):
    return {"number": "", "spans": list(texts), "date": {"day": "", "month": "", "year": ""}}


def date(day="", month="", year=""):
    return {"number": "", "spans": [], "date": {"day": day, "month": month, "year": year}}


CASES = [
    # --- numbers: exact, formatting variants, mismatches -------------------
    ("num-exact", "4300000", [number("4300000")]),
    ("num-commas", "4,300,000", [number("4300000")]),
    ("num-commas-gold", "4300000", [number("4,300,000")]),
    ("num-trailing-point-zero", "12.0", [number("12")]),
    ("num-decimal", "51.4", [number("51.4")]),
    ("num-decimal-mismatch", "51.4", [number("51.5")]),
    ("num-wrong", "4300001", [number("4300000")]),
    ("num-negative", "-26025.14", [number("-26025.14")]),
    ("num-with-unit", "35 yards", [number("35")]),
    ("num-gold-has-unit", "35", [spans("35 yards")]),
    ("num-leading-zero", "007", [number("7")]),
    ("num-percent-sign", "12%", [number("12")]),
    # --- the numeric-mismatch gate ------------------------------------------
    ("gate-million", "13 million", [spans("12 million")]),
    ("gate-million-match", "12 million", [spans("12 million")]),
    ("gate-overlap-words", "around 13 field goals", [spans("around 12 field goals")]),
    ("gate-no-gold-number", "the second quarter", [spans("second quarter")]),
    ("gate-pred-extra-number", "12 million in 1981", [spans("12 million")]),
    ("gate-gold-two-numbers", "12 million", [spans("12 of 13 million")]),
    ("gate-zero-vs-none", "0 points", [spans("no points")]),
    # --- single spans ---------------------------------------------------------
    ("span-exact", "John Kasay", [spans("John Kasay")]),
    ("span-case-punct", "john kasay.", [spans("John Kasay")]),
    ("span-partial", "Kasay", [spans("John Kasay")]),
    ("span-partial-long", "kicker John Kasay", [spans("John Kasay")]),
    ("span-articles", "the Untitled (1981) painting", [spans("Untitled 1981 painting")]),
    ("span-article-only-diff", "The painting", [spans("painting")]),
    ("span-disjoint", "Carolina", [spans("Denver")]),
    ("span-empty-pred", "", [spans("John Kasay")]),
    ("span-hyphen", "39-yard field goal", [spans("39 yard field goal")]),
    ("span-possessive", "Kasay's goal", [spans("Kasays goal")]),
    # --- dates ---------------------------------------------------------------
    ("date-full", "7 March 1768", [date(day="7", month="March", year="1768")]),
    ("date-month-year", "March 1768", [date(month="March", year="1768")]),
    ("date-year-only", "1768", [date(year="1768")]),
    ("date-wrong-year", "March 1769", [date(month="March", year="1768")]),
    ("date-missing-part", "March", [date(month="March", year="1768")]),
    ("date-reordered", "1768 March", [date(month="March", year="1768")]),
    # --- multi-span answers ----------------------------------------------------
    ("spans-exact", "Denver; Carolina", [spans("Denver", "Carolina")]),
    ("spans-swapped", "Carolina; Denver", [spans("Denver", "Carolina")]),
    ("spans-one-missing", "Denver", [spans("Denver", "Carolina")]),
    ("spans-extra-pred", "Denver; Carolina; Dallas", [spans("Denver", "Carolina")]),
    ("spans-partial-each", "John; 39 yards", [spans("John Kasay", "39 yard field goal")]),
    ("spans-three", "a; b; c", [spans("a", "b", "c")]),
    ("spans-numbers", "12; 14", [spans("12", "14")]),
    ("spans-numbers-swapped", "14; 12", [spans("12", "14")]),
    ("spans-number-wrong", "12; 15", [spans("12", "14")]),
    ("spans-alignment", "Kasay field; Denver lead", [spans("Denver lead early", "Kasay field goal")]),
    ("spans-duplicate", "a x; a x; b y", [spans("a x", "b y", "b y")]),
    # --- multiple gold answers: max over all -----------------------------------
    ("multi-gold-second", "4300000", [spans("12 million"), number("4300000")]),
    ("multi-gold-first", "12 million", [spans("12 million"), number("4300000")]),
    ("multi-gold-neither", "13 million", [spans("12 million"), number("4300000")]),
    ("multi-gold-partial-best", "John", [spans("John Kasay"), spans("John")]),
    ("multi-gold-em-f1-split", "John Kasay", [spans("John"), spans("John Kasay")]),
    ("multi-gold-three", "March 1768", [number("8000"), date(month="March", year="1768"), spans("retreat")]),
    # --- normalization corners ---------------------------------------------------
    ("norm-whitespace", "  John   Kasay  ", [spans("John Kasay")]),
    ("norm-ampersand", "Smith & Jones", [spans("Smith Jones")]),
    ("norm-unicode", "Beyoncé", [spans("Beyoncé")]),
    ("norm-number-word-mix", "touchdown 3", [spans("3 touchdown")]),
    ("norm-all-articles", "the a an", [spans("the an a")]),
    ("empty-pred-vs-number", "", [number("12")]),
]


def main() -> None:
    rows = []
    for case_id, prediction, golds in CASES:
        em, f1 = bf_score(prediction, golds)
        rows.append(
            {"id": case_id, "prediction": prediction, "golds": golds, "em": em, "f1": f1}
        )
    out = REPO / "tests" / "fixtures" / "scorer_cases.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rows, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {out}")


if __name__ == "__main__":
    main()
