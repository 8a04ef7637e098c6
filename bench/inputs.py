"""Seeded input writers for the benchmark workloads.

Everything here is built with ``random.Random`` seeded from a string, so
the same seed gives the same bytes on every run and Python version. The
writers never import ``numtext``: the program only sees the files.

Workload shapes that decide how much work a run does (answer-type mix,
span counts, prediction kinds, validated answers) are fixed *counts*
that the seed only shuffles. Drawing them i.i.d. would let the number of
8-span alignments, which cost ~100x a 5-span one, swing from seed to
seed and drown the timing in input noise.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

SYLLABLES = (
    "kor", "van", "del", "ma", "ro", "tis", "bel", "an", "dor", "fin", "gal", "lo",
    "mer", "ik", "sun", "ta", "vel", "os", "quin", "har", "ul", "ben", "cas", "ny",
)
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July", "August",
    "September", "October", "November", "December",
)
ORDINALS = ("first", "second", "third", "fourth")
ITEMS = ("apples", "marbles", "books", "coins", "stamps", "shells", "cards", "tokens")


class Text:
    """Random names, numbers and sentences drawn from one seeded stream."""

    def __init__(self, rng: random.Random, pool: int = 4000):
        self.rng = rng
        seen: dict[str, str] = {}
        while len(seen) < pool:
            name = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            seen.setdefault(name, name.capitalize())
        self.pool = list(seen.values())  # distinct after lowercasing

    def name(self) -> str:
        return self.rng.choice(self.pool)

    def names(self, count: int) -> list[str]:
        """``count`` names that stay distinct after lowercasing."""
        return self.rng.sample(self.pool, count)

    def number(self, digits: int) -> str:
        return str(self.rng.randint(10 ** (digits - 1), 10**digits - 1))

    def decimal(self) -> str:
        return f"{self.rng.randint(1, 99)}.{self.rng.randint(1, 99)}"

    def year(self) -> str:
        return str(self.rng.randint(1700, 2015))

    def date(self) -> tuple[str, str, str]:
        return str(self.rng.randint(1, 28)), self.rng.choice(MONTHS), self.year()

    def numeric_sentence(self) -> str:
        """A DROP-style sentence carrying two to four numbers."""
        r, a, b = self.rng, self.name(), self.name()
        pick = r.randrange(9)
        if pick == 0:
            return f"{a} kicked a {self.number(2)} yard field goal in the {r.choice(ORDINALS)} quarter."
        if pick == 1:
            return (
                f"The census of {self.year()} counted {self.number(5)} people, {self.number(4)} households"
                f" and {self.number(4)} families in {a}."
            )
        if pick == 2:
            return f"{a} gained {self.number(3)} yards on {self.number(2)} carries while {b} added {self.number(2)} more."
        if pick == 3:
            return f"By {r.choice(MONTHS)} {self.year()} {a} had lost {self.decimal()} percent of its {self.number(4)} acres."
        if pick == 4:
            return f"{a} finished with {self.number(2)} points, {self.number(2)} rebounds and {self.number(1)} assists."
        if pick == 8:
            return f"The stadium in {a} seats {self.number(5)} fans and cost {self.decimal()} million dollars in {self.year()}."
        if pick == 5:
            return f"In {self.year()} {a} had {self.number(5)} residents, and {self.decimal()} percent were under {self.number(2)}."
        if pick == 6:
            day, month, year = self.date()
            return f"On {day} {month} {year} {a} signed a treaty with {b} at {self.name()}."
        return f"{a} led {b} by {self.number(2)} to {self.number(2)} at halftime."

    def prose_sentence(self) -> str:
        """A SQuAD-style sentence: mostly words, the odd year or count."""
        r, a, b = self.rng, self.name(), self.name()
        pick = r.randrange(5)
        if pick == 0:
            return f"{a} was founded by {b} in {self.year()} as a small trading post."
        if pick == 1:
            return f"The river {a} flows through the wide valley of {b} before it reaches the sea."
        if pick == 2:
            return f"Scholars at {a} later argued that {b} had written most of the early chronicles."
        if pick == 3:
            return f"The old cathedral of {a} holds {self.number(3)} paintings donated by the family of {b}."
        return f"Trade between {a} and {b} grew steadily during the reign of {self.name()}."

    def story_sentence(self, who: list[str], item: str) -> str:
        """A TXT-style world-state sentence."""
        r = self.rng
        a, b = r.sample(who, 2)
        pick = r.randrange(4)
        if pick == 0:
            return f"{a} had {self.number(r.randint(1, 2))} {item}."
        if pick == 1:
            return f"{a} bought {self.number(1)} more {item}."
        if pick == 2:
            return f"{a} gave {self.number(1)} {item} to {b}."
        return f"{a} lost {self.number(1)} {item}."

    def words(self, sentence, low: int, high: int) -> str:
        """Join sentences from ``sentence()`` until ``low..high`` words."""
        target = self.rng.randint(low, high)
        out: list[str] = []
        count = 0
        while count < target:
            text = sentence()
            out.append(text)
            count += len(text.split())
        return " ".join(out)


def composition(total: int, weights: dict) -> list:
    """Exact counts in proportion to ``weights`` (largest remainder), as a list."""
    norm = sum(weights.values())
    exact = {key: total * weight / norm for key, weight in weights.items()}
    counts = {key: int(value) for key, value in exact.items()}
    left = total - sum(counts.values())
    for key in sorted(exact, key=lambda k: counts[k] - exact[k])[:left]:
        counts[key] += 1
    return [key for key, count in counts.items() for _ in range(count)]


def jsonl_line(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False).encode("utf-8") + b"\n"


def write_bytes(path: Path, chunks) -> None:
    path.write_bytes(b"".join(chunks))


# ---------------------------------------------------------------------------
# multitask_prep: four Example JSONL sources
# ---------------------------------------------------------------------------

#: Paper-scale lengths (NT5 / GenBERT). Mixed at T=10 these four give the
#: paper's ~27/29/22/21% NUM/TXT/DROP/SQuAD stream.
MIX_STATS = [
    {"name": "NUM", "length": 1_000_000},
    {"name": "TXT", "length": 2_000_000},
    {"name": "DROP", "length": 96_000},
    {"name": "SQuAD", "length": 87_599},
]
#: The multitask pipeline also fine-tunes on the derived DROP-class task.
PIPELINE_STATS = MIX_STATS + [{"name": "DROP-class", "length": 96_000}]
#: ``source_id`` prefix of each source's records.
SOURCE_PREFIXES = {"NUM": "num", "TXT": "txt", "DROP": "drop", "SQuAD": "squad"}


def example_record(input_text: str, target: str, task: str, answer_type: str) -> dict:
    # Key order matches the program's JSONL writer (source_id is appended
    # last), so a drawn record is re-serialized to the bytes of its source line.
    return {"input": input_text, "target": target, "task": task, "answer_type": answer_type}


def _num_record(text: Text) -> dict:
    r = text.rng
    terms = [text.number(r.randint(1, 5)) if r.random() < 0.6 else text.decimal() for _ in range(r.randint(2, 5))]
    signs = [r.choice("+-") for _ in terms]
    expression = ("-" if signs[0] == "-" else "") + terms[0]
    value = Decimal(expression)
    for sign, term in zip(signs[1:], terms[1:]):
        expression += f" {sign} {term}"
        value = value + Decimal(term) if sign == "+" else value - Decimal(term)
    return example_record(f"calculate: {expression}", format(value, "f"), "calculate", "number")


def _txt_record(text: Text) -> dict:
    who = text.names(3)
    item = text.rng.choice(ITEMS)
    context = text.words(lambda: text.story_sentence(who, item), 20, 60)
    question = f"How many {item} does {who[0]} have now?"
    return example_record(f"answer_me: {question} context: {context}", text.number(2), "answer_me", "number")


def _drop_record(text: Text, answer_type: str) -> dict:
    passage = text.words(text.numeric_sentence, 180, 320)
    if answer_type == "number":
        question, target = "How many yards longer was the longest field goal than the shortest?", text.number(2)
    elif answer_type == "date":
        question, target = "When was the treaty signed?", " ".join(text.date())
    elif answer_type == "span":
        question, target = "Which team scored first?", text.name()
    else:
        question, target = "Which teams scored field goals?", "; ".join(text.names(text.rng.randint(2, 4)))
    return example_record(f"answer_me: {question} context: {passage}", target, "answer_me", answer_type)


def _squad_record(text: Text) -> dict:
    passage = text.words(text.prose_sentence, 90, 160)
    question = "Who founded the trading post?"
    return example_record(f"squad_context: {question} context: {passage}", text.name(), "squad_context", "span")


def multitask_sources(seed: int, sizes: dict) -> dict[str, list[bytes]]:
    """JSONL lines (no meta record) per source name, shaped like NUM/TXT/DROP/SQuAD."""
    text = Text(random.Random(f"bench-multitask:{seed}"))
    drop_types = composition(sizes["DROP"], {"number": 61, "span": 31, "spans": 6, "date": 2})
    text.rng.shuffle(drop_types)
    drop_types = iter(drop_types)
    build = {
        "NUM": lambda: _num_record(text),
        "TXT": lambda: _txt_record(text),
        "DROP": lambda: _drop_record(text, next(drop_types)),
        "SQuAD": lambda: _squad_record(text),
    }
    return {
        name: [
            jsonl_line({**make(), "source_id": f"{SOURCE_PREFIXES[name]}-{index:06d}"})
            for index in range(sizes[name])
        ]
        for name, make in build.items()
    }


def write_multitask(work: Path, seed: int, sizes: dict) -> dict:
    """Write the sources and both stats files; return what the checks need."""
    sources = multitask_sources(seed, sizes)
    for name, lines in sources.items():
        write_bytes(work / f"src-{name}.jsonl", lines)
    (work / "mix-stats.json").write_text(json.dumps(MIX_STATS) + "\n", encoding="utf-8")
    (work / "pipeline-stats.json").write_text(json.dumps(PIPELINE_STATS) + "\n", encoding="utf-8")
    return {"lines": sources}


# ---------------------------------------------------------------------------
# drop_eval: a DROP-layout gold file and a predictions file
# ---------------------------------------------------------------------------

ANSWER_TYPES = {"number": 61, "span": 31, "spans": 6, "date": 2}
#: Multi-span answers: mostly 2-3 spans with a thin tail at 7-8.
SPAN_COUNTS = {2: 45, 3: 25, 4: 10, 5: 8, 6: 5, 7: 4, 8: 3}
PREDICTION_KINDS = {
    "number": {"exact": 55, "reformatted": 10, "wrong_number": 20, "partial": 15},
    "span": {"exact": 50, "partial": 30, "wrong_number": 10, "wrong": 10},
    "spans": {"exact": 30, "reordered": 25, "extra": 20, "partial": 15, "wrong_number": 10},
    "date": {"exact": 60, "partial": 25, "wrong_number": 15},
}
#: Every VALIDATED_EVERY-th question of each kind carries one validated answer.
VALIDATED_EVERY = 4


def _question_plan(total: int) -> list[tuple[str, int, str, bool]]:
    """(answer type, gold span count, prediction kind, has validated answer) per question."""
    plan = []
    types = composition(total, ANSWER_TYPES)
    by_type = {kind: types.count(kind) for kind in ANSWER_TYPES}
    for kind, count in by_type.items():
        sizes = composition(count, SPAN_COUNTS) if kind == "spans" else [1] * count
        for size in sorted(set(sizes)):
            group = sizes.count(size)
            for index, pred in enumerate(composition(group, PREDICTION_KINDS[kind])):
                if pred == "extra" and size >= 8:
                    pred = "reordered"  # keep every alignment at 8 spans or fewer
                plan.append((kind, size, pred, index % VALIDATED_EVERY == 0))
    return plan


def _mutate_number(text: Text, number: str) -> str:
    return str(int(number) + text.rng.randint(1, 9))


def _span_phrase(text: Text, name: str) -> str:
    # Some spans carry a number, so a wrong number in the prediction hits
    # the numeracy gate rather than just a missing word.
    if text.rng.random() < 0.3:
        return f"{name} {text.number(2)} yard line"
    return name


def _gold_and_prediction(text: Text, kind: str, size: int, pred: str, validated: bool):
    r = text.rng
    if kind == "number":
        number = text.number(r.randint(1, 4))
        gold = {"number": number, "date": {"day": "", "month": "", "year": ""}, "spans": []}
        prediction = {
            "exact": number,
            "reformatted": f"{number}.0",
            "wrong_number": _mutate_number(text, number),
            "partial": f"{number} yards",
        }[pred]
        other = dict(gold)
    elif kind == "date":
        day, month, year = text.date()
        gold = {"number": "", "date": {"day": day, "month": month, "year": year}, "spans": []}
        prediction = {
            "exact": f"{day} {month} {year}",
            "partial": f"{month} {year}",
            "wrong_number": f"{day} {month} {_mutate_number(text, year)}",
        }[pred]
        other = dict(gold)
    else:
        spans = [_span_phrase(text, name) for name in text.names(size + 1)]
        extra, spans = spans[-1], spans[:-1]
        gold = {"number": "", "date": {"day": "", "month": "", "year": ""}, "spans": spans}
        guess = list(spans)
        if pred == "reordered":
            r.shuffle(guess)
            if guess == spans:
                guess.reverse()
        elif pred == "extra":
            guess.insert(r.randrange(len(guess) + 1), extra)
        elif pred == "partial":
            guess = guess[:-1] if len(guess) > 1 else [guess[0].split()[0] + " Hall"]
        elif pred == "wrong_number":
            guess[-1] = f"{guess[-1].split()[0]} {text.number(3)} yard line"
        elif pred == "wrong":
            guess = [text.name()]
        prediction = "; ".join(guess)
        other = dict(gold, spans=list(reversed(spans)) if size > 1 else [f"the {spans[0]}"])
    return gold, prediction, ([other] if validated else [])


def drop_eval_inputs(seed: int, passages: int, per_passage: int) -> dict:
    """DROP-layout gold dict, prediction rows, and per-question expectations."""
    text = Text(random.Random(f"bench-drop:{seed}"))
    plan = _question_plan(passages * per_passage)
    text.rng.shuffle(plan)
    gold: dict = {}
    predictions: list[dict] = []
    expected: dict = {}
    for p in range(passages):
        qas = []
        for q in range(per_passage):
            kind, size, pred, validated = plan[p * per_passage + q]
            query_id = f"p{p:05d}q{q:02d}"
            answer, prediction, others = _gold_and_prediction(text, kind, size, pred, validated)
            qas.append({
                "question": f"Which side gained the most yards in game {q + 1}?",
                "answer": answer,
                "query_id": query_id,
                "validated_answers": others,
            })
            predictions.append({"id": query_id, "prediction": prediction})
            expected[query_id] = {"type": kind, "golds": [answer, *others], "prediction": prediction}
        gold[f"passage-{p:05d}"] = {"passage": text.words(text.numeric_sentence, 200, 300), "qa_pairs": qas}
    return {"gold": gold, "predictions": predictions, "expected": expected}


def write_drop_eval(work: Path, seed: int, passages: int, per_passage: int) -> dict:
    data = drop_eval_inputs(seed, passages, per_passage)
    (work / "drop-gold.json").write_text(json.dumps(data["gold"], ensure_ascii=False), encoding="utf-8")
    write_bytes(work / "predictions.jsonl", [jsonl_line(row) for row in data["predictions"]])
    return data
