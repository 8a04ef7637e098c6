"""Synthetic word-problem data driven by container/entity state simulation.

Each example narrates 2-6 events over a small world state (who holds how
many of what), rendered through sentence templates, and asks a question
whose gold answer is read off the simulated final state. The default
vocabulary and templates are stand-ins and fully overridable; quantities
are non-negative integers unless fractional digits are enabled.
"""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from itertools import chain
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple

from .corpus import ANSWER_ME, NUMBER, Example, format_input
from .decimals import EXACT, MAX_FRAC_DIGITS, exact, render
from .errors import ConfigError, SimulationError, ValidationError
from .seeding import derive_seed


#: Event verbs and question kinds, in the order the generator draws them.
VERBS = OBSERVE, GAIN, LOSE, TRANSFER = "observe", "gain", "lose", "transfer"
QUESTION_KINDS = HOW_MANY, HOW_MANY_MORE, TOTAL = "how_many", "how_many_more", "total"


class Event:
    """One state change: a container observes/gains/loses/transfers an entity."""

    __slots__ = ("verb", "container", "entity", "quantity", "target")

    def __init__(self, verb: str, container: str, entity: str, quantity: Decimal, target: str | None = None):
        if quantity < 0:
            raise ValidationError("event quantity must be >= 0")
        if verb == TRANSFER:
            if not target or target == container:
                raise ValidationError("transfer needs a distinct target container")
        elif target is not None:
            raise ValidationError(f"{verb} event takes no target")
        self.verb = verb
        self.container = container
        self.entity = entity
        self.quantity = quantity
        self.target = target

    def __eq__(self, other):
        return _event_fields(self) == _event_fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"Event{_event_fields(self)!r}"

    def to_json(self) -> dict:
        row = {
            "verb": self.verb,
            "container": self.container,
            "entity": self.entity,
            "quantity": render(self.quantity),
        }
        if self.target is not None:
            row["target"] = self.target
        return row


_event_fields = attrgetter(*Event.__slots__)


class WorldState:
    """Counts per (container, entity); absent cells read as zero."""

    def __init__(self, containers: dict[str, dict[str, Decimal]] | None = None):
        self.containers = {} if containers is None else containers

    def count(self, container: str, entity: str) -> Decimal:
        return self.containers.get(container, {}).get(entity, Decimal(0))

    @exact
    def total(self, entity: str) -> Decimal:
        value = Decimal(0)
        for held in self.containers.values():
            value += held.get(entity, Decimal(0))
        return value

    def _set(self, container: str, entity: str, value: Decimal) -> None:
        self.containers.setdefault(container, {})[entity] = value

    @exact
    def apply(self, event: Event) -> None:
        """Change this state by one event. An event that takes more than its
        container holds raises SimulationError and leaves the state as it was."""
        held = self.count(event.container, event.entity)
        if event.verb == OBSERVE:
            self._set(event.container, event.entity, event.quantity)
        elif event.verb == GAIN:
            self._set(event.container, event.entity, held + event.quantity)
        else:
            if held < event.quantity:
                action = "lose" if event.verb == LOSE else "transfer"
                raise SimulationError(
                    f"{event.container} holds {render(held)} {event.entity}, cannot {action} {render(event.quantity)}"
                )
            self._set(event.container, event.entity, held - event.quantity)
            if event.verb == TRANSFER:
                self._set(event.target, event.entity, self.count(event.target, event.entity) + event.quantity)


class QuestionSpec(NamedTuple):
    """What the question asks of the final state."""

    kind: str
    entity: str
    container: str = ""
    other: str = ""

    def to_json(self) -> dict:
        row = {"kind": self.kind, "entity": self.entity}
        if self.container:
            row["container"] = self.container
        if self.other:
            row["other"] = self.other
        return row


@exact
def answer_question(state: WorldState, question: QuestionSpec) -> str:
    """Answer a question from the final state, rendered as decimal text."""
    if question.kind == HOW_MANY:
        if question.container not in state.containers:
            raise ValidationError(f"container {question.container!r} never appeared")
        return render(state.count(question.container, question.entity))
    if question.kind == HOW_MANY_MORE:
        for name in (question.container, question.other):
            if name not in state.containers:
                raise ValidationError(f"container {name!r} never appeared")
        return render(state.count(question.container, question.entity) - state.count(question.other, question.entity))
    if not any(question.entity in held for held in state.containers.values()):
        raise ValidationError(f"entity {question.entity!r} never appeared")
    return render(state.total(question.entity))


class TxtExample(NamedTuple):
    context: str
    question: str
    answer: str
    events: tuple[Event, ...]
    question_spec: QuestionSpec
    rng_seed: int = 0

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "question": self.question,
            "answer": self.answer,
            "events": [event.to_json() for event in self.events],
            "question_spec": self.question_spec.to_json(),
            "seed": self.rng_seed,
        }


# ---------------------------------------------------------------------------
# Vocabulary and rendering
# ---------------------------------------------------------------------------

class Vocabulary:
    def __init__(
        self,
        containers: tuple[str, ...],
        entities: tuple[str, ...],
        sentence_templates: Mapping[str, tuple[str, ...]],
        question_templates: Mapping[str, tuple[str, ...]],
    ):
        if len(set(containers)) < 2:
            raise ConfigError("vocabulary needs at least 2 distinct container names")
        if len(set(containers)) < len(containers):
            name = next(name for i, name in enumerate(containers) if name in containers[:i])
            raise ConfigError(f"vocabulary 'containers' names {name!r} twice")
        if len(set(entities)) < 2:
            raise ConfigError("vocabulary needs at least 2 distinct entity names")
        for verb in VERBS:
            if not sentence_templates.get(verb):
                raise ConfigError(f"no sentence template for verb {verb!r}")
        for kind in QUESTION_KINDS:
            if not question_templates.get(kind):
                raise ConfigError(f"no question template for kind {kind!r}")
        # Each template must format with exactly the text fields the generator passes.
        for templates, fields in (
            (sentence_templates, ("container", "qty", "entity", "target")),
            (question_templates, ("entity", "container", "other")),
        ):
            for template in chain(*templates.values()):
                try:
                    template.format(**dict.fromkeys(fields, "x"))
                except (LookupError, ValueError, AttributeError, TypeError):
                    named = ", ".join("{" + name + "}" for name in fields)
                    raise ConfigError(f"bad template {template!r}; its fields are {named}") from None
        self.containers = containers
        self.entities = entities
        self.sentence_templates = sentence_templates
        self.question_templates = question_templates

    @classmethod
    def from_json(cls, obj) -> "Vocabulary":
        """Build from a JSON object; a missing or ill-typed field is a ConfigError."""
        if not isinstance(obj, dict):
            raise ConfigError("vocabulary must be a JSON object")
        return cls(
            containers=_strings(obj.get("containers"), "containers"),
            entities=_strings(obj.get("entities"), "entities"),
            sentence_templates=_templates(obj, "sentence_templates", VERBS),
            question_templates=_templates(obj, "question_templates", QUESTION_KINDS),
        )


def _strings(value, name: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"vocabulary {name!r} must be a list of strings")
    try:
        "".join(value).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: JSON can hold one, UTF-8 cannot
        raise ConfigError(f"vocabulary {name!r} holds a lone surrogate, which UTF-8 cannot encode") from None
    return tuple(value)


def _templates(obj: dict, key: str, kinds: tuple[str, ...]) -> dict:
    table = obj.get(key)
    if not isinstance(table, dict):
        raise ConfigError(f"vocabulary {key!r} must be an object keyed by {', '.join(kinds)}")
    unknown = sorted(set(table) - set(kinds))
    if unknown:
        raise ConfigError(f"vocabulary {key!r} has unknown keys {unknown}")
    return {name: _strings(value, f"{key}.{name}") for name, value in table.items()}


DEFAULT_VOCAB = Vocabulary(
    containers=(
        "Mary", "John", "Sara", "Tom", "Emma", "Lucas",
        "Nina", "Omar", "Priya", "Chen", "Ava", "Leo",
    ),
    entities=(
        "apples", "marbles", "books", "pencils", "coins", "stickers",
        "oranges", "cards", "shells", "stamps", "balloons", "cookies",
        "crayons", "buttons", "ribbons", "acorns", "peaches", "tokens",
    ),
    sentence_templates={
        OBSERVE: (
            "{container} had {qty} {entity}.",
            "{container} started with {qty} {entity}.",
            "{container} kept {qty} {entity} in a box.",
            "At first, {container} held {qty} {entity}.",
            "{container} owned {qty} {entity}.",
        ),
        GAIN: (
            "{container} bought {qty} more {entity}.",
            "{container} found {qty} {entity}.",
            "{container} picked up {qty} {entity}.",
            "{container} received {qty} {entity} as a gift.",
            "Then {container} collected {qty} more {entity}.",
        ),
        LOSE: (
            "{container} lost {qty} {entity}.",
            "{container} gave away {qty} {entity}.",
            "{container} dropped {qty} {entity}.",
            "{container} used {qty} {entity}.",
            "{container} sold {qty} {entity}.",
        ),
        TRANSFER: (
            "{container} gave {qty} {entity} to {target}.",
            "{container} handed {qty} {entity} to {target}.",
            "{container} passed {qty} {entity} to {target}.",
            "{container} sent {qty} {entity} to {target}.",
            "{container} shared {qty} {entity} with {target}.",
        ),
    },
    question_templates={
        HOW_MANY: (
            "How many {entity} does {container} have now?",
            "How many {entity} does {container} have in the end?",
        ),
        HOW_MANY_MORE: (
            "How many more {entity} does {container} have than {other}?",
            "How many more {entity} does {container} have compared to {other}?",
        ),
        TOTAL: (
            "How many {entity} are there in total?",
            "How many {entity} do they have altogether?",
        ),
    },
)


class TxtGenConfig:
    # The defaults, as class attributes too: the command line reads its flag defaults here.
    min_events = 2
    max_events = 6
    max_quantity = 20
    frac_digits = 0  # countable entities by default; >0 opts into fractions

    def __init__(
        self,
        vocab: Vocabulary = DEFAULT_VOCAB,
        min_events: int = min_events,
        max_events: int = max_events,
        max_quantity: int = max_quantity,
        frac_digits: int = frac_digits,
    ):
        if not (2 <= min_events <= max_events):
            raise ConfigError("need 2 <= min_events <= max_events")
        if max_quantity < 1:
            raise ConfigError("max_quantity must be >= 1")
        if not 0 <= frac_digits <= MAX_FRAC_DIGITS:
            raise ConfigError(f"frac_digits must be between 0 and {MAX_FRAC_DIGITS}")
        self.vocab = vocab
        self.min_events = min_events
        self.max_events = max_events
        self.max_quantity = max_quantity
        self.frac_digits = frac_digits


def _draw_quantity(rng: random.Random, config: TxtGenConfig, upper: Decimal | None = None) -> Decimal:
    scale = config.frac_digits
    high = config.max_quantity * 10**scale
    if upper is not None:
        high = min(high, int(upper.scaleb(scale)))
    return Decimal(rng.randint(min(1, high), high)).scaleb(-scale)


def generate_txt(
    count: int, config: TxtGenConfig = TxtGenConfig(), seed: int = 0, start: int = 0
) -> Iterator[TxtExample]:
    """Yield word problems ``start`` to ``start + count - 1``, answers from simulation.

    Example i draws from a child seed (seed, "txt", i), so any index range
    gives the same problems as that slice of a run from 0. Lose/transfer
    amounts never exceed the holder's count, and how_many_more questions
    order their arguments so the difference is never negative.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if start < 0:
        raise ConfigError("start must be >= 0")
    return _generate_txt(config, seed, start, start + count)


def _generate_txt(config, seed, start, stop) -> Iterator[TxtExample]:
    vocab = config.vocab
    unit = Decimal(f"1e-{config.frac_digits}")  # the smallest quantity a holder can lose
    for index in range(start, stop):
        # One exact context per example, left before the yield (see decimals).
        with localcontext(EXACT):
            child = derive_seed(seed, "txt", index)
            rng = random.Random(child)

            entity = rng.choice(vocab.entities)
            n_events = rng.randint(config.min_events, config.max_events)
            n_containers = 3 if n_events >= 5 and len(vocab.containers) >= 3 and rng.random() < 0.5 else 2
            cast = rng.sample(vocab.containers, n_containers)

            state = WorldState()
            events: list[Event] = []
            for name in cast:
                event = Event(OBSERVE, name, entity, _draw_quantity(rng, config))
                state.apply(event)
                events.append(event)
            while len(events) < n_events:
                actor = rng.choice(cast)
                held = state.count(actor, entity)
                choices = [GAIN]
                if held >= unit:
                    choices += [LOSE, TRANSFER]
                verb = rng.choice(choices)
                if verb == GAIN:
                    event = Event(verb, actor, entity, _draw_quantity(rng, config))
                elif verb == LOSE:
                    event = Event(verb, actor, entity, _draw_quantity(rng, config, upper=held))
                else:
                    target = rng.choice([c for c in cast if c != actor])
                    event = Event(verb, actor, entity, _draw_quantity(rng, config, upper=held), target=target)
                state.apply(event)
                events.append(event)

            kind = rng.choice(QUESTION_KINDS)
            if kind == HOW_MANY:
                spec = QuestionSpec(kind, entity, container=rng.choice(cast))
            elif kind == HOW_MANY_MORE:
                first, second = rng.sample(cast, 2)
                if state.count(first, entity) < state.count(second, entity):
                    first, second = second, first
                spec = QuestionSpec(kind, entity, container=first, other=second)
            else:
                spec = QuestionSpec(kind, entity)

            sentences = [
                rng.choice(vocab.sentence_templates[event.verb]).format(
                    container=event.container,
                    qty=render(event.quantity),
                    entity=event.entity,
                    target=event.target or "",
                )
                for event in events
            ]
            question = rng.choice(vocab.question_templates[kind]).format(
                entity=spec.entity, container=spec.container, other=spec.other
            )
            example = TxtExample(
                context=" ".join(sentences),
                question=question,
                answer=answer_question(state, spec),
                events=tuple(events),
                question_spec=spec,
                rng_seed=child,
            )
        yield example


def txt_to_example(example: TxtExample) -> Example:
    """Wrap a TxtExample as an answer_me corpus record."""
    return Example(
        input=format_input(ANSWER_ME, example.question, example.context),
        target=example.answer,
        task=ANSWER_ME,
        answer_type=NUMBER,
        source_id=f"txt-{example.rng_seed:016x}",
    )
