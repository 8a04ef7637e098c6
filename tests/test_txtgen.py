from decimal import Context, Decimal, Inexact, getcontext, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from numtext import txtgen
from numtext.errors import ConfigError, SimulationError, ValidationError
from numtext.txtgen import (
    DEFAULT_VOCAB,
    Event,
    QuestionSpec,
    TxtGenConfig,
    Vocabulary,
    WorldState,
    answer_question,
    generate_txt,
    txt_to_example,
)

from oracles import resimulate


def observe(container, entity, qty):
    return Event(txtgen.OBSERVE, container, entity, Decimal(qty))


def gain(container, entity, qty):
    return Event(txtgen.GAIN, container, entity, Decimal(qty))


def lose(container, entity, qty):
    return Event(txtgen.LOSE, container, entity, Decimal(qty))


def transfer(container, target, entity, qty):
    return Event(txtgen.TRANSFER, container, entity, Decimal(qty), target=target)


def simulate(events):
    state = WorldState()
    for event in events:
        state.apply(event)
    return state


# ---------------------------------------------------------------------------
# WorldState.apply / answer_question
# ---------------------------------------------------------------------------

def test_observe_sets_state():
    state = WorldState()
    state.apply(observe("Mary", "apples", 5))
    assert state.count("Mary", "apples") == 5


def test_lose_subtracts():
    state = simulate([observe("Mary", "apples", 5), lose("Mary", "apples", 2)])
    assert state.count("Mary", "apples") == 3


def test_transfer_moves_and_conserves():
    state = simulate(
        [observe("Mary", "apples", 3), transfer("Mary", "John", "apples", 3)]
    )
    assert state.count("Mary", "apples") == 0
    assert state.count("John", "apples") == 3
    assert state.total("apples") == 3


def test_underflow_raises():
    state = simulate([observe("Mary", "apples", 1)])
    with pytest.raises(SimulationError):
        state.apply(lose("Mary", "apples", 2))
    with pytest.raises(SimulationError):
        state.apply(transfer("Mary", "John", "apples", 2))
    with pytest.raises(SimulationError):
        state.apply(lose("Nobody", "apples", 1))
    # A refused event changes nothing, not even which containers appeared.
    assert state.containers == {"Mary": {"apples": Decimal(1)}}


def test_event_validation():
    with pytest.raises(ValidationError):
        Event(txtgen.GAIN, "Mary", "apples", Decimal(-1))
    with pytest.raises(ValidationError):
        Event(txtgen.TRANSFER, "Mary", "apples", Decimal(1), target="Mary")
    with pytest.raises(ValidationError):
        Event(txtgen.GAIN, "Mary", "apples", Decimal(1), target="John")


def test_answer_how_many():
    state = simulate([observe("Mary", "apples", 5), lose("Mary", "apples", 2)])
    assert answer_question(state, QuestionSpec(txtgen.HOW_MANY, "apples", container="Mary")) == "3"


def test_answer_self_difference_is_zero():
    state = simulate([observe("A", "e", 4)])
    assert answer_question(state, QuestionSpec(txtgen.HOW_MANY_MORE, "e", container="A", other="A")) == "0"


def test_answer_how_many_more():
    state = simulate([observe("A", "e", 5), observe("B", "e", 2)])
    assert answer_question(state, QuestionSpec(txtgen.HOW_MANY_MORE, "e", container="A", other="B")) == "3"


def test_answer_total():
    state = simulate([observe("A", "e", 5), observe("B", "e", 2)])
    assert answer_question(state, QuestionSpec(txtgen.TOTAL, "e")) == "7"


def test_answer_unreferenced_container_rejected():
    state = simulate([observe("A", "e", 5)])
    with pytest.raises(ValidationError):
        answer_question(state, QuestionSpec(txtgen.HOW_MANY, "e", container="Nobody"))


# ---------------------------------------------------------------------------
# Conservation and non-negativity properties
# ---------------------------------------------------------------------------

_chain = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(["A", "B", "C"]), st.integers(0, 50)),
    min_size=1,
    max_size=20,
)


@given(_chain)
@settings(max_examples=200)
def test_transfer_only_histories_conserve_totals(moves):
    state = simulate([observe(c, "e", 100) for c in ("A", "B", "C")])
    total_before = state.total("e")
    for source, target, amount in moves:
        if source == target:
            continue
        amount = min(Decimal(amount), state.count(source, "e"))
        state.apply(transfer(source, target, "e", amount))
        assert state.total("e") == total_before
        assert all(
            count >= 0 for held in state.containers.values() for count in held.values()
        )


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), min_size=1, max_size=20))
def test_gain_lose_changes_total_by_amounts(steps):
    state = simulate([observe("A", "e", 1000)])
    expected = Decimal(1000)
    for is_gain, amount in steps:
        if is_gain:
            state.apply(gain("A", "e", amount))
            expected += amount
        else:
            amount = min(Decimal(amount), state.count("A", "e"))
            state.apply(lose("A", "e", amount))
            expected -= amount
        assert state.total("e") == expected


# ---------------------------------------------------------------------------
# generate_txt
# ---------------------------------------------------------------------------

def test_generate_is_reproducible():
    a = [e.to_json() for e in generate_txt(300, seed=5)]
    b = [e.to_json() for e in generate_txt(300, seed=5)]
    assert a == b


def test_generate_count_zero_rejected():
    with pytest.raises(ConfigError):
        list(generate_txt(0))


def test_insufficient_vocab_rejected():
    with pytest.raises(ConfigError):
        Vocabulary(
            containers=("OnlyOne",),
            entities=DEFAULT_VOCAB.entities,
            sentence_templates=DEFAULT_VOCAB.sentence_templates,
            question_templates=DEFAULT_VOCAB.question_templates,
        )


def test_generated_examples_agree_with_resimulation_oracle():
    count = 0
    for example in generate_txt(2000, seed=17):
        events = [event.to_json() for event in example.events]
        assert resimulate(events, example.question_spec.to_json()) == example.answer
        count += 1
    assert count == 2000


def test_event_count_within_configured_bounds():
    for example in generate_txt(200, seed=3):
        assert 2 <= len(example.events) <= 6


def test_how_many_more_never_negative():
    for example in generate_txt(500, seed=23):
        assert not example.answer.startswith("-")


def test_question_names_appear_in_context():
    for example in generate_txt(300, seed=9):
        spec = example.question_spec
        assert spec.entity in example.context
        for name in (spec.container, spec.other):
            if name:
                assert name in example.context


def test_fractional_quantities_opt_in():
    config = TxtGenConfig(frac_digits=1)
    examples = list(generate_txt(100, config, seed=4))
    for example in examples:
        events = [event.to_json() for event in example.events]
        assert resimulate(events, example.question_spec.to_json()) == example.answer
    assert any("." in e.answer for e in examples)


@pytest.mark.parametrize("frac_digits", [0, 3])
def test_wide_quantities_agree_with_resimulation_oracle(frac_digits):
    config = TxtGenConfig(max_quantity=10**40, frac_digits=frac_digits)
    for example in generate_txt(300, config, seed=6):
        events = [event.to_json() for event in example.events]
        assert resimulate(events, example.question_spec.to_json()) == example.answer


def test_generate_txt_leaves_the_callers_decimal_context_unchanged():
    with localcontext(Context()):
        examples = generate_txt(5, TxtGenConfig(max_quantity=10**40, frac_digits=2), seed=1)
        next(examples)
        context = getcontext()
        assert context.prec == 28 and not context.traps[Inexact]
        assert Decimal(1) / 3 == Decimal("0.3333333333333333333333333333")
        next(examples)
        assert getcontext().prec == 28


def test_vocabulary_from_json_rejects_missing_and_ill_typed_fields():
    good = {
        "containers": ["A", "B"],
        "entities": ["x", "y"],
        "sentence_templates": {verb: list(DEFAULT_VOCAB.sentence_templates[verb]) for verb in txtgen.VERBS},
        "question_templates": {kind: list(DEFAULT_VOCAB.question_templates[kind]) for kind in txtgen.QUESTION_KINDS},
    }
    assert Vocabulary.from_json(good).containers == ("A", "B")
    bad = [
        [],
        {key: value for key, value in good.items() if key != "containers"},
        {**good, "entities": "xy"},
        {**good, "containers": ["A", 5]},
        {**good, "containers": ["Mary", "Mary", "John"]},
        {**good, "sentence_templates": ["x"]},
        {**good, "sentence_templates": {**good["sentence_templates"], "juggle": ["{container}"]}},
        {**good, "question_templates": {**good["question_templates"], "total": "How many?"}},
        {**good, "question_templates": {**good["question_templates"], "total": ["How many {thing}?"]}},
        {**good, "question_templates": {**good["question_templates"], "total": ["How many {entity?"]}},
        {**good, "sentence_templates": {**good["sentence_templates"], "gain": ["{container} beat {other}."]}},
    ]
    for obj in bad:
        with pytest.raises(ConfigError):
            Vocabulary.from_json(obj)


def test_txt_to_example_uses_answer_me_prefix():
    example = txt_to_example(next(iter(generate_txt(1, seed=2))))
    assert example.input.startswith("answer_me: How many")
    assert " context: " in example.input
    question_part = example.input.split(" context: ")[0]
    assert question_part.index("How many") < example.input.index(" context: ")
