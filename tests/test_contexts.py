import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privqa.contexts import (
    ContextView,
    DecisionMissing,
    FormatError,
    LabelUnknown,
    ParsedContext,
    SpecificContext,
    apply_view,
    ftcr_admit,
    parse_generation,
    serialize_context,
)
from privqa.promptkit import bundled_demo_path, load_demonstrations

LABELS4 = ("a", "b", "c", "d")

# Expected preliminary decisions for the bundled demonstration files, frozen.
EXPECTED_DECISIONS = {
    "medqa": [{"c"}, {"d"}, {"d"}, {"d"}, {"d"}],
    "medmcqa": [{"a"}, {"b"}, {"d"}, {"c"}, {"b"}],
    "csqa": [{"e"}, {"c", "e"}, {"b"}, {"e"}, {"c"}, {"a", "c"}, {"d"}],
    "obqa": [{"a"}, {"b"}, {"a"}, {"d"}, {"a"}, set(), {"d"}],
}


def test_bundled_demo_decisions():
    for name, expected in EXPECTED_DECISIONS.items():
        demos = load_demonstrations(bundled_demo_path(name))
        assert len(demos) == len(expected)
        got = [set(d.context.decision) for d in demos]
        assert got == expected, name


def test_bundled_demo_round_trip():
    for name in EXPECTED_DECISIONS:
        for demo in load_demonstrations(bundled_demo_path(name)):
            labels = tuple(demo.choices)
            text = serialize_context(demo.context, labels)
            assert parse_generation(text, labels) == demo.context


SAMPLE = """Context: Alpha beta gamma. More text here.
(a): First fact. It is related to the question.
(b): Second fact. No relationship can be found.
(c): Third fact here. Another fact. It could be the answer.
(d): Fourth fact. This is not relevant.
Therefore, the answer is (c)."""


def test_parse_fields():
    ctx = parse_generation(SAMPLE, LABELS4)
    assert ctx.overall == "Alpha beta gamma. More text here."
    assert ctx.specific["a"] == SpecificContext("First fact.", "It is related to the question.")
    assert ctx.specific["c"] == SpecificContext(
        "Third fact here. Another fact.", "It could be the answer."
    )
    assert ctx.decision == frozenset("c")
    assert ctx.raw == SAMPLE
    assert ctx.warnings == ()


def test_head_before_context_ignored():
    text = "Sure, here is what I found.\n" + SAMPLE
    ctx = parse_generation(text, LABELS4)
    assert ctx.overall == "Alpha beta gamma. More text here."


def test_missing_head():
    with pytest.raises(FormatError):
        parse_generation("(a): Fact. Therefore, the answer is (a).", LABELS4)


def test_missing_decision():
    with pytest.raises(DecisionMissing):
        parse_generation("Context: Something.\n(a): A fact here.", LABELS4)


def test_unknown_decision_label():
    text = "Context: x.\n(a): Fact one.\nTherefore, the answer is (z)."
    with pytest.raises(LabelUnknown):
        parse_generation(text, LABELS4)


def test_decision_last_match_wins():
    text = (
        "Context: Overview.\n"
        "(a): Some sources say the answer is (b) here. More detail.\n"
        "(b): Fact. It is related.\n"
        "Therefore, the answer is (a)."
    )
    ctx = parse_generation(text, ("a", "b"))
    assert ctx.decision == frozenset("a")


def test_decision_multi_or_and_none():
    base = "Context: x.\n(a): Fact one. It is fine.\n(b): Fact two. It is fine.\n"
    multi = parse_generation(base + "Therefore, the answer is (b) or (a).", ("a", "b"))
    assert multi.decision == frozenset({"a", "b"})
    none = parse_generation(base + "Therefore, the answer is None.", ("a", "b"))
    assert none.decision == frozenset()


def test_decision_case_insensitive():
    text = "Context: x.\n(a): Fact. It is fine.\nSo The Answer Is (a)."
    assert parse_generation(text, ("a", "b")).decision == frozenset("a")
    # capital labels name the same (lower-case) choices
    text = "Context: x.\n(a): Fact. It is fine.\nTherefore, the answer is (B)."
    assert parse_generation(text, ("a", "b")).decision == frozenset("b")
    text = "Context: x.\n(a): Fact. It is fine.\nTherefore, the answer is (B) or (a)."
    assert parse_generation(text, ("a", "b")).decision == frozenset("ab")
    with pytest.raises(LabelUnknown):
        parse_generation("Context: x.\nTherefore, the answer is (E).", LABELS4)


def test_trailing_text_after_decision_dropped():
    text = SAMPLE + " Let me know if you need more. Extra trailing line."
    ctx = parse_generation(text, LABELS4)
    assert ctx.specific["d"].relation == "This is not relevant."
    assert ctx.decision == frozenset("c")


def test_missing_block_tolerated_with_warning():
    text = (
        "Context: Overview.\n"
        "(a): Fact one. It is related.\n"
        "(c): Fact three. It is related.\n"
        "Therefore, the answer is (a)."
    )
    ctx = parse_generation(text, ("a", "b", "c"))
    assert ctx.specific["b"] == SpecificContext("", "")
    assert any("(b)" in w for w in ctx.warnings)


def test_unknown_block_consumed_and_dropped():
    text = (
        "Context: Overview.\n"
        "(a): Fact one. It is related.\n"
        "(e): Stray block text.\n"
        "continuation of the stray block\n"
        "(b): Fact two. It is related.\n"
        "Therefore, the answer is (b)."
    )
    ctx = parse_generation(text, ("a", "b"))
    assert ctx.specific["a"].knowledge == "Fact one."
    assert ctx.specific["b"].knowledge == "Fact two."
    assert "stray" not in ctx.overall.lower()
    assert any("(e)" in w for w in ctx.warnings)


def test_single_sentence_block_relation_heuristic():
    # A lone sentence is a relation only when it opens with a stance marker.
    text = (
        "Context: x.\n"
        "(a): No relationship can be found.\n"
        "(b): Penicillin blocks cell wall synthesis.\n"
        "Therefore, the answer is (b)."
    )
    ctx = parse_generation(text, ("a", "b"))
    assert ctx.specific["a"] == SpecificContext("", "No relationship can be found.")
    assert ctx.specific["b"] == SpecificContext("Penicillin blocks cell wall synthesis.", "")


def test_serialize_layout():
    ctx = ParsedContext(
        overall="Overview text.",
        specific={
            "a": SpecificContext("Fact a.", "It is related."),
            "b": SpecificContext("", ""),
        },
        decision=frozenset({"b", "a"}),
    )
    assert serialize_context(ctx, ("a", "b")) == (
        "Context: Overview text.\n"
        "(a): Fact a. It is related.\n"
        "(b):\n"
        "Therefore, the answer is (a) or (b)."
    )


def test_serialize_empty_decision_is_none():
    ctx = ParsedContext(overall="x.", specific={}, decision=frozenset())
    assert serialize_context(ctx, ()).endswith("the answer is None.")



def test_apply_view():
    ctx = parse_generation(SAMPLE, LABELS4)
    overall, per = apply_view(ctx, ContextView.FULL)
    assert overall == ctx.overall
    assert per["a"] == "First fact. It is related to the question."

    overall, per = apply_view(ctx, ContextView.ONLY_OVERALL)
    assert overall == ctx.overall
    assert set(per.values()) == {""}

    overall, per = apply_view(ctx, ContextView.ONLY_SPECIFIC)
    assert overall == ""
    assert per["b"].startswith("Second fact.")

    overall, per = apply_view(ctx, ContextView.NO_RELATION)
    assert per["a"] == "First fact."

    overall, per = apply_view(ctx, ContextView.NO_CONTEXT)
    assert overall == "" and set(per.values()) == {""}


def test_ftcr_admit():
    def ctx(decision):
        return ParsedContext(overall="", specific={}, decision=frozenset(decision))

    assert ftcr_admit(ctx("c"), "c")
    assert not ftcr_admit(ctx("b"), "c")
    assert not ftcr_admit(ctx(("b", "c")), "c")
    assert not ftcr_admit(ctx(()), "c")


# Round-trip property over generated canonical contexts. The strategy emits
# only layouts the serializer itself produces: single-line overall, sentences
# with terminators, relations that are single sentences, and empty-knowledge
# blocks only when the relation opens with a stance marker.

WORDS = ["lorem", "ipsum", "dolor", "sit", "amet", "virens", "aqua", "petra"]
RELATION_HEADS = ["It is", "It could", "No relationship", "This is"]

_TEXT = st.lists(st.sampled_from(WORDS), min_size=2, max_size=4, unique=True).map(" ".join)
PLAIN = _TEXT.map(lambda text: f"{text[0].upper()}{text[1:]}.")
STANCE = st.builds(lambda head, text: f"{head} {text}.", st.sampled_from(RELATION_HEADS), _TEXT)
BLOCKS = st.one_of(
    # relation only, stance-marked
    STANCE.map(lambda relation: SpecificContext("", relation)),
    # knowledge only, one sentence
    PLAIN.map(lambda knowledge: SpecificContext(knowledge, "")),
    # one to three knowledge sentences and a relation, stance-marked or not
    st.builds(
        SpecificContext,
        st.lists(PLAIN, min_size=1, max_size=3).map(" ".join),
        st.one_of(PLAIN, STANCE),
    ),
)


@st.composite
def contexts(draw):
    labels = tuple("abcde"[: draw(st.integers(2, 5))])
    specific = {label: draw(BLOCKS) for label in labels}
    decision = frozenset(draw(st.lists(st.sampled_from(labels), max_size=2, unique=True)))
    overall = " ".join(draw(st.lists(PLAIN, max_size=2)))
    return ParsedContext(overall=overall, specific=specific, decision=decision), labels


@settings(max_examples=200, deadline=None)
@given(contexts())
def test_round_trip_property(drawn):
    ctx, labels = drawn
    text = serialize_context(ctx, labels)
    parsed = parse_generation(text, labels)
    assert parsed == ctx, text
    # serializing the reparse is a fixed point
    assert serialize_context(parsed, labels) == text


def test_round_trip_generator_shapes():
    # The strategy must produce every block shape, and no empty block.
    seen = set()

    @settings(max_examples=200, database=None)
    @given(contexts())
    def collect(drawn):
        ctx, _ = drawn
        seen.update((bool(sc.knowledge), bool(sc.relation)) for sc in ctx.specific.values())

    collect()
    assert seen == {(False, True), (True, False), (True, True)}
