import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privqa.contexts import (
    CONTEXT_HEAD,
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


# Unicode case folding maps these to ASCII letters: the long s and the dotted
# capital I fold to `s` and `i`, the Kelvin sign to `k`. A label is ASCII only.
NON_ASCII_LABELS = ["\u017f", "\u0130", "\u212a"]


@pytest.mark.parametrize("letter", NON_ASCII_LABELS)
def test_non_ascii_label_is_no_decision(letter):
    base = "Context: x.\n(a): Fact. It is fine.\n"
    with pytest.raises(DecisionMissing):
        parse_generation(base + f"Therefore, the answer is ({letter}).", LABELS4)
    # an earlier ASCII decision is then the last one
    text = base + f"So the answer is (b). Therefore, the answer is ({letter})."
    assert parse_generation(text, LABELS4).decision == frozenset("b")


# Characters that case folding, `\s`, `\b` or `str.splitlines` treat unlike
# ASCII: the long s, the dotted capital I, the Kelvin sign, capital sigma (a
# word character), and line and record breaks.
TRICKY = ["\u017f", "\u0130", "\u212a", "\u03a3", "\x85", "\u2028", "\x1c", "\x1d", "\x1e",
          "\r", "\n"]
LABEL_PIECES = [
    *(f"({c})" for c in ["a", "B", "d", *NON_ASCII_LABELS]),
    "none", "None", "NONE", " or ", "or", " ", "\t", "(", ")", "n", "o", "e", ".",
    "the answer is ", "THE ANSWER \u0130S ", "the an\u017fwer is ", *TRICKY,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(LABEL_PIECES), max_size=8))
def test_parsed_decision_is_empty_only_when_the_text_says_none(pieces):
    text = "Context: x.\n(a): Fact. It is fine.\nTherefore, the answer is " + "".join(pieces)
    try:
        ctx = parse_generation(text, LABELS4)
    except (DecisionMissing, LabelUnknown):
        return
    # `none` right after a decision phrase, whose letters may fold as the parser's do
    assert ctx.decision or re.search(r"(?i)the answer is[ \t]*none", text)


def test_capital_block_openers_name_the_same_choices():
    text = "Context: o.\n(A): k. It is x.\n(B): m. It is y.\nTherefore, the answer is (A)."
    ctx = parse_generation(text, ("a", "b"))
    assert ctx.overall == "o."
    assert ctx.specific == {
        "a": SpecificContext("k.", "It is x."),
        "b": SpecificContext("m.", "It is y."),
    }
    assert ctx.decision == frozenset("a")
    assert ctx.warnings == ()
    # a capital label outside the choices is still a dropped block
    ctx = parse_generation(text.replace("(B):", "(E):"), ("a", "b"))
    assert ctx.warnings == ("dropped block for unknown label (e)", "missing block for choice (b)")


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


# The parser as it was before the one-pass matches: every decision and
# sentence gap found by `finditer`, the last one kept. It is the reference the
# one-pass parser must agree with, on every field and every error.

_REF_BLOCK_OPEN = re.compile(r"^\(([A-Za-z])\):[ \t]?(.*)$")
_REF_DECISION = re.compile(
    r"(?i)\bthe answer is\b[ \t]*"
    r"((?:\((?-i:[A-Za-z])\))(?:\s*or\s*\((?-i:[A-Za-z])\))*|none\b)"
)
_REF_DECISION_LABELS = re.compile(r"\(([a-z])\)")
_REF_SENTENCE_GAP = re.compile(r"(?<=[.!?])\s+")
_REF_RELATION_PREFIXES = ("It is", "It could", "No relationship", "This is")


def _ref_last_gap(text):
    last = None
    for last in _REF_SENTENCE_GAP.finditer(text):
        pass
    return last


def _ref_split_block(block):
    block = block.strip()
    if not block:
        return SpecificContext("", "")
    gap = _ref_last_gap(block)
    if gap is not None:
        return SpecificContext(knowledge=block[: gap.start()], relation=block[gap.end() :])
    if block.startswith(_REF_RELATION_PREFIXES):
        return SpecificContext(knowledge="", relation=block)
    return SpecificContext(knowledge=block, relation="")


def reference_parse(text, labels):
    head = text.find(CONTEXT_HEAD)
    if head < 0:
        raise FormatError(f"no {CONTEXT_HEAD!r} head in generation")
    body = text[head + len(CONTEXT_HEAD) :]
    matches = list(_REF_DECISION.finditer(body))
    if not matches:
        raise DecisionMissing("no 'the answer is ...' sentence in generation")
    final = matches[-1]
    token = final.group(1).lower()
    if token.strip().startswith("none"):
        decision = frozenset()
    else:
        decision = frozenset(_REF_DECISION_LABELS.findall(token))
    unknown = decision - set(labels)
    if unknown:
        raise LabelUnknown(f"decision names unknown label(s): {sorted(unknown)}")
    prefix = body[: final.start()]
    gap = _ref_last_gap(prefix)
    content = body[: max(prefix.rfind("\n") + 1, gap.end() if gap else 0)]

    overall_lines, blocks, warnings, current = [], {}, [], None
    for line in content.split("\n"):
        m = _REF_BLOCK_OPEN.match(line)
        if m:
            label = m.group(1).lower()
            if label not in labels:
                warnings.append(f"dropped block for unknown label ({label})")
                current = "!"
                continue
            blocks.setdefault(label, []).append(m.group(2))
            current = label
        elif current is None:
            overall_lines.append(line)
        elif current == "!":
            continue
        else:
            blocks[current].append(line)
    specific = {}
    for label in labels:
        if label in blocks:
            specific[label] = _ref_split_block("\n".join(blocks[label]))
        else:
            specific[label] = SpecificContext("", "")
            warnings.append(f"missing block for choice ({label})")
    return ParsedContext(
        overall="\n".join(overall_lines).strip(),
        specific=specific,
        decision=decision,
        raw=text,
        warnings=tuple(warnings),
    )


def outcome(parse, text, labels):
    """Everything a parse gives: the error's class and message, or every field in order."""
    try:
        ctx = parse(text, labels)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return type(exc), str(exc)
    return (
        ctx.overall,
        list(ctx.specific.items()),
        ctx.decision,
        ctx.raw,
        ctx.warnings,
    )


# Separators include `\r\n`, the information separators and NEL, which
# `str.splitlines` would split and the parser must not.
SEPARATORS = [" ", "  ", "\t", "\n", "\n\n", "\r\n", "\x1c", "\x1d", "\x1e", "\x85", " ", ""]
HEADS = ["Context:", "Context: ", "context:", "Sure.\nContext:", "Context:\n", "Contex:", ""]
OPENERS = [
    "(a):", "(a): ", "(b): ", "(c):\t", "(A): ", "(B):", "(C): ", "(e): ", "(E): ", "(z):",
    " (a): ", "(ab): ", "(a) :", "(1): ",
]
SENTENCES = [
    "Fact one.", "Fact two!", "Is it so?", "It is related.", "It could be.",
    "No relationship can be found.", "This is relevant.", "no terminator", "e.g. this",
    "Mid. sentence", "", ".", "?!",
]
DECISIONS = [
    "Therefore, the answer is (a).", "the answer is (B) or (c).", "The Answer Is None.",
    "So the answer is none", "the answer is (a)or(b)", "the answer is (a) or\n(b).",
    "the answer is\t(c)", "the answer is\n(a).", "the answer is(a).", "xthe answer is (a).",
    "the answer is nonesuch.", "the answer is (e).", "the answer is (Z).", "the answer is ",
    "theanswer is (a).", "THE ANSWER IS (D) OR (A) OR (B).",
    "the answer is (\u017f).", "the answer is (a) or (\u0130).", "the answer is (\u212a).",
]
PIECES = st.one_of(
    st.sampled_from(HEADS),
    st.sampled_from(OPENERS),
    st.sampled_from(SENTENCES),
    st.sampled_from(DECISIONS),
)


def _joined(draw, parts):
    return "".join(part + draw(st.sampled_from(SEPARATORS)) for part in parts)


@st.composite
def generations(draw):
    """A head, overall sentences, blocks and a decision, with stray pieces and
    single-character edits mixed in."""
    sentences = st.lists(st.sampled_from(SENTENCES), max_size=4)
    parts = [draw(st.sampled_from(HEADS)), *draw(sentences)]
    for _ in range(draw(st.integers(0, 5))):
        parts += [draw(st.sampled_from(OPENERS)), *draw(sentences)]
    parts += [draw(st.sampled_from(DECISIONS)), *draw(st.lists(PIECES, max_size=2))]
    for pos, piece in draw(st.lists(st.tuples(st.integers(0, 99), PIECES), max_size=3)):
        parts.insert(pos % (len(parts) + 1), piece)
    text = _joined(draw, parts)
    alphabet = st.sampled_from(list(".!?() :\n\r\t\x1c\x1d\x1e\x85aAbeo\u017f\u0130\u212a"))
    for kind, pos, char in draw(
        st.lists(st.tuples(st.sampled_from("id"), st.integers(0, 10**4), alphabet), max_size=3)
    ):
        pos %= len(text) + 1
        text = text[:pos] + char + text[pos:] if kind == "i" else text[:pos] + text[pos + 1 :]
    labels = tuple("abcd"[: draw(st.integers(1, 4))])
    return text, labels


@settings(max_examples=500, deadline=None)
@given(generations())
def test_parse_agrees_with_the_reference_parser(drawn):
    text, labels = drawn
    assert outcome(parse_generation, text, labels) == outcome(reference_parse, text, labels)


def test_differential_generator_reaches_every_outcome():
    # the drawn generations parse, and fail in each of the three ways
    seen = set()

    @settings(max_examples=200, database=None, deadline=None)
    @given(generations())
    def collect(drawn):
        got = outcome(reference_parse, *drawn)
        seen.add(got[0] if isinstance(got[0], type) else ParsedContext)

    collect()
    assert seen == {ParsedContext, FormatError, DecisionMissing, LabelUnknown}
