"""Parsing and transforming generated contexts.

A generation has the shape

    Context: <overall context>
    (a): <knowledge sentences> <relation sentence>
    (b): ...
    Therefore, the answer is (c).

The overall context describes the question as reconstructed from keywords;
each choice block ends with a relation sentence tying that choice back to the
question; the final sentence carries the model's preliminary decision, which
may name one label, several joined by "or", or "None". Parsing is tolerant of
missing choice blocks (they become empty) but strict about the decision
sentence, which downstream filtering depends on.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from privqa.errors import PrivqaError

CONTEXT_HEAD = "Context:"

_BLOCK_OPEN = re.compile(r"^\(([A-Za-z])\):[ \t]?(.*)$")
# The leading greedy `.*` backtracks from the end of the text, so one match
# finds the last decision, or the last gap between sentences. A label is an
# ASCII letter in either case: under `(?i)`, `[a-z]` would also match `ſ`,
# `İ` and the Kelvin sign.
_LAST_DECISION = re.compile(
    r"(?is).*\b(the answer is)\b[ \t]*"
    r"((?:\((?-i:[A-Za-z])\))(?:\s*or\s*\((?-i:[A-Za-z])\))*|none\b)"
)
_DECISION_LABELS = re.compile(r"\(([a-z])\)")
_LAST_GAP = re.compile(r"(?s).*[.!?](\s+)")

# A one-sentence choice block is a bare relation only when it opens with a
# stance marker; otherwise it is knowledge with the relation missing.
_RELATION_PREFIXES = ("It is", "It could", "No relationship", "This is")


class ParseError(PrivqaError):
    """Base for all generation-parsing failures."""


class FormatError(ParseError):
    """The generation has no recognizable context structure."""


class DecisionMissing(ParseError):
    """No preliminary-decision sentence could be found."""


class LabelUnknown(ParseError):
    """The decision names a label outside the instance's choices."""


class ContextView(enum.Enum):
    """Ablation views controlling which context fields reach the scorer."""

    FULL = "Full"
    ONLY_OVERALL = "OnlyOverall"
    ONLY_SPECIFIC = "OnlySpecific"
    NO_RELATION = "NoRelation"
    NO_CONTEXT = "NoContext"


@dataclass(frozen=True)
class SpecificContext:
    """One choice's context: background knowledge plus a relation sentence."""

    knowledge: str
    relation: str

    def text(self) -> str:
        if self.knowledge and self.relation:
            return f"{self.knowledge} {self.relation}"
        return self.knowledge or self.relation


@dataclass(frozen=True)
class ParsedContext:
    """Structured form of one generation.

    `raw` keeps the original text for provenance and is excluded from
    equality: a reserialized context compares equal to its source parse.
    `warnings` records tolerated defects such as missing choice blocks.
    """

    overall: str
    specific: dict[str, SpecificContext]
    decision: frozenset[str]
    raw: str = field(compare=False, default="")
    warnings: tuple[str, ...] = field(compare=False, default=())


def _split_block(block: str) -> SpecificContext:
    block = block.strip()
    if not block:
        return SpecificContext("", "")
    gap = _LAST_GAP.match(block)
    if gap is not None:
        return SpecificContext(knowledge=block[: gap.start(1)], relation=block[gap.end(1) :])
    if block.startswith(_RELATION_PREFIXES):
        return SpecificContext(knowledge="", relation=block)
    return SpecificContext(knowledge=block, relation="")


def _parse_decision(token: str) -> frozenset[str]:
    # the decision matches in any case, and labels are lower case
    token = token.lower()
    if token.strip().startswith("none"):
        return frozenset()
    return frozenset(_DECISION_LABELS.findall(token))


def _decision_sentence_start(body: str, match_start: int) -> int:
    """Walk back from the decision match to the start of its sentence."""
    gap = _LAST_GAP.match(body, 0, match_start)
    return max(body.rfind("\n", 0, match_start) + 1, gap.end(1) if gap else 0)


def parse_generation(text: str, labels: tuple[str, ...] | list[str]) -> ParsedContext:
    """Parse one generation into overall/specific/decision fields.

    Raises FormatError when the "Context:" head is absent, DecisionMissing
    when no decision sentence exists, and LabelUnknown when the decision
    names a label outside `labels`. Missing choice blocks are tolerated and
    recorded as warnings; text after the final decision sentence is ignored.
    """
    head = text.find(CONTEXT_HEAD)
    if head < 0:
        raise FormatError(f"no {CONTEXT_HEAD!r} head in generation")
    body = text[head + len(CONTEXT_HEAD) :]

    final = _LAST_DECISION.match(body)
    if final is None:
        raise DecisionMissing("no 'the answer is ...' sentence in generation")
    decision = _parse_decision(final.group(2))
    unknown = decision - set(labels)
    if unknown:
        raise LabelUnknown(f"decision names unknown label(s): {sorted(unknown)}")

    content = body[: _decision_sentence_start(body, final.start(1))]

    overall_lines: list[str] = []
    blocks: dict[str, list[str]] = {}
    warnings: list[str] = []
    current: str | None = None
    for line in content.split("\n"):
        m = _BLOCK_OPEN.match(line)
        if m:
            label = m.group(1).lower()
            if label not in labels:
                # Consume the stray block without attaching it anywhere.
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

    specific: dict[str, SpecificContext] = {}
    for label in labels:
        if label in blocks:
            specific[label] = _split_block("\n".join(blocks[label]))
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


def _unwritable_field(ctx: ParsedContext, labels: tuple[str, ...] | list[str]) -> str | None:
    """The first field of `ctx` that would not parse back as written, or None.

    Labels must be distinct lower-case ASCII letters with one block each, and
    the decision must name only them. No line of a field after its first may
    open a choice block. The overall context must be stripped, and each
    block's text must split back into the same knowledge and relation.
    """
    for label in labels:
        if not (len(label) == 1 and "a" <= label <= "z"):
            return f"label {label!r}"
    if len(set(labels)) != len(labels) or ctx.specific.keys() != set(labels):
        return "choice blocks"
    if not ctx.decision <= ctx.specific.keys():
        return "decision"
    if ctx.overall != ctx.overall.strip() or _opens_block(ctx.overall):
        return "overall"
    for label in labels:
        block = ctx.specific[label]
        if not _splits_back(block.knowledge, block.relation, block.text()):
            return f"choice ({label})"
    return None


def _opens_block(text: str) -> bool:
    """A line of `text` after its first opens a choice block."""
    return "\n" in text and any(_BLOCK_OPEN.match(line) for line in text.split("\n")[1:])


def _splits_back(knowledge: str, relation: str, text: str) -> bool:
    """`_split_block(text)` gives back this knowledge and relation (`text` joins them).

    It reads the split off `_LAST_GAP` instead of building the split block,
    which halves the check's cost: the synthetic oracle serializes every
    context it writes.
    """
    if text != text.strip() or _opens_block(text):
        return False
    gap = _LAST_GAP.match(text)
    if gap is not None:
        return gap.start(1) == len(knowledge) and gap.end(1) == len(text) - len(relation)
    if text.startswith(_RELATION_PREFIXES):
        return not knowledge
    return not relation


def serialize_context(ctx: ParsedContext, labels: tuple[str, ...] | list[str]) -> str:
    """Render a context back into the canonical generation layout.

    `parse_generation` of the result gives `ctx` back; a field that would
    not raises `FormatError` naming it, so no text in a context can change
    a prompt's structure.
    """
    field_name = _unwritable_field(ctx, labels)
    if field_name is not None:
        raise FormatError(f"context {field_name} would not parse back as written")
    lines = [f"{CONTEXT_HEAD} {ctx.overall}".rstrip()]
    for label in labels:
        lines.append(f"({label}): {ctx.specific[label].text()}".rstrip())
    if ctx.decision:
        joined = " or ".join(f"({label})" for label in sorted(ctx.decision))
    else:
        joined = "None"
    lines.append(f"Therefore, the answer is {joined}.")
    return "\n".join(lines)


def apply_view(ctx: ParsedContext, view: ContextView) -> tuple[str, dict[str, str]]:
    """Reduce a context to (overall text, per-choice text) under a view."""
    if view is ContextView.NO_CONTEXT:
        return "", {label: "" for label in ctx.specific}
    if view is ContextView.ONLY_OVERALL:
        return ctx.overall, {label: "" for label in ctx.specific}
    if view is ContextView.ONLY_SPECIFIC:
        return "", {label: sc.text() for label, sc in ctx.specific.items()}
    if view is ContextView.NO_RELATION:
        return ctx.overall, {label: sc.knowledge for label, sc in ctx.specific.items()}
    if view is ContextView.FULL:
        return ctx.overall, {label: sc.text() for label, sc in ctx.specific.items()}
    raise ValueError(f"unknown view {view!r}")


def ftcr_admit(ctx: ParsedContext, gold: str) -> bool:
    """Context-refinement filter: admit only an exact singleton correct decision."""
    return ctx.decision == frozenset((gold,))
