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

_BLOCK_OPEN = re.compile(r"^\(([a-z])\):[ \t]?(.*)$")
_DECISION = re.compile(
    r"(?i)\bthe answer is\b[ \t]*((?:\([a-z]\))(?:\s*or\s*\([a-z]\))*|none\b)"
)
_DECISION_LABELS = re.compile(r"\(([a-z])\)")
_SENTENCE_GAP = re.compile(r"(?<=[.!?])\s+")

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


def _last_gap(text: str) -> re.Match | None:
    """The gap before the text's final sentence, or None when it has one sentence."""
    last = None
    for last in _SENTENCE_GAP.finditer(text):
        pass
    return last


def _split_block(block: str) -> SpecificContext:
    block = block.strip()
    if not block:
        return SpecificContext("", "")
    gap = _last_gap(block)
    if gap is not None:
        return SpecificContext(knowledge=block[: gap.start()], relation=block[gap.end() :])
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
    prefix = body[:match_start]
    gap = _last_gap(prefix)
    return max(prefix.rfind("\n") + 1, gap.end() if gap else 0)


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

    matches = list(_DECISION.finditer(body))
    if not matches:
        raise DecisionMissing("no 'the answer is ...' sentence in generation")
    final = matches[-1]
    decision = _parse_decision(final.group(1))
    unknown = decision - set(labels)
    if unknown:
        raise LabelUnknown(f"decision names unknown label(s): {sorted(unknown)}")

    content = body[: _decision_sentence_start(body, final.start())]

    overall_lines: list[str] = []
    blocks: dict[str, list[str]] = {}
    warnings: list[str] = []
    current: str | None = None
    for line in content.split("\n"):
        m = _BLOCK_OPEN.match(line)
        if m:
            label = m.group(1)
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


def serialize_context(ctx: ParsedContext, labels: tuple[str, ...] | list[str]) -> str:
    """Render a context back into the canonical generation layout."""
    lines = [f"{CONTEXT_HEAD} {ctx.overall}".rstrip()]
    for label in labels:
        block = ctx.specific.get(label, SpecificContext("", ""))
        lines.append(f"({label}): {block.text()}".rstrip())
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
