"""Few-shot prompt assembly from keywords, candidate answers, and demonstrations.

A prompt is a sequence of demonstration blocks followed by a query block:

    Question Keywords: <k1, k2, ...>
    Candidate Answers: (a) <text> (b) <text> ...
    Context: <overall>
    (a): ...
    Therefore, the answer is (x).

Blocks are separated by exactly one blank line. The query block has no
context; it ends with the bare cue line "Context:" which the LLM continues.
Demonstrations ship as plain-text data files in this same layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from privqa.contexts import CONTEXT_HEAD, ParsedContext, ParseError
from privqa.contexts import parse_generation, serialize_context
from privqa.errors import PrivqaError, read_text

KEYWORDS_MARKER = "Question Keywords:"
ANSWERS_MARKER = "Candidate Answers:"
STOP_SEQUENCE = "\n\n" + KEYWORDS_MARKER

_CHOICE_SPLIT = re.compile(r"\(([a-z])\)\s*")
# every line boundary of `str.splitlines`, "\r\n" as one
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class PromptError(PrivqaError):
    """A demonstration file or prompt component is malformed."""


@dataclass(frozen=True)
class Demonstration:
    """One worked example: keywords, choices, and a full parsed context."""

    keywords: tuple[str, ...]
    choices: dict[str, str]
    context: ParsedContext


@dataclass(frozen=True)
class PromptText:
    text: str
    demo_count: int
    query_id: str


def _one_line(text: str) -> str:
    return _LINE_BREAK.sub(" ", text)


def render_block(
    keywords: Sequence[str],
    choices: dict[str, str],
    context: ParsedContext | None = None,
) -> str:
    """Render one prompt block; without a context it ends at the bare cue.

    Each line break in a keyword or an answer becomes one space, so neither
    can add a line to the block (say, a decision line).
    """
    answers = " ".join(f"({label}) {_one_line(text)}" for label, text in choices.items())
    keyword_line = f"{KEYWORDS_MARKER} {', '.join(map(_one_line, keywords))}"
    lines = [keyword_line, f"{ANSWERS_MARKER} {answers}"]
    if context is None:
        lines.append(CONTEXT_HEAD)
    else:
        lines.append(serialize_context(context, tuple(choices)))
    return "\n".join(lines)


def build_prompt(
    demos: Sequence[Demonstration],
    keywords: Sequence[str],
    choices: dict[str, str],
    query_id: str = "",
) -> PromptText:
    """Assemble demonstrations plus the query block into one prompt."""
    if not demos:
        raise PromptError("at least one demonstration is required")
    blocks = [render_block(d.keywords, d.choices, d.context) for d in demos]
    blocks.append(render_block(keywords, choices, None))
    return PromptText(text="\n\n".join(blocks), demo_count=len(demos), query_id=query_id)


def parse_choice_line(line: str) -> dict[str, str]:
    """Parse a 'Candidate Answers:' payload into an ordered label->text map."""
    parts = _CHOICE_SPLIT.split(line.strip())
    if len(parts) < 3 or parts[0].strip():
        raise PromptError(f"unparseable candidate answers: {line!r}")
    choices: dict[str, str] = {}
    for label, text in zip(parts[1::2], parts[2::2]):
        if label in choices:
            raise PromptError(f"duplicate choice label ({label})")
        choices[label] = text.strip()
    return choices


def _parse_demo(chunk: str, where: str) -> Demonstration:
    lines = chunk.split("\n")
    if len(lines) < 3 or not lines[0].startswith(KEYWORDS_MARKER) or not lines[1].startswith(
        ANSWERS_MARKER
    ):
        raise PromptError(f"{where}: demonstration must start with keyword and answer lines")
    kw_payload = lines[0][len(KEYWORDS_MARKER) :].strip()
    keywords = tuple(k.strip() for k in kw_payload.split(",") if k.strip())
    choices = parse_choice_line(lines[1][len(ANSWERS_MARKER) :])
    try:
        context = parse_generation("\n".join(lines[2:]), tuple(choices))
    except ParseError as exc:
        raise PromptError(f"{where}: {exc}") from exc
    return Demonstration(keywords=keywords, choices=choices, context=context)


def load_demonstrations(path: str | Path) -> list[Demonstration]:
    """Load a demonstration file: blocks in prompt layout, blank-line separated."""
    chunks = [c.strip("\n") for c in re.split(r"\n[ \t]*\n", read_text(path, PromptError))]
    demos = [
        _parse_demo(chunk, f"{path}#{i + 1}")
        for i, chunk in enumerate(chunks)
        if chunk.strip()
    ]
    if not demos:
        raise PromptError(f"{path}: no demonstrations found")
    return demos


def bundled_demo_path(name: str) -> Path:
    """Path of a demonstration file shipped with the package."""
    p = Path(__file__).parent / "data" / "demos" / f"{name}.txt"
    if not p.exists():
        raise PromptError(f"no bundled demonstrations named {name!r}")
    return p
