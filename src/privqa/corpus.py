"""Canonical multiple-choice corpora and their context-augmented variants.

The on-disk format is line-delimited JSON, one instance per line:

    {"id": ..., "question": ..., "choices": {"a": ..., "b": ...},
     "gold": "a", "meta": {...}}

Adapters normalize common source layouts (MedQA-style, MedMCQA-style,
ARC-style) into this schema; everything downstream reads only the canonical
form. Augmented files carry the same instance plus its parsed context.
"""

from __future__ import annotations

import dataclasses
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from privqa.contexts import ParsedContext, SpecificContext
from privqa.errors import TEXT, PrivqaError, field, naming, read_records, write_records

LABELS = ("a", "b", "c", "d", "e")
MIN_CHOICES = 2
MAX_CHOICES = 5


class DatasetFormatError(PrivqaError):
    """A dataset or augmented file violates the canonical schema."""


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class QAInstance:
    """One multiple-choice question with gold label and free-form metadata."""

    id: str
    question: str
    choices: dict[str, str]
    gold: str
    meta: dict[str, str] = dataclasses.field(default_factory=dict)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.choices)

    def validate(self) -> None:
        n = len(self.choices)
        if not MIN_CHOICES <= n <= MAX_CHOICES:
            raise DatasetFormatError(f"instance {self.id!r}: {n} choices, need 2..5")
        expected = LABELS[:n]
        if tuple(self.choices) != expected:
            raise DatasetFormatError(
                f"instance {self.id!r}: labels {tuple(self.choices)} not consecutive from 'a'"
            )
        if self.gold not in self.choices:
            raise DatasetFormatError(f"instance {self.id!r}: gold {self.gold!r} not a choice label")


@dataclass(frozen=True)
class Dataset:
    name: str
    split: str
    instances: tuple[QAInstance, ...]

    def __len__(self) -> int:
        return len(self.instances)

    def by_id(self) -> dict[str, QAInstance]:
        return {inst.id: inst for inst in self.instances}


@dataclass(frozen=True)
class AugmentedInstance:
    """An instance joined with the context parsed from one LLM generation."""

    instance: QAInstance
    context: ParsedContext
    generation_id: str

    def validate(self) -> None:
        self.instance.validate()
        want = set(self.instance.labels())
        got = set(self.context.specific)
        if want != got:
            raise DatasetFormatError(
                f"instance {self.instance.id!r}: specific contexts cover {sorted(got)}, "
                f"choices are {sorted(want)}"
            )
        if not self.context.decision <= want:
            raise DatasetFormatError(
                f"instance {self.instance.id!r}: decision {sorted(self.context.decision)}"
                f" names no choice of {sorted(want)}"
            )


def _instance_from_record(rec: dict, meta_override: dict | None = None, at=()) -> QAInstance:
    """The instance at path `at` of `rec`; an error after its id names it."""
    inst_id = field(rec, (*at, "id"), TEXT, DatasetFormatError)
    error = naming(DatasetFormatError, f"instance {inst_id!r}")
    choices = field(rec, (*at, "choices"), dict[str, str], error)
    inst = QAInstance(
        id=inst_id,
        question=nfc(field(rec, (*at, "question"), TEXT, error)),
        choices={label: nfc(text) for label, text in sorted(choices.items())},
        gold=field(rec, (*at, "gold"), str, error),
        meta={**field(rec, (*at, "meta"), dict[str, str], error, {}), **(meta_override or {})},
    )
    inst.validate()
    return inst


def _instance_to_record(inst: QAInstance) -> dict[str, Any]:
    return {
        "id": inst.id,
        "question": inst.question,
        "choices": dict(inst.choices),
        "gold": inst.gold,
        "meta": dict(inst.meta),
    }


def _read_instances(
    path: str | Path, format: str, meta_override: dict[str, str] | None = None
) -> tuple[QAInstance, ...]:
    """Read, adapt and validate every record; errors name file:line, repeated ids fail."""
    adapter = _ADAPTERS[format]

    def convert(rec: dict, lineno: int) -> tuple[str, QAInstance]:
        if adapter is not None:
            try:
                question, texts, gold = adapter(rec)
                rec = {
                    "id": rec.get("id", f"{format}-{lineno}"),
                    "question": question,
                    "choices": {LABELS[i]: text for i, text in enumerate(texts)},
                    "gold": LABELS[gold],
                    "meta": rec.get("meta", {}),
                }
            except (ValueError, IndexError, DatasetFormatError) as exc:
                raise DatasetFormatError(f"not a {format} record ({exc})") from exc
        inst = _instance_from_record(rec, meta_override)
        return inst.id, inst

    return tuple(read_records(path, DatasetFormatError, convert).values())


def load_dataset(path: str | Path) -> Dataset:
    """Load a canonical dataset file, validating every record.

    Name and split come from the first record's meta. Source layouts go
    through `ingest_records` instead.
    """
    instances = _read_instances(path, "canonical-jsonl")
    meta = instances[0].meta if instances else {}
    return Dataset(
        name=meta.get("dataset", Path(path).stem),
        split=meta.get("split", "unknown"),
        instances=instances,
    )


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    write_records(path, map(_instance_to_record, dataset.instances))


# ---------------------------------------------------------------------------
# Augmented corpora


def _context_to_record(ctx: ParsedContext) -> dict[str, Any]:
    return {
        "overall": ctx.overall,
        "specific": {
            label: {"knowledge": sc.knowledge, "relation": sc.relation}
            for label, sc in ctx.specific.items()
        },
        "decision": sorted(ctx.decision),
        "raw": ctx.raw,
    }


def _context_from_record(rec: dict, error: Callable[[str], DatasetFormatError]) -> ParsedContext:
    """The context of an augmented record; every field but `specific` may be left out."""

    def text(*path: str) -> str:
        return field(rec, ("context", *path), str, error, "")

    labels = sorted(field(rec, ("context", "specific"), dict, error))
    return ParsedContext(
        overall=text("overall"),
        specific={
            label: SpecificContext(*(text("specific", label, k) for k in ("knowledge", "relation")))
            for label in labels
        },
        decision=frozenset(field(rec, ("context", "decision"), list[str], error, [])),
        raw=text("raw"),
    )


def write_augmented(augmented: Iterable[AugmentedInstance], path: str | Path) -> None:
    write_records(
        path,
        (
            {
                "id": aug.instance.id,
                "generation_id": aug.generation_id,
                "instance": _instance_to_record(aug.instance),
                "context": _context_to_record(aug.context),
            }
            for aug in augmented
        ),
    )


def load_augmented(path: str | Path) -> list[AugmentedInstance]:
    """Load an augmented file; every record must cover each choice label.

    Repeated instance ids fail, as in `load_dataset`: predictions are keyed
    by id, so a repeat would silently drop out of the metrics.
    """

    def convert(rec: dict, lineno: int) -> tuple[str, AugmentedInstance]:
        instance = _instance_from_record(rec, at=("instance",))
        error = naming(DatasetFormatError, f"instance {instance.id!r}")
        aug = AugmentedInstance(
            instance=instance,
            context=_context_from_record(rec, error),
            generation_id=field(rec, "generation_id", str, error, ""),
        )
        aug.validate()
        return instance.id, aug

    return list(read_records(path, DatasetFormatError, convert).values())


def plain_augmented(instance: QAInstance) -> AugmentedInstance:
    """Wrap an instance with an empty context, for context-free scoring paths."""
    ctx = ParsedContext(
        overall="",
        specific={label: SpecificContext("", "") for label in instance.labels()},
        decision=frozenset(),
        raw="",
    )
    return AugmentedInstance(instance=instance, context=ctx, generation_id="")


# ---------------------------------------------------------------------------
# Source-format adapters: each gives a record's question, its choice texts in
# order and the gold position; `_read_instances` builds the canonical record.


def _adapt_medqa(rec: dict) -> tuple[str, list[str], int]:
    # {"question", "options": {"A": ..}, "answer_idx": "A"}
    ordered = sorted(field(rec, "options", dict[str, str], DatasetFormatError).items())
    gold = [key for key, _ in ordered].index(field(rec, "answer_idx", str, DatasetFormatError))
    return field(rec, "question", str, DatasetFormatError), [text for _, text in ordered], gold


def _adapt_medmcqa(rec: dict) -> tuple[str, list[str], int]:
    # {"question", "opa".."opd", "cop": 0-based index}
    texts = [field(rec, f"op{label}", str, DatasetFormatError) for label in "abcd"]
    cop = field(rec, "cop", int, DatasetFormatError)
    if not 0 <= cop < len(texts):  # a negative index would wrap, picking a gold label silently
        raise ValueError(f"field 'cop': {cop} is not from 0 to {len(texts) - 1}")
    return field(rec, "question", str, DatasetFormatError), texts, cop


def _adapt_arc(rec: dict) -> tuple[str, list[str], int]:
    # {"id", "question": {"stem", "choices": [{"label", "text"}]}, "answerKey"}
    listed = field(rec, ("question", "choices"), list[dict], DatasetFormatError)
    labels = [field(c, "label", str, DatasetFormatError) for c in listed]
    gold = labels.index(field(rec, "answerKey", str, DatasetFormatError))
    texts = [field(c, "text", str, DatasetFormatError) for c in listed]
    return field(rec, ("question", "stem"), str, DatasetFormatError), texts, gold


_ADAPTERS = {
    "canonical-jsonl": None, "medqa": _adapt_medqa, "medmcqa": _adapt_medmcqa, "arc": _adapt_arc
}
INGEST_FORMATS = tuple(_ADAPTERS)


def ingest_records(path: str | Path, format: str, dataset_name: str, split: str) -> Dataset:
    """Convert a file in any ingest format into a validated canonical Dataset.

    Every instance's meta records `dataset_name` and `split`.
    """
    if format not in _ADAPTERS:
        raise DatasetFormatError(f"unknown ingest format {format!r}; known: {INGEST_FORMATS}")
    instances = _read_instances(path, format, {"dataset": dataset_name, "split": split})
    return Dataset(name=dataset_name, split=split, instances=instances)
