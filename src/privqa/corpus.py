"""Canonical multiple-choice corpora and their context-augmented variants.

The on-disk format is line-delimited JSON, one instance per line:

    {"id": ..., "question": ..., "choices": {"a": ..., "b": ...},
     "gold": "a", "meta": {...}}

Adapters normalize common source layouts (MedQA-style, MedMCQA-style,
ARC-style) into this schema; everything downstream reads only the canonical
form. Augmented files carry the same instance plus its parsed context.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from privqa.contexts import ParsedContext, SpecificContext
from privqa.errors import PrivqaError, read_records, write_records

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
    meta: dict[str, str] = field(default_factory=dict)

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


def _instance_from_record(rec: Any, meta_override: dict[str, str] | None = None) -> QAInstance:
    if not isinstance(rec, dict):
        raise DatasetFormatError("instance must be an object")
    for key in ("id", "question", "choices", "gold"):
        if key not in rec:
            raise DatasetFormatError(f"missing field {key!r}")
    choices = rec["choices"]
    if not isinstance(choices, dict) or not all(isinstance(v, str) for v in choices.values()):
        raise DatasetFormatError("choices must map labels to strings")
    meta = rec.get("meta", {})
    if not isinstance(meta, dict):
        raise DatasetFormatError("meta must be an object")
    meta = {**meta, **(meta_override or {})}
    inst = QAInstance(
        id=str(rec["id"]),
        question=nfc(str(rec["question"])),
        choices={str(k): nfc(str(v)) for k, v in sorted(choices.items())},
        gold=str(rec["gold"]),
        meta={str(k): str(v) for k, v in meta.items()},
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
        try:
            canon = adapter(rec, lineno)
        except (KeyError, ValueError, IndexError, TypeError, OverflowError) as exc:
            raise DatasetFormatError(f"not a {format} record ({exc})") from exc
        inst = _instance_from_record(canon, meta_override)
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


def _context_from_record(rec: Any) -> ParsedContext:
    if not isinstance(rec, dict):
        raise DatasetFormatError("context must be an object")
    blocks = rec.get("specific", {})
    if not (isinstance(blocks, dict) and all(isinstance(b, dict) for b in blocks.values())):
        raise DatasetFormatError("context specific must map labels to objects")
    decision = rec.get("decision", [])
    if not isinstance(decision, list):
        raise DatasetFormatError("context decision must be a list of labels")
    specific = {
        str(label): SpecificContext(
            knowledge=str(block.get("knowledge", "")),
            relation=str(block.get("relation", "")),
        )
        for label, block in sorted(blocks.items())
    }
    return ParsedContext(
        overall=str(rec.get("overall", "")),
        specific=specific,
        decision=frozenset(str(x) for x in decision),
        raw=str(rec.get("raw", "")),
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
        aug = AugmentedInstance(
            instance=_instance_from_record(rec.get("instance", {})),
            context=_context_from_record(rec.get("context", {})),
            generation_id=str(rec.get("generation_id", "")),
        )
        aug.validate()
        return aug.instance.id, aug

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
# Source-format adapters


def _adapt_medqa(rec: dict[str, Any], idx: int) -> dict[str, Any]:
    # {"question", "options": {"A": ..}, "answer_idx": "A"}
    options = rec["options"]
    ordered = sorted(options.items())
    choices = {LABELS[i]: str(text) for i, (_, text) in enumerate(ordered)}
    gold_pos = [k for k, _ in ordered].index(rec["answer_idx"])
    return {
        "id": rec.get("id", f"medqa-{idx}"),
        "question": rec["question"],
        "choices": choices,
        "gold": LABELS[gold_pos],
        "meta": rec.get("meta", {}),
    }


def _adapt_medmcqa(rec: dict[str, Any], idx: int) -> dict[str, Any]:
    # {"question", "opa".."opd", "cop": 0-based index}
    choices = {
        "a": str(rec["opa"]),
        "b": str(rec["opb"]),
        "c": str(rec["opc"]),
        "d": str(rec["opd"]),
    }
    # a JSON integer only: a negative index would wrap, a float truncate and a
    # bool read as 0 or 1, each picking a gold label silently
    cop = rec["cop"]
    if type(cop) is not int or not 0 <= cop < len(choices):
        raise ValueError(f"cop {cop!r} is not an integer from 0 to {len(choices) - 1}")
    return {
        "id": rec.get("id", f"medmcqa-{idx}"),
        "question": rec["question"],
        "choices": choices,
        "gold": LABELS[cop],
        "meta": rec.get("meta", {}),
    }


def _adapt_arc(rec: dict[str, Any], idx: int) -> dict[str, Any]:
    # {"id", "question": {"stem", "choices": [{"label", "text"}]}, "answerKey"}
    q = rec["question"]
    listed = q["choices"]
    labels = [str(c["label"]) for c in listed]
    choices = {LABELS[i]: str(c["text"]) for i, c in enumerate(listed)}
    gold_pos = labels.index(str(rec["answerKey"]))
    return {
        "id": rec.get("id", f"arc-{idx}"),
        "question": q["stem"],
        "choices": choices,
        "gold": LABELS[gold_pos],
        "meta": rec.get("meta", {}),
    }


_ADAPTERS = {
    "canonical-jsonl": lambda rec, idx: rec,
    "medqa": _adapt_medqa,
    "medmcqa": _adapt_medmcqa,
    "arc": _adapt_arc,
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
