"""Synthetic corpus with a fully controlled context oracle.

Questions are bags of vocabulary tokens; half of each question is gazetteer
terms, so entity extraction recovers exactly the planted keywords and the
corpus-level disclosure budget is the keyword ratio times one half. Each
instance designates one keyword as its key: when the key is among the
disclosed keywords the oracle writes a marker token into the gold choice's
specific context, affirms the relation, and decides for the gold label;
otherwise every choice looks alike, the relation is negative, and the
preliminary decision is deliberately unreliable. Context signal is therefore
the only way to beat chance, which pins down what each training regime and
ablation view can achieve.

The oracle emits generations as serialized text and reads them back through
the real parser, so synthetic runs exercise the same code paths as live ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

# parse_generation and subsample_keywords are not called here: the oracle's
# keyword map and parse run through privqa.harness. They stay importable from
# this module because perfbench/tracer.py patches them by name.
from privqa.contexts import (  # noqa: F401
    CONTEXT_HEAD,
    ParsedContext,
    SpecificContext,
    parse_generation,
    serialize_context,
)
from privqa.corpus import LABELS, Dataset, QAInstance
from privqa.harness import CommandMemo, ContextProvider
from privqa.keywords import Gazetteer, KeywordSet, extract_ner
from privqa.keywords import subsample_keywords  # noqa: F401
from privqa.promptkit import Demonstration

# Planted in the gold choice's knowledge only when the key keyword was
# disclosed; never occurs in the vocabulary.
MARKER = "zzmarker"

INFORMED_RELATION = "It is strongly supported by the disclosed terms."
UNINFORMED_RELATION = "No relationship can be found."

_DECISION_SHAPES = ("wrong", "with-gold", "without-gold", "empty")

N_CHOICES = 4
QUESTION_WORDS = 16  # of which `SyntheticSpec.keyword_count` are gazetteer terms
CHOICE_WORDS = 3


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    train_size: int = 500
    dev_size: int = 200
    test_size: int = 200
    keyword_count: int = 8
    vocab_size: int = 500


def gazetteer_tokens(spec: SyntheticSpec) -> list[str]:
    """Even-indexed vocabulary tokens; question keywords come from these."""
    return [f"tok{i:03d}" for i in range(0, spec.vocab_size, 2)]


def filler_tokens(spec: SyntheticSpec) -> list[str]:
    return [f"tok{i:03d}" for i in range(1, spec.vocab_size, 2)]


def _build_instance(
    spec: SyntheticSpec, split: str, index: int, gaz: list[str], fil: list[str]
) -> QAInstance:
    rng = random.Random(f"{spec.seed}:{split}:{index}")
    keywords = rng.sample(gaz, spec.keyword_count)
    fillers = rng.sample(fil, QUESTION_WORDS - spec.keyword_count)
    words = keywords + fillers
    rng.shuffle(words)
    labels = LABELS[:N_CHOICES]
    choices = {label: " ".join(rng.sample(fil, CHOICE_WORDS)) for label in labels}
    return QAInstance(
        id=f"syn-{split}-{index:04d}",
        question=" ".join(words),
        choices=choices,
        gold=rng.choice(labels),
        meta={
            "dataset": "synthetic",
            "split": split,
            "key": rng.choice(keywords),
        },
    )


def build_corpus(spec: SyntheticSpec) -> dict[str, Dataset]:
    """Deterministic train/dev/test datasets for the given spec."""
    gaz, fil = gazetteer_tokens(spec), filler_tokens(spec)
    sizes = {"train": spec.train_size, "dev": spec.dev_size, "test": spec.test_size}
    out = {}
    for split, size in sizes.items():
        instances = tuple(_build_instance(spec, split, i, gaz, fil) for i in range(size))
        for inst in instances:
            inst.validate()
        out[split] = Dataset(name="synthetic", split=split, instances=instances)
    return out


def _disclosed_words(keywords: KeywordSet) -> set[str]:
    words: set[str] = set()
    for kw in keywords.keywords:
        words.update(w.lower() for w in kw.split())
    return words


class SyntheticContextProvider(ContextProvider):
    """Oracle that stands in for the gateway: completions are oracle text."""

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        self.gazetteer = Gazetteer(gazetteer_tokens(spec))
        self.fillers = filler_tokens(spec)

    def keywords_for(self, instance: QAInstance) -> KeywordSet:
        return extract_ner(instance.question, self.gazetteer)

    def _draws(self, instance: QAInstance) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Two noise words per label, end to end, and the decision for an undisclosed key.

        Neither depends on the disclosed keywords.
        """
        labels = instance.labels()
        noise_rng = random.Random(f"{self.spec.seed}:noise:{instance.id}")
        noise = tuple(chain.from_iterable(noise_rng.sample(self.fillers, 2) for _ in labels))
        dec_rng = random.Random(f"{self.spec.seed}:dec:{instance.id}")
        nongold = [label for label in labels if label != instance.gold]
        shape = dec_rng.choice(_DECISION_SHAPES)
        if shape == "wrong":
            decision = (dec_rng.choice(nongold),)
        elif shape == "with-gold":
            decision = (instance.gold, dec_rng.choice(nongold))
        elif shape == "without-gold":
            decision = tuple(dec_rng.sample(nongold, 2))
        else:
            decision = ()
        return noise, decision

    def oracle_context(
        self, instance: QAInstance, keywords: KeywordSet, memo: CommandMemo | None = None
    ) -> ParsedContext:
        """The structured context the oracle would generate for a disclosure.

        With a command `memo`, the instance's draws are made once per command.
        """
        if memo is None:
            noise, uninformed = self._draws(instance)
        else:
            # one spec builds one instance under an id
            draws = memo.draws.get((self.spec, instance.id))
            if draws is None:
                draws = memo.draws[self.spec, instance.id] = self._draws(instance)
            noise, uninformed = draws
        disclosed = _disclosed_words(keywords)
        key = instance.meta["key"]
        informed = key in disclosed

        specific: dict[str, SpecificContext] = {}
        for label, n1, n2 in zip(instance.labels(), noise[::2], noise[1::2]):
            if informed and label == instance.gold:
                knowledge = (
                    f"The option {instance.choices[label]} matches the key term {key} "
                    f"and carries {MARKER} support."
                )
                relation = INFORMED_RELATION
            else:
                knowledge = (
                    f"The option {instance.choices[label]} lists {n1} and {n2} "
                    "with no further ties."
                )
                relation = UNINFORMED_RELATION
            specific[label] = SpecificContext(knowledge=knowledge, relation=relation)

        decision = frozenset((instance.gold,) if informed else uninformed)
        overall = f"The question mentions {', '.join(sorted(disclosed))}."
        return ParsedContext(overall=overall, specific=specific, decision=decision)

    def completion_for(
        self, instance: QAInstance, keywords: KeywordSet, memo: CommandMemo | None = None
    ) -> str:
        """The oracle text as an LLM continuation: everything after the cue."""
        context = self.oracle_context(instance, keywords, memo)
        return serialize_context(context, instance.labels())[len(CONTEXT_HEAD) :]

    def completions(
        self,
        instances: Iterable[QAInstance],
        kmap: Mapping[str, KeywordSet],
        memo: CommandMemo | None = None,
    ) -> Iterator[tuple[str, str]]:
        for inst in instances:
            yield self.completion_for(inst, kmap[inst.id], memo), f"synthetic:{inst.id}"

    def mock_completions(self, dataset: Dataset, ratio: float, seed: int) -> dict[str, str]:
        """Canned completions keyed by instance id, for gateway mock mode."""
        kmap = self.keyword_map(dataset, ratio, seed)
        return {
            inst.id: self.completion_for(inst, kmap[inst.id]) for inst in dataset.instances
        }

    def demonstrations(self, dataset: Dataset, count: int = 2) -> list[Demonstration]:
        """Worked examples built from the first instances of a dataset."""
        demos = []
        for inst in dataset.instances[:count]:
            ks = self.keywords_for(inst)
            demos.append(
                Demonstration(
                    keywords=ks.keywords,
                    choices=dict(inst.choices),
                    context=self.oracle_context(inst, ks),
                )
            )
        return demos
