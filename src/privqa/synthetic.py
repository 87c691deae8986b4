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

# parse_generation and subsample_keywords are not called here: the oracle's
# keyword map and parse run through privqa.harness. They stay importable from
# this module because perfbench/tracer.py patches them by name.
from privqa.contexts import (  # noqa: F401
    ParsedContext,
    SpecificContext,
    parse_generation,
    serialize_context,
)
from privqa.corpus import LABELS, Dataset, QAInstance
from privqa.harness import ContextProvider
from privqa.keywords import METHOD_NER, KeywordSet, extract_ner, subsample_keywords  # noqa: F401
from privqa.promptkit import Demonstration

# Planted in the gold choice's knowledge only when the key keyword was
# disclosed; never occurs in the vocabulary.
MARKER = "zzmarker"

INFORMED_RELATION = "It is strongly supported by the disclosed terms."
UNINFORMED_RELATION = "No relationship can be found."

_DECISION_SHAPES = ("wrong", "with-gold", "without-gold", "empty")


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    train_size: int = 500
    dev_size: int = 200
    test_size: int = 200
    n_choices: int = 4
    question_words: int = 16
    keyword_count: int = 8
    choice_words: int = 3
    vocab_size: int = 500


def vocab_tokens(spec: SyntheticSpec) -> list[str]:
    return [f"tok{i:03d}" for i in range(spec.vocab_size)]


def gazetteer_tokens(spec: SyntheticSpec) -> list[str]:
    """Even-indexed vocabulary tokens; question keywords come from these."""
    return [f"tok{i:03d}" for i in range(0, spec.vocab_size, 2)]


def filler_tokens(spec: SyntheticSpec) -> list[str]:
    return [f"tok{i:03d}" for i in range(1, spec.vocab_size, 2)]


def _build_instance(spec: SyntheticSpec, split: str, index: int) -> QAInstance:
    rng = random.Random(f"{spec.seed}:{split}:{index}")
    gaz = gazetteer_tokens(spec)
    fil = filler_tokens(spec)
    keywords = rng.sample(gaz, spec.keyword_count)
    fillers = rng.sample(fil, spec.question_words - spec.keyword_count)
    words = keywords + fillers
    rng.shuffle(words)
    labels = LABELS[: spec.n_choices]
    choices = {label: " ".join(rng.sample(fil, spec.choice_words)) for label in labels}
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
    sizes = {"train": spec.train_size, "dev": spec.dev_size, "test": spec.test_size}
    out = {}
    for split, size in sizes.items():
        instances = tuple(_build_instance(spec, split, i) for i in range(size))
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
        self.gazetteer = gazetteer_tokens(spec)

    def keywords_for(self, instance: QAInstance) -> KeywordSet:
        return extract_ner(instance.question, self.gazetteer)

    def oracle_context(self, instance: QAInstance, keywords: KeywordSet) -> ParsedContext:
        """The structured context the oracle would generate for a disclosure."""
        spec = self.spec
        disclosed = _disclosed_words(keywords)
        key = instance.meta["key"]
        informed = key in disclosed
        labels = instance.labels()
        fil = filler_tokens(spec)

        noise_rng = random.Random(f"{spec.seed}:noise:{instance.id}")
        specific: dict[str, SpecificContext] = {}
        for label in labels:
            n1, n2 = noise_rng.sample(fil, 2)
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

        if informed:
            decision = frozenset((instance.gold,))
        else:
            dec_rng = random.Random(f"{spec.seed}:dec:{instance.id}")
            nongold = [label for label in labels if label != instance.gold]
            shape = dec_rng.choice(_DECISION_SHAPES)
            if shape == "wrong":
                decision = frozenset((dec_rng.choice(nongold),))
            elif shape == "with-gold":
                decision = frozenset((instance.gold, dec_rng.choice(nongold)))
            elif shape == "without-gold":
                decision = frozenset(dec_rng.sample(nongold, 2))
            else:
                decision = frozenset()

        overall = f"The question mentions {', '.join(sorted(disclosed))}."
        return ParsedContext(overall=overall, specific=specific, decision=decision)

    def generation_text(self, instance: QAInstance, keywords: KeywordSet) -> str:
        return serialize_context(self.oracle_context(instance, keywords), instance.labels())

    def completion(self, instance: QAInstance, keywords: KeywordSet) -> tuple[str, str]:
        return self.generation_text(instance, keywords), f"synthetic:{instance.id}"

    def completion_for(self, instance: QAInstance, keywords: KeywordSet) -> str:
        """The oracle text as an LLM continuation: everything after the cue."""
        text = self.generation_text(instance, keywords)
        return text[len("Context:") :]

    def mock_completions(
        self,
        dataset: Dataset,
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
    ) -> dict[str, str]:
        """Canned completions keyed by instance id, for gateway mock mode."""
        kmap = self.keyword_map(dataset, ratio, seed, method)
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
