"""Privacy-restricted context elicitation and small-model scoring for multiple-choice QA.

The pipeline never shows a question to the remote LLM. It discloses extracted
keywords plus the candidate answers, asks for an overall context, one specific
context per candidate, and a preliminary decision, then trains a small scorer
on the parsed contexts.
"""

__version__ = "0.1.0"

from privqa.contexts import (
    ContextView,
    ParsedContext,
    SpecificContext,
    apply_view,
    ftcr_admit,
    parse_generation,
    serialize_context,
)
from privqa.corpus import AugmentedInstance, Dataset, QAInstance, load_dataset, sample_fewshot
from privqa.gateway import Gateway, GenerationRecord, GenerationRequest, cache_key
from privqa.keywords import (
    KeywordSet,
    corpus_budget_report,
    extract_ner,
    extract_random_span,
    extract_random_words,
    privacy_budget,
    subsample_keywords,
)
from privqa.promptkit import Demonstration, PromptText, build_prompt, load_demonstrations
from privqa.scorer import FeaturizerConfig, ScorerModel, TrainConfig, predict, score_choices, train

__all__ = [
    "AugmentedInstance",
    "ContextView",
    "Dataset",
    "Demonstration",
    "FeaturizerConfig",
    "Gateway",
    "GenerationRecord",
    "GenerationRequest",
    "KeywordSet",
    "ParsedContext",
    "PromptText",
    "QAInstance",
    "ScorerModel",
    "SpecificContext",
    "TrainConfig",
    "apply_view",
    "build_prompt",
    "cache_key",
    "corpus_budget_report",
    "extract_ner",
    "extract_random_span",
    "extract_random_words",
    "ftcr_admit",
    "load_dataset",
    "load_demonstrations",
    "parse_generation",
    "predict",
    "privacy_budget",
    "sample_fewshot",
    "score_choices",
    "serialize_context",
    "subsample_keywords",
    "train",
]
