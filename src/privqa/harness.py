"""Experiment harness: regimes, evaluation, and reproducible reports.

A run materializes context-augmented instances (from an oracle provider or
the gateway pipeline), assembles per-choice scorer inputs under a training
regime and ablation view, trains the scorer, and evaluates accuracy on the
test split. Reports carry no timestamps and hash their own configuration and
response cache, so a replayed run writes byte-identical output.

Regimes:
    FTC   every instance trains with its context under the configured view.
    SFT   no instance sees context; the input reduces to question + answer.
    FTCR  an instance trains with context only when the generation's
          preliminary decision was exactly the gold label; rejected
          instances still train, context-free.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from privqa import __version__
from privqa.contexts import (
    CONTEXT_HEAD,
    ContextView,
    ParseError,
    ftcr_admit,
    parse_generation,
)
from privqa.corpus import AugmentedInstance, Dataset, QAInstance, plain_augmented
from privqa.gateway import MODES, PROMPT_STYLE, Gateway, GenerationRequest
from privqa.keywords import (
    METHOD_NER,
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    METHODS,
    KeywordSet,
    corpus_budget_report,
    extract_ner,
    extract_random_span,
    extract_random_words,
    format_budget,
    stable_seed,
    subsample_keywords,
)
from privqa.promptkit import Demonstration, build_prompt
from privqa.scorer import (
    FeaturizerConfig,
    ScorerModel,
    TrainConfig,
    TrainItem,
    TrainLog,
    choice_texts,
    save_model,
    score_texts,
    train,
)

REGIMES = ("FTC", "SFT", "FTCR")

DEFAULT_SWEEP_RATIOS = (0.25, 0.5, 0.75, 1.0)


class HarnessError(Exception):
    """An experiment was misconfigured or a pipeline step failed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run's outcome; fully JSON-serializable."""

    regime: str = "FTC"
    view: str = "Full"
    ratio: float = 1.0
    method: str = METHOD_NER
    seed: int = TrainConfig.seed
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    warmup_steps: int = TrainConfig.warmup_steps
    early_stop_patience: int = TrainConfig.early_stop_patience
    weight_decay: float = TrainConfig.weight_decay
    featurizer_dim: int = FeaturizerConfig.dim
    hash_seed: int = FeaturizerConfig.hash_seed
    model_id: str = "gpt-3.5-turbo"
    mode: str = "replay"
    cache_path: str = ""
    demo_file: str = ""
    gazetteer_file: str = ""

    def validate(self) -> None:
        if self.regime not in REGIMES:
            raise HarnessError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        try:
            ContextView(self.view)
        except ValueError:
            raise HarnessError(
                f"unknown view {self.view!r}; expected one of "
                f"{[v.value for v in ContextView]}"
            ) from None
        if not 0.0 <= self.ratio <= 1.0:
            raise HarnessError(f"ratio {self.ratio} outside [0, 1]")
        if self.method not in METHODS:
            raise HarnessError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.mode not in MODES:
            raise HarnessError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for name in ("batch_size", "max_epochs", "early_stop_patience", "featurizer_dim"):
            if not getattr(self, name) >= 1:
                raise HarnessError(f"{name} {getattr(self, name)} must be at least 1")
        for name in ("warmup_steps", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise HarnessError(f"{name} {getattr(self, name)} must not be negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise HarnessError(f"learning_rate {self.learning_rate} must be finite and positive")

    def context_view(self) -> ContextView:
        return ContextView(self.view)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            warmup_steps=self.warmup_steps,
            early_stop_patience=self.early_stop_patience,
            seed=self.seed,
            weight_decay=self.weight_decay,
        )

    def featurizer(self) -> FeaturizerConfig:
        return FeaturizerConfig(dim=self.featurizer_dim, hash_seed=self.hash_seed)


def config_digest(config: ExperimentConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Input assembly


@dataclass(frozen=True)
class ChoiceInputs:
    """Scorer-ready per-choice texts for one instance."""

    id: str
    gold: str
    labels: tuple[str, ...]
    texts: tuple[str, ...]
    used_context: bool


def resolve_view(regime: str, view: ContextView, aug: AugmentedInstance) -> ContextView:
    """The view one instance actually trains under, given the regime."""
    if regime == "SFT":
        return ContextView.NO_CONTEXT
    if regime == "FTCR" and not ftcr_admit(aug.context, aug.instance.gold):
        return ContextView.NO_CONTEXT
    return view


def build_inputs(
    augmented: Sequence[AugmentedInstance], regime: str, view: ContextView
) -> list[ChoiceInputs]:
    """Assemble training inputs under a regime.

    FTCR rejections are kept, demoted to context-free inputs, so the training
    set size never depends on decision quality.
    """
    if regime not in REGIMES:
        raise HarnessError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    out = []
    for aug in augmented:
        v = resolve_view(regime, view, aug)
        out.append(
            ChoiceInputs(
                id=aug.instance.id,
                gold=aug.instance.gold,
                labels=aug.instance.labels(),
                texts=choice_texts(aug, v),
                used_context=v is not ContextView.NO_CONTEXT,
            )
        )
    return out


def eval_view(config: ExperimentConfig) -> ContextView:
    """SFT models are evaluated context-free; others under their view."""
    if config.regime == "SFT":
        return ContextView.NO_CONTEXT
    return config.context_view()


def to_train_item(inputs: ChoiceInputs) -> TrainItem:
    return TrainItem(
        id=inputs.id, texts=inputs.texts, gold_index=inputs.labels.index(inputs.gold)
    )


def accuracy(predictions: dict[str, str], gold: dict[str, str]) -> float:
    """Fraction correct; the two maps must cover exactly the same ids."""
    if set(predictions) != set(gold):
        missing = set(gold) - set(predictions)
        extra = set(predictions) - set(gold)
        raise HarnessError(
            f"prediction ids do not match gold ids "
            f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
        )
    if not gold:
        raise HarnessError("empty evaluation set")
    return sum(1 for i in gold if predictions[i] == gold[i]) / len(gold)


# ---------------------------------------------------------------------------
# Context providers


def build_keyword_map(
    dataset: Dataset,
    ratio: float,
    seed: int,
    method: str,
    gazetteer: Sequence[str],
) -> dict[str, KeywordSet]:
    """Per-instance disclosed keywords.

    For entity keywords `ratio` subsamples the extracted set with a
    per-instance seed, so lower ratios disclose nested subsets of higher
    ones. A question with no gazetteer match discloses nothing: it keeps the
    empty set, so its budget counts 0 words and its prompt carries only the
    answers. For the random baselines `ratio` is the disclosed fraction of
    question words directly.
    """
    if method == METHOD_NER and not gazetteer:
        raise HarnessError("entity extraction needs a gazetteer")
    out: dict[str, KeywordSet] = {}
    for inst in dataset.instances:
        inst_seed = stable_seed(seed, inst.id)
        if method == METHOD_NER:
            ks = extract_ner(inst.question, gazetteer)
            out[inst.id] = subsample_keywords(ks, ratio, inst_seed) if ks.keywords else ks
        elif method == METHOD_RANDOM_SPAN:
            out[inst.id] = extract_random_span(inst.question, ratio, inst_seed)
        elif method == METHOD_RANDOM_WORDS:
            out[inst.id] = extract_random_words(inst.question, ratio, inst_seed)
        else:
            raise HarnessError(f"unknown keyword method {method!r}")
    return out


def augment_completion(
    instance: QAInstance, completion: str, generation_id: str
) -> AugmentedInstance:
    """Parse one completion into the instance's context.

    A completion that continues the prompt's bare cue gets the
    "Context:" head back before parsing.
    """
    text = completion if CONTEXT_HEAD in completion else CONTEXT_HEAD + completion
    try:
        parsed = parse_generation(text, instance.labels())
    except ParseError as exc:
        raise HarnessError(f"instance {instance.id!r}: {exc}") from exc
    return AugmentedInstance(instance=instance, context=parsed, generation_id=generation_id)


class ContextProvider:
    """Materializes contexts: keyword map, one completion per instance, parse.

    Subclasses differ only in where a completion comes from.
    """

    gazetteer: Sequence[str] = ()

    def completion(self, instance: QAInstance, keywords: KeywordSet) -> tuple[str, str]:
        """(completion text, generation id) for one instance's disclosure."""
        raise NotImplementedError

    def keyword_map(
        self,
        dataset: Dataset,
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
    ) -> dict[str, KeywordSet]:
        return build_keyword_map(dataset, ratio, seed, method, self.gazetteer)

    def augment(self, instance: QAInstance, keywords: KeywordSet) -> AugmentedInstance:
        return augment_completion(instance, *self.completion(instance, keywords))

    def provide(
        self,
        dataset: Dataset,
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
    ) -> list[AugmentedInstance]:
        kmap = self.keyword_map(dataset, ratio, seed, method)
        return [self.augment(inst, kmap[inst.id]) for inst in dataset.instances]


class PipelineProvider(ContextProvider):
    """Completions from the gateway, through a few-shot prompt."""

    def __init__(
        self,
        gateway: Gateway,
        demos: Sequence[Demonstration],
        gazetteer: Sequence[str] | None = None,
        model_id: str = ExperimentConfig.model_id,
        mode: str = ExperimentConfig.mode,
    ):
        if not demos:
            raise HarnessError("pipeline provider needs at least one demonstration")
        self.gateway = gateway
        self.demos = list(demos)
        self.gazetteer = list(gazetteer or [])
        self.model_id = model_id
        self.mode = mode

    def completion(self, instance: QAInstance, keywords: KeywordSet) -> tuple[str, str]:
        prompt = build_prompt(
            self.demos, keywords.keywords, instance.choices, query_id=instance.id
        )
        record = self.gateway.complete(
            GenerationRequest(model_id=self.model_id, prompt=prompt), self.mode
        )
        return record.completion, record.cache_key


# ---------------------------------------------------------------------------
# Reports


@dataclass
class EvalReport:
    """One run's outcome. Deliberately timestamp-free."""

    config: dict
    dataset: dict
    metrics: dict
    budget: dict | None
    ftcr: dict | None
    provenance: dict
    predictions: dict[str, str]


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report)


def render_report(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def write_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(render_report(report), encoding="utf-8")


def _file_digest(path: str | Path) -> str:
    p = Path(path)
    if not str(path) or not p.exists():
        return ""
    return hashlib.sha256(p.read_bytes()).hexdigest()


def provenance(config: ExperimentConfig) -> dict:
    return {
        "config_digest": config_digest(config),
        "cache_digest": _file_digest(config.cache_path),
        "code_version": __version__,
        "prompt_style": PROMPT_STYLE,
    }


def render_report_table(reports: Sequence[EvalReport]) -> str:
    """Plain-text summary table, one row per report."""
    rows = [("regime", "view", "method", "ratio", "budget", "accuracy", "n")]
    for r in reports:
        cfg = r.config
        rows.append(
            (
                str(cfg.get("regime", "")),
                str(cfg.get("view", "")),
                str(cfg.get("method", "")),
                f"{cfg.get('ratio', 0.0):g}",
                r.budget["formatted"] if r.budget else "-",
                f"{r.metrics['accuracy'] * 100:.2f}%",
                str(r.metrics["n"]),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Runs


def _require_splits(datasets: dict[str, Dataset], *names: str) -> None:
    for name in names:
        if name not in datasets:
            raise HarnessError(f"missing dataset split {name!r}")


def _materialize(
    config: ExperimentConfig, dataset: Dataset, provider
) -> list[AugmentedInstance]:
    if config.regime == "SFT":
        return [plain_augmented(inst) for inst in dataset.instances]
    if provider is None:
        raise HarnessError(f"regime {config.regime} needs a context provider")
    return provider.provide(dataset, config.ratio, config.seed, config.method)


def train_scorer(
    config: ExperimentConfig,
    train_aug: Sequence[AugmentedInstance],
    dev_aug: Sequence[AugmentedInstance],
) -> tuple[ScorerModel, TrainLog, list[ChoiceInputs]]:
    """Train under the configured regime, early-stopping on the dev instances."""
    train_inputs = build_inputs(train_aug, config.regime, config.context_view())
    dev_inputs = build_inputs(dev_aug, "FTC", eval_view(config))
    model, tlog = train(
        config.train_config(),
        [to_train_item(ci) for ci in train_inputs],
        [to_train_item(ci) for ci in dev_inputs],
        config.featurizer(),
    )
    return model, tlog, train_inputs


def predict_labels(
    model: ScorerModel, config: ExperimentConfig, augmented: Sequence[AugmentedInstance]
) -> tuple[dict[str, str], dict[str, str]]:
    """(predicted, gold) label per instance id under the config's eval view."""
    inputs = build_inputs(augmented, "FTC", eval_view(config))
    preds = {}
    gold = {}
    for ci in inputs:
        sv = score_texts(model, ci.labels, ci.texts)
        preds[ci.id] = ci.labels[int(np.argmax(sv.probs))]
        gold[ci.id] = ci.gold
    return preds, gold


def _budget_section(
    config: ExperimentConfig, dataset: Dataset, provider
) -> dict | None:
    if config.regime == "SFT" or provider is None:
        return None
    bmap = provider.keyword_map(dataset, config.ratio, config.seed, config.method)
    rep = corpus_budget_report(dataset, bmap)
    return {
        "budget": rep.budget,
        "formatted": format_budget(rep.budget),
        "avg_keyword_words": rep.avg_keyword_words,
        "avg_question_words": rep.avg_question_words,
    }


def _run(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    test: Dataset,
    provider,
    test_provider,
    workdir: str | Path | None,
    transfer: dict | None = None,
) -> EvalReport:
    """Train on datasets' train/dev splits, predict `test`, and build the report."""
    model, tlog, train_inputs = train_scorer(
        config,
        _materialize(config, datasets["train"], provider),
        _materialize(config, datasets["dev"], provider),
    )
    preds, gold = predict_labels(model, config, _materialize(config, test, test_provider))
    acc = accuracy(preds, gold)
    ftcr = None
    if config.regime == "FTCR":
        ftcr = {
            "admitted": sum(1 for ci in train_inputs if ci.used_context),
            "total": len(train_inputs),
        }
    report = EvalReport(
        config=asdict(config),
        dataset={
            "name": test.name,
            "split": test.split,
            "sizes": {split: len(ds) for split, ds in sorted(datasets.items())},
        },
        metrics={
            "accuracy": acc,
            "n": len(gold),
            "n_correct": round(acc * len(gold)),
            "best_dev_accuracy": tlog.best_dev_accuracy,
            "best_epoch": tlog.best_epoch,
            "stopped_epoch": tlog.stopped_epoch,
        },
        budget=_budget_section(config, datasets["train"], provider),
        ftcr=ftcr,
        provenance=provenance(config),
        predictions=preds,
    )
    if transfer is not None:
        report.dataset["transfer"] = transfer
    if workdir is not None:
        wd = Path(workdir)
        wd.mkdir(parents=True, exist_ok=True)
        save_model(model, wd / f"model-seed{config.seed}.npz")
        write_report(report, wd / f"report-seed{config.seed}.json")
    return report


def run_experiment(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    provider=None,
    workdir: str | Path | None = None,
) -> EvalReport:
    """Train under the configured regime and evaluate on the test split."""
    config.validate()
    _require_splits(datasets, "train", "dev", "test")
    return _run(config, datasets, datasets["test"], provider, provider, workdir)


def run_ood(
    config: ExperimentConfig,
    source: dict[str, Dataset],
    target: dict[str, Dataset],
    provider=None,
    target_provider=None,
    workdir: str | Path | None = None,
) -> EvalReport:
    """Train on the source domain, evaluate on the target domain's test split."""
    config.validate()
    _require_splits(source, "train", "dev")
    _require_splits(target, "test")
    transfer = {"source": source["train"].name, "target": target["test"].name}
    return _run(
        config, source, target["test"], provider, target_provider or provider, workdir, transfer
    )


def run_budget_sweep(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    provider,
    ratios: Sequence[float] = DEFAULT_SWEEP_RATIOS,
) -> list[EvalReport]:
    """Re-run the full pipeline at each keyword ratio.

    Contexts are regenerated per ratio: a smaller disclosure changes the
    prompt, so cached generations from other ratios never leak in.
    """
    reports = []
    for ratio in ratios:
        reports.append(run_experiment(replace(config, ratio=ratio), datasets, provider))
    return reports


def _keyword_coverage(dataset: Dataset, kmap: dict[str, KeywordSet]) -> Dataset:
    kept = tuple(inst for inst in dataset.instances if kmap[inst.id].keywords)
    return Dataset(name=dataset.name, split=dataset.split, instances=kept)


def run_representation_compare(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    provider,
    methods: Sequence[str] = (METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS),
    budget_tolerance: float = 0.01,
) -> dict[str, EvalReport]:
    """Compare disclosure representations at a matched privacy budget.

    The entity-keyword budget on the shared subset (instances with at least
    one gazetteer match) sets the target; the random baselines disclose that
    fraction of each question. A baseline whose realized corpus budget lands
    more than `budget_tolerance` from the target is an error.
    """
    config.validate()
    _require_splits(datasets, "train", "dev", "test")
    ner_maps = {
        split: provider.keyword_map(ds, config.ratio, config.seed, METHOD_NER)
        for split, ds in datasets.items()
    }
    shared = {
        split: _keyword_coverage(ds, ner_maps[split]) for split, ds in datasets.items()
    }
    for split, ds in shared.items():
        if not len(ds):
            raise HarnessError(f"no instances with keywords in split {split!r}")
    target = corpus_budget_report(
        shared["train"], ner_maps["train"]
    ).budget

    out: dict[str, EvalReport] = {}
    for method in methods:
        ratio = config.ratio if method == METHOD_NER else target
        cfg = replace(config, method=method, ratio=ratio)
        if method != METHOD_NER:
            bmap = provider.keyword_map(shared["train"], ratio, cfg.seed, method)
            realized = corpus_budget_report(shared["train"], bmap).budget
            if abs(realized - target) > budget_tolerance:
                raise HarnessError(
                    f"{method} budget {format_budget(realized)} misses target "
                    f"{format_budget(target)} by more than {budget_tolerance:.0%}"
                )
        out[method] = run_experiment(cfg, shared, provider)
    return out
