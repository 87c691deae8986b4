"""Experiment harness: regimes, evaluation, and reproducible reports.

A run materializes context-augmented instances (from an oracle provider or
the gateway pipeline), assembles per-choice scorer texts under a training
regime and ablation view, trains the scorer, and evaluates accuracy on the
test split. This module alone decides how an instance becomes scorer texts
and how scores become a label; the scorer only scores texts. Reports carry
no timestamps and hash their own configuration and response cache, so a
replayed run writes byte-identical output.

Regimes:
    FTC   every instance trains with its context under the configured view.
    SFT   no instance sees context; the input reduces to question + answer.
    FTCR  an instance trains with context only when the generation's
          preliminary decision was exactly the gold label; rejected
          instances still train, context-free.
"""

from __future__ import annotations

import json
from collections import ChainMap
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from privqa import __version__
from privqa._digest import sha256
from privqa.contexts import (
    CONTEXT_HEAD,
    ContextView,
    ParseError,
    apply_view,
    ftcr_admit,
    parse_generation,
)
from privqa.corpus import AugmentedInstance, Dataset, QAInstance, plain_augmented
from privqa.errors import PrivqaError
from privqa.gateway import MODES, PROMPT_STYLE, Gateway, GenerationRequest
from privqa.keywords import (
    METHOD_NER,
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    METHODS,
    Gazetteer,
    KeywordSet,
    check_ratio,
    corpus_budget_report,
    extract_ner,
    extract_random_span,
    extract_random_words,
    format_budget,
    keyword_order,
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
    best_choices,
    score_texts,
    train,
)

REGIMES = ("FTC", "SFT", "FTCR")

DEFAULT_SWEEP_RATIOS = (0.25, 0.5, 0.75, 1.0)

BUDGET_TOLERANCE = 0.01  # how far a random baseline's corpus budget may miss the target


class CommandMemo:
    """The work of a command that no keyword ratio changes, done once per command.

    It holds `extract_ner` results by (gazetteer, question), each instance's
    `keyword_order` by (instance seed, keyword count), and a context
    provider's per-instance random draws (`draws`, keyed and filled by the
    provider; the synthetic oracle keeps its noise words and uninformed
    decisions there). A run, or one sweep or compare command, builds one and
    hands it to every keyword map and provider call it makes, so each question
    is extracted and each instance's order and draws are drawn once per
    command; it never outlives the command.
    """

    def __init__(self) -> None:
        self.extracted: dict[tuple[Gazetteer, str], KeywordSet] = {}
        self.orders: dict[tuple[int, int], list[int]] = {}
        self.draws: dict[tuple, object] = {}

    def extract(self, question: str, gazetteer: Gazetteer) -> KeywordSet:
        key = (gazetteer, question)
        ks = self.extracted.get(key)
        if ks is None:
            ks = self.extracted[key] = extract_ner(question, gazetteer)
        return ks

    def order(self, k: int, seed: int) -> list[int]:
        order = self.orders.get((seed, k))
        if order is None:
            order = self.orders[seed, k] = keyword_order(k, seed)
        return order


class HarnessError(PrivqaError):
    """An experiment was misconfigured or a pipeline step failed."""


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Everything that determines a run's outcome; JSON-serializable, checked when built.

    Its training fields are `TrainConfig`'s, so it is what `scorer.train` gets.
    """

    regime: str = "FTC"
    view: str = "Full"
    ratio: float = 1.0
    method: str = METHOD_NER
    featurizer_dim: int = FeaturizerConfig.dim
    hash_seed: int = FeaturizerConfig.hash_seed
    model_id: str = "gpt-3.5-turbo"
    mode: str = "replay"
    cache_path: str = ""
    demo_file: str = ""
    gazetteer_file: str = ""

    def __post_init__(self) -> None:
        self.validate()

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
        # FeaturizerConfig's own message names `dim`, not this field
        if not self.featurizer_dim >= 1:
            raise HarnessError(f"featurizer_dim {self.featurizer_dim} must be at least 1")
        # the training and featurizer configs check their own ranges
        TrainConfig.__post_init__(self)
        self.featurizer()

    def context_view(self) -> ContextView:
        return ContextView(self.view)

    def featurizer(self) -> FeaturizerConfig:
        return FeaturizerConfig(dim=self.featurizer_dim, hash_seed=self.hash_seed)


def config_digest(config: ExperimentConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Input assembly

# Segment separator: a control character that never occurs in natural text,
# so distinct (question, answer, contexts) tuples assemble to distinct strings
# for an external scorer. `str.split()` takes it for whitespace, so the
# featurizer sees no boundary: a text's tokens are its segments' tokens in
# order, and a bigram may span two segments.
SEPARATOR = "\x1e"


def assemble_input(question: str, answer: str, overall: str, choice_context: str) -> str:
    """Join the four segments with the reserved separator token."""
    clean = [
        seg.replace(SEPARATOR, " ") for seg in (question, answer, overall, choice_context)
    ]
    return f" {SEPARATOR} ".join(clean)


def choice_texts(instance: AugmentedInstance, view: ContextView) -> tuple[str, ...]:
    """The per-choice scorer texts of an instance under a view, in label order."""
    overall, per_choice = apply_view(instance.context, view)
    q = instance.instance.question
    return tuple(
        assemble_input(q, answer, overall, per_choice.get(label, ""))
        for label, answer in instance.instance.choices.items()
    )


def resolve_view(regime: str, view: ContextView, aug: AugmentedInstance) -> ContextView:
    """The view one instance actually trains under, given the regime."""
    if regime == "SFT":
        return ContextView.NO_CONTEXT
    if regime == "FTCR" and not ftcr_admit(aug.context, aug.instance.gold):
        return ContextView.NO_CONTEXT
    return view


def build_inputs(
    augmented: Sequence[AugmentedInstance], regime: str, view: ContextView
) -> list[TrainItem]:
    """Scorer inputs under a regime: per-choice texts and the gold position.

    FTCR rejections are kept, demoted to context-free inputs, so the training
    set size never depends on decision quality.
    """
    if regime not in REGIMES:
        raise HarnessError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    return [
        TrainItem(
            id=aug.instance.id,
            texts=choice_texts(aug, resolve_view(regime, view, aug)),
            gold_index=aug.instance.labels().index(aug.instance.gold),
        )
        for aug in augmented
    ]


def ftcr_admission(
    config: ExperimentConfig, train_aug: Sequence[AugmentedInstance]
) -> dict | None:
    """The report's FTCR section: how many training instances keep their context.

    None for the other regimes.
    """
    if config.regime != "FTCR":
        return None
    admitted = sum(ftcr_admit(aug.context, aug.instance.gold) for aug in train_aug)
    return {"admitted": admitted, "total": len(train_aug)}


def eval_view(config: ExperimentConfig) -> ContextView:
    """SFT models are evaluated context-free; others under their view."""
    if config.regime == "SFT":
        return ContextView.NO_CONTEXT
    return config.context_view()


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
    gazetteer: Gazetteer | None,
    memo: CommandMemo | None = None,
) -> dict[str, KeywordSet]:
    """Per-instance disclosed keywords.

    For entity keywords `ratio` subsamples the extracted set with a
    per-instance seed, so lower ratios disclose nested subsets of higher
    ones. A question with no gazetteer match discloses nothing: its set is
    empty, tagged with the ratio and instance seed as any other, so its
    budget counts 0 words and its prompt carries only the answers. For the
    random baselines `ratio` is the disclosed fraction of question words
    directly. Entity keywords read and fill `memo`, by default a memo of
    this call alone.
    """
    check_ratio(ratio)
    if method == METHOD_NER and gazetteer is None:
        raise HarnessError("entity extraction needs a gazetteer")
    if memo is None:
        memo = CommandMemo()
    out: dict[str, KeywordSet] = {}
    for inst in dataset.instances:
        inst_seed = stable_seed(seed, inst.id)
        if method == METHOD_NER:
            ks = memo.extract(inst.question, gazetteer)
            if ks.keywords:
                order = memo.order(len(ks.keywords), inst_seed)
                ks = subsample_keywords(ks, ratio, inst_seed, order)
            else:
                ks = replace(ks, ratio=ratio, seed=inst_seed)
            out[inst.id] = ks
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

    A completion that continues the prompt's bare cue, i.e. one that does
    not itself start with `CONTEXT_HEAD`, gets the head back before parsing.
    """
    text = completion if completion.lstrip().startswith(CONTEXT_HEAD) else CONTEXT_HEAD + completion
    try:
        parsed = parse_generation(text, instance.labels())
    except ParseError as exc:
        raise HarnessError(f"instance {instance.id!r}: {exc}") from exc
    return AugmentedInstance(instance=instance, context=parsed, generation_id=generation_id)


def _parsed(
    completions: Iterator[tuple[str, str]], instances: Iterable[QAInstance]
) -> Iterator[AugmentedInstance]:
    """Each completion parsed into its instance's context; closing this closes `completions`."""
    with closing(completions):
        for pair, inst in zip(completions, instances):
            yield augment_completion(inst, *pair)


class ContextProvider:
    """Materializes contexts: keyword map, one completion per instance, parse.

    Subclasses differ only in where the completions come from (`completions`).
    """

    gazetteer: Gazetteer | None = None

    def completions(
        self,
        instances: Iterable[QAInstance],
        kmap: Mapping[str, KeywordSet],
        memo: CommandMemo | None = None,
    ) -> Iterator[tuple[str, str]]:
        """A generator of (completion text, generation id) per instance, in input order.

        `instances` may be lazy: an instance's keywords are in `kmap` from
        the moment it is pulled until the next one is, so the hook reads
        them as it pulls it. Closing the generator releases what it holds.
        A provider may keep ratio-free work in the command's `memo`.
        """
        raise NotImplementedError

    def keyword_map(
        self,
        dataset: Dataset,
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
        memo: CommandMemo | None = None,
    ) -> dict[str, KeywordSet]:
        return build_keyword_map(dataset, ratio, seed, method, self.gazetteer, memo)

    def augment_all(
        self,
        instances: Sequence[QAInstance],
        kmap: dict[str, KeywordSet],
        memo: CommandMemo | None = None,
    ) -> list[AugmentedInstance]:
        """Augmented instances in input order; an id `kmap` lacks fails before any completion."""
        for inst in instances:
            if inst.id not in kmap:
                raise HarnessError(f"no keywords for instance {inst.id!r}")
        return list(_parsed(self.completions(instances, kmap, memo), instances))

    def stream(
        self,
        datasets: Sequence[Dataset],
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
        memo: CommandMemo | None = None,
        kmaps: list[dict[str, KeywordSet]] | None = None,
    ) -> Iterator[AugmentedInstance]:
        """The augmented instances of `datasets`, in order, from one `completions` call.

        A dataset's keyword map is built when the completions reach its
        first instance, and appended to `kmaps`. Closing the stream closes
        the completions.
        """
        kmap: ChainMap[str, KeywordSet] = ChainMap({})

        def instances() -> Iterator[QAInstance]:
            for dataset in datasets:
                kmap.maps[0] = self.keyword_map(dataset, ratio, seed, method, memo)
                if kmaps is not None:
                    kmaps.append(kmap.maps[0])
                yield from dataset.instances

        completions = self.completions(instances(), kmap, memo)
        return _parsed(completions, chain.from_iterable(ds.instances for ds in datasets))

    def provide(
        self,
        dataset: Dataset,
        ratio: float,
        seed: int,
        method: str = METHOD_NER,
        memo: CommandMemo | None = None,
    ) -> tuple[list[AugmentedInstance], dict[str, KeywordSet]]:
        """The augmented instances and the keyword map their prompts disclosed."""
        kmaps: list[dict[str, KeywordSet]] = []
        augmented = list(self.stream([dataset], ratio, seed, method, memo, kmaps))
        return augmented, kmaps[0]


class PipelineProvider(ContextProvider):
    """Completions from the gateway, through a few-shot prompt.

    `gazetteer` is a list of term strings; it is compiled once, here.
    """

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
        self.gazetteer = None if gazetteer is None else Gazetteer(gazetteer)
        self.model_id = model_id
        self.mode = mode

    def completions(
        self,
        instances: Iterable[QAInstance],
        kmap: Mapping[str, KeywordSet],
        memo: CommandMemo | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Complete every instance's prompt through one gateway stream.

        The gateway's workers pull the instances, so each prompt is built
        on the thread that sends it, and only then. Every prompt depends on
        its keywords, so nothing goes into `memo`.
        """
        requests = (
            GenerationRequest(
                model_id=self.model_id,
                prompt=build_prompt(
                    self.demos, kmap[inst.id].keywords, inst.choices, query_id=inst.id
                ),
            )
            for inst in instances
        )
        with closing(self.gateway.stream(requests, self.mode)) as records:
            for record in records:
                yield record.completion, record.cache_key


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
    return sha256(p.read_bytes()).hexdigest()


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
    config: ExperimentConfig,
    datasets: Sequence[Dataset],
    provider,
    memo: CommandMemo,
    kmaps: list[dict[str, KeywordSet]],
) -> Iterator[AugmentedInstance]:
    """The augmented instances of `datasets`, in order, as one stream."""
    if config.regime == "SFT":
        return (plain_augmented(inst) for ds in datasets for inst in ds.instances)
    if provider is None:
        raise HarnessError(f"regime {config.regime} needs a context provider")
    return provider.stream(datasets, config.ratio, config.seed, config.method, memo, kmaps)


def train_scorer(
    config: ExperimentConfig,
    train_aug: Sequence[AugmentedInstance],
    dev_aug: Sequence[AugmentedInstance],
    featurizer: FeaturizerConfig | None = None,
) -> tuple[ScorerModel, TrainLog]:
    """Train under the configured regime, early-stopping on the dev instances.

    `featurizer` must equal the config's; by default a fresh one is built.
    """
    return train(
        config,
        build_inputs(train_aug, config.regime, config.context_view()),
        build_inputs(dev_aug, "FTC", eval_view(config)),
        featurizer or config.featurizer(),
    )


def predict_labels(
    model: ScorerModel, config: ExperimentConfig, augmented: Sequence[AugmentedInstance]
) -> tuple[dict[str, str], dict[str, str]]:
    """(predicted, gold) label per instance id under the config's eval view.

    The prediction is the highest-scoring label; exact ties go to the
    lowest label. The split is scored in one `score_texts` call.
    """
    inputs = build_inputs(augmented, "FTC", eval_view(config))
    scores = score_texts(model, [text for item in inputs for text in item.texts])
    best = best_choices(scores, [len(item.texts) for item in inputs]).tolist()
    preds = {
        item.id: aug.instance.labels()[choice]
        for aug, item, choice in zip(augmented, inputs, best)
    }
    return preds, {aug.instance.id: aug.instance.gold for aug in augmented}


def _budget_section(dataset: Dataset, kmap: dict[str, KeywordSet] | None) -> dict | None:
    """The report's budget: the share of each question the prompts disclosed."""
    if kmap is None:
        return None
    rep = corpus_budget_report(dataset, kmap)
    return {
        "budget": rep.budget,
        "formatted": format_budget(rep.budget),
        "avg_keyword_words": rep.avg_keyword_words,
        "avg_question_words": rep.avg_question_words,
    }


def evaluate(
    model: ScorerModel,
    config: ExperimentConfig,
    test_aug: Sequence[AugmentedInstance],
    dataset: dict | None = None,
    tlog: TrainLog | None = None,
    budget: dict | None = None,
    ftcr: dict | None = None,
) -> EvalReport:
    """Predict the test instances and build the report: the one report builder.

    `dataset` describes what was evaluated (by default, one split named
    "eval"); the training-curve metrics, the budget and the FTCR sections
    are filled in when given.
    """
    preds, gold = predict_labels(model, config, test_aug)
    acc = accuracy(preds, gold)
    metrics = {"accuracy": acc, "n": len(gold), "n_correct": round(acc * len(gold))}
    if tlog is not None:
        for name in ("best_dev_accuracy", "best_epoch", "stopped_epoch"):
            metrics[name] = getattr(tlog, name)
    return EvalReport(
        config=asdict(config),
        dataset=dataset or {"name": "eval", "split": "eval", "sizes": {"eval": len(gold)}},
        metrics=metrics,
        budget=budget,
        ftcr=ftcr,
        provenance=provenance(config),
        predictions=preds,
    )


def _run(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    test: Dataset,
    provider,
    test_provider,
    transfer: dict | None = None,
    featurizer: FeaturizerConfig | None = None,
    memo: CommandMemo | None = None,
) -> EvalReport:
    """Train on datasets' train/dev splits, predict `test`, and build the report.

    Train, dev and, when one provider serves all three, test contexts come
    from one stream: the model trains while the test completions are still
    being generated. Runs handed one `featurizer` (equal to their configs')
    and one command `memo` hash each n-gram, extract each question and draw
    each instance's keyword order and oracle draws once across them; by
    default the run builds its own of each.
    """
    if memo is None:
        memo = CommandMemo()
    train, dev = datasets["train"], datasets["dev"]
    # SFT reads no provider, so its test split always joins the one stream
    shared = test_provider is provider or config.regime == "SFT"
    kmaps: list[dict[str, KeywordSet]] = []
    splits = [train, dev, test] if shared else [train, dev]
    with closing(_materialize(config, splits, provider, memo, kmaps)) as contexts:
        train_aug = list(islice(contexts, len(train)))
        dev_aug = list(islice(contexts, len(dev)))
        model, tlog = train_scorer(config, train_aug, dev_aug, featurizer)
        if shared:
            test_aug = list(contexts)
    if not shared:
        test_aug, _ = test_provider.provide(test, config.ratio, config.seed, config.method, memo)
    sizes = {split: len(ds) for split, ds in sorted(datasets.items())}
    dataset = {"name": test.name, "split": test.split, "sizes": sizes}
    if transfer is not None:
        dataset["transfer"] = transfer
    budget = _budget_section(train, kmaps[0] if kmaps else None)
    ftcr = ftcr_admission(config, train_aug)
    return evaluate(model, config, test_aug, dataset, tlog=tlog, budget=budget, ftcr=ftcr)


def run_experiment(
    config: ExperimentConfig, datasets: dict[str, Dataset], provider=None
) -> EvalReport:
    """Train under the configured regime and evaluate on the test split."""
    _require_splits(datasets, "train", "dev", "test")
    return _run(config, datasets, datasets["test"], provider, provider)


def run_ood(
    config: ExperimentConfig,
    source: dict[str, Dataset],
    target: dict[str, Dataset],
    provider=None,
    target_provider=None,
) -> EvalReport:
    """Train on the source domain, evaluate on the target domain's test split."""
    _require_splits(source, "train", "dev")
    _require_splits(target, "test")
    transfer = {"source": source["train"].name, "target": target["test"].name}
    return _run(config, source, target["test"], provider, target_provider or provider, transfer)


def run_budget_sweep(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    provider,
    ratios: Sequence[float] = DEFAULT_SWEEP_RATIOS,
) -> list[EvalReport]:
    """Re-run the full pipeline at each keyword ratio.

    Contexts are regenerated per ratio: a smaller disclosure changes the
    prompt, so cached generations from other ratios never leak in. The
    ratios' runs share one featurizer and one command memo, built for this
    sweep: no n-gram's hash, extraction, keyword order or oracle draw depends
    on the ratio. Every ratio's config is built before the first run, so a
    bad ratio fails before any training.
    """
    configs = [replace(config, ratio=ratio) for ratio in ratios]
    _require_disclosure("budget sweep", config, provider)
    _require_splits(datasets, "train", "dev", "test")
    featurizer = config.featurizer()
    memo = CommandMemo()
    return [
        _run(
            cfg, datasets, datasets["test"], provider, provider,
            featurizer=featurizer, memo=memo,
        )
        for cfg in configs
    ]


def _require_disclosure(what: str, config: ExperimentConfig, provider) -> None:
    """A run that varies the disclosed keywords needs contexts to disclose them to."""
    if provider is None:
        raise HarnessError(f"{what} needs a context provider")
    if config.regime == "SFT":
        raise HarnessError(f"{what} needs a context regime, not SFT")


def _keyword_coverage(dataset: Dataset, kmap: dict[str, KeywordSet]) -> Dataset:
    kept = tuple(inst for inst in dataset.instances if kmap[inst.id].keywords)
    return Dataset(name=dataset.name, split=dataset.split, instances=kept)


def run_representation_compare(
    config: ExperimentConfig,
    datasets: dict[str, Dataset],
    provider,
) -> dict[str, EvalReport]:
    """Compare disclosure representations at a matched privacy budget.

    The entity-keyword budget on the shared subset (instances with at least
    one gazetteer match) sets the target; the random baselines disclose that
    fraction of each question. A baseline whose realized corpus budget, the
    one its run's report gives, lands more than `BUDGET_TOLERANCE` from the
    target is an error. The methods' runs share one featurizer and one
    command memo, built for this comparison, so the entity run re-extracts
    and redraws nothing.
    """
    _require_disclosure("representation compare", config, provider)
    _require_splits(datasets, "train", "dev", "test")
    memo = CommandMemo()
    ner_maps = {
        split: provider.keyword_map(ds, config.ratio, config.seed, METHOD_NER, memo)
        for split, ds in datasets.items()
    }
    shared = {
        split: _keyword_coverage(ds, ner_maps[split]) for split, ds in datasets.items()
    }
    for split, ds in shared.items():
        if not len(ds):
            raise HarnessError(
                f"no instance in split {split!r} discloses a keyword at ratio {config.ratio:g}"
            )
    target = corpus_budget_report(shared["train"], ner_maps["train"]).budget

    featurizer = config.featurizer()
    out: dict[str, EvalReport] = {}
    for method in METHODS:
        ratio = config.ratio if method == METHOD_NER else target
        cfg = replace(config, method=method, ratio=ratio)
        out[method] = _run(
            cfg, shared, shared["test"], provider, provider,
            featurizer=featurizer, memo=memo,
        )
        # the report's budget is that of the train map the run disclosed
        realized = out[method].budget["budget"]
        if method != METHOD_NER and abs(realized - target) > BUDGET_TOLERANCE:
            raise HarnessError(
                f"{method} budget {format_budget(realized)} misses target "
                f"{format_budget(target)} by more than {BUDGET_TOLERANCE:.0%}"
            )
    return out
