import gc
import random
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privqa.harness as harness
from privqa.contexts import ContextView, ParsedContext, SpecificContext, ftcr_admit
from privqa.corpus import LABELS, AugmentedInstance, QAInstance
from privqa.gateway import (
    Gateway,
    GatewayError,
    GenerationRequest,
    MockTransport,
    TransportReply,
    cache_key,
)
from privqa.harness import (
    ExperimentConfig,
    HarnessError,
    PipelineProvider,
    accuracy,
    augment_completion,
    build_inputs,
    build_keyword_map,
    choice_texts,
    config_digest,
    eval_view,
    ftcr_admission,
    render_report,
    render_report_table,
    resolve_view,
    run_budget_sweep,
    run_experiment,
    run_ood,
    run_representation_compare,
    train_scorer,
    write_report,
)
from privqa.keywords import (
    METHOD_NER,
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    Gazetteer,
    corpus_budget_report,
    extract_ner,
    stable_seed,
    subsample_keywords,
)
from privqa.promptkit import build_prompt, render_block
from privqa.scorer import ScorerModel
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus, gazetteer_tokens
from tests.test_gateway import cache_keys_in
from tests.test_scorer import make_augmented

SPEC = SyntheticSpec(seed=5, train_size=60, dev_size=24, test_size=24)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(SPEC)


@pytest.fixture(scope="module")
def provider():
    return SyntheticContextProvider(SPEC)


@pytest.fixture(scope="module")
def mixed_augmented(corpus, provider):
    # ratio 0.5 leaves some instances informed and some not
    return provider.provide(corpus["train"], 0.5, seed=SPEC.seed)[0]


def small_config(**over):
    base = dict(
        regime="FTC",
        view="Full",
        ratio=1.0,
        seed=0,
        featurizer_dim=2**14,
        max_epochs=12,
        warmup_steps=20,
        early_stop_patience=3,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    small_config().validate()
    with pytest.raises(HarnessError, match="regime"):
        small_config(regime="RLHF").validate()
    with pytest.raises(HarnessError, match="view"):
        small_config(view="Everything").validate()
    with pytest.raises(HarnessError, match="ratio"):
        small_config(ratio=1.5).validate()


def test_config_digest_stable_and_sensitive():
    a = config_digest(small_config())
    b = config_digest(small_config())
    c = config_digest(small_config(seed=1))
    assert a == b
    assert a != c
    assert len(a) == 64


def test_resolve_view(mixed_augmented):
    admitted = next(
        a for a in mixed_augmented if ftcr_admit(a.context, a.instance.gold)
    )
    rejected = next(
        a for a in mixed_augmented if not ftcr_admit(a.context, a.instance.gold)
    )
    assert resolve_view("FTC", ContextView.FULL, rejected) is ContextView.FULL
    assert resolve_view("SFT", ContextView.FULL, admitted) is ContextView.NO_CONTEXT
    assert resolve_view("FTCR", ContextView.FULL, admitted) is ContextView.FULL
    assert resolve_view("FTCR", ContextView.FULL, rejected) is ContextView.NO_CONTEXT


def with_context(items, augmented):
    """Ids whose texts carry context: they differ from the context-free texts."""
    return {
        item.id
        for item, aug in zip(items, augmented)
        if item.texts != choice_texts(aug, ContextView.NO_CONTEXT)
    }


def test_build_inputs_regimes(mixed_augmented):
    ftc = build_inputs(mixed_augmented, "FTC", ContextView.FULL)
    sft = build_inputs(mixed_augmented, "SFT", ContextView.FULL)
    ftcr = build_inputs(mixed_augmented, "FTCR", ContextView.FULL)
    assert len(ftc) == len(sft) == len(ftcr) == len(mixed_augmented)
    assert with_context(ftc, mixed_augmented) == {a.instance.id for a in mixed_augmented}
    assert not with_context(sft, mixed_augmented)
    assert 0 < len(with_context(ftcr, mixed_augmented)) < len(ftcr)


def test_build_inputs_unknown_regime(mixed_augmented):
    with pytest.raises(HarnessError, match="regime"):
        build_inputs(mixed_augmented, "XYZ", ContextView.FULL)


@pytest.mark.parametrize("view", list(ContextView), ids=lambda v: v.value)
def test_ftcr_matches_admission_exactly(mixed_augmented, view):
    expected = {
        a.instance.id
        for a in mixed_augmented
        if ftcr_admit(a.context, a.instance.gold)
    }
    if view is not ContextView.NO_CONTEXT:
        ftcr = build_inputs(mixed_augmented, "FTCR", view)
        assert with_context(ftcr, mixed_augmented) == expected
    # under NoContext no text carries context, but admission is still ftcr_admit's
    admission = ftcr_admission(small_config(regime="FTCR", view=view.value), mixed_augmented)
    assert admission == {"admitted": len(expected), "total": len(mixed_augmented)}


@st.composite
def decided_instances(draw):
    """Instances with non-empty contexts and random preliminary decisions."""
    out = []
    for i in range(draw(st.integers(1, 12))):
        labels = LABELS[: draw(st.integers(2, 5))]
        gold = draw(st.sampled_from(labels))
        decision = draw(st.frozensets(st.sampled_from(labels)))
        inst = QAInstance(
            id=f"q{i}",
            question=f"question {i}",
            choices={lab: f"answer {lab}" for lab in labels},
            gold=gold,
        )
        ctx = ParsedContext(
            overall=f"overall {i}.",
            specific={lab: SpecificContext(f"knows {lab}.", "It is related.") for lab in labels},
            decision=decision,
        )
        out.append(AugmentedInstance(instance=inst, context=ctx, generation_id=f"g{i}"))
    return out


@settings(max_examples=200, deadline=None)
@given(augmented=decided_instances())
def test_ftcr_admission_property(augmented):
    # FTCR keeps the full context exactly where ftcr_admit holds and demotes
    # the rest to context-free texts; the report's count is that set's size
    items = build_inputs(augmented, "FTCR", ContextView.FULL)
    admitted = {a.instance.id for a in augmented if ftcr_admit(a.context, a.instance.gold)}
    for item, aug in zip(items, augmented):
        view = ContextView.FULL if item.id in admitted else ContextView.NO_CONTEXT
        assert item.texts == choice_texts(aug, view)
    assert with_context(items, augmented) == admitted
    admission = ftcr_admission(small_config(regime="FTCR"), augmented)
    assert admission == {"admitted": len(admitted), "total": len(augmented)}
    assert ftcr_admission(small_config(regime="FTC"), augmented) is None


@pytest.mark.parametrize("regime", ["FTC", "SFT", "FTCR"])
def test_train_scorer_returns_the_ftcr_section(corpus, provider, mixed_augmented, regime):
    # the contexts go in as one-pass iterators, as a run's stream hands them over
    config = small_config(regime=regime, ratio=0.5, max_epochs=1)
    dev_aug = provider.provide(corpus["dev"], 0.5, seed=SPEC.seed)[0]
    _, _, ftcr = train_scorer(config, iter(mixed_augmented), iter(dev_aug))
    assert ftcr == ftcr_admission(config, mixed_augmented)
    if regime == "FTCR":
        assert 0 < ftcr["admitted"] < ftcr["total"] == len(mixed_augmented)
    else:
        assert ftcr is None


def test_context_free_ftc_equals_sft(mixed_augmented):
    ftc = build_inputs(mixed_augmented, "FTC", ContextView.NO_CONTEXT)
    sft = build_inputs(mixed_augmented, "SFT", ContextView.FULL)
    assert [ci.texts for ci in ftc] == [ci.texts for ci in sft]


def test_eval_view():
    assert eval_view(small_config(regime="SFT")) is ContextView.NO_CONTEXT
    assert eval_view(small_config(regime="FTC", view="OnlyOverall")) is (
        ContextView.ONLY_OVERALL
    )
    assert eval_view(small_config(regime="FTCR")) is ContextView.FULL


def test_to_train_item():
    aug = make_augmented(gold="c")
    for regime in ("FTC", "SFT", "FTCR"):
        (item,) = build_inputs([aug], regime, ContextView.FULL)
        assert item.id == "i1"
        assert item.gold_index == 2
        assert len(item.texts) == 4
    (item,) = build_inputs([aug], "FTC", ContextView.FULL)
    assert item.texts == choice_texts(aug, ContextView.FULL)


def test_accuracy():
    assert accuracy({"a": "x", "b": "y"}, {"a": "x", "b": "z"}) == 0.5


def test_accuracy_id_mismatch():
    with pytest.raises(HarnessError, match="missing"):
        accuracy({"a": "x"}, {"a": "x", "b": "y"})


def test_accuracy_empty():
    with pytest.raises(HarnessError, match="empty"):
        accuracy({}, {})


def test_pipeline_provider_equals_oracle(tmp_path, corpus, provider):
    # the full extract-prompt-generate-parse path over a gateway in mock mode
    # must reproduce the oracle contexts exactly
    data = corpus["dev"]
    mocks = provider.mock_completions(data, 0.5, seed=SPEC.seed)
    gw = Gateway(tmp_path / "cache.jsonl", mock_completions=mocks)
    pipe = PipelineProvider(
        gateway=gw,
        demos=provider.demonstrations(corpus["train"]),
        gazetteer=gazetteer_tokens(SPEC),
        mode="mock",
    )
    got, got_kmap = pipe.provide(data, 0.5, seed=SPEC.seed)
    want, want_kmap = provider.provide(data, 0.5, seed=SPEC.seed)
    assert got_kmap == want_kmap
    assert [a.context for a in got] == [a.context for a in want]
    assert gw.transport_calls == 0


def test_pipeline_provider_live_fan_out_is_ordered(tmp_path, corpus, provider):
    # live completions finish out of order over three threads; contexts and
    # cache bytes equal those of a one-at-a-time run
    data = corpus["dev"]
    mocks = provider.mock_completions(data, 0.5, seed=SPEC.seed)
    # the query block's second line, 'Candidate Answers: ...', names the instance
    position = {
        render_block((), inst.choices).split("\n")[1]: i for i, inst in enumerate(data.instances)
    }

    def upstream(payload):
        query = payload["messages"][0]["content"].rsplit("\n\n", 1)[-1]
        i = position[query.split("\n")[1]]
        time.sleep(0.006 if i % 3 == 0 else 0.001)
        completion = mocks[data.instances[i].id]
        return TransportReply(200, {"choices": [{"message": {"content": completion}}]})

    want, _ = provider.provide(data, 0.5, seed=SPEC.seed)
    caches = {}
    for width in (1, 3):
        caches[width] = tmp_path / f"cache-{width}.jsonl"
        transport = MockTransport(upstream)
        pipe = PipelineProvider(
            gateway=Gateway(caches[width], transport=transport, max_in_flight=width),
            demos=provider.demonstrations(corpus["train"]),
            gazetteer=gazetteer_tokens(SPEC),
            mode="live",
        )
        got, _ = pipe.provide(data, 0.5, seed=SPEC.seed)
        assert [a.context for a in got] == [a.context for a in want]
        assert [a.instance for a in got] == list(data.instances)
        assert transport.calls == len(data)
    assert caches[3].read_bytes() == caches[1].read_bytes()


def test_pipeline_provider_parse_error_names_instance(tmp_path, corpus, provider):
    data = corpus["dev"]
    mocks = provider.mock_completions(data, 0.5, seed=SPEC.seed)
    bad_id = data.instances[3].id
    mocks[bad_id] = " total nonsense with no blocks"
    gw = Gateway(tmp_path / "cache.jsonl", mock_completions=mocks)
    pipe = PipelineProvider(
        gateway=gw,
        demos=provider.demonstrations(corpus["train"]),
        gazetteer=gazetteer_tokens(SPEC),
        mode="mock",
    )
    with pytest.raises(HarnessError, match=bad_id):
        pipe.provide(data, 0.5, seed=SPEC.seed)


def test_pipeline_provider_requires_gazetteer(tmp_path, corpus, provider):
    gw = Gateway(tmp_path / "cache.jsonl")
    pipe = PipelineProvider(
        gateway=gw, demos=provider.demonstrations(corpus["train"])
    )
    with pytest.raises(HarnessError, match="gazetteer"):
        pipe.keyword_map(corpus["dev"], 0.5, seed=0)


def test_pipeline_augment_all_needs_every_keyword_set(tmp_path, corpus, provider):
    data = corpus["dev"]
    kmap = provider.keyword_map(data, 0.5, seed=SPEC.seed)
    last = data.instances[-1].id
    del kmap[last]
    transport = MockTransport([TransportReply(500, {})])
    pipe = PipelineProvider(
        gateway=Gateway(tmp_path / "cache.jsonl", transport=transport),
        demos=provider.demonstrations(corpus["train"]),
        mode="live",
    )
    with pytest.raises(HarnessError, match=f"no keywords for instance {last!r}"):
        list(pipe.stream([data], [kmap]))
    assert transport.calls == 0
    assert not (tmp_path / "cache.jsonl").exists()


def test_provider_pulls_each_keyword_map_when_it_reaches_its_dataset(corpus, provider):
    dev, test = corpus["dev"], corpus["test"]
    maps = [provider.keyword_map(ds, 0.5, seed=SPEC.seed) for ds in (dev, test)]
    pulled = []

    def kmaps():
        for kmap in maps:
            pulled.append(kmap)
            yield kmap

    stream = provider.stream([dev, test], kmaps())
    got = [next(stream) for _ in dev.instances]
    assert len(pulled) == 1
    got.append(next(stream))
    assert len(pulled) == 2
    got.extend(stream)
    assert [a.instance for a in got] == [*dev.instances, *test.instances]


def test_provider_refuses_a_missing_keyword_set_once_it_reaches_its_dataset(corpus, provider):
    dev, test = corpus["dev"], corpus["test"]
    maps = [provider.keyword_map(ds, 0.5, seed=SPEC.seed) for ds in (dev, test)]
    missing = test.instances[-1].id
    del maps[1][missing]
    stream = provider.stream([dev, test], iter(maps))
    # the dev records come first; the test split fails before its first record
    assert [next(stream).instance for _ in dev.instances] == list(dev.instances)
    with pytest.raises(HarnessError, match=f"no keywords for instance {missing!r}"):
        next(stream)


class OracleUpstream:
    """Live upstream for a whole corpus: each prompt's answers line names its instance.

    It answers with the oracle's completion, or with `broken` text for the
    ids named there; the ids in `refused` get a client error. `on_send` is
    called with each request's split before it is answered.
    """

    def __init__(self, corpus, provider, ratio, broken=(), refused=(), on_send=None):
        self.split_of, self.completion_of = {}, {}
        for split, data in corpus.items():
            mocks = provider.mock_completions(data, ratio, seed=0)
            for inst in data.instances:
                line = render_block((), inst.choices).split("\n")[1]
                self.split_of[line] = split
                self.completion_of[line] = " no blocks" if inst.id in broken else mocks[inst.id]
                if inst.id in refused:
                    self.completion_of[line] = None
        self.on_send = on_send

    def __call__(self, payload):
        line = payload["messages"][0]["content"].rsplit("\n\n", 1)[-1].split("\n")[1]
        if self.on_send is not None:
            self.on_send(self.split_of[line])
        completion = self.completion_of[line]
        if completion is None:
            return TransportReply(400, {"error": "refused"})
        return TransportReply(200, {"choices": [{"message": {"content": completion}}]})


def live_pipeline(path, corpus, provider, upstream):
    return PipelineProvider(
        gateway=Gateway(path, transport=MockTransport(upstream), max_in_flight=2),
        demos=provider.demonstrations(corpus["train"]),
        gazetteer=gazetteer_tokens(SPEC),
        mode="live",
    )


def request_keys(pipe, corpus, config):
    """The cache key of every request a run sends, in request order."""
    keys = []
    for split in ("train", "dev", "test"):
        kmap = pipe.keyword_map(corpus[split], config.ratio, config.seed)
        for inst in corpus[split].instances:
            prompt = build_prompt(pipe.demos, kmap[inst.id].keywords, inst.choices, inst.id)
            keys.append(cache_key(GenerationRequest(model_id=pipe.model_id, prompt=prompt)))
    return keys


def test_run_trains_while_the_test_completions_are_in_flight(tmp_path, corpus, provider, monkeypatch):
    config = small_config(max_epochs=2)
    test_sent = threading.Event()
    upstream = OracleUpstream(
        corpus, provider, config.ratio, on_send=lambda split: split == "test" and test_sent.set()
    )
    pipe = live_pipeline(tmp_path / "cache.jsonl", corpus, provider, upstream)
    real_train = harness.train
    sent_before_training = []

    def train(*args, **kwargs):
        sent_before_training.append(test_sent.wait(10))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", train)
    threads = threading.active_count()
    report = run_experiment(config, corpus, pipe)
    assert sent_before_training == [True]
    assert threading.active_count() == threads
    assert render_report(report) == render_report(run_experiment(config, corpus, provider))
    assert cache_keys_in(tmp_path / "cache.jsonl") == request_keys(pipe, corpus, config)


def contexts_alive_in_training(monkeypatch) -> list[int]:
    """Patch `harness.train` to count, at each entry, the live contexts made since this call.

    No `gc.collect()` runs first: a context is counted until nothing refers to it.
    """
    # holding the older contexts keeps their ids from going to new ones
    known = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, AugmentedInstance)}
    real_train = harness.train
    counts = []

    def train(*args, **kwargs):
        counts.append(
            sum(isinstance(obj, AugmentedInstance) and id(obj) not in known for obj in gc.get_objects())
        )
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", train)
    return counts


@pytest.mark.parametrize("regime", ["FTC", "FTCR"])
def test_run_holds_no_context_in_training(corpus, provider, monkeypatch, regime):
    alive = contexts_alive_in_training(monkeypatch)
    run_experiment(small_config(regime=regime, ratio=0.5, max_epochs=1), corpus, provider)
    assert alive == [0]


def test_sweep_runs_hold_no_context_in_training(corpus, provider, monkeypatch):
    alive = contexts_alive_in_training(monkeypatch)
    run_budget_sweep(small_config(max_epochs=1), corpus, provider, ratios=(0.5, 1.0))
    assert alive == [0, 0]


def test_stream_run_holds_no_context_while_test_completions_are_in_flight(
    tmp_path, corpus, provider, monkeypatch
):
    config = small_config(max_epochs=1)
    test_sent = threading.Event()
    upstream = OracleUpstream(
        corpus, provider, config.ratio, on_send=lambda split: split == "test" and test_sent.set()
    )
    pipe = live_pipeline(tmp_path / "cache.jsonl", corpus, provider, upstream)
    alive = contexts_alive_in_training(monkeypatch)
    counting_train = harness.train

    def train(*args, **kwargs):
        assert test_sent.wait(10)
        return counting_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", train)
    report = run_experiment(config, corpus, pipe)
    assert alive == [0]
    assert report.metrics["n"] == len(corpus["test"])


def models_handed_to_evaluate(monkeypatch) -> list[ScorerModel]:
    """Patch `harness.evaluate` to record each model a run hands it, and make
    reading `ScorerModel.weights`, the full-dim copy, fail the test."""
    models = []
    real_evaluate = harness.evaluate

    def evaluate(model, *args, **kwargs):
        models.append(model)
        return real_evaluate(model, *args, **kwargs)

    def weights(model):
        pytest.fail("a run built the full-dim weights")

    monkeypatch.setattr(harness, "evaluate", evaluate)
    monkeypatch.setattr(ScorerModel, "weights", property(weights))
    return models


def full_dim_arrays(model: ScorerModel) -> list[str]:
    return [
        name for name, value in vars(model).items()
        if isinstance(value, np.ndarray) and value.size >= model.featurizer.dim
    ]


def test_run_model_holds_only_its_support(corpus, provider, monkeypatch):
    models = models_handed_to_evaluate(monkeypatch)
    report = run_experiment(small_config(max_epochs=2), corpus, provider)
    (model,) = models
    assert full_dim_arrays(model) == []
    assert 0 < model.indices.size < model.featurizer.dim
    assert report.metrics["n"] == len(corpus["test"])


def test_live_run_model_holds_only_its_support_with_test_completions_in_flight(
    tmp_path, corpus, provider, monkeypatch
):
    config = small_config(max_epochs=2)
    test_sent = threading.Event()
    upstream = OracleUpstream(
        corpus, provider, config.ratio, on_send=lambda split: split == "test" and test_sent.set()
    )
    pipe = live_pipeline(tmp_path / "cache.jsonl", corpus, provider, upstream)
    real_train = harness.train
    sent_before_training = []

    def train(*args, **kwargs):
        sent_before_training.append(test_sent.wait(10))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", train)
    models = models_handed_to_evaluate(monkeypatch)
    report = run_experiment(config, corpus, pipe)
    (model,) = models
    assert sent_before_training == [True]
    assert full_dim_arrays(model) == []
    assert 0 < model.indices.size < model.featurizer.dim
    assert report.metrics["n"] == len(corpus["test"])


def test_run_caches_every_generation_when_a_test_one_fails_to_parse(tmp_path, corpus, provider):
    # the last test generation fails to parse after training; every request
    # resolved by then, so every line is cached, in request order
    config = small_config(max_epochs=1)
    last = corpus["test"].instances[-1].id
    upstream = OracleUpstream(corpus, provider, config.ratio, broken={last})
    path = tmp_path / "cache.jsonl"
    pipe = live_pipeline(path, corpus, provider, upstream)
    threads = threading.active_count()
    with pytest.raises(HarnessError, match=last):
        run_experiment(config, corpus, pipe)
    assert threading.active_count() == threads
    assert cache_keys_in(path) == request_keys(pipe, corpus, config)


def test_run_whose_generation_fails_still_caches_its_other_splits(tmp_path, corpus, provider):
    # a refused train request: every other train, dev and test prompt is
    # still sent and cached before the failure is raised
    config = small_config(max_epochs=1)
    refused = corpus["train"].instances[3].id
    upstream = OracleUpstream(corpus, provider, config.ratio, refused={refused})
    path = tmp_path / "cache.jsonl"
    pipe = live_pipeline(path, corpus, provider, upstream)
    with pytest.raises(GatewayError, match="refused"):
        run_experiment(config, corpus, pipe)
    keys = request_keys(pipe, corpus, config)
    assert cache_keys_in(path) == keys[:3] + keys[4:]
    # a rerun pays for the refused request only
    upstream = OracleUpstream(corpus, provider, config.ratio)
    rerun = live_pipeline(path, corpus, provider, upstream)
    report = run_experiment(config, corpus, rerun)
    assert rerun.gateway.transport_calls == 1
    assert report.metrics["accuracy"] >= 0.9


def test_pipeline_provider_requires_demos(tmp_path):
    with pytest.raises(HarnessError, match="demonstration"):
        PipelineProvider(gateway=Gateway(tmp_path / "c.jsonl"), demos=[])


def test_run_experiment_ftc(corpus, provider):
    report = run_experiment(small_config(), corpus, provider)
    assert report.metrics["accuracy"] >= 0.9
    assert report.metrics["n"] == 24
    assert report.budget is not None
    assert abs(report.budget["budget"] - 0.5) < 1e-12
    assert report.budget["formatted"] == "50.0%"
    assert report.ftcr is None
    assert report.provenance["config_digest"] == config_digest(small_config())


class CountingProvider(SyntheticContextProvider):
    """The oracle, recording each keyword map it builds."""

    def __init__(self, spec):
        super().__init__(spec)
        self.mapped = []
        self.built = {}

    def keyword_map(self, dataset, *args, **kwargs):
        self.mapped.append(dataset.split)
        kmap = self.built[dataset.split] = super().keyword_map(dataset, *args, **kwargs)
        return kmap


def test_run_budget_reuses_provided_keyword_map(corpus, monkeypatch):
    counting = CountingProvider(SPEC)
    budget_maps = []

    def recording_budget(dataset, kmap):
        budget_maps.append(kmap)
        return corpus_budget_report(dataset, kmap)

    monkeypatch.setattr(harness, "corpus_budget_report", recording_budget)
    report = run_experiment(small_config(ratio=0.5, max_epochs=2), corpus, counting)
    assert sorted(counting.mapped) == ["dev", "test", "train"]
    # a run streams its splits instead of calling `provide`: the map its
    # train prompts disclosed is the one built for the train split
    train_kmap = counting.built["train"]
    assert len(budget_maps) == 1 and budget_maps[0] is train_kmap
    want = corpus_budget_report(corpus["train"], train_kmap)
    assert report.budget["budget"] == want.budget
    assert report.budget["avg_keyword_words"] == want.avg_keyword_words

    counting = CountingProvider(SPEC)
    report = run_experiment(small_config(regime="SFT", max_epochs=2), corpus, counting)
    assert counting.mapped == [] and report.budget is None


def test_run_experiment_sft_needs_no_provider(corpus):
    report = run_experiment(small_config(regime="SFT", max_epochs=4), corpus)
    assert report.budget is None
    assert report.metrics["n"] == 24
    # context-free inputs cannot separate the synthetic choices
    assert report.metrics["accuracy"] <= 0.6


def test_run_experiment_ftc_requires_provider(corpus):
    with pytest.raises(HarnessError, match="provider"):
        run_experiment(small_config(), corpus)


def test_run_experiment_missing_split(corpus, provider):
    partial = {"train": corpus["train"], "dev": corpus["dev"]}
    with pytest.raises(HarnessError, match="test"):
        run_experiment(small_config(), partial, provider)


def test_ftcr_report_counts(corpus, provider):
    report = run_experiment(small_config(regime="FTCR", ratio=0.5), corpus, provider)
    assert report.ftcr is not None
    assert report.ftcr["total"] == 60
    assert 0 < report.ftcr["admitted"] < 60


def test_report_is_deterministic_and_timestamp_free(corpus, provider):
    r1 = run_experiment(small_config(), corpus, provider)
    r2 = run_experiment(small_config(), corpus, provider)
    assert render_report(r1) == render_report(r2)
    assert "timestamp" not in render_report(r1)


def test_write_report_round_trip(tmp_path, corpus, provider):
    report = run_experiment(small_config(regime="SFT", max_epochs=2), corpus)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text(encoding="utf-8") == render_report(report)


def test_interrupted_write_report_leaves_the_old_report(tmp_path, corpus, interrupt_writes):
    old = run_experiment(small_config(regime="SFT", max_epochs=1), corpus)
    new = replace(old, predictions={})
    path = tmp_path / "report.json"
    write_report(old, path)
    before = path.read_bytes()
    interrupt_writes()
    with pytest.raises(KeyboardInterrupt):
        write_report(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_run_ood_transfers_context_signal(corpus, provider):
    target_spec = SyntheticSpec(seed=11, train_size=4, dev_size=4, test_size=24)
    target = build_corpus(target_spec)
    report = run_ood(
        small_config(),
        source=corpus,
        target=target,
        provider=provider,
        target_provider=SyntheticContextProvider(target_spec),
    )
    assert report.dataset["transfer"] == {"source": "synthetic", "target": "synthetic"}
    assert report.metrics["n"] == 24
    assert report.metrics["accuracy"] >= 0.9


def test_run_ood_missing_target_split(corpus, provider):
    with pytest.raises(HarnessError, match="test"):
        run_ood(small_config(), corpus, {"train": corpus["train"]}, provider)


def test_run_budget_sweep(corpus, provider):
    reports = run_budget_sweep(small_config(), corpus, provider, ratios=(0.5, 1.0))
    assert len(reports) == 2
    assert abs(reports[0].budget["budget"] - 0.25) < 1e-12
    assert abs(reports[1].budget["budget"] - 0.5) < 1e-12
    assert reports[0].config["ratio"] == 0.5
    assert reports[1].config["ratio"] == 1.0


@pytest.fixture
def extracted(monkeypatch):
    """The question of each `harness.extract_ner` call, in call order."""
    seen = []
    real = harness.extract_ner

    def spy(question, gazetteer):
        seen.append(question)
        return real(question, gazetteer)

    monkeypatch.setattr(harness, "extract_ner", spy)
    return seen


def questions(datasets):
    return {inst.question for ds in datasets.values() for inst in ds.instances}


def test_sweep_extracts_each_question_once_per_call(corpus, provider, extracted):
    for _ in range(2):  # a second sweep starts from an empty memo again
        extracted.clear()
        run_budget_sweep(small_config(max_epochs=1), corpus, provider, ratios=(0.25, 0.5, 1.0))
        assert sorted(extracted) == sorted(questions(corpus))


def test_compare_entity_run_extracts_nothing_again(corpus, provider, extracted):
    # the matched-budget maps extract every question; the entity run reuses them
    run_representation_compare(small_config(max_epochs=1), corpus, provider)
    assert sorted(extracted) == sorted(questions(corpus))


def test_ood_memo_keeps_each_providers_gazetteer(corpus):
    # the target domain asks the source's training questions, but its
    # gazetteer knows only half of the source's terms
    source = CountingProvider(SPEC)
    target = CountingProvider(SPEC)
    target.gazetteer = Gazetteer(gazetteer_tokens(SPEC)[::2])
    shared = replace(corpus["train"], name="target", split="test")
    run_ood(small_config(max_epochs=1), corpus, {"test": shared}, source, target)
    want = build_keyword_map(shared, 1.0, 0, METHOD_NER, target.gazetteer)
    assert target.built["test"] == want
    assert want != build_keyword_map(shared, 1.0, 0, METHOD_NER, source.gazetteer)


@pytest.fixture
def orders(monkeypatch):
    """Each full keyword permutation drawn, in draw order.

    Only keyword orders sample a whole `range`; the synthetic oracle samples
    lists, and an entity sweep draws no random-word sample.
    """
    seen = []
    real = random.Random.sample

    def spy(self, population, k, **kwargs):
        out = real(self, population, k, **kwargs)
        if isinstance(population, range) and k == len(population):
            seen.append(out)
        return out

    monkeypatch.setattr(random.Random, "sample", spy)
    return seen


@pytest.fixture
def memos(monkeypatch):
    """Each `build_keyword_map` call's memo, with how many orders it held then."""
    seen = []
    real = harness.build_keyword_map

    def spy(dataset, ratio, seed, method, gazetteer, memo=None):
        seen.append((memo, None if memo is None else len(memo.orders)))
        return real(dataset, ratio, seed, method, gazetteer, memo)

    monkeypatch.setattr(harness, "build_keyword_map", spy)
    return seen


def test_sweep_draws_each_instance_order_once_per_call(corpus, provider, orders, memos):
    instances = sum(len(ds) for ds in corpus.values())
    ratios = (0.25, 0.5, 1.0)
    firsts = []
    for _ in range(2):  # a second sweep starts from an empty memo again
        orders.clear()
        memos.clear()
        run_budget_sweep(small_config(max_epochs=1), corpus, provider, ratios=ratios)
        assert len(orders) == instances
        first, known = memos[0]
        assert known == 0
        assert len(memos) == 3 * len(ratios)
        assert all(memo is first for memo, _ in memos)
        assert len(first.orders) == instances
        firsts.append(first)
    assert firsts[0] is not firsts[1]


@settings(max_examples=25, deadline=None)
@given(
    corpus_seed=st.integers(0, 2**16),
    keyword_count=st.integers(1, 16),
    seed=st.integers(0, 2**63),
    ratios=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_memoized_subsample_equals_a_fresh_one(corpus_seed, keyword_count, seed, ratios):
    # orders drawn at one ratio serve every other ratio exactly
    spec = SyntheticSpec(seed=corpus_seed, train_size=20, keyword_count=keyword_count)
    data = build_corpus(spec)["train"]
    gazetteer = Gazetteer(gazetteer_tokens(spec))
    memo = harness.CommandMemo()
    for ratio in ratios:
        kmap = build_keyword_map(data, ratio, seed, METHOD_NER, gazetteer, memo)
        for inst in data.instances:
            ks = extract_ner(inst.question, gazetteer)
            assert kmap[inst.id] == subsample_keywords(ks, ratio, stable_seed(seed, inst.id))


@pytest.fixture
def featurizers(monkeypatch):
    """Each `train` call's featurizer, with the number of tokens its memo held then."""
    seen = []
    real = harness.train

    def spy(config, train_items, dev_items, featurizer):
        seen.append((featurizer, len(featurizer._tokens)))
        return real(config, train_items, dev_items, featurizer)

    monkeypatch.setattr(harness, "train", spy)
    return seen


def assert_one_fresh_memo(runs):
    first, known = runs[0]
    assert known == 0  # the command starts from an empty memo
    assert all(featurizer is first and known > 0 for featurizer, known in runs[1:])


def test_sweep_runs_share_one_memo_per_call(corpus, provider, featurizers):
    config = small_config(max_epochs=4)
    ratios = (0.25, 0.5, 1.0)
    firsts = []
    for _ in range(2):
        featurizers.clear()
        reports = run_budget_sweep(config, corpus, provider, ratios=ratios)
        assert_one_fresh_memo(featurizers)
        firsts.append(featurizers[0][0])
        for ratio, report in zip(ratios, reports):
            alone = run_experiment(replace(config, ratio=ratio), corpus, provider)
            assert render_report(report) == render_report(alone)
    assert firsts[0] is not firsts[1]


def test_compare_runs_share_one_memo_per_call(corpus, provider, featurizers):
    config = small_config(max_epochs=4)
    shared = {
        split: harness._keyword_coverage(
            ds, provider.keyword_map(ds, config.ratio, config.seed, METHOD_NER)
        )
        for split, ds in corpus.items()
    }
    firsts = []
    for _ in range(2):
        featurizers.clear()
        out = run_representation_compare(config, corpus, provider)
        assert_one_fresh_memo(featurizers)
        firsts.append(featurizers[0][0])
        for method, report in out.items():
            cfg = replace(config, method=method, ratio=report.config["ratio"])
            assert render_report(report) == render_report(run_experiment(cfg, shared, provider))
    assert firsts[0] is not firsts[1]


@settings(max_examples=40, deadline=None)
@given(
    corpus_seed=st.integers(0, 2**16),
    keyword_count=st.integers(1, 16),
    seed=st.integers(0, 2**63),
    ratios=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda r: r[0] < r[1]),
)
def test_keyword_map_nested_across_ratios(corpus_seed, keyword_count, seed, ratios):
    # everything disclosed at the lower ratio is disclosed at the higher one
    spec = SyntheticSpec(seed=corpus_seed, train_size=25, keyword_count=keyword_count)
    data = build_corpus(spec)["train"]
    gazetteer = Gazetteer(gazetteer_tokens(spec))
    lo, hi = (build_keyword_map(data, r, seed, METHOD_NER, gazetteer) for r in ratios)
    for inst in data.instances:
        small, large = lo[inst.id], hi[inst.id]
        assert set(zip(small.keywords, small.starts)) <= set(zip(large.keywords, large.starts))
        assert small.word_count <= large.word_count


def test_run_representation_compare(corpus, provider):
    out = run_representation_compare(small_config(max_epochs=6), corpus, provider)
    assert set(out) == {METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS}
    # every method runs at the same realized corpus budget
    for report in out.values():
        assert abs(report.budget["budget"] - 0.5) < 1e-9
    assert out[METHOD_RANDOM_SPAN].config["method"] == METHOD_RANDOM_SPAN


def test_compare_builds_each_baseline_map_once(monkeypatch):
    # each baseline's train map serves both its run and the budget check
    calls = []
    for name in ("extract_random_span", "extract_random_words"):
        real = getattr(harness, name)

        def spy(question, ratio, seed, real=real, name=name):
            calls.append((name, question, ratio, seed))
            return real(question, ratio, seed)

        monkeypatch.setattr(harness, name, spy)
    spec = SyntheticSpec(seed=5, train_size=100, dev_size=40, test_size=40)
    provider = SyntheticContextProvider(spec)
    run_representation_compare(small_config(max_epochs=1), build_corpus(spec), provider)
    # two baselines over the 180 shared instances
    assert len(calls) == len(set(calls)) == 360


def test_compare_baseline_off_its_budget_is_an_error(corpus, provider, monkeypatch):
    real = harness.extract_random_span
    monkeypatch.setattr(
        harness, "extract_random_span", lambda question, ratio, seed: real(question, ratio / 2, seed)
    )
    with pytest.raises(
        HarnessError, match=r"^RandomSpan budget \S+ misses target 50\.0% by more than 1%$"
    ):
        run_representation_compare(small_config(max_epochs=1), corpus, provider)


@pytest.mark.parametrize(
    "regime, with_provider, need",
    [("SFT", True, "context regime"), ("FTC", False, "context provider")],
)
def test_representation_compare_needs_disclosure(corpus, provider, regime, with_provider, need):
    config = small_config(regime=regime, max_epochs=2)
    with pytest.raises(HarnessError, match=need):
        run_representation_compare(config, corpus, provider if with_provider else None)


@pytest.mark.parametrize(
    "regime, with_provider, need",
    [("SFT", True, "context regime"), ("FTC", False, "context provider")],
)
def test_budget_sweep_needs_disclosure(corpus, provider, regime, with_provider, need, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("no run before the check")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    with pytest.raises(HarnessError, match=f"budget sweep needs a {need}"):
        run_budget_sweep(small_config(regime=regime), corpus, provider if with_provider else None)


def test_render_report_table(corpus, provider):
    reports = [
        run_experiment(small_config(max_epochs=2), corpus, provider),
        run_experiment(small_config(regime="SFT", max_epochs=2), corpus),
    ]
    table = render_report_table(reports)
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("regime")
    assert "FTC" in lines[1] and "50.0%" in lines[1]
    assert "SFT" in lines[2] and "-" in lines[2]


AB = QAInstance(id="q1", question="Which?", choices={"a": "x", "b": "y"}, gold="a")


def test_augment_completion_keeps_a_quoted_head_in_the_continuation():
    completion = (
        " The label reads Context: none. It is fine.\n"
        "(a): x is listed. It fits.\n(b): y is not. It does not fit.\nThe answer is (a)."
    )
    ctx = augment_completion(AB, completion, "g1").context
    assert ctx.overall == "The label reads Context: none. It is fine."
    assert ctx.specific["a"].knowledge == "x is listed."
    assert ctx.warnings == ()


def test_augment_completion_with_its_own_head_parses_as_given():
    completion = "\n Context: Shared facts.\n(a): x is listed. It fits.\n(b): y.\nThe answer is (a)."
    aug = augment_completion(AB, completion, "g1")
    assert aug.context.overall == "Shared facts."
    assert aug.context.raw == completion
    assert aug.context.decision == frozenset({"a"})
