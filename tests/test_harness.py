import json

import pytest

from privqa.contexts import ContextView, ftcr_admit
from privqa.gateway import Gateway
from privqa.harness import (
    ChoiceInputs,
    ExperimentConfig,
    HarnessError,
    PipelineProvider,
    accuracy,
    build_inputs,
    config_digest,
    eval_view,
    render_report,
    render_report_table,
    resolve_view,
    run_budget_sweep,
    run_experiment,
    run_ood,
    run_representation_compare,
    to_train_item,
    write_report,
)
from privqa.keywords import METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

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
    return provider.provide(corpus["train"], 0.5, seed=SPEC.seed)


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


def test_build_inputs_regimes(mixed_augmented):
    ftc = build_inputs(mixed_augmented, "FTC", ContextView.FULL)
    sft = build_inputs(mixed_augmented, "SFT", ContextView.FULL)
    ftcr = build_inputs(mixed_augmented, "FTCR", ContextView.FULL)
    assert len(ftc) == len(sft) == len(ftcr) == len(mixed_augmented)
    assert all(ci.used_context for ci in ftc)
    assert not any(ci.used_context for ci in sft)
    admitted = [ci for ci in ftcr if ci.used_context]
    assert 0 < len(admitted) < len(ftcr)


def test_build_inputs_unknown_regime(mixed_augmented):
    with pytest.raises(HarnessError, match="regime"):
        build_inputs(mixed_augmented, "XYZ", ContextView.FULL)


def test_ftcr_matches_admission_exactly(mixed_augmented):
    ftcr = build_inputs(mixed_augmented, "FTCR", ContextView.FULL)
    expected = {
        a.instance.id
        for a in mixed_augmented
        if ftcr_admit(a.context, a.instance.gold)
    }
    assert {ci.id for ci in ftcr if ci.used_context} == expected


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
    ci = ChoiceInputs(
        id="x", gold="c", labels=("a", "b", "c"), texts=("1", "2", "3"), used_context=True
    )
    item = to_train_item(ci)
    assert item.gold_index == 2
    assert item.texts == ("1", "2", "3")


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
        gazetteer=provider.gazetteer,
        mode="mock",
    )
    got = pipe.provide(data, 0.5, seed=SPEC.seed)
    want = provider.provide(data, 0.5, seed=SPEC.seed)
    assert [a.context for a in got] == [a.context for a in want]
    assert gw.transport_calls == 0


def test_pipeline_provider_parse_error_names_instance(tmp_path, corpus, provider):
    data = corpus["dev"]
    mocks = provider.mock_completions(data, 0.5, seed=SPEC.seed)
    bad_id = data.instances[3].id
    mocks[bad_id] = " total nonsense with no blocks"
    gw = Gateway(tmp_path / "cache.jsonl", mock_completions=mocks)
    pipe = PipelineProvider(
        gateway=gw,
        demos=provider.demonstrations(corpus["train"]),
        gazetteer=provider.gazetteer,
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


def test_pipeline_provider_requires_demos(tmp_path):
    with pytest.raises(HarnessError, match="demonstration"):
        PipelineProvider(gateway=Gateway(tmp_path / "c.jsonl"), demos=[])


def test_run_experiment_ftc(corpus, provider, tmp_path):
    report = run_experiment(small_config(), corpus, provider, workdir=tmp_path)
    assert report.metrics["accuracy"] >= 0.9
    assert report.metrics["n"] == 24
    assert report.budget is not None
    assert abs(report.budget["budget"] - 0.5) < 1e-12
    assert report.budget["formatted"] == "50.0%"
    assert report.ftcr is None
    assert report.provenance["config_digest"] == config_digest(small_config())
    assert (tmp_path / "model-seed0.npz").exists()
    assert (tmp_path / "report-seed0.json").exists()
    on_disk = json.loads((tmp_path / "report-seed0.json").read_text())
    assert on_disk["metrics"]["accuracy"] == report.metrics["accuracy"]


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


def test_run_representation_compare(corpus, provider):
    out = run_representation_compare(small_config(max_epochs=6), corpus, provider)
    assert set(out) == {METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS}
    # every method runs at the same realized corpus budget
    for report in out.values():
        assert abs(report.budget["budget"] - 0.5) < 1e-9
    assert out[METHOD_RANDOM_SPAN].config["method"] == METHOD_RANDOM_SPAN


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
