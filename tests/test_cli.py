import argparse
import io
import json
import logging
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privqa import cli, harness, scorer
from privqa.corpus import (
    Dataset,
    DatasetFormatError,
    QAInstance,
    load_augmented,
    load_dataset,
    write_augmented,
    write_dataset,
)
from privqa.gateway import GenerationRecord
from privqa.harness import (
    ExperimentConfig,
    HarnessError,
    PipelineProvider,
    accuracy,
    predict_labels,
)
from privqa.keywords import (
    ExtractionError,
    KeywordSet,
    corpus_budget_report,
    load_keyword_sets,
    save_keyword_sets,
    stable_seed,
)
from privqa.promptkit import render_block
from privqa.scorer import FeaturizerConfig, ScorerModel, save_model
from privqa.synthetic import (
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    filler_tokens,
    gazetteer_tokens,
)
from tests.test_harness import contexts_alive_in_training
from tests.test_scorer import read_checkpoint, save_dense, write_checkpoint

SPEC = SyntheticSpec(seed=5, train_size=60, dev_size=24, test_size=24)

FAST = [
    "--dim", "16384",
    "--max-epochs", "10",
    "--warmup-steps", "20",
    "--patience", "3",
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = build_corpus(SPEC)
    provider = SyntheticContextProvider(SPEC)
    for split, ds in corpus.items():
        write_dataset(ds, root / f"data-{split}.jsonl")
        mocks = provider.mock_completions(ds, 1.0, seed=0)
        (root / f"completions-{split}.json").write_text(
            json.dumps(mocks), encoding="utf-8"
        )
        save_keyword_sets(provider.keyword_map(ds, 1.0, seed=0), root / f"kw-{split}.jsonl")
    (root / "gazetteer.txt").write_text(
        "\n".join(gazetteer_tokens(SPEC)) + "\n", encoding="utf-8"
    )
    demos = provider.demonstrations(corpus["train"], count=2)
    (root / "demos.txt").write_text(
        "\n\n".join(render_block(d.keywords, d.choices, d.context) for d in demos) + "\n",
        encoding="utf-8",
    )
    return {"root": root, "corpus": corpus, "provider": provider}


def run(argv):
    return cli.main([str(a) for a in argv])


def test_full_pipeline(ws, capsys):
    root: Path = ws["root"]

    # keywords for each split
    for split in ("train", "dev", "test"):
        code = run(
            [
                "extract",
                "--data", root / f"data-{split}.jsonl",
                "--method", "NER",
                "--gazetteer", root / "gazetteer.txt",
                "--output", root / f"kw-{split}.jsonl",
            ]
        )
        assert code == 0
    out = capsys.readouterr().out
    assert "60/60" in out

    # corpus budget: half of every question is disclosed
    assert run(["budget", "--data", root / "data-train.jsonl", "--keywords", root / "kw-train.jsonl"]) == 0
    out = capsys.readouterr().out
    assert "privacy budget: 50.0%" in out
    assert "avg question words: 16.00" in out

    # prompt for one instance ends with the bare cue
    assert (
        run(
            [
                "prompt",
                "--data", root / "data-train.jsonl",
                "--keywords", root / "kw-train.jsonl",
                "--demos", root / "demos.txt",
                "--id", "syn-train-0000",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.rstrip("\n").endswith("Context:")
    assert out.count("Question Keywords:") == 3

    # generate contexts for each split through a mock gateway
    for split in ("train", "dev", "test"):
        code = run(
            [
                "generate",
                "--data", root / f"data-{split}.jsonl",
                "--keywords", root / f"kw-{split}.jsonl",
                "--demos", root / "demos.txt",
                "--cache", root / "cache.jsonl",
                "--mode", "mock",
                "--completions", root / f"completions-{split}.json",
                "--output", root / f"aug-{split}.jsonl",
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert len(load_augmented(root / "aug-train.jsonl")) == 60

    # train and evaluate
    assert (
        run(
            [
                "train",
                *FAST,
                "--train", root / "aug-train.jsonl",
                "--dev", root / "aug-dev.jsonl",
                "--checkpoint", root / "model.npz",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "best dev accuracy" in out

    assert (
        run(
            [
                "eval",
                *FAST,
                "--checkpoint", root / "model.npz",
                "--data", root / "aug-test.jsonl",
                "--report", root / "report.json",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "accuracy:" in out
    report = json.loads((root / "report.json").read_text(encoding="utf-8"))
    assert report["metrics"]["n"] == 24
    assert report["metrics"]["accuracy"] >= 0.8

    # summary table over saved reports
    assert run(["report", root / "report.json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("regime")


def test_eval_takes_featurizer_from_checkpoint(ws, tmp_path, capsys):
    provider = ws["provider"]
    for split in ("train", "dev", "test"):
        write_augmented(
            provider.provide(ws["corpus"][split], 1.0, seed=0)[0], tmp_path / f"aug-{split}.jsonl"
        )
    fast = [a for a in FAST if a not in ("--dim", "16384")]
    model = tmp_path / "model.npz"
    assert (
        run(
            [
                "train",
                *fast,
                "--dim", "4096",
                "--train", tmp_path / "aug-train.jsonl",
                "--dev", tmp_path / "aug-dev.jsonl",
                "--checkpoint", model,
            ]
        )
        == 0
    )
    report = tmp_path / "report.json"
    test_data = ["--checkpoint", model, "--data", tmp_path / "aug-test.jsonl"]
    assert run(["eval", *test_data, "--report", report]) == 0
    config = json.loads(report.read_text(encoding="utf-8"))["config"]
    assert (config["featurizer_dim"], config["hash_seed"]) == (4096, 17)
    # a flag that repeats the checkpoint's value changes nothing
    capsys.readouterr()
    assert run(["eval", *test_data, "--dim", "4096", "--report", tmp_path / "same.json"]) == 0
    assert (tmp_path / "same.json").read_bytes() == report.read_bytes()
    for flag, value in (("--dim", "128"), ("--hash-seed", "3")):
        capsys.readouterr()
        assert run(["eval", *test_data, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"{flag} {value}" in err and "4096" in err and "17" in err


def test_checkpoint_is_written_at_the_path_given(ws, tmp_path, capsys):
    aug = tmp_path / "aug.jsonl"
    write_augmented(ws["provider"].provide(ws["corpus"]["dev"], 1.0, seed=0)[0], aug)
    model = tmp_path / "model.ckpt"
    train = ["train", *FAST, "--max-epochs", "2", "--train", aug, "--dev", aug]
    assert run([*train, "--checkpoint", model]) == 0
    assert f"-> {model}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aug.jsonl", "model.ckpt"]
    assert run(["eval", "--checkpoint", model, "--data", aug]) == 0
    assert "accuracy:" in capsys.readouterr().out


def test_train_command_holds_no_context_in_training(ws, tmp_path, capsys, monkeypatch):
    aug = tmp_path / "aug.jsonl"
    write_augmented(ws["provider"].provide(ws["corpus"]["dev"], 0.5, seed=0)[0], aug)
    alive = contexts_alive_in_training(monkeypatch)
    train = ["train", *FAST, "--max-epochs", "1", "--regime", "FTCR", "--train", aug, "--dev", aug]
    assert run([*train, "--checkpoint", tmp_path / "model.npz"]) == 0
    assert alive == [0]
    # the FTCR section comes back from training and is printed
    assert "training instances" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_pipeline_run_without_sources_is_user_error(ws, capsys, command):
    root = ws["root"]
    code = run([command, "--data-train", root / "data-train.jsonl", "--demos", root / "demos.txt"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--data-dev --data-test --cache" in err and "--synthetic" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_pipeline_run_rejects_live_mode_first(tmp_path, capsys, command):
    # none of the named files exists: the mode is refused before anything is read
    missing = tmp_path / "missing.jsonl"
    argv = [command, "--mode", "live", "--demos", tmp_path / "missing.txt", "--cache", missing]
    for split in ("train", "dev", "test"):
        argv += [f"--data-{split}", missing]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "privqa generate --mode live --api-url URL" in err and "--mode replay" in err
    assert not missing.exists()


def test_compare_sft_is_user_error(capsys):
    argv = ["compare", "--synthetic", "--regime", "SFT", "--train-size", "8"]
    assert run(argv + ["--dev-size", "4", "--test-size", "4"]) == 1
    assert "needs a context regime" in capsys.readouterr().err


def test_sweep_sft_is_user_error(capsys, tmp_path):
    # every ratio would train the same context-free model
    argv = ["sweep", "--synthetic", "--regime", "SFT", "--train-size", "8", "--out", tmp_path / "out"]
    assert run(argv + ["--dev-size", "4", "--test-size", "4"]) == 1
    assert "budget sweep needs a context regime, not SFT" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_command(ws, capsys):
    root: Path = ws["root"]
    provider = ws["provider"]
    data = ws["corpus"]["dev"]
    kmap = provider.keyword_map(data, 1.0, seed=0)
    raw = root / "raw.jsonl"
    with raw.open("w", encoding="utf-8") as fh:
        for inst in data.instances:
            fh.write(
                json.dumps(
                    {"id": inst.id, "completion": provider.completion_for(inst, kmap[inst.id])}
                )
                + "\n"
            )
    assert (
        run(
            [
                "parse",
                "--input", raw,
                "--data", root / "data-dev.jsonl",
                "--output", root / "aug-parsed.jsonl",
            ]
        )
        == 0
    )
    capsys.readouterr()
    parsed = load_augmented(root / "aug-parsed.jsonl")
    assert len(parsed) == 24
    want, _ = provider.provide(data, 1.0, seed=0)
    assert [a.context for a in parsed] == [a.context for a in want]


def test_parse_unknown_id(ws, capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "ghost", "completion": "x"}) + "\n", encoding="utf-8")
    code = run(
        [
            "parse",
            "--input", raw,
            "--data", ws["root"] / "data-dev.jsonl",
            "--output", tmp_path / "out.jsonl",
        ]
    )
    assert code == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [("[1]", "record is not an object"), ("{not json", "invalid JSON")],
    ids=["not-object", "not-json"],
)
def test_parse_malformed_line_is_user_error(ws, capsys, tmp_path, line, message):
    raw = tmp_path / "raw.jsonl"
    good = json.dumps({"id": ws["corpus"]["dev"].instances[0].id, "completion": "x"})
    raw.write_text("\n" + line + "\n" + good + "\n", encoding="utf-8")
    code = run(
        [
            "parse",
            "--input", raw,
            "--data", ws["root"] / "data-dev.jsonl",
            "--output", tmp_path / "out.jsonl",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{raw}:2:" in err and message in err


def test_eval_malformed_augmented_is_user_error(ws, capsys, tmp_path):
    aug = tmp_path / "aug.jsonl"
    provider = ws["provider"]
    augmented, _ = provider.provide(ws["corpus"]["dev"], 1.0, seed=0)
    write_augmented(augmented[:2], aug)
    lines = aug.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    rec["context"] = "flat text"
    lines[0] = json.dumps(rec)
    aug.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = tmp_path / "model.npz"
    save_model(ScorerModel.zeros(FeaturizerConfig(dim=16384)), model)
    code = run(["eval", "--checkpoint", model, "--data", aug])
    assert code == 1
    assert f"{aug}:1:" in capsys.readouterr().err


def test_eval_duplicate_augmented_id_is_user_error(ws, capsys, tmp_path):
    aug = tmp_path / "aug.jsonl"
    augmented, _ = ws["provider"].provide(ws["corpus"]["dev"], 1.0, seed=0)
    write_augmented(augmented + augmented[:1], aug)
    model = tmp_path / "model.npz"
    save_model(ScorerModel.zeros(FeaturizerConfig(dim=16384)), model)
    code = run(["eval", "--checkpoint", model, "--data", aug])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{aug}:{len(augmented) + 1}:" in err
    assert repr(augmented[0].instance.id) in err


def _generate_mock(root, split, cache, output, keywords=None):
    return run(
        [
            "generate",
            "--data", root / f"data-{split}.jsonl",
            "--keywords", keywords or root / f"kw-{split}.jsonl",
            "--demos", root / "demos.txt",
            "--cache", cache,
            "--mode", "mock",
            "--completions", root / f"completions-{split}.json",
            "--output", output,
        ]
    )


def test_generate_mock_writes_reproducible_cache(ws, tmp_path, capsys):
    root = ws["root"]
    for run_dir in ("a", "b"):
        (tmp_path / run_dir).mkdir()
        out = tmp_path / run_dir
        assert _generate_mock(root, "dev", out / "cache.jsonl", out / "aug.jsonl") == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "cache.jsonl").read_bytes()
    assert first == (tmp_path / "b" / "cache.jsonl").read_bytes()
    assert (tmp_path / "a" / "aug.jsonl").read_bytes() == (tmp_path / "b" / "aug.jsonl").read_bytes()
    lines = [json.loads(line) for line in first.decode("utf-8").splitlines()]
    assert len(lines) == len(ws["corpus"]["dev"])
    assert [line["summary"]["query_id"] for line in lines] == [
        inst.id for inst in ws["corpus"]["dev"].instances
    ]
    assert all("timestamp" not in line for line in lines)


def test_generate_missing_keywords_sends_nothing(ws, tmp_path, capsys):
    root = ws["root"]
    kmap = load_keyword_sets(root / "kw-dev.jsonl")
    last = ws["corpus"]["dev"].instances[-1].id
    del kmap[last]
    save_keyword_sets(kmap, tmp_path / "kw.jsonl")
    cache = tmp_path / "cache.jsonl"
    code = _generate_mock(root, "dev", cache, tmp_path / "aug.jsonl", keywords=tmp_path / "kw.jsonl")
    assert code == 1
    assert f"no keywords for instance {last!r}" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize(
    "content",
    [
        [],
        {"config": {}, "metrics": {"n": 3}},
        {"config": [], "metrics": {"accuracy": 0.5, "n": 3}},
        {"config": {"ratio": "half"}, "metrics": {"accuracy": 0.5, "n": 3}},
        {"metrics": {"accuracy": 0.5, "n": 3}, "budget": {"budget": 0.5}},
    ],
    ids=["list", "no-accuracy", "config-list", "ratio-string", "budget-unformatted"],
)
def test_report_malformed_file_is_user_error(capsys, tmp_path, content):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert run(["report", path]) == 1
    assert str(path) in capsys.readouterr().err


REPORT = {
    "config": {"regime": "FTC", "view": "Full", "method": "NER", "ratio": 0.5},
    "metrics": {"accuracy": 0.5, "n": 4, "n_correct": 2},
    "budget": {"budget": 0.25, "formatted": "25.0%"},
}


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        # printed as 100.00%, nan%, x and 1
        ("metrics", "accuracy", True, "field 'metrics.accuracy': expected a finite number, got true"),
        ("metrics", "accuracy", float("nan"), "field 'metrics.accuracy': expected a finite number, got NaN"),
        ("metrics", "n", "x", 'field \'metrics.n\': expected an integer, got "x"'),
        ("config", "ratio", True, "field 'config.ratio': expected a finite number, got true"),
    ],
    ids=["accuracy-true", "accuracy-nan", "n-string", "ratio-true"],
)
def test_report_field_of_another_kind_is_user_error(capsys, tmp_path, section, key, value, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT), encoding="utf-8")
    assert run(["report", path]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split() == ["FTC", "Full", "NER", "0.5", "25.0%", "50.00%", "4"]
    bad = {**REPORT, section: {**REPORT[section], key: value}}
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert run(["report", path]) == 1
    captured = capsys.readouterr()
    assert f"error: {path}: {message}" in captured.err
    assert not captured.out


@pytest.mark.parametrize("method", ["NER", "RandomSpan"])
@pytest.mark.parametrize("question", ["", " \t "])
def test_extract_refuses_a_question_without_a_word(ws, capsys, tmp_path, method, question):
    # NER wrote an empty keyword set, and RandomSpan failed naming no file or instance
    lines = (ws["root"] / "data-dev.jsonl").read_text(encoding="utf-8").splitlines()
    rec = {**json.loads(lines[1]), "question": question}
    data, out = tmp_path / "data.jsonl", tmp_path / "kw.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n", encoding="utf-8")
    gazetteer = ws["root"] / "gazetteer.txt"
    argv = ["extract", "--data", data, "--method", method, "--gazetteer", gazetteer]
    assert run([*argv, "--output", out]) == 1
    message = f"error: {data}:2: instance {rec['id']!r}: field 'question': expected a string with"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "raw, line",
    [(b'{\n  metrics: 1}\n', 2), (b'{"metrics":\n {"n": "\xff"}}\n', 2)],
    ids=["not-json", "not-utf8"],
)
def test_report_unreadable_file_names_file_and_line(capsys, tmp_path, raw, line):
    path = tmp_path / "report.json"
    path.write_bytes(raw)
    assert run(["report", path]) == 1
    assert f"error: {path}:{line}: " in capsys.readouterr().err


def test_dataset_not_utf8_names_file_and_line(ws, capsys, tmp_path):
    good = (ws["root"] / "data-dev.jsonl").read_bytes().splitlines(keepends=True)
    path = tmp_path / "data.jsonl"
    path.write_bytes(good[0] + b'{"id": "caf\xe9"}\n')
    keywords = ws["root"] / "kw-dev.jsonl"
    assert run(["budget", "--data", path, "--keywords", keywords]) == 1
    assert f"error: {path}:2: not UTF-8 text" in capsys.readouterr().err


def test_corrupt_checkpoint_is_user_error(ws, capsys, tmp_path):
    checkpoint = tmp_path / "model.npz"
    checkpoint.write_bytes(bytes(range(100)))
    data = ws["root"] / "data-test.jsonl"
    assert run(["eval", "--checkpoint", checkpoint, "--data", data]) == 1
    assert f"corrupt checkpoint {checkpoint}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--hash-seed", "-1", "hash_seed -1 outside [0, 2**64)"),
        ("--hash-seed", str(2**64), f"hash_seed {2**64} outside [0, 2**64)"),
        ("--dim", str(2**64), f"dim {2**64} outside [1, 2**63]"),
    ],
)
def test_featurizer_setting_out_of_range_is_user_error(capsys, flag, value, message):
    # the featurizer keys its hash with 8 bytes and keeps int64 indices
    assert run(["sweep", "--synthetic", "--train-size", "8", flag, value]) == 1
    assert f"error: featurizer {message}" in capsys.readouterr().err


def test_bad_sweep_ratio_fails_before_any_training(capsys, monkeypatch):
    trained, real = [], harness.train
    monkeypatch.setattr(harness, "train", lambda *args: trained.append(args) or real(*args))
    argv = ["sweep", "--synthetic", "--train-size", "8", "--dev-size", "8", "--test-size", "8"]
    assert run([*argv, "--max-epochs", "1", "--ratios", "0.5,1.5"]) == 1
    assert "error: ratio 1.5 outside [0, 1]" in capsys.readouterr().err
    assert not trained


@pytest.mark.parametrize(
    "ratios, message",
    [
        ("0.5,x", "--ratios: 'x' is not a number"),
        ("0.5,,1", "--ratios: '' is not a number"),
        ("", "--ratios: '' is not a number"),
        ("0.5,0.5000001", "--ratios: '0.5000001' and '0.5' would both write sweep-ratio0.5-seed0"),
        ("1,0.5,1.0", "--ratios: '1.0' and '1' would both write sweep-ratio1-seed0"),
    ],
)
def test_unreadable_sweep_ratios_fail_before_any_training(capsys, monkeypatch, tmp_path, ratios, message):
    trained, real = [], harness.train
    monkeypatch.setattr(harness, "train", lambda *args: trained.append(args) or real(*args))
    argv = ["sweep", "--synthetic", "--train-size", "8", "--dev-size", "8", "--test-size", "8"]
    assert run([*argv, "--max-epochs", "1", "--ratios", ratios, "--out", tmp_path / "out"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not trained
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "compare", "ood"])
@pytest.mark.parametrize(
    "sizes, split",
    [(("8", "8", "0"), "test"), (("-3", "8", "8"), "train"), (("8", "0", "8"), "dev")],
    ids=["test-0", "train-negative", "dev-0"],
)
def test_an_empty_split_fails_before_any_training(capsys, monkeypatch, command, sizes, split):
    trained, real = [], harness.train
    monkeypatch.setattr(harness, "train", lambda *args: trained.append(args) or real(*args))
    flags = zip(("--train-size", "--dev-size", "--test-size"), sizes)
    argv = [command, "--synthetic", *(a for flag in flags for a in flag), "--max-epochs", "1"]
    assert run(argv) == 1
    assert f"error: dataset split {split!r} has no instances" in capsys.readouterr().err
    assert not trained


def test_sweep_ratios_from_a_config_file_must_be_a_string(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ratios": [0.5, 1.0]}), encoding="utf-8")
    assert run(["sweep", "--synthetic", "--train-size", "8", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}: field 'ratios': expected a string, got [0.5, 1.0]" in err


def test_bad_setting_fails_before_any_file_is_read(capsys, tmp_path):
    missing = [tmp_path / "train.jsonl", tmp_path / "dev.jsonl"]
    argv = ["train", "--train", missing[0], "--dev", missing[1], "--checkpoint", tmp_path / "m.npz"]
    assert run([*argv, "--hash-seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error: featurizer hash_seed -1 outside [0, 2**64)" in err
    assert "cannot read" not in err


def test_train_and_eval_at_a_dim_too_large_to_hold_densely(ws, tmp_path, monkeypatch):
    # a full-dim weight vector at dim 2**63 would take 2**66 bytes; the model
    # and its checkpoint hold only the support
    aug, checkpoint, report = tmp_path / "aug.jsonl", tmp_path / "model.npz", tmp_path / "r.json"
    write_augmented(ws["provider"].provide(ws["corpus"]["dev"], 1.0, seed=0)[0], aug)
    trained = []

    def keep(model, path):
        trained.append(model)
        save_model(model, path)

    monkeypatch.setattr(cli, "save_model", keep)
    train = ["train", *FAST[2:], "--max-epochs", "2", "--train", aug, "--dev", aug]
    assert run([*train, "--dim", str(2**63), "--checkpoint", checkpoint]) == 0
    assert run(["eval", "--checkpoint", checkpoint, "--data", aug, "--report", report]) == 0
    [model] = trained
    assert model.featurizer.dim == 2**63 and model.indices.size
    preds, gold = predict_labels(model, ExperimentConfig(featurizer_dim=2**63), load_augmented(aug))
    written = json.loads(report.read_text(encoding="utf-8"))
    assert written["config"]["featurizer_dim"] == 2**63
    assert written["predictions"] == preds
    assert written["metrics"]["accuracy"] == accuracy(preds, gold)


def test_dense_and_support_checkpoints_give_identical_reports(ws, tmp_path, capsys):
    # a checkpoint written by older versions holds the full-dim weights
    aug = tmp_path / "aug.jsonl"
    write_augmented(ws["provider"].provide(ws["corpus"]["dev"], 0.5, seed=0)[0], aug)
    support, dense = tmp_path / "support.npz", tmp_path / "dense.npz"
    train = ["train", *FAST, "--max-epochs", "2", "--train", aug, "--dev", aug]
    assert run([*train, "--checkpoint", support]) == 0
    meta, arrays = read_checkpoint(support)
    assert sorted(arrays) == ["bias", "indices", "values"]
    save_dense(scorer.load_model(support), dense)
    reports = []
    for checkpoint in (support, dense):
        capsys.readouterr()
        report = checkpoint.with_suffix(".json")
        assert run(["eval", "--checkpoint", checkpoint, "--data", aug, "--report", report]) == 0
        reports.append((capsys.readouterr().out.splitlines()[0], report.read_bytes()))
    assert reports[0] == reports[1]


def test_checkpoint_with_out_of_range_hash_seed_is_user_error(ws, capsys, tmp_path):
    checkpoint = tmp_path / "model.npz"
    meta = {"dim": 16, "hash_seed": -1, "ngram_orders": [1, 2], "lowercase": True}
    np.savez(
        checkpoint,
        weights=np.zeros(16),
        bias=np.float64(0.0),
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
    )
    data = ws["root"] / "data-test.jsonl"
    assert run(["eval", "--checkpoint", checkpoint, "--data", data]) == 1
    err = capsys.readouterr().err
    assert f"corrupt checkpoint {checkpoint}: featurizer hash_seed -1 outside" in err


def test_checkpoint_with_non_finite_weights_is_user_error(ws, capsys, tmp_path):
    # loaded, it would answer the first label for every instance
    checkpoint = tmp_path / "model.npz"
    meta = {"dim": 4096, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True}
    np.savez(
        checkpoint,
        weights=np.full(4096, np.nan),
        bias=np.float64(np.inf),
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
    )
    data = ws["root"] / "data-test.jsonl"
    assert run(["eval", "--checkpoint", checkpoint, "--data", data]) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}: weight at index 0 is nan, not finite" in err


@pytest.mark.parametrize(
    "weights, bias, message",
    [
        (np.zeros(16), np.str_("1.5"), "array 'bias' has dtype <U3"),
        (np.arange(16) % 2 == 0, np.float64(0.0), "array 'weights' has dtype bool"),
        (np.arange(16, dtype=np.int64), np.float64(0.0), "array 'weights' has dtype int64"),
        (np.full(16, 1 + 2j), np.float64(0.0), "array 'weights' has dtype complex128"),
    ],
    ids=["str-bias", "bool", "int64", "complex"],
)
def test_checkpoint_array_of_another_dtype_is_user_error(ws, capsys, tmp_path, weights, bias, message):
    # each used to load converted to float64: "1.5" as 1.5, a complex weight as its real part
    aug = tmp_path / "aug.jsonl"
    write_augmented(ws["provider"].provide(ws["corpus"]["test"], 1.0, seed=0)[0], aug)
    checkpoint = tmp_path / "model.npz"
    meta = {"dim": 16, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True}
    np.savez(checkpoint, weights=weights, bias=bias, meta=np.bytes_(json.dumps(meta).encode("utf-8")))
    assert run(["eval", "--checkpoint", checkpoint, "--data", aug]) == 1
    assert f"error: checkpoint {checkpoint}: {message}, not float64" in capsys.readouterr().err


# a dim-16 checkpoint in the layout `save_model` writes, with three support weights
META_16 = {"dim": 16, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True}
SUPPORT = {"indices": np.array([3, 5, 9]), "values": np.array([0.5, -1.0, 2.0]), "bias": np.float64(0)}


def _eval_refuses(ws, capsys, checkpoint, arrays, message):
    write_checkpoint(checkpoint, META_16, arrays)
    assert run(["eval", "--checkpoint", checkpoint, "--data", ws["root"] / "data-test.jsonl"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_checkpoint_support_loads(tmp_path):
    checkpoint = tmp_path / "model.npz"
    write_checkpoint(checkpoint, META_16, SUPPORT)
    model = scorer.load_model(checkpoint)
    assert model.weights.tolist() == [0.0] * 3 + [0.5, 0.0, -1.0] + [0.0] * 3 + [2.0] + [0.0] * 6


@pytest.mark.parametrize(
    "name, array, dtype",
    [
        ("indices", np.array([3, 5, 9], dtype=np.int32), "int32"),
        ("indices", np.array([3, 5, 9], dtype=np.uint64), "uint64"),
        ("indices", np.array([3.0, 5.0, 9.0]), "float64"),
        ("values", np.array([1, 2, 3]), "int64"),
        ("values", np.array([0.5, -1.0, 2.0], dtype=np.float32), "float32"),
    ],
    ids=["int32-indices", "uint64-indices", "float-indices", "int-values", "float32-values"],
)
def test_checkpoint_support_of_another_dtype_is_user_error(ws, capsys, tmp_path, name, array, dtype):
    # converted, float or unsigned indices and int or float32 values would load
    checkpoint = tmp_path / "model.npz"
    want = "int64" if name == "indices" else "float64"
    message = f"checkpoint {checkpoint}: array {name!r} has dtype {dtype}, not {want}"
    _eval_refuses(ws, capsys, checkpoint, {**SUPPORT, name: array}, message)


@pytest.mark.parametrize(
    "indices, values, shape",
    [(np.array([[3, 5, 9]]), np.array([[0.5, -1.0, 2.0]]), (1, 3)), (np.int64(3), np.float64(1.0), ())],
    ids=["2-d", "0-d"],
)
def test_checkpoint_indices_not_1d_is_user_error(ws, capsys, tmp_path, indices, values, shape):
    checkpoint = tmp_path / "model.npz"
    message = f"checkpoint {checkpoint}: array 'indices' has shape {shape}, not 1-d"
    _eval_refuses(ws, capsys, checkpoint, {**SUPPORT, "indices": indices, "values": values}, message)


def test_checkpoint_values_not_the_length_of_indices_is_user_error(ws, capsys, tmp_path):
    # scoring gathers a weight by its index's position: one would go missing
    checkpoint = tmp_path / "model.npz"
    message = f"checkpoint {checkpoint}: array 'values' has shape (2,), not that of 'indices' (3,)"
    _eval_refuses(ws, capsys, checkpoint, {**SUPPORT, "values": np.array([0.5, -1.0])}, message)


@pytest.mark.parametrize("indices", [[3, 9, 5], [3, 5, 5]], ids=["decreasing", "repeated"])
def test_checkpoint_indices_not_strictly_increasing_is_user_error(ws, capsys, tmp_path, indices):
    # scoring looks an index up by binary search, which would miss one out of order
    checkpoint = tmp_path / "model.npz"
    message = f"checkpoint {checkpoint}: array 'indices' is not strictly increasing"
    _eval_refuses(ws, capsys, checkpoint, {**SUPPORT, "indices": np.array(indices)}, message)


@pytest.mark.parametrize("indices", [[-1, 5, 9], [3, 5, 16]], ids=["negative", "dim"])
def test_checkpoint_indices_outside_the_dim_is_user_error(ws, capsys, tmp_path, indices):
    # no feature of a dim-16 featurizer has such an index, so its weight would never score
    checkpoint = tmp_path / "model.npz"
    message = (
        f"checkpoint {checkpoint}: array 'indices' spans [{indices[0]}, {indices[-1]}],"
        " outside [0, 16) of dim 16"
    )
    _eval_refuses(ws, capsys, checkpoint, {**SUPPORT, "indices": np.array(indices)}, message)


@pytest.mark.parametrize(
    "names",
    [["indices"], ["values"], [], ["indices", "values", "weights"]],
    ids=["indices-alone", "values-alone", "bias-alone", "both-layouts"],
)
def test_checkpoint_of_neither_layout_is_corrupt(ws, capsys, tmp_path, names):
    checkpoint = tmp_path / "model.npz"
    arrays = {**SUPPORT, "weights": np.zeros(16)}
    message = (
        f"corrupt checkpoint {checkpoint}: arrays {names}:"
        " neither 'weights' nor 'indices' and 'values'"
    )
    _eval_refuses(ws, capsys, checkpoint, {n: arrays[n] for n in ["bias", *names]}, message)


def test_checkpoint_of_either_byte_order_loads(tmp_path):
    model = ScorerModel.from_weights(np.linspace(-1, 1, 16), 0.25, FeaturizerConfig(dim=16))
    path = tmp_path / "model.npz"
    for save in (save_model, save_dense):
        save(model, path)
        meta, arrays = read_checkpoint(path)
        swapped = {name: a.astype(a.dtype.newbyteorder(">")) for name, a in arrays.items()}
        write_checkpoint(path, meta, swapped)
        loaded = scorer.load_model(path)
        assert loaded.bias == 0.25
        assert loaded.indices.dtype.isnative and loaded.values.dtype.isnative
        assert loaded.weights.tobytes() == model.weights.tobytes()


@pytest.mark.parametrize("key", ["dim", "hash_seed"])
def test_checkpoint_with_an_infinite_setting_is_user_error(ws, capsys, tmp_path, key):
    checkpoint = tmp_path / "model.npz"
    meta = {"dim": 16, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True, key: "INF"}
    meta_bytes = json.dumps(meta).replace('"INF"', "1e999").encode("utf-8")
    np.savez(checkpoint, weights=np.zeros(16), bias=np.float64(0.0), meta=np.bytes_(meta_bytes))
    data = ws["root"] / "data-test.jsonl"
    assert run(["eval", "--checkpoint", checkpoint, "--data", data]) == 1
    err = capsys.readouterr().err
    assert f"corrupt checkpoint {checkpoint}: field {key!r}: expected an integer, got Infinity" in err


def test_keyword_file_not_utf8_names_file_and_line(ws, capsys, tmp_path):
    keywords = tmp_path / "kw.jsonl"
    keywords.write_bytes(b"\xff")
    data = ws["root"] / "data-train.jsonl"
    assert run(["budget", "--data", data, "--keywords", keywords]) == 1
    assert f"error: {keywords}:1: not UTF-8 text" in capsys.readouterr().err


def test_gazetteer_not_utf8_names_file_and_line(ws, capsys, tmp_path):
    gazetteer = tmp_path / "gazetteer.txt"
    gazetteer.write_bytes(b"# terms\ntok000\ntok\xff002\n")
    data = ws["root"] / "data-dev.jsonl"
    argv = ["extract", "--data", data, "--method", "NER", "--gazetteer", gazetteer]
    assert run([*argv, "--output", tmp_path / "kw.jsonl"]) == 1
    assert f"error: {gazetteer}:3: not UTF-8 text" in capsys.readouterr().err


def test_demos_not_utf8_names_file_and_line(ws, capsys, tmp_path):
    lines = (ws["root"] / "demos.txt").read_bytes().split(b"\n")
    lines[1] += b" \xe9"
    demos = tmp_path / "demos.txt"
    demos.write_bytes(b"\n".join(lines))
    root = ws["root"]
    argv = ["prompt", "--data", root / "data-train.jsonl", "--keywords", root / "kw-train.jsonl"]
    assert run([*argv, "--demos", demos, "--id", "syn-train-0000"]) == 1
    assert f"error: {demos}:2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["demos.txt", "missing/demos", "demos.md"])
def test_missing_demo_file_is_named(ws, capsys, tmp_path, name):
    # a value with a path separator or a suffix is a file, never a bundled name
    demos = tmp_path / name
    root = ws["root"]
    argv = ["prompt", "--data", root / "data-train.jsonl", "--keywords", root / "kw-train.jsonl"]
    assert run([*argv, "--demos", demos, "--id", "syn-train-0000"]) == 1
    assert f"error: {demos}: cannot read (No such file or directory)" in capsys.readouterr().err


def test_unknown_bundled_demo_name_is_named(ws, capsys):
    root = ws["root"]
    argv = ["prompt", "--data", root / "data-train.jsonl", "--keywords", root / "kw-train.jsonl"]
    assert run([*argv, "--demos", "nosuchset", "--id", "syn-train-0000"]) == 1
    assert "error: no bundled demonstrations named 'nosuchset'" in capsys.readouterr().err


def test_replay_skips_a_cache_line_that_is_not_utf8(ws, capsys, tmp_path):
    root, dev = ws["root"], ws["corpus"]["dev"]
    cache = tmp_path / "cache.jsonl"
    assert _generate_mock(root, "dev", cache, tmp_path / "primed.jsonl") == 0
    lines = cache.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"completion": "', b'"completion": "\xff', 1)
    cache.write_bytes(b"\n".join(lines))
    for inst, code in ((dev.instances[0], 0), (dev.instances[1], 1)):
        data = tmp_path / f"{inst.id}.jsonl"
        write_dataset(Dataset(name=dev.name, split=dev.split, instances=(inst,)), data)
        argv = ["generate", "--data", data, "--keywords", root / "kw-dev.jsonl"]
        argv += ["--demos", root / "demos.txt", "--cache", cache, "--mode", "replay"]
        capsys.readouterr()
        assert run([*argv, "--output", tmp_path / "aug.jsonl"]) == code
        assert ("no cached completion" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize(
    "field, value",
    [
        ("completion", ["Context: x\n(a): y\nTherefore, the answer is (a)."]),
        ("completion", None),
        ("generation_id", 7),
    ],
    ids=["completion-list", "completion-null", "generation-id-number"],
)
def test_parse_rejects_a_field_that_is_not_a_string(ws, capsys, tmp_path, field, value):
    inst = ws["corpus"]["dev"].instances[0]
    rec = {"id": inst.id, "completion": "x", field: value}
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n" + json.dumps(rec) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["parse", "--input", raw, "--data", ws["root"] / "data-dev.jsonl", "--output", out]) == 1
    assert f"error: {raw}:2: field {field!r}: expected a string, got " in capsys.readouterr().err
    assert not out.exists()


def _keyed_input(ws, kind, tmp_path):
    """For one keyed input: its first two record lines, a copy of the second that
    fails conversion, that failure's class and message, and the file's reader."""
    root, dev, provider = ws["root"], ws["corpus"]["dev"], ws["provider"]
    out = tmp_path / "out.jsonl"
    if kind == "dataset":
        lines = (root / "data-dev.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        bad = {**json.loads(lines[1]), "gold": "z"}
        return lines, bad, DatasetFormatError, f"instance {bad['id']!r}: gold 'z'", load_dataset
    if kind == "augmented":
        write_augmented(provider.provide(dev, 1.0, seed=0)[0][:2], out)
        lines = out.read_text(encoding="utf-8").splitlines()
        bad = json.loads(lines[1])
        del bad["context"]["specific"]["a"]
        message = f"instance {bad['id']!r}: specific contexts cover"
        return lines, bad, DatasetFormatError, message, load_augmented
    if kind == "keywords":
        lines = (root / "kw-dev.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        bad = json.loads(lines[1])
        bad["word_count"] += 1
        return lines, bad, ExtractionError, f"instance {bad['id']!r}: word_count", load_keyword_sets
    kmap = provider.keyword_map(dev, 1.0, seed=0)
    lines = [
        json.dumps({"id": inst.id, "completion": provider.completion_for(inst, kmap[inst.id])})
        for inst in dev.instances[:2]
    ]
    bad = {"id": dev.instances[1].id, "completion": "no context here"}

    def parse(path):
        data = str(root / "data-dev.jsonl")
        cli._cmd_parse(argparse.Namespace(data=data, input=str(path), output=str(out)))

    return lines, bad, HarnessError, f"instance {bad['id']!r}: ", parse


@pytest.mark.parametrize("kind", ["dataset", "augmented", "keywords", "parse"])
def test_keyed_inputs_share_one_record_rule(ws, tmp_path, kind):
    lines, bad, convert_error, message, read = _keyed_input(ws, kind, tmp_path)
    file_error = ExtractionError if kind == "keywords" else DatasetFormatError
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read(path)
    # a repeated id fails at the line that repeats it, in the file's own error class
    path.write_text(lines[0] + "\n" + lines[0] + "\n", encoding="utf-8")
    key = json.loads(lines[0])["id"]
    with pytest.raises(file_error, match=re.escape(f"{path}:2: duplicate id {key!r}")) as exc:
        read(path)
    assert type(exc.value) is file_error
    # a record's conversion error keeps its class and gains the file:line prefix
    path.write_text(lines[0] + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(convert_error, match=re.escape(f"{path}:2: {message}")) as exc:
        read(path)
    assert type(exc.value) is convert_error


def test_parse_rejects_a_repeated_id(ws, capsys, tmp_path):
    line = _keyed_input(ws, "parse", tmp_path)[0][0]
    raw, out = tmp_path / "raw.jsonl", tmp_path / "parsed.jsonl"
    raw.write_text(line + "\n" + line + "\n", encoding="utf-8")
    assert run(["parse", "--input", raw, "--data", ws["root"] / "data-dev.jsonl", "--output", out]) == 1
    assert f"error: {raw}:2: duplicate id" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_is_named(ws, capsys, tmp_path):
    missing = tmp_path / "missing"
    data, keywords = ws["root"] / "data-dev.jsonl", ws["root"] / "kw-dev.jsonl"
    extract = ["extract", "--data", data, "--method", "NER", "--output", tmp_path / "kw.jsonl"]
    for argv in (
        ["budget", "--data", missing, "--keywords", keywords],
        ["budget", "--data", data, "--keywords", missing],
        [*extract, "--gazetteer", missing],
    ):
        assert run(argv) == 1
        assert f"error: {missing}: cannot read (No such file or directory)" in capsys.readouterr().err


def test_ingest_command(tmp_path, capsys):
    src = tmp_path / "src.jsonl"
    rows = [
        {"question": "What pumps blood?", "options": {"A": "heart", "B": "bone"}, "answer_idx": "A"},
        {"question": "What holds air?", "options": {"A": "stone", "B": "lung"}, "answer_idx": "B"},
    ]
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    code = run(
        [
            "ingest",
            "--input", src,
            "--format", "medqa",
            "--dataset", "medqa",
            "--split", "test",
            "--output", tmp_path / "out.jsonl",
        ]
    )
    assert code == 0
    assert "ingested 2" in capsys.readouterr().out
    ds = load_dataset(tmp_path / "out.jsonl")
    assert ds.instances[0].gold == "a"
    assert ds.instances[1].gold == "b"


def test_missing_file_is_user_error(capsys):
    code = run(["budget", "--data", "/nonexistent/data.jsonl", "--keywords", "/nonexistent/kw.jsonl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_budget_rejects_a_keyword_file_with_a_wrong_word_count(ws, tmp_path, capsys):
    root = ws["root"]
    kmap = ws["provider"].keyword_map(ws["corpus"]["train"], 1.0, seed=0)
    save_keyword_sets(kmap, tmp_path / "kw.jsonl")
    lines = (tmp_path / "kw.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["word_count"] += 5  # would inflate the printed budget
    lines[1] = json.dumps(rec)
    (tmp_path / "kw.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run(["budget", "--data", root / "data-train.jsonl", "--keywords", tmp_path / "kw.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"kw.jsonl:2: instance {rec['id']!r}: word_count" in err


def test_internal_error_exit_code(ws, capsys, monkeypatch):
    def boom(path):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "load_dataset", boom)
    code = run(
        ["budget", "--data", ws["root"] / "data-train.jsonl", "--keywords", ws["root"] / "kw-train.jsonl"]
    )
    assert code == 2
    assert "wires crossed" in capsys.readouterr().err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["extract", "--data", "x", "--method", "Telepathy", "--output", "y"])
    assert exc.value.code == 1


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_extract_ner_needs_gazetteer(ws, capsys):
    code = run(
        [
            "extract",
            "--data", ws["root"] / "data-dev.jsonl",
            "--method", "NER",
            "--output", ws["root"] / "kw-x.jsonl",
        ]
    )
    assert code == 1
    assert "gazetteer" in capsys.readouterr().err


def test_sweep_synthetic(tmp_path, capsys):
    out = tmp_path / "reports"
    code = run(
        [
            "sweep",
            "--synthetic",
            "--train-size", "40",
            "--dev-size", "16",
            "--test-size", "16",
            *FAST,
            "--max-epochs", "6",
            "--ratios", "0.5,1.0",
            "--out", out,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "25.0%" in stdout and "50.0%" in stdout
    assert (out / "sweep-ratio0.5-seed0.json").exists()
    assert (out / "sweep-ratio1-seed0.json").exists()


def test_sweep_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes are salted per process, so set and dict order must never reach a report
    argv = [sys.executable, "-m", "privqa.cli", "sweep", "--synthetic", "--train-size", "60"]
    argv += ["--dev-size", "30", "--test-size", "30", "--dim", "4096", "--max-epochs", "2"]
    reports = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True, timeout=120, check=True)
        reports[hash_seed] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(reports["0"]) == 4
    assert reports["0"] == reports["12345"]


def test_ood_synthetic(capsys):
    code = run(
        [
            "ood",
            "--synthetic",
            "--train-size", "40",
            "--dev-size", "16",
            "--test-size", "16",
            "--target-seed", "9",
            *FAST,
            "--max-epochs", "6",
        ]
    )
    assert code == 0
    assert "FTC" in capsys.readouterr().out


def test_compare_synthetic(tmp_path, capsys):
    out = tmp_path / "reports"
    code = run(
        [
            "compare",
            "--synthetic",
            "--train-size", "40",
            "--dev-size", "16",
            "--test-size", "16",
            *FAST,
            "--max-epochs", "6",
            "--out", out,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    for method in ("NER", "RandomSpan", "RandomWords"):
        assert method in stdout
        assert (out / f"compare-{method}-seed0.json").exists()


def test_config_file_fills_unset_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-epochs": 3, "seed": 0, "unrelated": 1}), encoding="utf-8")
    args = argparse.Namespace(config=str(cfg), max_epochs=None, seed=7)
    cli._apply_config_file(args)
    assert args.max_epochs == 3
    # explicit values are never overridden
    assert args.seed == 7


@pytest.mark.parametrize(
    "key, flag",
    [
        ("featurizer_dim", "dim"),
        ("early_stop_patience", "patience"),
        ("early-stop-patience", "patience"),
        ("model_id", "model"),
        ("cache_path", "cache"),
        ("demo_file", "demos"),
        ("gazetteer_file", "gazetteer"),
    ],
)
def test_config_file_rejects_report_field_names(tmp_path, capsys, key, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}), encoding="utf-8")
    args = argparse.Namespace(config=str(cfg), dim=None, patience=None)
    with pytest.raises(cli.HarnessError, match=f"{key!r}.*use {flag!r}"):
        cli._apply_config_file(args)
    assert run(["sweep", "--synthetic", "--config", cfg]) == 1
    assert repr(key) in capsys.readouterr().err


def test_config_file_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    args = argparse.Namespace(config=str(cfg))
    with pytest.raises(cli.HarnessError, match="object"):
        cli._apply_config_file(args)


def test_config_file_via_command_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "train-size": 30,
                "dev-size": 12,
                "test-size": 12,
                "max-epochs": 4,
                "warmup-steps": 10,
                "dim": 16384,
                "ratios": "1.0",
            }
        ),
        encoding="utf-8",
    )
    code = run(["sweep", "--synthetic", "--config", cfg])
    assert code == 0
    assert "50.0%" in capsys.readouterr().out


def test_generate_replay_miss_is_user_error(ws, capsys, tmp_path):
    code = run(
        [
            "generate",
            "--data", ws["root"] / "data-dev.jsonl",
            "--keywords", ws["root"] / "kw-dev.jsonl",
            "--demos", ws["root"] / "demos.txt",
            "--cache", tmp_path / "empty-cache.jsonl",
            "--mode", "replay",
            "--output", tmp_path / "aug.jsonl",
        ]
    )
    assert code == 1
    assert "no cached completion" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [["a completion"], {"syn-dev-0000": 5}, "a completion"],
    ids=["list", "non-string-value", "bare-string"],
)
@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_malformed_completions_is_user_error(ws, tmp_path, capsys, command, content):
    root = ws["root"]
    bad = tmp_path / "completions.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    mock = [
        "--demos", root / "demos.txt",
        "--cache", tmp_path / "cache.jsonl",
        "--mode", "mock",
        "--completions", bad,
    ]
    if command == "generate":
        data = [
            "--data", root / "data-dev.jsonl",
            "--keywords", root / "kw-dev.jsonl",
            "--output", tmp_path / "aug.jsonl",
        ]
    else:
        data = [
            arg
            for split in ("train", "dev", "test")
            for arg in (f"--data-{split}", root / f"data-{split}.jsonl")
        ] + ["--gazetteer", root / "gazetteer.txt"]
    assert run([command, *data, *mock]) == 1
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("method", "bogus", "method"),
        ("mode", "bogus", "mode"),
        ("batch-size", 0, "batch_size"),
        ("max-epochs", 0, "max_epochs"),
        ("patience", 0, "early_stop_patience"),
        ("dim", 0, "featurizer_dim"),
        ("warmup-steps", -1, "warmup_steps"),
        ("weight-decay", -0.5, "weight_decay"),
        ("weight-decay", float("inf"), "weight_decay"),
        ("learning-rate", 0, "learning_rate"),
        ("learning-rate", "nan", "learning_rate"),
        ("batch-size", "eight", "batch_size"),
        # a value must have its field's type exactly
        ("dim", 3.5, "featurizer_dim"),
        ("dim", True, "featurizer_dim"),
        ("learning-rate", True, "learning_rate"),
        ("seed", False, "seed"),
        ("model", 5, "model_id"),
        # so must a value for a flag outside the config, named by its key
        ("dev_size", "abc", "dev_size"),
        ("dev-size", 1.5, "dev-size"),
        ("test_size", True, "test_size"),
        ("out", 3, "out"),
        ("data-train", 3, "data-train"),
    ],
)
def test_bad_config_field_is_user_error(tmp_path, capsys, key, value, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    code = run(["sweep", "--synthetic", "--train-size", "8", "--config", cfg])
    assert code == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["ood", "--synthetic"], "target_seed", "x"),
        (["sweep"], "synthetic", 1),
        (["sweep"], "synthetic", "true"),
    ],
)
def test_bad_source_flag_in_config_is_user_error(tmp_path, capsys, argv, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run([*argv, "--config", cfg]) == 1
    assert f"error: {cfg}: field {key!r}: expected " in capsys.readouterr().err


def test_config_file_can_choose_the_synthetic_corpus(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    options = {"synthetic": True, "train-size": 8.0, "dev-size": 8, "test-size": 8}
    cfg.write_text(json.dumps({**options, "max-epochs": 1, "ratios": "1.0"}), encoding="utf-8")
    assert run(["sweep", "--config", cfg]) == 0
    # one ratio, scored on the 8 synthetic test questions
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "8"


def test_config_whole_numbers_convert_exactly():
    args = argparse.Namespace(dim=4096.0, learning_rate=1, seed=3)
    cfg = cli._experiment_config(args)
    assert (cfg.featurizer_dim, cfg.learning_rate, cfg.seed) == (4096, 1.0, 3)
    assert (type(cfg.featurizer_dim), type(cfg.learning_rate)) == (int, float)


@pytest.mark.parametrize("flag", ["--regime", "--view", "--method", "--mode"])
def test_bad_flag_value_is_user_error(capsys, flag):
    # flags and config files go through the same ExperimentConfig check
    assert run(["sweep", "--synthetic", "--train-size", "8", flag, "bogus"]) == 1
    assert f"unknown {flag[2:]} 'bogus'" in capsys.readouterr().err


def test_unmatched_question_discloses_nothing(ws, tmp_path, capsys):
    # filler tokens are never gazetteer terms, so this question has no match
    inst = QAInstance(
        id="nomatch",
        question=" ".join(filler_tokens(SPEC)[:16]),
        choices={"a": "tok001", "b": "tok003", "c": "tok005", "d": "tok007"},
        gold="a",
        meta={"key": "tok000"},
    )
    data = Dataset(name="synthetic", split="dev", instances=(inst,))
    write_dataset(data, tmp_path / "data.jsonl")
    code = run(
        [
            "extract",
            "--data", tmp_path / "data.jsonl",
            "--method", "NER",
            "--gazetteer", ws["root"] / "gazetteer.txt",
            "--ratio", "0.5",
            "--output", tmp_path / "kw.jsonl",
        ]
    )
    assert code == 0
    assert "0/1" in capsys.readouterr().out

    oracle = ws["provider"]
    prompts = []

    class RecordingGateway:
        def complete(self, request, mode):
            prompts.append(request.prompt.text)
            completion = oracle.completion_for(inst, KeywordSet((), "NER", 1.0, 0, (), 0))
            return GenerationRecord("key", completion, mode)

        def stream(self, requests, mode):
            for request in requests:
                yield self.complete(request, mode)

    pipe = PipelineProvider(
        RecordingGateway(),
        oracle.demonstrations(ws["corpus"]["train"]),
        gazetteer=gazetteer_tokens(SPEC),
    )
    from_cli = load_keyword_sets(tmp_path / "kw.jsonl")["nomatch"]
    for provider in (pipe, oracle):
        ks = provider.keyword_map(data, 0.5, seed=0)["nomatch"]
        assert ks == from_cli
        assert ks.keywords == () and ks.word_count == 0
        assert corpus_budget_report(data, {"nomatch": ks}).budget == 0.0
        [aug], kmap = provider.provide(data, 0.5, seed=0)
        assert kmap == {"nomatch": ks}
        assert aug.instance == inst
    # the prompt's query block carries only the answers
    assert prompts == [prompts[0]]
    assert prompts[0].endswith("\n\n" + render_block((), inst.choices))


def test_ood_without_synthetic_names_the_file_path(capsys):
    # over files, an out-of-domain run is `train` on the source, then `eval` on the target
    (commands,) = [
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {flag for a in commands["ood"]._actions for flag in a.option_strings}
    assert not flags & {"--train", "--dev", "--target", "--checkpoint"}
    assert run(["ood", *FAST]) == 1
    err = capsys.readouterr().err
    assert "--synthetic" in err and err.index("privqa train") < err.index("privqa eval")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ood", "--synthetic", "--dev", "8"], "--dev"),  # once bound to --dev-size
        (["ood", "--train", "x.jsonl"], "--train"),  # once bound to --train-size
    ],
)
def test_a_flag_must_be_spelled_in_full(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} " in err



def _unmatched_data(path: Path) -> Path:
    # filler tokens are never gazetteer terms, so no question matches
    instances = tuple(
        QAInstance(
            id=f"nomatch{i}",
            question=" ".join(filler_tokens(SPEC)[i : i + 12]),
            choices={"a": "tok001", "b": "tok003", "c": "tok005", "d": "tok007"},
            gold="a",
            meta={"key": "tok000"},
        )
        for i in range(2)
    )
    write_dataset(Dataset(name="synthetic", split="dev", instances=instances), path)
    return path


@pytest.mark.parametrize("method", ["NER", "RandomSpan"])
@pytest.mark.parametrize("ratio", ["1.5", "-0.5", "nan"])
@pytest.mark.parametrize("records", [True, False], ids=["unmatched", "empty"])
def test_extract_checks_the_ratio_before_any_question(ws, tmp_path, capsys, method, ratio, records):
    data = tmp_path / "data.jsonl"
    if records:
        _unmatched_data(data)
    else:
        data.write_text("", encoding="utf-8")
    argv = ["extract", "--data", data, "--method", method, "--ratio", ratio]
    argv += ["--gazetteer", ws["root"] / "gazetteer.txt", "--output", tmp_path / "kw.jsonl"]
    assert run(argv) == 1
    assert f"error: ratio {float(ratio)} outside [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "kw.jsonl").exists()


def test_unmatched_keyword_set_carries_the_ratio_and_its_seed(ws, tmp_path):
    data = _unmatched_data(tmp_path / "data.jsonl")
    argv = ["extract", "--data", data, "--method", "NER", "--ratio", "0.5", "--seed", "3"]
    argv += ["--gazetteer", ws["root"] / "gazetteer.txt", "--output", tmp_path / "kw.jsonl"]
    assert run(argv) == 0
    for id_, ks in load_keyword_sets(tmp_path / "kw.jsonl").items():
        assert (ks.keywords, ks.word_count) == ((), 0)
        assert (ks.ratio, ks.seed) == (0.5, stable_seed(3, id_))


def test_compare_names_the_ratio_that_discloses_nothing(capsys):
    # every synthetic question matches the gazetteer; at ratio 0 none discloses a keyword
    argv = ["compare", "--synthetic", "--train-size", "8", "--dev-size", "4", "--test-size", "4"]
    assert run([*argv, "--ratio", "0"]) == 1
    err = capsys.readouterr().err
    assert "error: no instance in split 'train' discloses a keyword at ratio 0" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--synthetic", "--data-train", "nosuch.jsonl"], "--data-train"),
        (["--synthetic", "--data-dev", "a", "--data-test", "b"], "--data-dev --data-test"),
        (["--synthetic", "--completions", "nosuch.json"], "--completions"),
        (["--train-size", "8", "--test-size", "8"], "--train-size --test-size"),
        (["--dev-size", "8", "--data-train", "nosuch.jsonl"], "--dev-size"),
    ],
)
def test_source_flag_the_source_ignores_is_user_error(capsys, monkeypatch, command, argv, flags):
    built = []
    monkeypatch.setattr(cli, "build_corpus", lambda spec: built.append(spec))
    monkeypatch.setattr(cli, "load_dataset", lambda path: built.append(path))
    assert run([command, *argv]) == 1
    side = "with" if "--synthetic" in argv else "without"
    assert f"error: {flags} cannot be used {side} --synthetic" in capsys.readouterr().err
    assert not built


TRAINING = {
    "--learning-rate", "--batch-size", "--max-epochs", "--warmup-steps", "--patience",
    "--seed", "--weight-decay", "--regime", "--view", "--dim", "--hash-seed",
}
DISCLOSURE = {"--ratio", "--method"}
PIPELINE = {"--model", "--mode", "--cache", "--demos", "--gazetteer"}
# the ExperimentConfig flags each experiment command takes, and its options in all
COMMAND_FLAGS = {
    "train": (TRAINING, 15),
    "eval": (TRAINING | DISCLOSURE | PIPELINE, 22),
    "ood": (TRAINING | DISCLOSURE, 19),
    "sweep": (TRAINING | {"--method"} | PIPELINE, 28),
    "compare": (TRAINING | {"--ratio"} | PIPELINE, 27),
}


def _command_options(command: str) -> set[str]:
    (commands,) = [
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    actions = [a for a in commands[command]._actions if a.dest != "help"]
    return {flag for a in actions for flag in a.option_strings}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_the_experiment_flags_it_reads(command):
    # a new ExperimentConfig field fails here until the table says who reads it
    experiment = {
        "--" + cli._FLAG_DEST.get(f.name, f.name).replace("_", "-") for f in fields(ExperimentConfig)
    }
    assert experiment == TRAINING | DISCLOSURE | PIPELINE
    flags, count = COMMAND_FLAGS[command]
    options = _command_options(command)
    assert options & experiment == flags
    assert len(options) == count


VALID = {
    "train": ["train", "--train", "a.jsonl", "--dev", "b.jsonl", "--checkpoint", "m.npz"],
    "ood": ["ood", "--synthetic"],
    "sweep": ["sweep", "--synthetic"],
    "compare": ["compare", "--synthetic"],
}
VALUES = {
    "--ratio": "0.5", "--method": "RandomSpan", "--model": "m", "--mode": "mock",
    "--cache": "c.jsonl", "--demos": "medqa", "--gazetteer": "g.txt",
}
DROPPED = [
    (command, flag)
    for command in VALID
    for flag in sorted((TRAINING | DISCLOSURE | PIPELINE) - COMMAND_FLAGS[command][0])
]


@pytest.mark.parametrize("command, flag", DROPPED)
def test_a_flag_the_command_never_reads_is_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([*VALID[command], flag, VALUES[flag]])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["sweep", "--synthetic"], ["--ratio", "0.3"]),
        (["budget", "--data", "d.jsonl", "--keywords", "k.jsonl"], ["--bogus"]),
    ],
)
def test_an_unrecognized_flag_prints_the_command_usage(capsys, argv, extra):
    with pytest.raises(SystemExit) as exc:
        run([*argv, *extra])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: privqa {argv[0]} ")
    assert f"privqa {argv[0]}: error: unrecognized arguments: {' '.join(extra)}" in err


def _outputs(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize(
    "command, key, value", [("sweep", "ratio", 0.3), ("compare", "method", "RandomSpan")]
)
def test_a_config_key_the_command_never_reads_changes_nothing(tmp_path, command, key, value):
    argv = [command, "--synthetic", "--train-size", "20", "--dev-size", "8", "--test-size", "8"]
    argv += [*FAST, "--max-epochs", "2"] + (["--ratios", "0.5,1.0"] if command == "sweep" else [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run([*argv, "--out", tmp_path / "plain"]) == 0
    assert run([*argv, "--config", cfg, "--out", tmp_path / "keyed"]) == 0
    assert _outputs(tmp_path / "keyed") == _outputs(tmp_path / "plain")


def test_a_cache_key_in_a_train_config_changes_nothing(ws, tmp_path):
    aug = tmp_path / "aug.jsonl"
    write_augmented(ws["provider"].provide(ws["corpus"]["dev"], 1.0, seed=0)[0], aug)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache": str(tmp_path / "nosuch.jsonl")}), encoding="utf-8")
    train = ["train", *FAST, "--max-epochs", "2", "--train", aug, "--dev", aug]
    (tmp_path / "plain").mkdir()
    (tmp_path / "keyed").mkdir()
    assert run([*train, "--checkpoint", tmp_path / "plain" / "m.npz"]) == 0
    assert run([*train, "--config", cfg, "--checkpoint", tmp_path / "keyed" / "m.npz"]) == 0
    assert _outputs(tmp_path / "keyed") == _outputs(tmp_path / "plain")

# ---------------------------------------------------------------------------
# Fuzzing the CLI boundary: a mutated input file exits 0 or 1, never with a
# traceback.

FUZZ_SPEC = SyntheticSpec(seed=3, train_size=6, dev_size=3, test_size=3, vocab_size=40)
WRONG_TYPES = ("null", "[]", "1e999")
_SLOT = "\x00slot"


@pytest.fixture(scope="module")
def fuzz_ws(tmp_path_factory):
    """Per input kind: one small valid file, and a command that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = build_corpus(FUZZ_SPEC)
    provider = SyntheticContextProvider(FUZZ_SPEC)
    dev = corpus["dev"]
    data, kw, gazetteer, demos, completions, cache, config, model, aug, report, raw, out = (
        root / name
        for name in (
            "data.jsonl", "kw.jsonl", "gazetteer.txt", "demos.txt", "completions.json",
            "cache.jsonl", "config.json", "model.npz", "aug.jsonl", "report.json", "raw.jsonl",
            "out",
        )
    )
    write_dataset(dev, data)
    kmap = provider.keyword_map(dev, 1.0, seed=0)
    save_keyword_sets(kmap, kw)
    gazetteer.write_text("# terms\n" + "\n".join(gazetteer_tokens(FUZZ_SPEC)) + "\n", encoding="utf-8")
    [demo] = provider.demonstrations(corpus["train"], count=1)
    demos.write_text(render_block(demo.keywords, demo.choices, demo.context), encoding="utf-8")
    completions.write_text(json.dumps(provider.mock_completions(dev, 1.0, seed=0)), encoding="utf-8")
    options = {
        "dim": 64, "max-epochs": 2, "patience": 1, "batch-size": 2, "learning-rate": 0.1,
        "weight-decay": 0.0, "warmup-steps": 0, "regime": "FTCR", "view": "Full",
    }
    config.write_text(json.dumps(options), encoding="utf-8")
    save_model(ScorerModel.zeros(FeaturizerConfig(dim=64)), model)
    write_augmented(provider.provide(dev, 1.0, seed=0)[0], aug)
    raw.write_text("".join(
        json.dumps({"id": inst.id, "completion": provider.completion_for(inst, kmap[inst.id])}) + "\n"
        for inst in dev.instances
    ), encoding="utf-8")
    generate = ["generate", "--data", data, "--keywords", kw, "--demos", demos, "--cache", cache]
    evaluate = ["eval", "--checkpoint", model, "--data", aug]
    assert run([*generate, "--mode", "mock", "--completions", completions, "--output", out]) == 0
    assert run([*evaluate, "--report", report]) == 0
    budget = ["budget", "--data", data, "--keywords", kw]
    return {
        "data": (data, budget),
        "keywords": (kw, budget),
        "gazetteer": (gazetteer, ["extract", "--data", data, "--method", "NER",
                                  "--gazetteer", gazetteer, "--output", out]),
        "demos": (demos, ["prompt", *budget[1:], "--demos", demos, "--id", dev.instances[0].id]),
        "cache": (cache, [*generate, "--mode", "replay", "--output", out]),
        "config": (config, ["train", "--config", config, "--train", aug, "--dev", aug,
                            "--checkpoint", out]),
        "checkpoint": (model, evaluate),
        "augmented": (aug, evaluate),
        "report": (report, ["report", report]),
        "parse": (raw, ["parse", "--input", raw, "--data", data, "--output", out]),
    }


def _slots(value):
    """(container, key) for every field of a JSON value, at any depth."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield value, key
            yield from _slots(child)


def _json_value(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _wrong_type(data, raw: bytes) -> bytes:
    """`raw` with one JSON field, at any depth, replaced by `null`, `[]` or `1e999`.

    The field is in the file's value if the file is one JSON document, else in
    one of its lines; a file with no JSON field gets the value inserted anywhere.
    """
    wrong = data.draw(st.sampled_from(WRONG_TYPES)).encode()
    docs = [raw] if _json_value(raw) is not None else raw.split(b"\n")
    at = data.draw(st.integers(0, len(docs) - 1))
    value = _json_value(docs[at])
    slots = list(_slots(value))
    if not slots:
        pos = data.draw(st.integers(0, len(raw)))
        return raw[:pos] + wrong + raw[pos:]
    container, key = data.draw(st.sampled_from(slots))
    container[key] = _SLOT
    docs[at] = json.dumps(value).encode().replace(json.dumps(_SLOT).encode(), wrong)
    return b"\n".join(docs)


def _mutate(data, raw: bytes) -> bytes:
    how = data.draw(st.sampled_from(["truncate", "flip", "xff", "random", "wrong-type"]))
    pos = data.draw(st.integers(0, max(len(raw) - 1, 0)))
    if how == "truncate":
        return raw[:pos]
    if how == "flip":
        return raw[:pos] + bytes([raw[pos] ^ 1 << data.draw(st.integers(0, 7))]) + raw[pos + 1:]
    if how == "xff":
        return raw[:pos] + b"\xff" + raw[pos:]
    if how == "random":
        return data.draw(st.binary(max_size=64))
    return _wrong_type(data, raw)


@pytest.mark.parametrize(
    "kind",
    ["data", "keywords", "gazetteer", "demos", "cache", "config", "checkpoint", "augmented",
     "report", "parse"],
)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_survives_a_mutated_input_file(fuzz_ws, kind, data):
    path, argv = fuzz_ws[kind]
    original = path.read_bytes()
    path.write_bytes(_mutate(data, original))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        path.write_bytes(original)
    assert code in (0, 1) and "Traceback" not in err.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Field-type laws: in a valid input file, one field replaced by a value of
# another JSON type either fails its command with exit 1, naming the file (and
# line) and the field, or changes nothing the command prints or writes.

# Tier-1 runs each law on a few examples; `--hypothesis-profile=ci` (registered
# in tests/conftest.py) runs it on that profile's many.
LAW_EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "ci" else 20
# null, bool, numbers (NaN and infinity too), strings, lists and objects
JSON_VALUES = (None, True, 3, 2.5, float("nan"), float("inf"), "x", [], ["x"], {}, {"x": "y"})


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _replacements(value) -> list:
    """The values of another JSON type than `value`, and the numbers a field like it never holds."""
    other = [v for v in JSON_VALUES if _json_type(v) != _json_type(value)]
    if type(value) is int:
        return other + [2.5, float("nan"), float("inf")]
    return other + [float("nan"), float("inf")] if type(value) is float else other


def _fields(value, path=()):
    """(container, key, path) for every field of a JSON value, at any depth."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield value, key, (*path, key)
            yield from _fields(child, (*path, key))




def _run_captured(argv, out: Path) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr (the gateway's warnings too) and the output file's bytes."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    logging.getLogger("privqa.gateway").addHandler(handler)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(argv)
    finally:
        logging.getLogger("privqa.gateway").removeHandler(handler)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


_VALID_RUNS: dict = {}


@pytest.mark.parametrize(
    "kind", ["data", "keywords", "augmented", "cache", "report", "config", "checkpoint"]
)
@settings(max_examples=LAW_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_field_of_another_type_fails_by_name_or_changes_nothing(fuzz_ws, kind, data):
    path, argv = fuzz_ws[kind]
    out = path.parent / "out"
    if kind not in _VALID_RUNS:
        _VALID_RUNS[kind] = _run_captured(argv, out)
        assert _VALID_RUNS[kind][0] == 0, _VALID_RUNS[kind][2]
    original = path.read_bytes()
    if kind == "checkpoint":
        doc, arrays = read_checkpoint(path)
        where = f"checkpoint {path}"
    elif kind in ("report", "config"):
        doc = json.loads(original)
        where = f"{path}: "
    else:
        lines = original.decode("utf-8").splitlines()
        lineno = data.draw(st.integers(1, len(lines)))
        doc = json.loads(lines[lineno - 1])
        where = f"{path}:{lineno}"
    container, key, keys = data.draw(st.sampled_from(list(_fields(doc))))
    value = container[key]
    replacements = _replacements(value)
    if kind == "report" and keys == ("budget",) and value is not None:
        replacements.remove(None)  # a report without a budget, as an SFT run writes, is valid
    container[key] = data.draw(st.sampled_from(replacements))
    try:
        if kind == "checkpoint":
            write_checkpoint(path, doc, arrays)
        elif kind in ("report", "config"):
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            lines[lineno - 1] = json.dumps(doc)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, err, written = _run_captured(argv, out)
    finally:
        path.write_bytes(original)
    valid_code, valid_stdout, _, valid_written = _VALID_RUNS[kind]
    if (code, stdout, written) == (valid_code, valid_stdout, valid_written):
        return
    assert code == 1, err
    assert where in err, err
    names = [k.replace("-", "_") for k in keys if isinstance(k, str)]
    assert any(name in err.replace("-", "_") for name in names), (keys, err)
