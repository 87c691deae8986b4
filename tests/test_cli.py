import argparse
import json
from pathlib import Path

import pytest

from privqa import cli
from privqa.corpus import (
    Dataset,
    QAInstance,
    load_augmented,
    load_dataset,
    write_augmented,
    write_dataset,
)
from privqa.gateway import GenerationRecord
from privqa.harness import (
    ExperimentConfig,
    PipelineProvider,
    accuracy,
    predict_labels,
    train_scorer,
)
from privqa.keywords import KeywordSet, corpus_budget_report, load_keyword_sets, save_keyword_sets
from privqa.promptkit import render_block
from privqa.synthetic import (
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    filler_tokens,
    gazetteer_tokens,
)

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
    want = provider.provide(data, 1.0, seed=0)
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
        ("learning-rate", 0, "learning_rate"),
        ("learning-rate", "nan", "learning_rate"),
        ("batch-size", "eight", "batch_size"),
    ],
)
def test_bad_config_field_is_user_error(tmp_path, capsys, key, value, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    code = run(["sweep", "--synthetic", "--train-size", "8", "--config", cfg])
    assert code == 1
    assert field in capsys.readouterr().err


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
            return GenerationRecord("key", completion, mode, 0.0)

    pipe = PipelineProvider(
        RecordingGateway(), oracle.demonstrations(ws["corpus"]["train"]), gazetteer=oracle.gazetteer
    )
    from_cli = load_keyword_sets(tmp_path / "kw.jsonl")["nomatch"]
    for provider in (pipe, oracle):
        ks = provider.keyword_map(data, 0.5, seed=0)["nomatch"]
        assert ks == from_cli
        assert ks.keywords == () and ks.word_count == 0
        assert corpus_budget_report(data, {"nomatch": ks}).budget == 0.0
        [aug] = provider.provide(data, 0.5, seed=0)
        assert aug.instance == inst
    # the prompt's query block carries only the answers
    assert prompts == [prompts[0]]
    assert prompts[0].endswith("\n\n" + render_block((), inst.choices))


def test_ood_files_match_harness_steps(ws, tmp_path, capsys):
    corpus, provider = ws["corpus"], ws["provider"]
    paths = {}
    for split, ratio in (("train", 1.0), ("dev", 1.0), ("test", 0.5)):
        paths[split] = tmp_path / f"aug-{split}.jsonl"
        write_augmented(provider.provide(corpus[split], ratio, seed=0), paths[split])
    code = run(
        [
            "ood",
            *FAST,
            "--train", paths["train"],
            "--dev", paths["dev"],
            "--target", paths["test"],
        ]
    )
    assert code == 0
    cfg = ExperimentConfig(
        featurizer_dim=16384, max_epochs=10, warmup_steps=20, early_stop_patience=3
    )
    model, tlog, _ = train_scorer(
        cfg, load_augmented(paths["train"]), load_augmented(paths["dev"])
    )
    preds, gold = predict_labels(model, cfg, load_augmented(paths["test"]))
    acc = accuracy(preds, gold)
    assert 0.0 < acc < 1.0
    assert (
        f"transfer accuracy: {acc * 100:.2f}% ({round(acc * len(gold))}/{len(gold)})"
        in capsys.readouterr().out
    )
