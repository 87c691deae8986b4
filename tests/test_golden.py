"""Byte-identity gate: every output of a fixed command set keeps its sha256.

The commands cover what performance and simplicity changes touch: synthetic
sweeps (one at the default size, where featurizer chunks and memo growth
show), a compare, the table `ood --synthetic` prints, and the file path
`extract` -> `generate --mode mock` -> `parse` -> `train --regime FTCR` ->
`eval --report`, with every file it reads or writes. The digests in
`tests/golden.json` belong to the toolchain recorded there.

A change that moves a digest on purpose rewrites the file and says which
outputs moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from privqa import cli
from privqa.corpus import write_dataset
from privqa.promptkit import render_block
from privqa.synthetic import (
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    gazetteer_tokens,
)

GOLDEN = Path(__file__).with_name("golden.json")
SMALL = ["--train-size", "60", "--dev-size", "30", "--test-size", "30"]
FAST = ["--dim", "16384", "--max-epochs", "10", "--warmup-steps", "20", "--patience", "3"]
FILE_SPEC = SyntheticSpec(seed=5, train_size=40, dev_size=20, test_size=20)
SPLITS = ("train", "dev", "test")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_file_inputs(root: Path) -> None:
    """Dataset splits, gazetteer, demonstrations, canned and raw completions."""
    corpus = build_corpus(FILE_SPEC)
    provider = SyntheticContextProvider(FILE_SPEC)
    for split, ds in corpus.items():
        write_dataset(ds, root / f"data-{split}.jsonl")
        mocks = provider.mock_completions(ds, 0.5, seed=0)
        (root / f"completions-{split}.json").write_text(json.dumps(mocks), encoding="utf-8")
    raw = [
        json.dumps({"id": qid, "completion": text, "generation_id": f"raw:{qid}"})
        for qid, text in json.loads((root / "completions-test.json").read_text("utf-8")).items()
    ]
    (root / "raw-test.jsonl").write_text("\n".join(raw) + "\n", encoding="utf-8")
    (root / "gazetteer.txt").write_text("\n".join(gazetteer_tokens(FILE_SPEC)) + "\n", "utf-8")
    demos = provider.demonstrations(corpus["train"], count=2)
    (root / "demos.txt").write_text(
        "\n\n".join(render_block(d.keywords, d.choices, d.context) for d in demos) + "\n",
        encoding="utf-8",
    )


def commands(root: Path) -> list[tuple[str, list]]:
    """(name, argv) of every command, in the order they run."""
    runs: list[tuple[str, list]] = [
        ("sweep-default", ["sweep", "--synthetic", "--out", root / "sweep-default"]),
        (
            "sweep-ftcr",
            ["sweep", "--synthetic", *SMALL, "--regime", "FTCR", "--ratios", "0.5,1.0",
             "--out", root / "sweep-ftcr"],
        ),
        ("compare", ["compare", "--synthetic", *SMALL, "--out", root / "compare"]),
        ("ood", ["ood", "--synthetic", *SMALL, "--target-seed", "9"]),
    ]
    files = root / "files"
    for split in SPLITS:
        runs.append((f"extract-{split}", [
            "extract", "--data", files / f"data-{split}.jsonl", "--method", "NER",
            "--gazetteer", files / "gazetteer.txt", "--ratio", "0.5",
            "--output", files / f"kw-{split}.jsonl",
        ]))
    for split in SPLITS:
        runs.append((f"generate-{split}", [
            "generate", "--data", files / f"data-{split}.jsonl",
            "--keywords", files / f"kw-{split}.jsonl", "--demos", files / "demos.txt",
            "--cache", files / "cache.jsonl", "--mode", "mock",
            "--completions", files / f"completions-{split}.json",
            "--output", files / f"aug-{split}.jsonl",
        ]))
    runs += [
        ("parse-test", [
            "parse", "--input", files / "raw-test.jsonl", "--data", files / "data-test.jsonl",
            "--output", files / "parsed-test.jsonl",
        ]),
        ("train", [
            "train", *FAST, "--regime", "FTCR", "--train", files / "aug-train.jsonl",
            "--dev", files / "aug-dev.jsonl", "--checkpoint", files / "model.npz",
        ]),
        ("eval", [
            "eval", "--regime", "FTCR", "--checkpoint", files / "model.npz",
            "--data", files / "parsed-test.jsonl", "--report", files / "report.json",
        ]),
    ]
    return runs


def digests(root: Path) -> dict[str, str]:
    """Run every command in `root` and digest its stdout and every file under `root`."""
    (root / "files").mkdir(parents=True)
    _write_file_inputs(root / "files")
    out: dict[str, str] = {}
    for name, argv in commands(root):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise AssertionError(f"{name} exited {code}")
        out[f"stdout/{name}"] = _sha(buf.getvalue().replace(str(root), "ROOT").encode("utf-8"))
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = _sha(path.read_bytes())
    return out


def toolchain() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    want = golden["digests"]
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert got == want, (
        f"moved: {moved}; missing: {sorted(want.keys() - got.keys())};"
        f" new: {sorted(got.keys() - want.keys())};"
        f" recorded on {golden['toolchain']}, running on {toolchain()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"toolchain": toolchain(), "digests": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['digests'])} digests -> {GOLDEN}", file=sys.stderr)
