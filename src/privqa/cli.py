"""Command-line interface.

Subcommands mirror the pipeline stages: ingest source data, extract and
budget keyword disclosures, build prompts, generate and parse contexts,
train and evaluate the scorer, and run the multi-stage experiments (ood,
sweep, compare, report). Every experiment command accepts --config pointing
at a JSON file of option defaults; explicit flags win over the file.

Exit codes: 0 success, 1 user error (bad arguments or inputs), 2 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path

from privqa.contexts import ContextView, ParseError
from privqa.corpus import (
    INGEST_FORMATS,
    DatasetFormatError,
    ingest_records,
    load_augmented,
    load_dataset,
    write_augmented,
    write_dataset,
)
from privqa.gateway import (
    DEFAULT_CREDENTIAL_ENV,
    MODES,
    Gateway,
    GatewayError,
    HttpTransport,
)
from privqa.harness import (
    DEFAULT_SWEEP_RATIOS,
    REGIMES,
    EvalReport,
    ExperimentConfig,
    HarnessError,
    PipelineProvider,
    accuracy,
    augment_completion,
    build_keyword_map,
    predict_labels,
    provenance,
    render_report_table,
    run_budget_sweep,
    run_ood,
    run_representation_compare,
    train_scorer,
    write_report,
)
from privqa.keywords import (
    METHODS,
    ExtractionError,
    corpus_budget_report,
    format_budget,
    load_gazetteer,
    load_keyword_sets,
    save_keyword_sets,
)
from privqa.plugin import PluginError
from privqa.promptkit import PromptError, build_prompt, bundled_demo_path, load_demonstrations
from privqa.scorer import ScorerError, load_model, save_model
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

USER_ERRORS = (
    DatasetFormatError,
    ExtractionError,
    ParseError,
    PromptError,
    GatewayError,
    HarnessError,
    ScorerError,
    PluginError,
    OSError,
    json.JSONDecodeError,
)

# Experiment flags whose destination is not the ExperimentConfig field name.
_FLAG_DEST = {
    "early_stop_patience": "patience",
    "featurizer_dim": "dim",
    "model_id": "model",
    "cache_path": "cache",
    "demo_file": "demos",
    "gazetteer_file": "gazetteer",
}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that means an internal error, so
    usage problems are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_config_file(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    raw = Path(path).read_text(encoding="utf-8")
    cfg = json.loads(raw)
    if not isinstance(cfg, dict):
        raise HarnessError(f"config file {path} must hold a JSON object")
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """A validated config from the set flags; unset ones keep its defaults."""
    values = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, _FLAG_DEST.get(f.name, f.name), None)
        if value is None:
            continue
        kind = type(f.default)
        try:
            values[f.name] = kind(value)
        except (TypeError, ValueError):
            raise HarnessError(f"{f.name}: {value!r} is not of type {kind.__name__}") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _load_demos(spec: str):
    p = Path(spec)
    if p.exists():
        return load_demonstrations(p)
    return load_demonstrations(bundled_demo_path(spec))


# ---------------------------------------------------------------------------
# Data commands


def _cmd_ingest(args) -> int:
    dataset = ingest_records(args.input, args.format, args.dataset, args.split)
    write_dataset(dataset, args.output)
    print(f"ingested {len(dataset)} instances -> {args.output}")
    return 0


def _cmd_extract(args) -> int:
    dataset = load_dataset(args.data)
    gazetteer = load_gazetteer(args.gazetteer) if args.gazetteer else ()
    kmap = build_keyword_map(dataset, args.ratio, args.seed, args.method, gazetteer)
    save_keyword_sets(kmap, args.output)
    covered = sum(1 for ks in kmap.values() if ks.keywords)
    print(f"extracted keywords for {covered}/{len(dataset)} instances -> {args.output}")
    return 0


def _cmd_budget(args) -> int:
    dataset = load_dataset(args.data)
    kmap = load_keyword_sets(args.keywords)
    report = corpus_budget_report(dataset, kmap)
    print(f"avg keyword words: {report.avg_keyword_words:.2f}")
    print(f"avg question words: {report.avg_question_words:.2f}")
    print(f"privacy budget: {format_budget(report.budget)}")
    return 0


def _cmd_prompt(args) -> int:
    dataset = load_dataset(args.data)
    kmap = load_keyword_sets(args.keywords)
    demos = _load_demos(args.demos)
    inst = dataset.by_id().get(args.id)
    if inst is None:
        raise DatasetFormatError(f"no instance with id {args.id!r}")
    if inst.id not in kmap:
        raise ExtractionError(f"no keywords for instance {args.id!r}")
    prompt = build_prompt(demos, kmap[inst.id].keywords, inst.choices, query_id=inst.id)
    print(prompt.text)
    return 0


def _cmd_generate(args) -> int:
    dataset = load_dataset(args.data)
    kmap = load_keyword_sets(args.keywords)
    mock = None
    if args.completions:
        mock = json.loads(Path(args.completions).read_text(encoding="utf-8"))
    transport = None
    if args.mode == "live":
        if not args.api_url:
            raise GatewayError("live mode needs --api-url")
        transport = HttpTransport(args.api_url, credential_env=args.credential_env)
    provider = PipelineProvider(
        Gateway(args.cache, transport=transport, mock_completions=mock),
        _load_demos(args.demos),
        model_id=args.model,
        mode=args.mode,
    )
    augmented = []
    for inst in dataset.instances:
        if inst.id not in kmap:
            raise ExtractionError(f"no keywords for instance {inst.id!r}")
        augmented.append(provider.augment(inst, kmap[inst.id]))
    write_augmented(augmented, args.output)
    print(f"generated {len(augmented)} contexts -> {args.output}")
    return 0


def _cmd_parse(args) -> int:
    dataset = load_dataset(args.data)
    by_id = dataset.by_id()
    augmented = []
    with Path(args.input).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            inst = by_id.get(str(rec.get("id")))
            if inst is None:
                raise DatasetFormatError(f"{args.input}:{lineno}: unknown instance id {rec.get('id')!r}")
            try:
                augmented.append(
                    augment_completion(
                        inst, str(rec.get("completion", "")), str(rec.get("generation_id", ""))
                    )
                )
            except HarnessError as exc:
                raise HarnessError(f"{args.input}:{lineno}: {exc}") from exc
    write_augmented(augmented, args.output)
    print(f"parsed {len(augmented)} generations -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Model commands


def _cmd_train(args) -> int:
    cfg = _experiment_config(args)
    model, tlog, train_inputs = train_scorer(
        cfg, load_augmented(args.train), load_augmented(args.dev)
    )
    save_model(model, args.checkpoint)
    if cfg.regime == "FTCR":
        admitted = sum(1 for ci in train_inputs if ci.used_context)
        print(f"context admitted for {admitted}/{len(train_inputs)} training instances")
    print(
        f"best dev accuracy {tlog.best_dev_accuracy * 100:.2f}% at epoch {tlog.best_epoch}"
        f" -> {args.checkpoint}"
    )
    return 0


def _cmd_eval(args) -> int:
    cfg = _experiment_config(args)
    preds, gold = predict_labels(load_model(args.checkpoint), cfg, load_augmented(args.data))
    acc = accuracy(preds, gold)
    print(f"accuracy: {acc * 100:.2f}% ({round(acc * len(gold))}/{len(gold)})")
    if args.report:
        report = EvalReport(
            config=asdict(cfg),
            dataset={"name": "eval", "split": "eval", "sizes": {"eval": len(gold)}},
            metrics={"accuracy": acc, "n": len(gold), "n_correct": round(acc * len(gold))},
            budget=None,
            ftcr=None,
            provenance=provenance(cfg),
            predictions=preds,
        )
        write_report(report, args.report)
        print(f"wrote report -> {args.report}")
    return 0


# ---------------------------------------------------------------------------
# Experiment commands


def _synthetic_spec(args, seed: int) -> SyntheticSpec:
    sizes = {
        name: int(getattr(args, name))
        for name in ("train_size", "dev_size", "test_size")
        if getattr(args, name) is not None
    }
    return SyntheticSpec(seed=seed, **sizes)


def _setup(args, cfg: ExperimentConfig):
    """Datasets and context provider: the synthetic oracle or the pipeline."""
    if args.synthetic:
        spec = _synthetic_spec(args, cfg.seed)
        return build_corpus(spec), SyntheticContextProvider(spec)
    datasets = {
        "train": load_dataset(args.data_train),
        "dev": load_dataset(args.data_dev),
        "test": load_dataset(args.data_test),
    }
    demos = _load_demos(cfg.demo_file) if cfg.demo_file else None
    if demos is None:
        raise HarnessError("pipeline runs need --demos")
    gazetteer = load_gazetteer(cfg.gazetteer_file) if cfg.gazetteer_file else None
    mock = None
    if getattr(args, "completions", None):
        mock = json.loads(Path(args.completions).read_text(encoding="utf-8"))
    if not cfg.cache_path:
        raise HarnessError("pipeline runs need --cache")
    gateway = Gateway(cfg.cache_path, mock_completions=mock)
    provider = PipelineProvider(
        gateway, demos, gazetteer=gazetteer, model_id=cfg.model_id, mode=cfg.mode
    )
    return datasets, provider


def _write_reports(out: str | None, named: list[tuple[str, EvalReport]]) -> None:
    if not out:
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, report in named:
        write_report(report, outdir / f"{name}.json")
    print(f"wrote {len(named)} reports -> {outdir}")


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    datasets, provider = _setup(args, cfg)
    ratios = tuple(float(r) for r in args.ratios.split(",")) if args.ratios else DEFAULT_SWEEP_RATIOS
    reports = run_budget_sweep(cfg, datasets, provider, ratios)
    print(render_report_table(reports))
    _write_reports(
        args.out,
        [(f"sweep-ratio{r.config['ratio']:g}-seed{cfg.seed}", r) for r in reports],
    )
    return 0


def _cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    datasets, provider = _setup(args, cfg)
    results = run_representation_compare(cfg, datasets, provider)
    print(render_report_table([results[m] for m in results]))
    _write_reports(
        args.out, [(f"compare-{m}-seed{cfg.seed}", r) for m, r in results.items()]
    )
    return 0


def _cmd_ood(args) -> int:
    cfg = _experiment_config(args)
    if args.synthetic:
        target_seed = 1 if args.target_seed is None else int(args.target_seed)
        source_spec = _synthetic_spec(args, cfg.seed)
        target_spec = _synthetic_spec(args, target_seed)
        report = run_ood(
            cfg,
            build_corpus(source_spec),
            build_corpus(target_spec),
            provider=SyntheticContextProvider(source_spec),
            target_provider=SyntheticContextProvider(target_spec),
        )
        print(render_report_table([report]))
        return 0
    for name in ("train", "dev", "target"):
        if getattr(args, name) is None:
            raise HarnessError(f"ood needs --{name} (or --synthetic)")
    model, tlog, _ = train_scorer(cfg, load_augmented(args.train), load_augmented(args.dev))
    preds, gold = predict_labels(model, cfg, load_augmented(args.target))
    acc = accuracy(preds, gold)
    print(
        f"transfer accuracy: {acc * 100:.2f}% ({round(acc * len(gold))}/{len(gold)});"
        f" dev {tlog.best_dev_accuracy * 100:.2f}%"
    )
    if args.checkpoint:
        save_model(model, args.checkpoint)
        print(f"saved checkpoint -> {args.checkpoint}")
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        reports.append(
            EvalReport(
                config=data.get("config", {}),
                dataset=data.get("dataset", {}),
                metrics=data.get("metrics", {}),
                budget=data.get("budget"),
                ftcr=data.get("ftcr"),
                provenance=data.get("provenance", {}),
                predictions=data.get("predictions", {}),
            )
        )
    print(render_report_table(reports))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--view", choices=[v.value for v in ContextView])
    p.add_argument("--ratio", type=float)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--seed", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--warmup-steps", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dim", type=int, help="featurizer dimension")
    p.add_argument("--hash-seed", type=int)
    p.add_argument("--model", help="upstream model id")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--cache", help="gateway response cache path")
    p.add_argument("--demos", help="demonstration file or bundled name")
    p.add_argument("--gazetteer", help="gazetteer file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privqa", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a source-format file to canonical JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=INGEST_FORMATS)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("extract", help="extract disclosed keywords per instance")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--gazetteer")
    p.add_argument("--ratio", type=float, default=ExperimentConfig.ratio)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("budget", help="report the corpus privacy budget")
    p.add_argument("--data", required=True)
    p.add_argument("--keywords", required=True)
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("prompt", help="print the prompt for one instance")
    p.add_argument("--data", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--id", required=True)
    p.set_defaults(func=_cmd_prompt)

    p = sub.add_parser("generate", help="generate contexts through the gateway")
    p.add_argument("--data", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--mode", choices=MODES, default=ExperimentConfig.mode)
    p.add_argument("--model", default=ExperimentConfig.model_id)
    p.add_argument("--completions", help="JSON id->completion map for mock mode")
    p.add_argument("--api-url")
    p.add_argument("--credential-env", default=DEFAULT_CREDENTIAL_ENV)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("parse", help="parse raw completions into augmented instances")
    p.add_argument("--input", required=True, help="JSONL of {id, completion}")
    p.add_argument("--data", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("train", help="train the scorer on augmented instances")
    _add_experiment_flags(p)
    p.add_argument("--train", required=True, dest="train")
    p.add_argument("--dev", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on augmented instances")
    _add_experiment_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ood", help="train on one domain, evaluate on another")
    _add_experiment_flags(p)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--target-seed", type=int, help="synthetic target domain seed")
    p.add_argument("--train-size", type=int)
    p.add_argument("--dev-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--train", dest="train")
    p.add_argument("--dev")
    p.add_argument("--target")
    p.add_argument("--checkpoint")
    p.set_defaults(func=_cmd_ood)

    p = sub.add_parser("sweep", help="sweep the keyword disclosure ratio")
    _add_experiment_flags(p)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--train-size", type=int)
    p.add_argument("--dev-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--data-train")
    p.add_argument("--data-dev")
    p.add_argument("--data-test")
    p.add_argument("--completions")
    p.add_argument(
        "--ratios",
        help=f"comma-separated, default {','.join(map(str, DEFAULT_SWEEP_RATIOS))}",
    )
    p.add_argument("--out", help="directory for per-ratio reports")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="compare disclosure representations at matched budget")
    _add_experiment_flags(p)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--train-size", type=int)
    p.add_argument("--dev-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--data-train")
    p.add_argument("--data-dev")
    p.add_argument("--data-test")
    p.add_argument("--completions")
    p.add_argument("--out", help="directory for per-method reports")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="summarize saved report files as a table")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
