"""Command-line interface.

Subcommands mirror the pipeline stages: ingest source data, extract and
budget keyword disclosures, build prompts, generate and parse contexts,
train and evaluate the scorer, and run the multi-stage experiments (ood,
sweep, compare, report). Every experiment command accepts --config pointing
at a JSON file of option defaults; explicit flags win over the file.

Exit codes: 0 success; 1 bad arguments, a `PrivqaError` (a bad input file is
named with its line) or an `OSError` writing an output; 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from privqa.corpus import (
    INGEST_FORMATS,
    AugmentedInstance,
    DatasetFormatError,
    ingest_records,
    load_augmented,
    load_dataset,
    write_augmented,
    write_dataset,
)
from privqa.errors import TEXT, WHOLE, PrivqaError, field, read_json, read_records
from privqa.gateway import (
    DEFAULT_CREDENTIAL_ENV,
    MODES,
    Gateway,
    GatewayError,
    HttpTransport,
)
from privqa.harness import (
    DEFAULT_SWEEP_RATIOS,
    EvalReport,
    ExperimentConfig,
    HarnessError,
    PipelineProvider,
    augment_completion,
    build_keyword_map,
    evaluate,
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
    Gazetteer,
    corpus_budget_report,
    format_budget,
    load_gazetteer,
    load_keyword_sets,
    save_keyword_sets,
)
from privqa.promptkit import build_prompt, bundled_demo_path, load_demonstrations
from privqa.scorer import load_model, save_model
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

SPLITS = ("train", "dev", "test")

# The fields that only a run through the pipeline reads: a model, cache and prompt.
_PIPELINE_FIELDS = ("model_id", "mode", "cache_path", "demo_file", "gazetteer_file")

# Experiment flags whose destination is not the ExperimentConfig field name.
_FLAG_DEST = {
    "early_stop_patience": "patience",
    "featurizer_dim": "dim",
    "model_id": "model",
    "cache_path": "cache",
    "demo_file": "demos",
    "gazetteer_file": "gazetteer",
}

# An option's kind is its type, but JSON has one number type: an int option takes 8.0 too.
_KIND = {int: WHOLE}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that means an internal error, so
    usage problems are remapped to 1. A flag must be spelled in full: with
    abbreviations, a mistyped or retired flag would silently set any flag it
    prefixes. Subparsers are built with this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_config_file(args: argparse.Namespace, kinds: dict | None = None) -> None:
    """Fill the options left unset from the --config file; keys that name no option
    are ignored. Each value is checked as the file is read, so an error names the
    file: an option's in `kinds` against that kind, ExperimentConfig's by building one."""
    path = getattr(args, "config", None)
    if not path:
        return

    def unset_values(cfg: dict) -> dict:
        values = {}
        for key in cfg:
            dest = key.replace("-", "_")
            if dest in _FLAG_DEST:
                raise HarnessError(f"key {key!r} is not a flag name; use {_FLAG_DEST[dest]!r}")
            if hasattr(args, dest) and getattr(args, dest) is None:
                kind = (kinds or {}).get(dest)
                values[dest] = field(cfg, key, kind, HarnessError) if kind else cfg[key]
        _config_from(values)
        return values

    vars(args).update(read_json(path, HarnessError, unset_values))


def _option_kinds(parser: argparse.ArgumentParser, command: str) -> dict:
    """The kind of each option of `command` that is no ExperimentConfig field,
    by dest: bool for a switch, else its flag's type's (str when it names none)."""
    experiment = {_FLAG_DEST.get(f.name, f.name) for f in fields(ExperimentConfig)}
    return {
        a.dest: _KIND.get(a.type, bool if a.nargs == 0 else a.type or str)
        for a in _subparser(parser, command)._actions
        if a.dest not in experiment
    }


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands[command]


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """A validated config from the set flags; unset ones keep its defaults."""
    return _config_from({dest: value for dest, value in vars(args).items() if value is not None})


def _config_from(given: dict) -> ExperimentConfig:
    """A validated config from option values by dest (null is refused); the rest keep defaults."""
    values = {}
    for f in fields(ExperimentConfig):
        if (dest := _FLAG_DEST.get(f.name, f.name)) in given:
            kind = _KIND.get(type(f.default), type(f.default))
            values[f.name] = field({f.name: given[dest]}, f.name, kind, HarnessError)
    return ExperimentConfig(**values)


def _load_completions(path: str | None) -> dict[str, str] | None:
    """Canned completions for mock mode: a JSON object of instance id -> text."""
    if not path:
        return None
    return read_json(path, HarnessError, lambda mock: field(mock, (), dict[str, str], HarnessError))


def _load_demos(spec: str):
    """Demonstrations from a file, or bundled ones by a bare name (no separator or suffix)."""
    p = Path(spec)
    if p.exists() or p.suffix or p.name != spec:
        return load_demonstrations(spec)
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
    gazetteer = Gazetteer(load_gazetteer(args.gazetteer)) if args.gazetteer else None
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
    mock = _load_completions(args.completions)
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
    augmented = provider.augment_all(dataset.instances, kmap)
    write_augmented(augmented, args.output)
    print(f"generated {len(augmented)} contexts -> {args.output}")
    return 0


def _cmd_parse(args) -> int:
    by_id = load_dataset(args.data).by_id()

    def convert(rec: dict, lineno: int) -> tuple[str, AugmentedInstance]:
        inst = by_id.get(field(rec, "id", TEXT, DatasetFormatError))
        if inst is None:
            raise DatasetFormatError(f"unknown instance id {rec['id']!r}")
        completion = field(rec, "completion", str, DatasetFormatError, "")
        generation_id = field(rec, "generation_id", str, DatasetFormatError, "")
        return inst.id, augment_completion(inst, completion, generation_id)

    augmented = read_records(args.input, DatasetFormatError, convert)
    write_augmented(augmented.values(), args.output)
    print(f"parsed {len(augmented)} generations -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Model commands


def _cmd_train(args) -> int:
    cfg = _experiment_config(args)
    model, tlog, ftcr = train_scorer(cfg, load_augmented(args.train), load_augmented(args.dev))
    save_model(model, args.checkpoint)
    if ftcr is not None:
        print(f"context admitted for {ftcr['admitted']}/{ftcr['total']} training instances")
    print(
        f"best dev accuracy {tlog.best_dev_accuracy * 100:.2f}% at epoch {tlog.best_epoch}"
        f" -> {args.checkpoint}"
    )
    return 0


def _accuracy_line(metrics: dict) -> str:
    return f"{metrics['accuracy'] * 100:.2f}% ({metrics['n_correct']}/{metrics['n']})"


def _cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    saved = model.featurizer
    # the featurizer is the checkpoint's; a flag may only repeat it
    args.dim = saved.dim if args.dim is None else args.dim
    args.hash_seed = saved.hash_seed if args.hash_seed is None else args.hash_seed
    cfg = _experiment_config(args)
    if cfg.featurizer() != saved:
        raise HarnessError(
            f"--dim {cfg.featurizer_dim} and --hash-seed {cfg.hash_seed} differ from the"
            f" checkpoint's dim {saved.dim} and hash seed {saved.hash_seed}"
        )
    report = evaluate(model, cfg, load_augmented(args.data))
    print(f"accuracy: {_accuracy_line(report.metrics)}")
    if args.report:
        write_report(report, args.report)
        print(f"wrote report -> {args.report}")
    return 0


# ---------------------------------------------------------------------------
# Experiment commands


def _synthetic(args, seed: int):
    """The synthetic corpus at `seed` and its oracle context provider."""
    sizes = {
        name: getattr(args, name)
        for name in ("train_size", "dev_size", "test_size")
        if getattr(args, name) is not None
    }
    spec = SyntheticSpec(seed=seed, **sizes)
    return build_corpus(spec), SyntheticContextProvider(spec)


def _setup(args, cfg: ExperimentConfig):
    """Datasets and context provider: the synthetic oracle or the pipeline."""
    files = {f"--data-{split}": getattr(args, f"data_{split}") for split in SPLITS}
    sizes = {f"--{split}-size": getattr(args, f"{split}_size") for split in SPLITS}
    # the synthetic corpus reads no file, and files have no sizes
    unread = {**files, "--completions": args.completions} if args.synthetic else sizes
    given = [flag for flag, value in unread.items() if value is not None]
    if given:
        side = "with" if args.synthetic else "without"
        raise HarnessError(f"{' '.join(given)} cannot be used {side} --synthetic")
    if args.synthetic:
        return _synthetic(args, cfg.seed)
    if cfg.mode == "live":
        raise HarnessError(
            "experiment commands cannot call upstream: prime the cache with `privqa generate"
            " --mode live --api-url URL`, then run with --mode replay"
        )
    needed = {**files, "--demos": cfg.demo_file, "--cache": cfg.cache_path}
    missing = [flag for flag, value in needed.items() if not value]
    if missing:
        raise HarnessError(f"pipeline runs need {' '.join(missing)} (or --synthetic)")
    datasets = {split: load_dataset(path) for split, path in zip(SPLITS, files.values())}
    demos = _load_demos(cfg.demo_file)
    gazetteer = load_gazetteer(cfg.gazetteer_file) if cfg.gazetteer_file else None
    gateway = Gateway(cfg.cache_path, mock_completions=_load_completions(args.completions))
    provider = PipelineProvider(
        gateway, demos, gazetteer=gazetteer, model_id=cfg.model_id, mode=cfg.mode
    )
    return datasets, provider


def _publish(out: str | None, named: dict[str, EvalReport]) -> None:
    """Print the summary table; with `out`, also write one file per report."""
    print(render_report_table(list(named.values())))
    if not out:
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, report in named.items():
        write_report(report, outdir / f"{name}.json")
    print(f"wrote {len(named)} reports -> {outdir}")


def _sweep_name(ratio: float, seed: int) -> str:
    return f"sweep-ratio{ratio:g}-seed{seed}"


def _sweep_ratios(text, seed: int) -> tuple[float, ...]:
    """`--ratios` as numbers, each naming its own report; unset, the defaults."""
    if text is None:
        return DEFAULT_SWEEP_RATIOS
    named: dict[str, str] = {}
    for item in text.split(","):
        try:
            name = _sweep_name(float(item), seed)
        except ValueError:
            raise HarnessError(f"--ratios: {item!r} is not a number") from None
        if name in named:
            raise HarnessError(f"--ratios: {item!r} and {named[name]!r} would both write {name}")
        named[name] = item
    return tuple(float(item) for item in named.values())


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    ratios = _sweep_ratios(args.ratios, cfg.seed)
    datasets, provider = _setup(args, cfg)
    reports = run_budget_sweep(cfg, datasets, provider, ratios)
    _publish(args.out, {_sweep_name(r.config["ratio"], cfg.seed): r for r in reports})
    return 0


def _cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    datasets, provider = _setup(args, cfg)
    results = run_representation_compare(cfg, datasets, provider)
    _publish(args.out, {f"compare-{m}-seed{cfg.seed}": r for m, r in results.items()})
    return 0


def _cmd_ood(args) -> int:
    if not args.synthetic:
        raise HarnessError(
            "ood runs on --synthetic only; over files, run `privqa train` on the source"
            " domain, then `privqa eval --data TARGET`"
        )
    cfg = _experiment_config(args)
    source, provider = _synthetic(args, cfg.seed)
    target, target_provider = _synthetic(args, 1 if args.target_seed is None else args.target_seed)
    _publish(None, {"ood": run_ood(cfg, source, target, provider, target_provider)})
    return 0


def _report_fields(data: dict) -> dict:
    """A saved report's object, once the fields the summary table reads are checked."""
    field(data, ("metrics", "accuracy"), float, HarnessError)
    field(data, ("metrics", "n"), int, HarnessError)
    for name in ("regime", "view", "method"):
        field(data, ("config", name), str, HarnessError, "")
    field(data, ("config", "ratio"), float, HarnessError, 0.0)
    if data.get("budget") is not None:
        field(data, ("budget", "formatted"), str, HarnessError)
    return data


def _load_report(path: str) -> EvalReport:
    data = read_json(path, HarnessError, _report_fields)
    return EvalReport(**{f.name: data.get(f.name, {}) for f in fields(EvalReport)})


def _cmd_report(args) -> int:
    print(render_report_table([_load_report(path) for path in args.inputs]))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_experiment_flags(p: argparse.ArgumentParser, unread: tuple[str, ...] = ()) -> None:
    """--config, then one flag per ExperimentConfig field not in `unread`, typed as its default.

    Values are checked when the `ExperimentConfig` is built, as config-file values are.
    """
    p.add_argument("--config", help="JSON file of option defaults")
    for f in fields(ExperimentConfig):
        if f.name in unread:
            continue
        dest = _FLAG_DEST.get(f.name, f.name)
        p.add_argument(f"--{dest.replace('_', '-')}", type=type(f.default), help=f"sets {f.name}")


def _add_source_flags(p: argparse.ArgumentParser, data_files: bool) -> None:
    """Where an experiment's splits come from: the synthetic corpus or files."""
    # unset is None, not False, so a config file can set it
    p.add_argument("--synthetic", action="store_true", default=None)
    p.add_argument("--train-size", type=int)
    p.add_argument("--dev-size", type=int)
    p.add_argument("--test-size", type=int)
    if data_files:
        p.add_argument("--data-train")
        p.add_argument("--data-dev")
        p.add_argument("--data-test")
        p.add_argument("--completions", help="JSON id->completion map for mock mode")


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
    _add_experiment_flags(p, ("ratio", "method", *_PIPELINE_FIELDS))
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
    _add_experiment_flags(p, _PIPELINE_FIELDS)
    _add_source_flags(p, data_files=False)
    p.add_argument("--target-seed", type=int, help="synthetic target domain seed")
    p.set_defaults(func=_cmd_ood)

    p = sub.add_parser("sweep", help="sweep the keyword disclosure ratio")
    _add_experiment_flags(p, ("ratio",))
    _add_source_flags(p, data_files=True)
    p.add_argument(
        "--ratios",
        help=f"comma-separated, default {','.join(map(str, DEFAULT_SWEEP_RATIOS))}",
    )
    p.add_argument("--out", help="directory for per-ratio reports")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="compare disclosure representations at matched budget")
    _add_experiment_flags(p, ("method",))
    _add_source_flags(p, data_files=True)
    p.add_argument("--out", help="directory for per-method reports")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="summarize saved report files as a table")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the command's usage, not the top level's: every flag is the command's
        _subparser(parser, args.command).error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _apply_config_file(args, _option_kinds(parser, args.command))
        return args.func(args)
    except (PrivqaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
