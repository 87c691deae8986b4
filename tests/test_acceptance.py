"""Acceptance suite: nine checks with one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every check is self-contained: fixtures are built inline and
expected values are frozen here, independent of the unit tests.
"""

import math
import random
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from privqa.contexts import (
    ContextView,
    ftcr_admit,
    parse_generation,
    serialize_context,
    ParsedContext,
    SpecificContext,
)
from privqa.corpus import AugmentedInstance, Dataset, QAInstance, plain_augmented
from privqa.gateway import Gateway
from privqa.harness import (
    ExperimentConfig,
    PipelineProvider,
    build_inputs,
    choice_texts,
    render_report,
    run_budget_sweep,
    run_experiment,
)
from privqa.keywords import (
    METHOD_NER,
    KeywordSet,
    corpus_budget_report,
    format_budget,
)
from privqa.plugin import ExternalScorer, PluginError, external_score
from privqa.promptkit import bundled_demo_path, load_demonstrations
from privqa.scorer import (
    FeaturizerConfig,
    ScorerModel,
    loss_and_grad,
    softmax,
)
from privqa.synthetic import (
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    gazetteer_tokens,
)

# Preliminary decisions of the bundled demonstration corpus, frozen: 5 + 5
# from the medical sets, 7 + 7 from the general ones, including the two
# multi-label decisions and the one absent decision.
DEMO_DECISIONS = {
    "medqa": [{"c"}, {"d"}, {"d"}, {"d"}, {"d"}],
    "medmcqa": [{"a"}, {"b"}, {"d"}, {"c"}, {"b"}],
    "csqa": [{"e"}, {"c", "e"}, {"b"}, {"e"}, {"c"}, {"a", "c"}, {"d"}],
    "obqa": [{"a"}, {"b"}, {"a"}, {"d"}, {"a"}, set(), {"d"}],
}


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    return ok


@pytest.fixture(scope="module")
def full_synthetic():
    spec = SyntheticSpec(seed=0)  # 500 train / 200 dev / 200 test
    return build_corpus(spec), SyntheticContextProvider(spec)


# ---------------------------------------------------------------------------
# 1. Parser fixture suite


def test_criterion_1_parser_fixtures():
    start = time.perf_counter()
    ok = True
    total = 0
    for name, expected in DEMO_DECISIONS.items():
        demos = load_demonstrations(bundled_demo_path(name))
        ok = ok and [set(d.context.decision) for d in demos] == expected
        for demo in demos:
            labels = tuple(demo.choices)
            text = serialize_context(demo.context, labels)
            ok = ok and parse_generation(text, labels) == demo.context
        total += len(demos)
    ok = ok and total == 24
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _line(1, "parser fixtures", ok, f"{total} fixtures round-tripped in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Privacy-budget arithmetic


def _budget_fixture(question_lengths, keyword_lengths):
    instances = []
    kmap = {}
    for i, (qn, kn) in enumerate(zip(question_lengths, keyword_lengths)):
        inst = QAInstance(
            id=f"b{i}",
            question=" ".join(f"w{j}" for j in range(qn)),
            choices={"a": "x", "b": "y"},
            gold="a",
        )
        instances.append(inst)
        words = tuple(f"w{j}" for j in range(kn))
        kmap[inst.id] = KeywordSet(words, METHOD_NER, 1.0, 0, tuple(range(kn)), kn)
    return Dataset("fix", "test", tuple(instances)), kmap


def test_criterion_2_budget_rows():
    ds1, k1 = _budget_fixture([116] * 8 + [117] * 2, [49] * 9 + [50])
    rep1 = corpus_budget_report(ds1, k1)
    ds2, k2 = _budget_fixture([119] * 4 + [120] * 6, [50] * 3 + [51] * 7)
    rep2 = corpus_budget_report(ds2, k2)
    ok = (
        abs(rep1.avg_keyword_words - 49.1) < 1e-9
        and abs(rep1.avg_question_words - 116.2) < 1e-9
        and format_budget(rep1.budget) == "42.3%"
        and abs(rep1.budget - 0.423) < 0.0005
        and abs(rep2.avg_keyword_words - 50.7) < 1e-9
        and abs(rep2.avg_question_words - 119.6) < 1e-9
        and format_budget(rep2.budget) == "42.4%"
        and abs(rep2.budget - 0.424) < 0.0005
    )
    assert _line(
        2,
        "privacy budget rows",
        ok,
        f"49.1/116.2 -> {format_budget(rep1.budget)}, "
        f"50.7/119.6 -> {format_budget(rep2.budget)}",
    )


# ---------------------------------------------------------------------------
# 3. Gradient correctness


def _random_augmented(rng, idx, cfg_dim):
    choices = {lab: " ".join(f"c{rng.randrange(80)}" for _ in range(3)) for lab in "abcd"}
    gold = rng.choice("abcd")
    specific = {
        lab: SpecificContext(
            " ".join(f"k{rng.randrange(80)}" for _ in range(4)) + ".",
            "It is related." if rng.random() < 0.5 else "No relationship can be found.",
        )
        for lab in "abcd"
    }
    inst = QAInstance(
        id=idx,
        question=" ".join(f"w{rng.randrange(50)}" for _ in range(10)),
        choices=choices,
        gold=gold,
    )
    ctx = ParsedContext(
        overall=" ".join(f"o{rng.randrange(80)}" for _ in range(5)) + ".",
        specific=specific,
        decision=frozenset(gold),
    )
    return AugmentedInstance(instance=inst, context=ctx, generation_id=idx)


def test_criterion_3_gradient_check():
    # central differences on 20 random coordinates per (model, batch) pair;
    # differences are normalized by the gradient's infinity norm, since
    # features shared by all four choices have an exactly zero gradient
    cfg = FeaturizerConfig(dim=4096, hash_seed=17)
    rng = random.Random(12)
    eps = 1e-5
    worst = 0.0
    start = time.perf_counter()
    for pair in range(100):
        batch = build_inputs(
            [_random_augmented(rng, f"g{pair}-{i}", cfg.dim) for i in range(3)],
            "FTC",
            ContextView.FULL,
        )
        model = ScorerModel.zeros(cfg)
        model.weights[:] = np.array([rng.gauss(0, 0.5) for _ in range(cfg.dim)])
        model.bias = rng.gauss(0, 0.5)
        lg = loss_and_grad(model, batch)
        scale = max(max((abs(v) for v in lg.weight_grad.values()), default=0.0), 1e-8)

        touched = sorted(lg.weight_grad)
        coords = rng.sample(touched, min(15, len(touched)))
        coords += [rng.randrange(cfg.dim) for _ in range(20 - len(coords))]
        for idx in coords:
            keep = model.weights[idx]
            model.weights[idx] = keep + eps
            up = loss_and_grad(model, batch).loss
            model.weights[idx] = keep - eps
            down = loss_and_grad(model, batch).loss
            model.weights[idx] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - lg.weight_grad.get(idx, 0.0)) / scale)

        keep = model.bias
        model.bias = keep + eps
        up = loss_and_grad(model, batch).loss
        model.bias = keep - eps
        down = loss_and_grad(model, batch).loss
        model.bias = keep
        worst = max(worst, abs((up - down) / (2 * eps) - lg.bias_grad) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    assert _line(
        3,
        "gradient vs finite differences",
        ok,
        f"100 pairs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Analytic loss


def test_criterion_4_analytic_loss():
    cfg = FeaturizerConfig(dim=4096, hash_seed=17)
    rng = random.Random(13)
    model = ScorerModel.zeros(cfg)
    worst_loss = 0.0
    for i in range(20):
        items = build_inputs([_random_augmented(rng, f"u{i}", cfg.dim)], "FTC", ContextView.FULL)
        worst_loss = max(worst_loss, abs(loss_and_grad(model, items).loss - math.log(4)))
    worst_sum = 0.0
    for _ in range(10_000):
        scores = [rng.uniform(-100, 100) for _ in range(rng.randrange(2, 9))]
        worst_sum = max(worst_sum, abs(float(softmax(scores).sum()) - 1.0))
    ok = worst_loss <= 1e-12 and worst_sum <= 1e-9
    assert _line(
        4,
        "uniform loss and softmax normalization",
        ok,
        f"|loss-ln4| <= {worst_loss:.1e}, |sum-1| <= {worst_sum:.1e} over 10000 vectors",
    )


# ---------------------------------------------------------------------------
# 5. Synthetic end-to-end separations


def test_criterion_5_regime_and_view_separations(full_synthetic):
    corpus, provider = full_synthetic
    seeds = (0, 1, 2)
    accs = {"FTC": [], "SFT": [], "OnlySpecific": [], "OnlyOverall": []}
    slowest = 0.0
    for seed in seeds:
        runs = [
            ("FTC", ExperimentConfig(regime="FTC", view="Full", seed=seed, featurizer_dim=2**16), provider),
            ("SFT", ExperimentConfig(regime="SFT", view="Full", seed=seed, featurizer_dim=2**16), None),
            ("OnlySpecific", ExperimentConfig(regime="FTC", view="OnlySpecific", seed=seed, featurizer_dim=2**16), provider),
            ("OnlyOverall", ExperimentConfig(regime="FTC", view="OnlyOverall", seed=seed, featurizer_dim=2**16), provider),
        ]
        for name, cfg, prov in runs:
            start = time.perf_counter()
            report = run_experiment(cfg, corpus, prov)
            slowest = max(slowest, time.perf_counter() - start)
            accs[name].append(report.metrics["accuracy"])
    ok = (
        min(accs["FTC"]) >= 0.95
        and max(accs["SFT"]) <= 0.35
        and min(accs["OnlySpecific"]) >= 0.90
        and max(accs["OnlyOverall"]) <= 0.35
        and slowest < 60.0
    )
    detail = ", ".join(
        f"{name} {min(v):.3f}..{max(v):.3f}" for name, v in accs.items()
    )
    assert _line(5, "synthetic separations (3 seeds)", ok, f"{detail}; slowest run {slowest:.1f}s")


# ---------------------------------------------------------------------------
# 6. Regime laws


def test_criterion_6_regime_laws(full_synthetic):
    corpus, provider = full_synthetic
    train_aug, _ = provider.provide(corpus["train"], 0.5, seed=0)
    ftc_nc = build_inputs(train_aug, "FTC", ContextView.NO_CONTEXT)
    sft = build_inputs(
        [plain_augmented(a.instance) for a in train_aug], "SFT", ContextView.FULL
    )
    ftc_bytes = "\x00".join("\x01".join(ci.texts) for ci in ftc_nc).encode("utf-8")
    sft_bytes = "\x00".join("\x01".join(ci.texts) for ci in sft).encode("utf-8")
    byte_identical = ftc_bytes == sft_bytes and [c.id for c in ftc_nc] == [
        c.id for c in sft
    ]

    dev_aug, _ = provider.provide(corpus["dev"], 0.5, seed=0)
    inputs = build_inputs(dev_aug, "FTCR", ContextView.FULL)
    with_context = {
        item.id
        for item, aug in zip(inputs, dev_aug)
        if item.texts != choice_texts(aug, ContextView.NO_CONTEXT)
    }
    admitted = {
        a.instance.id for a in dev_aug if ftcr_admit(a.context, a.instance.gold)
    }
    counting = (
        with_context == admitted
        and 0 < len(admitted) < len(dev_aug)
        and len(dev_aug) >= 50
    )
    ok = byte_identical and counting
    assert _line(
        6,
        "regime laws",
        ok,
        f"{len(ftc_nc)} context-free inputs byte-identical; "
        f"FTCR admits {len(admitted)}/{len(dev_aug)} exactly matching ftcr_admit",
    )


# ---------------------------------------------------------------------------
# 7. Budget-sweep proportionality


def test_criterion_7_budget_sweep(full_synthetic):
    corpus, provider = full_synthetic
    cfg = ExperimentConfig(regime="FTC", view="Full", seed=0, featurizer_dim=2**16)
    ratios = (0.25, 0.5, 0.75, 1.0)
    reports = run_budget_sweep(cfg, corpus, provider, ratios)
    full_budget = reports[-1].budget["budget"]
    budgets = [r.budget["budget"] for r in reports]
    within = all(
        abs(b - ratio * full_budget) <= 0.02 for b, ratio in zip(budgets, ratios)
    )
    accs = [r.metrics["accuracy"] for r in reports]
    monotone = all(b >= a for a, b in zip(accs, accs[1:]))
    ok = within and monotone
    assert _line(
        7,
        "budget sweep",
        ok,
        "budgets " + ", ".join(format_budget(b) for b in budgets)
        + "; accuracy " + ", ".join(f"{a:.3f}" for a in accs),
    )


# ---------------------------------------------------------------------------
# 8. Replay reproducibility


def test_criterion_8_replay_reproducibility(tmp_path):
    spec = SyntheticSpec(seed=8, train_size=60, dev_size=30, test_size=30)
    corpus = build_corpus(spec)
    oracle = SyntheticContextProvider(spec)
    demos = oracle.demonstrations(corpus["train"], count=2)
    gazetteer = gazetteer_tokens(spec)
    cache = tmp_path / "cache.jsonl"
    cfg = ExperimentConfig(
        regime="FTC",
        view="Full",
        seed=0,
        featurizer_dim=2**14,
        mode="replay",
        cache_path=str(cache),
    )

    mocks = {}
    for split in ("train", "dev", "test"):
        mocks.update(oracle.mock_completions(corpus[split], cfg.ratio, seed=cfg.seed))
    prime_gw = Gateway(cache, mock_completions=mocks)
    run_experiment(
        replace(cfg, mode="mock"),
        corpus,
        PipelineProvider(prime_gw, demos, gazetteer=gazetteer, mode="mock"),
    )

    outputs = []
    transports = []
    for _ in range(2):
        gw = Gateway(cache)
        provider = PipelineProvider(gw, demos, gazetteer=gazetteer, mode="replay")
        report = run_experiment(cfg, corpus, provider)
        outputs.append(render_report(report).encode("utf-8"))
        transports.append(gw.transport_calls)
    ok = outputs[0] == outputs[1] and transports == [0, 0]
    assert _line(
        8,
        "replay reproducibility",
        ok,
        f"two runs, {len(outputs[0])} report bytes each, transport calls {transports}",
    )


# ---------------------------------------------------------------------------
# 9. Plugin conformance


WRONG_ID_STUB = """
import sys, json
print(json.dumps({"protocol": 1}), flush=True)
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": "someone-else", "scores": [0.0] * len(req["inputs"])}), flush=True)
"""


def test_criterion_9_plugin_conformance():
    spec = SyntheticSpec(seed=9, train_size=100, dev_size=1, test_size=1)
    corpus = build_corpus(spec)
    oracle = SyntheticContextProvider(spec)
    augmented, _ = oracle.provide(corpus["train"], 1.0, seed=0)

    scored = 0
    counts_ok = True
    with ExternalScorer([sys.executable, "-m", "privqa.plugin_stub"]) as scorer:
        for aug in augmented:
            sv = external_score(scorer, aug, ContextView.FULL)
            texts = choice_texts(aug, ContextView.FULL)
            counts_ok = counts_ok and len(sv.scores) == len(aug.instance.choices)
            counts_ok = counts_ok and list(sv.scores) == [float(len(t)) for t in texts]
            counts_ok = counts_ok and abs(sum(sv.probs) - 1.0) < 1e-9
            scored += 1

    offender = augmented[0]
    named = False
    with ExternalScorer([sys.executable, "-c", WRONG_ID_STUB], timeout=5.0) as bad:
        try:
            external_score(bad, offender, ContextView.FULL)
        except PluginError as exc:
            named = offender.instance.id in str(exc)
    ok = scored == 100 and counts_ok and named
    assert _line(
        9,
        "plugin conformance",
        ok,
        f"{scored} instances scored; malformed stub error names {offender.instance.id!r}",
    )
