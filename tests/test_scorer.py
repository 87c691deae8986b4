import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privqa.contexts import ContextView, ParsedContext, SpecificContext
from privqa.corpus import MAX_CHOICES, AugmentedInstance, QAInstance
from privqa.harness import (
    SEPARATOR,
    ExperimentConfig,
    assemble_input,
    build_inputs,
    choice_texts,
    eval_view,
    predict_labels,
    train_scorer,
)
from privqa.scorer import (
    CHUNK_TEXTS,
    NGRAM_ORDERS,
    FeaturizerConfig,
    ScorerError,
    ScorerModel,
    TrainConfig,
    TrainingDiverged,
    TrainItem,
    _featurize_slots,
    best_choices,
    featurize,
    featurize_texts,
    load_model,
    loss_and_grad,
    save_model,
    score_texts,
    softmax,
    train,
)
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

CFG = FeaturizerConfig(dim=4096, hash_seed=17)


def make_augmented(idx="i1", gold="b"):
    inst = QAInstance(
        id=idx,
        question="the pump moves blood through vessels",
        choices={
            "a": "stone wall",
            "b": "cardiac muscle",
            "c": "green leaf",
            "d": "open sky",
        },
        gold=gold,
    )
    ctx = ParsedContext(
        overall="The question is about circulation.",
        specific={
            "a": SpecificContext("Stones are minerals.", "No relationship can be found."),
            "b": SpecificContext("The heart is cardiac muscle.", "It is strongly related."),
            "c": SpecificContext("Leaves do photosynthesis.", "No relationship can be found."),
            "d": SpecificContext("The sky is above.", "No relationship can be found."),
        },
        decision=frozenset(gold),
    )
    return AugmentedInstance(instance=inst, context=ctx, generation_id="g-" + idx)


def full_items(batch):
    """Scorer inputs of augmented instances, with their full context."""
    return build_inputs(batch, "FTC", ContextView.FULL)


def random_augmented(rng, idx):
    words = [f"w{rng.randrange(50)}" for _ in range(10)]
    choices = {
        lab: " ".join(f"c{rng.randrange(80)}" for _ in range(3)) for lab in "abcd"
    }
    specific = {
        lab: SpecificContext(
            " ".join(f"k{rng.randrange(80)}" for _ in range(4)) + ".",
            "It is related." if rng.random() < 0.5 else "No relationship can be found.",
        )
        for lab in "abcd"
    }
    gold = rng.choice("abcd")
    inst = QAInstance(id=idx, question=" ".join(words), choices=choices, gold=gold)
    ctx = ParsedContext(
        overall=" ".join(f"o{rng.randrange(80)}" for _ in range(5)) + ".",
        specific=specific,
        decision=frozenset(gold),
    )
    return AugmentedInstance(instance=inst, context=ctx, generation_id=idx)


def test_assemble_input_uses_reserved_separator():
    text = assemble_input("q text", "answer", "overall", "specific")
    assert text == f"q text {SEPARATOR} answer {SEPARATOR} overall {SEPARATOR} specific"


def test_assemble_input_scrubs_separator_from_segments():
    text = assemble_input(f"q{SEPARATOR}x", "a", "o", "s")
    assert text.count(SEPARATOR) == 3


def test_featurizer_sees_no_segment_boundary():
    # str.split() treats the separator as whitespace: moving a word across a
    # boundary leaves the features unchanged, and only external scorers see it
    left = featurize(assemble_input("a b", "c", "", ""), CFG)
    right = featurize(assemble_input("a", "b c", "", ""), CFG)
    assert left.indices.tobytes() == right.indices.tobytes()
    assert left.values.tobytes() == right.values.tobytes()


def _hash_token(token, seed, dim):
    h = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(h, "little") % dim


def reference_featurize(text, config):
    """The featurizer as a per-text dict loop: (indices, values) in first-occurrence order."""
    tokens = text.lower().split()
    counts = {}
    for order in NGRAM_ORDERS:
        for gram in map("\x1f".join, zip(*[tokens[k:] for k in range(order)])):
            idx = _hash_token(gram, config.hash_seed, config.dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    return (
        np.fromiter(counts.keys(), dtype=np.int64, count=len(counts)),
        np.fromiter(counts.values(), dtype=np.float64, count=len(counts)),
    )


def feature_rows(featurized):
    """Per-text (indices bytes, values bytes) of `featurize_texts` output."""
    indices, values, sizes = featurized
    assert (indices.dtype, values.dtype, sizes.dtype) == (np.int64, np.float64, np.int64)
    ends = np.cumsum(sizes).tolist()
    return [
        (indices[lo:hi].tobytes(), values[lo:hi].tobytes()) for lo, hi in zip([0, *ends], ends)
    ]


# mixed case, non-ASCII (with case maps that change length or depend on
# context, as a final sigma next to a segment boundary does), the separator
# alone, in runs and inside a word, other separators and line breaks that
# `str.split()` takes for whitespace, and bare whitespace
TOKENS = st.sampled_from(
    ["a", "A", "b", "ab", "Straße", "ΣΑΣ", "é", "İ", "日本", "tok1", "TOK1",
     SEPARATOR, f"x{SEPARATOR}y", "Σ" + SEPARATOR, SEPARATOR + "Σ", SEPARATOR * 2,
     SEPARATOR * 3, "\x85", "\u2028", "\x1c", "\x1d", "\u00a0", "\t\n"]
)
TEXTS = st.one_of(
    st.lists(TOKENS, max_size=12).map(" ".join),
    st.lists(TOKENS, max_size=12).map("".join),
    st.text(max_size=12),
)
# dims 1-7 make unigrams and bigrams collide; 2**62 overflows a sort key that
# packs a text number with an index
DIMS = st.one_of(st.integers(1, 7), st.just(2**62), st.just(4096))


@settings(max_examples=80, deadline=None)
@given(
    base=st.lists(TEXTS, max_size=8),
    copies=st.sampled_from([1, 1, 2, CHUNK_TEXTS // 4 + 3]),
    skip=st.integers(0, 5),
    warmup=st.lists(TEXTS, max_size=8),
    dim=DIMS,
    hash_seed=st.integers(0, 2**16),
)
@example(
    base=["a a b", "", " ", "A b a"], copies=CHUNK_TEXTS // 4 + 3, skip=1, warmup=["b a"],
    dim=2**62, hash_seed=17,
)
def test_featurize_texts_equals_reference(base, copies, skip, warmup, dim, hash_seed):
    texts = (base * copies)[skip:]
    expected = [
        (i.tobytes(), v.tobytes())
        for i, v in (reference_featurize(t, FeaturizerConfig(dim, hash_seed)) for t in texts)
    ]
    assert feature_rows(featurize_texts(texts, FeaturizerConfig(dim, hash_seed))) == expected
    # a memo warmed by earlier calls gives the rows a fresh one does
    warm = FeaturizerConfig(dim, hash_seed)
    featurize_texts(warmup, warm)
    featurize_texts(texts[: len(texts) // 2], warm)
    assert feature_rows(featurize_texts(texts, warm)) == expected


WORDS = ["a", "A", "b", "ab", "Straße", "ΣΑΣ", "é", "İ", "日本", "tok1", "TOK1", "\x85",
         "\u00a0"]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    extra=st.integers(1, 300),
    first=st.integers(1, CHUNK_TEXTS - 1),
    dim=DIMS,
    hash_seed=st.integers(0, 2**16),
)
@example(seed=0, extra=1, first=1, dim=3, hash_seed=17)
def test_featurize_texts_over_calls_equals_reference(seed, extra, first, dim, hash_seed):
    # Text k brings word w{k}, new, among words of the half chunk before it
    # and of texts anywhere, joined by spaces and separators. The first call
    # spans two chunk edges, so new words and bigrams recur across chunk
    # edges, and the second call, in reverse, brings words the first saw.
    rng = random.Random(seed)
    n = 3 * CHUNK_TEXTS + extra
    words = [f"w{k}" for k in range(n)]
    texts = []
    for k in range(n):
        pool = words[max(k - CHUNK_TEXTS // 2, 0) : k] + rng.choices(words, k=2) + WORDS
        parts = [words[k], *rng.choices(pool, k=rng.randrange(8))]
        rng.shuffle(parts)
        glue = rng.choices([" ", "  ", SEPARATOR, f" {SEPARATOR} ", SEPARATOR * 2], k=len(parts))
        texts.append("".join(chain.from_iterable(zip(parts, glue))))
    reference = FeaturizerConfig(dim, hash_seed)
    expected = [
        (i.tobytes(), v.tobytes()) for i, v in (reference_featurize(t, reference) for t in texts)
    ]
    cut = 2 * CHUNK_TEXTS + first
    warm = FeaturizerConfig(dim, hash_seed)
    assert feature_rows(featurize_texts(texts[:cut], warm)) == expected[:cut]
    assert feature_rows(featurize_texts(texts[cut:][::-1], warm)) == expected[cut:][::-1]
    assert feature_rows(featurize_texts(texts, warm)) == expected
    assert feature_rows(featurize_texts(texts, FeaturizerConfig(dim, hash_seed))) == expected


def test_featurize_frozen_indices():
    fv = featurize("alpha beta", CFG)
    assert dict(zip(fv.indices, fv.values)) == {841: 1.0, 2440: 1.0, 3446: 1.0}


def test_featurize_counts_repeats():
    fv = featurize("alpha alpha beta", CFG)
    d = dict(zip(fv.indices, fv.values))
    assert d[841] == 2.0  # unigram "alpha" seen twice


def test_featurize_lowercases():
    upper, lower = featurize("Alpha BETA", CFG), featurize("alpha beta", CFG)
    assert dict(zip(upper.indices, upper.values)) == dict(zip(lower.indices, lower.values))


def test_featurize_memo_is_per_config(tmp_path):
    text = "alpha beta gamma alpha"
    grams = ["alpha", "beta", "gamma", "alpha", "alpha\x1fbeta", "beta\x1fgamma", "gamma\x1falpha"]
    configs = [
        FeaturizerConfig(dim=4096, hash_seed=17),
        FeaturizerConfig(dim=4096, hash_seed=18),
        FeaturizerConfig(dim=1000, hash_seed=18),
    ]
    for cfg in configs:
        expected = {}
        for gram in grams:
            idx = _hash_token(gram, cfg.hash_seed, cfg.dim)
            expected[idx] = expected.get(idx, 0.0) + 1.0
        fv = featurize(text, cfg)
        assert fv.indices.tolist() == list(expected)
        assert fv.values.tolist() == list(expected.values())
    # the memo is no field: a used config still equals and hashes like a new one
    fresh = FeaturizerConfig(dim=4096, hash_seed=17)
    assert configs[0] == fresh and hash(configs[0]) == hash(fresh)
    save_model(ScorerModel.zeros(configs[0]), tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert meta == {"dim": 4096, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True}


def test_dropped_config_frees_its_memo_at_once():
    # a reference cycle would keep the memo alive until a full collection
    cfg = FeaturizerConfig(dim=4096)
    featurize_texts(["alpha beta", "beta gamma"], cfg)
    memo = [weakref.ref(cfg._tokens), weakref.ref(cfg._bigrams)]
    gc.disable()
    try:
        del cfg
        assert [ref() for ref in memo] == [None, None]
    finally:
        gc.enable()


def test_memo_holds_few_bytes_per_ngram():
    # ≈29 K distinct n-grams held as Python ints in dicts took 206 bytes each
    # (the memo as a whole, over that count); sorted numpy tables take 52
    rng = random.Random(5)
    vocab = [f"w{k}" for k in range(2000)]
    texts = [" ".join(rng.choices(vocab, k=12)) for _ in range(2500)]
    grams = {g for t in texts for g in t.split()}
    grams |= {g for t in texts for g in zip(t.split(), t.split()[1:])}
    tracemalloc.start()
    try:
        cfg = FeaturizerConfig()
        featurize_texts(texts, cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grams) > 29000
    assert held / len(grams) < 100


def test_segments_whose_str_hashes_alias_stay_apart():
    # a `str` hashes its internal bytes: latin-1 "AN" and UCS-2 "\u4e41" share them
    cfg = FeaturizerConfig(dim=4096)
    texts = ["AN", "\u4e41", SEPARATOR.join(["\u4e41", "AN"])]
    expected = [(i.tobytes(), v.tobytes()) for i, v in (reference_featurize(t, cfg) for t in texts)]
    assert feature_rows(featurize_texts(texts, cfg)) == expected


def test_featurizing_keeps_few_bytes_per_segment():
    # many short segments over few n-grams: a command-long segment memo of
    # two hashes, a check column and token columns kept 71 bytes a segment
    # (the config as a whole, over that count); the n-gram memo alone keeps
    # under 5, since no call keeps anything per segment
    rng = random.Random(3)
    vocab = [f"w{k}" for k in range(40)]
    texts = [
        SEPARATOR.join(" ".join(rng.choices(vocab, k=4)) for _ in range(4)) for _ in range(4000)
    ]
    segments = {s for t in texts for s in t.split(SEPARATOR)}
    tracemalloc.start()
    try:
        cfg = FeaturizerConfig(dim=4096)
        featurize_texts(texts, cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(segments) > 15000
    assert held / len(segments) < 10


def test_one_featurizing_call_peaks_low():
    # Traced peak of one call over a default train split's 2,000 choice texts
    # on a fresh config. It read 4.06 MB when a call split all of its distinct
    # segments into columns before counting, and 3.20 MB chunk by chunk at
    # 256 texts; chunks of 320 texts read 3.64 MB.
    spec = SyntheticSpec(seed=0)
    corpus = build_corpus(spec)
    train_aug = SyntheticContextProvider(spec).provide(corpus["train"], 0.25, 0)[0]
    config = ExperimentConfig(ratio=0.25)
    items = build_inputs(train_aug, config.regime, config.context_view())
    texts = [text for item in items for text in item.texts]
    tracemalloc.start()
    try:
        _featurize_slots(texts, FeaturizerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(texts) == 2000
    assert peak < 3.5e6


def test_featurize_empty():
    fv = featurize("", CFG)
    assert fv.indices.size == 0


def test_featurize_counts_past_int16():
    # the featurizer's integer count column must hold a count above 2**15
    text = "a " * 70000
    cfg = FeaturizerConfig(dim=4096, hash_seed=17)
    expected = [_hash_token("a", 17, 4096), _hash_token("a\x1fa", 17, 4096)]
    indices, values, sizes = featurize_texts([text], cfg)
    assert indices.tolist() == expected
    assert values.tolist() == [70000.0, 69999.0]
    assert sizes.tolist() == [2]
    slots, counts, sizes = _featurize_slots([text], cfg)
    assert cfg._tokens.indices[slots].tolist() == expected
    assert counts.tolist() == [70000, 69999]


def test_softmax_sums_to_one():
    rng = random.Random(11)
    for _ in range(200):
        scores = [rng.uniform(-50, 50) for _ in range(rng.randrange(2, 8))]
        p = softmax(scores)
        assert abs(float(p.sum()) - 1.0) < 1e-9
        assert (p >= 0).all()


def test_softmax_overflow_safe():
    p = softmax([1000.0, 0.0])
    assert abs(float(p.sum()) - 1.0) < 1e-12
    assert p[0] > 0.999


def test_uniform_model_loss_is_log_n_choices():
    aug = make_augmented()
    model = ScorerModel.zeros(CFG)
    loss = loss_and_grad(model, full_items([aug])).loss
    assert abs(loss - math.log(4)) < 1e-12


def test_zero_model_ties_break_to_lowest_label():
    aug = make_augmented()
    model = ScorerModel.zeros(CFG)
    assert predict_labels(model, ExperimentConfig(), [aug]) == ({"i1": "a"}, {"i1": "b"})


def test_confident_model_loss_near_zero():
    aug = make_augmented(gold="b")
    gold_text = choice_texts(aug, ContextView.FULL)[1]
    fv = featurize(gold_text, CFG)
    weights = np.zeros(CFG.dim)
    weights[fv.indices] = 100.0
    model = ScorerModel.from_weights(weights, 0.0, CFG)
    scores = score_texts(model, choice_texts(aug, ContextView.FULL))
    assert softmax(scores)[1] > 0.999
    assert loss_and_grad(model, full_items([aug])).loss < 1e-3


def test_choice_texts_respond_to_view():
    aug = make_augmented()
    full = choice_texts(aug, ContextView.FULL)
    none = choice_texts(aug, ContextView.NO_CONTEXT)
    overall = choice_texts(aug, ContextView.ONLY_OVERALL)
    assert len(full) == 4
    assert full != none
    assert "circulation" in full[0]
    assert "circulation" not in none[0]
    assert "circulation" in overall[0]
    assert "minerals" not in overall[0]


def test_gradient_matches_finite_differences():
    # central differences on random coordinates; differences are normalized
    # by the gradient vector's scale so exact-zero coordinates do not blow up
    rng = random.Random(3)
    eps = 1e-5
    worst = 0.0
    for pair in range(20):
        batch = full_items([random_augmented(rng, f"p{pair}-{i}") for i in range(3)])
        weights = np.array([rng.gauss(0, 0.5) for _ in range(CFG.dim)], dtype=np.float64)
        model = ScorerModel.from_weights(weights, rng.gauss(0, 0.5), CFG)
        lg = loss_and_grad(model, batch)
        scale = max(max((abs(v) for v in lg.weight_grad.values()), default=0.0), 1e-8)

        touched = sorted(lg.weight_grad)
        coords = rng.sample(touched, min(10, len(touched)))
        coords += [rng.randrange(CFG.dim) for _ in range(5)]
        for idx in coords:
            keep = weights[idx]
            weights[idx] = keep + eps
            up = loss_and_grad(ScorerModel.from_weights(weights, model.bias, CFG), batch).loss
            weights[idx] = keep - eps
            down = loss_and_grad(ScorerModel.from_weights(weights, model.bias, CFG), batch).loss
            weights[idx] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - lg.weight_grad.get(idx, 0.0)) / scale)

        keep = model.bias
        model.bias = keep + eps
        up = loss_and_grad(model, batch).loss
        model.bias = keep - eps
        down = loss_and_grad(model, batch).loss
        model.bias = keep
        fd_bias = (up - down) / (2 * eps)
        worst = max(worst, abs(fd_bias - lg.bias_grad))
    assert worst <= 1e-4


def ordered_score(weights, bias, fv):
    """bias plus a plain Python left-to-right sum of the text's terms w[i] * v."""
    total = 0.0
    for idx, val in zip(fv.indices.tolist(), fv.values.tolist()):
        total += float(weights[idx]) * val
    return bias + total


def reference_loss_grad(weights, bias, featurized):
    """Per-item dict loop over full-dim weights: the order the kernel must sum in."""
    grad = {}
    bias_grad = 0.0
    total = 0.0
    inv = 1.0 / len(featurized)
    for fvs, gold in featurized:
        probs = softmax([ordered_score(weights, bias, fv) for fv in fvs])
        total -= math.log(max(probs[gold], 1e-300))
        for j, fv in enumerate(fvs):
            coeff = (probs[j] - (1.0 if j == gold else 0.0)) * inv
            bias_grad += coeff
            for idx, val in zip(fv.indices.tolist(), fv.values.tolist()):
                grad[idx] = grad.get(idx, 0.0) + coeff * val
    return total * inv, grad, bias_grad


def test_gradient_equals_dict_loop_exactly():
    rng = random.Random(14)
    for pair in range(30):
        batch = full_items(
            [random_augmented(rng, f"e{pair}-{i}") for i in range(rng.randrange(1, 9))]
        )
        weights = np.array([rng.gauss(0, 0.5) for _ in range(CFG.dim)])
        model = ScorerModel.from_weights(weights, rng.gauss(0, 0.5), CFG)
        featurized = [([featurize(t, CFG) for t in item.texts], item.gold_index) for item in batch]
        loss, grad, bias_grad = reference_loss_grad(model.weights, model.bias, featurized)
        lg = loss_and_grad(model, batch)
        touched = {int(i) for fvs, _ in featurized for fv in fvs for i in fv.indices}
        assert set(lg.weight_grad) == touched
        assert lg.weight_grad == grad
        assert lg.bias_grad == bias_grad
        assert lg.loss == loss


def test_bias_gradient_is_zero_for_shared_bias():
    # the bias shifts every choice equally, so softmax cancels it exactly
    rng = random.Random(4)
    batch = full_items([random_augmented(rng, f"b{i}") for i in range(4)])
    weights = np.array([rng.gauss(0, 0.5) for _ in range(CFG.dim)])
    lg = loss_and_grad(ScorerModel.from_weights(weights, 0.0, CFG), batch)
    assert abs(lg.bias_grad) <= 1e-12


def test_loss_and_grad_empty_batch():
    model = ScorerModel.zeros(CFG)
    with pytest.raises(ScorerError):
        loss_and_grad(model, [])


def make_separable_items(n, rng):
    # the four texts of an item share their filler tokens, which therefore
    # cancel in the softmax; only the trailing marker separates them
    items = []
    for i in range(n):
        gold = rng.randrange(4)
        base = [f"t{rng.randrange(30)}" for _ in range(5)]
        texts = tuple(
            " ".join(base + ["winner" if j == gold else f"loser{j}"])
            for j in range(4)
        )
        items.append(TrainItem(id=f"s{i}", texts=texts, gold_index=gold))
    return items


def test_train_learns_separable_data():
    rng = random.Random(9)
    train_items = make_separable_items(80, rng)
    dev_items = make_separable_items(30, rng)
    cfg = TrainConfig(max_epochs=20, warmup_steps=20, seed=1)
    model, log = train(cfg, train_items, dev_items, featurizer=CFG)
    assert log.best_dev_accuracy == 1.0
    for item in make_separable_items(30, rng):
        assert int(np.argmax(score_texts(model, item.texts))) == item.gold_index


def reference_train(config, train_items, dev_items, cfg, beta1=0.9, beta2=0.999, eps=1e-8):
    """Dense AdamW over all `cfg.dim` weights: (weights, bias, history)."""
    train_fv = [([featurize(t, cfg) for t in it.texts], it.gold_index) for it in train_items]
    dev_fv = [([featurize(t, cfg) for t in it.texts], it.gold_index) for it in dev_items]
    w = np.zeros(cfg.dim)
    m = np.zeros(cfg.dim)
    v = np.zeros(cfg.dim)
    bias = 0.0
    rng = random.Random(config.seed)
    history = []
    best = (w.copy(), bias)
    best_acc, best_epoch, since_best, step = 0.0, -1, 0, 0
    for epoch in range(config.max_epochs):
        order = list(range(len(train_fv)))
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train_fv[i] for i in order[lo : lo + config.batch_size]]
            loss, grad, bias_grad = reference_loss_grad(w, bias, batch)
            epoch_loss += loss
            n_batches += 1
            step += 1
            lr = config.learning_rate * min(1.0, step / max(1, config.warmup_steps))
            g = np.zeros(cfg.dim)
            for idx, val in grad.items():
                g[idx] = val
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * np.square(g)
            mhat = m / (1 - beta1**step)
            vhat = v / (1 - beta2**step)
            w -= lr * (mhat / (np.sqrt(vhat) + eps))
            w -= lr * config.weight_decay * w
            bias -= lr * bias_grad
        correct = 0
        for fvs, gold in dev_fv:
            raw = [ordered_score(w, bias, fv) for fv in fvs]
            correct += int(np.argmax(raw)) == gold
        acc = correct / len(dev_fv)
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss / n_batches, "dev_accuracy": acc}
        )
        if acc > best_acc or best_epoch < 0:
            best, best_acc, best_epoch, since_best = (w.copy(), bias), acc, epoch, 0
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                break
    return best[0], best[1], history


TRAIN_WORDS = ["alpha", "beta", "gamma", "delta", "eps"]
# dev-only words make n-grams that never occur in training
DEV_WORDS = TRAIN_WORDS + ["zeta", "eta", "theta"]


@st.composite
def items(draw, words, prefix, min_size=1):
    out = []
    for i in range(draw(st.integers(min_size, 6))):
        texts = draw(
            st.lists(st.lists(st.sampled_from(words), max_size=5), min_size=2, max_size=MAX_CHOICES)
        )
        gold = draw(st.integers(0, len(texts) - 1))
        out.append(TrainItem(f"{prefix}{i}", tuple(" ".join(t) for t in texts), gold))
    return out


@settings(max_examples=60, deadline=None)
@given(
    train_items=items(TRAIN_WORDS, "t"),
    dev_items=items(DEV_WORDS, "d"),
    dim=st.sampled_from([16, 4096]),
    batch_size=st.integers(1, 4),
    epochs=st.integers(1, 4),
    patience=st.integers(1, 3),
    learning_rate=st.sampled_from([0.05, 0.5]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 3),
)
@example(
    # every training text is empty: the support is empty (K = 0)
    train_items=[TrainItem("t0", ("", ""), 0), TrainItem("t1", ("", "", ""), 2)],
    dev_items=[TrainItem("d0", ("zeta eta", "alpha"), 1)],
    dim=4096, batch_size=1, epochs=2, patience=1, learning_rate=0.5, weight_decay=0.01, seed=0,
)
def test_compact_training_equals_dense(
    train_items, dev_items, dim, batch_size, epochs, patience, learning_rate, weight_decay, seed
):
    cfg = FeaturizerConfig(dim=dim, hash_seed=17)
    config = TrainConfig(
        learning_rate=learning_rate,
        batch_size=batch_size,
        max_epochs=epochs,
        warmup_steps=3,
        early_stop_patience=patience,
        seed=seed,
        weight_decay=weight_decay,
    )
    model, log = train(config, train_items, dev_items, featurizer=cfg)
    weights, bias, history = reference_train(config, train_items, dev_items, cfg)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias == bias
    assert log.history == history


@settings(max_examples=60, deadline=None)
@given(
    batch=items(DEV_WORDS, "k"),
    weights=st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16),
    bias=st.floats(-1e3, 1e3),
)
@example(
    batch=[TrainItem("k0", ("", ""), 0), TrainItem("k1", ("", "", "", ""), 3)],
    weights=[1.0] * 16,
    bias=0.5,
)
def test_kernel_sums_each_text_left_to_right(batch, weights, bias):
    # items of 2-4 choices, scored in one call: each raw score is the bias
    # plus the text's terms in featurizer order, summed one at a time
    cfg = FeaturizerConfig(dim=16, hash_seed=17)
    model = ScorerModel.from_weights(np.array(weights), bias, cfg)
    texts = [text for item in batch for text in item.texts]
    scores = score_texts(model, texts)
    assert scores.dtype == np.float64
    assert scores.tolist() == [ordered_score(model.weights, bias, featurize(t, cfg)) for t in texts]


# 0.0, -0.0, subnormals and values up to 1e300, small enough that no score
# of a short text overflows
EXACT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)
EXACT_EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "ci" else 60


@st.composite
def dense_weights(draw):
    dim = draw(st.sampled_from([16, 4096]))
    weights = np.zeros(dim)
    entries = draw(st.dictionaries(st.integers(0, dim - 1), EXACT_VALUES, max_size=40))
    for idx, value in entries.items():
        weights[idx] = value
    return weights


@settings(max_examples=EXACT_EXAMPLES, deadline=None)
@given(
    weights=dense_weights(),
    bias=EXACT_VALUES,
    first=st.lists(st.lists(st.sampled_from(TRAIN_WORDS), max_size=5).map(" ".join), max_size=4),
    later=st.lists(st.lists(st.sampled_from(DEV_WORDS), max_size=5).map(" ".join), max_size=4),
)
def test_support_model_is_exact_to_its_dense_weights(weights, bias, first, later):
    cfg = FeaturizerConfig(dim=weights.size, hash_seed=17)
    model = ScorerModel.from_weights(weights, bias, cfg)
    assert model.weights.tobytes() == weights.tobytes()

    # the support layout round-trips byte for byte, and the same model written
    # as an older full-dim checkpoint loads to it and re-saves to those bytes
    with tempfile.TemporaryDirectory() as tmp:
        saved, resaved, dense, undensed = (os.path.join(tmp, f"{name}.npz") for name in "abcd")
        save_model(model, saved)
        save_model(load_model(saved), resaved)
        save_dense(model, dense)
        from_dense = load_model(dense)
        save_model(from_dense, undensed)
        written = set()
        for path in (saved, resaved, undensed):
            with open(path, "rb") as fh:
                written.add(fh.read())
        assert len(written) == 1
    assert from_dense.weights.tobytes() == weights.tobytes() and from_dense.bias == bias

    # `later` brings n-grams the memo first sees after `first` was scored
    for texts in (first, later + first):
        expected = [ordered_score(weights, bias, featurize(t, cfg)) for t in texts]
        for loaded in (model, from_dense):
            scores = score_texts(loaded, texts)
            assert scores.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_from_weights_checks_the_shape():
    with pytest.raises(ScorerError, match=r"weight shape \(8,\) does not match dim 16"):
        ScorerModel.from_weights(np.zeros(8), 0.0, FeaturizerConfig(dim=16))


def test_weights_are_a_read_only_copy():
    model = ScorerModel.from_weights(np.arange(16.0), 0.0, FeaturizerConfig(dim=16))
    with pytest.raises(ValueError, match="read-only"):
        model.weights[3] = 1.0
    assert model.indices.tolist() == list(range(1, 16))


def test_best_choices_is_argmax_per_group():
    scores = np.array([1.0, 3.0, 3.0, 0.0, 0.0, 2.0, np.nan, 5.0, np.nan])
    counts = [3, 2, 4]
    assert best_choices(scores, counts).tolist() == [1, 0, 1]
    assert best_choices(np.empty(0), []).tolist() == []


def test_dev_accuracy_ties_go_to_lowest_label():
    # empty training texts leave the model at zero: every dev choice scores
    # exactly 0.0, and only the items whose gold is the first choice count
    train_items = [TrainItem("t0", ("", ""), 1), TrainItem("t1", ("", "", "", ""), 0)]
    dev_items = [
        TrainItem("d0", ("alpha", "beta"), 0),
        TrainItem("d1", ("gamma", "delta", "eps"), 2),
        TrainItem("d2", ("zeta eta", "theta", "alpha", "beta"), 0),
    ]
    config = TrainConfig(max_epochs=2, early_stop_patience=5)
    model, log = train(config, train_items, dev_items, featurizer=CFG)
    assert not model.weights.any() and model.bias == 0.0
    assert [h["dev_accuracy"] for h in log.history] == [2 / 3, 2 / 3]


# A small FTC run, trained in a child process; it prints the weight digest and bias.
DIGEST_RUN = """
import hashlib
from privqa.harness import ExperimentConfig, train_scorer
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

spec = SyntheticSpec(seed=0, train_size=200, dev_size=80, test_size=8)
corpus = build_corpus(spec)
provider = SyntheticContextProvider(spec)
train_aug, dev_aug = (provider.provide(corpus[s], 0.5, 0)[0] for s in ("train", "dev"))
model, _, _ = train_scorer(ExperimentConfig(ratio=0.5, max_epochs=3), train_aug, dev_aug)
print(hashlib.sha256(model.weights.tobytes()).hexdigest(), model.bias.hex())
"""


def test_checkpoint_bits_do_not_depend_on_cpu_kernels():
    # OPENBLAS_CORETYPE picks OpenBLAS's dot-product kernel and
    # NPY_DISABLE_CPU_FEATURES turns off numpy's AVX-512 kernels, each in
    # the child process only
    base = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    }
    outputs = set()
    for coretype in (None, "Haswell", "Prescott"):
        for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4"):
            env = dict(base)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            out = subprocess.run(
                [sys.executable, "-c", DIGEST_RUN], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outputs.add(out.stdout)
    assert len(outputs) == 1, sorted(outputs)


def test_trained_model_keeps_only_its_support():
    # What `train` leaves behind (its memo and the model) and its traced
    # peak, at the default dim. A full-dim weight vector alone is 2.1 MB:
    # with one built after training, this split left 2.59 MB and peaked at
    # 2.80 MB.
    spec = SyntheticSpec(seed=0, train_size=200, dev_size=80, test_size=8)
    corpus = build_corpus(spec)
    provider = SyntheticContextProvider(spec)
    train_aug, dev_aug = (provider.provide(corpus[s], 0.5, 0)[0] for s in ("train", "dev"))
    config = ExperimentConfig(ratio=0.5, max_epochs=1)
    train_items = build_inputs(train_aug, config.regime, config.context_view())
    dev_items = build_inputs(dev_aug, "FTC", eval_view(config))
    cfg = FeaturizerConfig()
    tracemalloc.start()
    try:
        model, _ = train(config, train_items, dev_items, cfg)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 1.0e6
    assert peak < 3.2e6
    train_indices, _, _ = featurize_texts([t for item in train_items for t in item.texts], cfg)
    support = np.unique(train_indices).size
    assert model.indices.size == model.values.size == support


def test_training_and_saving_allocate_nothing_dim_sized(tmp_path):
    # At dim 2**24 one full-dim float64 vector is 134 MB; training over the
    # support and a checkpoint of the support need a few MB
    spec = SyntheticSpec(seed=0, train_size=200, dev_size=80, test_size=8)
    corpus = build_corpus(spec)
    provider = SyntheticContextProvider(spec)
    train_aug, dev_aug = (provider.provide(corpus[s], 0.5, 0)[0] for s in ("train", "dev"))
    config = ExperimentConfig(ratio=0.5, max_epochs=1, featurizer_dim=2**24)
    path = tmp_path / "model.npz"
    tracemalloc.start()
    try:
        model, _, _ = train_scorer(config, train_aug, dev_aug)
        save_model(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert path.stat().st_size < 1e6
    assert load_model(path).indices.tolist() == model.indices.tolist()


def test_train_is_deterministic():
    rng = random.Random(9)
    train_items = make_separable_items(40, rng)
    dev_items = make_separable_items(15, rng)
    cfg = TrainConfig(max_epochs=5, seed=7)
    model1, log1 = train(cfg, train_items, dev_items, featurizer=CFG)
    model2, log2 = train(cfg, train_items, dev_items, featurizer=CFG)
    assert model1.weights.tobytes() == model2.weights.tobytes()
    assert model1.bias == model2.bias
    assert log1.history == log2.history


def test_slot_order_does_not_leak_into_results():
    # the memo numbers slots in first-seen order, and training lays its
    # support out in slot order; a memo warmed on other texts, in another
    # order, numbers the same n-grams differently and must change nothing
    rng = random.Random(9)
    train_items = make_separable_items(40, rng)
    dev_items = make_separable_items(15, rng)
    texts = [text for item in dev_items + train_items for text in item.texts]
    warm = FeaturizerConfig(dim=4096, hash_seed=17)
    featurize_texts(["a warm up text"] + [" ".join(t.split()[::-1]) for t in texts[::-1]], warm)
    cold = FeaturizerConfig(dim=4096, hash_seed=17)
    config = TrainConfig(max_epochs=5, seed=7)
    cold_model, cold_log = train(config, train_items, dev_items, featurizer=cold)
    warm_model, warm_log = train(config, train_items, dev_items, featurizer=warm)
    cold_slots, warm_slots = (
        dict(zip(cfg._tokens.slots.keys.tolist(), cfg._tokens.slots.values.tolist()))
        for cfg in (cold, warm)
    )
    assert any(warm_slots[i] != slot for i, slot in cold_slots.items())
    assert warm_model.weights.tobytes() == cold_model.weights.tobytes()
    assert warm_model.bias == cold_model.bias
    assert warm_log.history == cold_log.history

    weights = np.array([rng.gauss(0, 0.5) for _ in range(4096)])
    cold_grad, warm_grad = (
        loss_and_grad(ScorerModel.from_weights(weights, 0.3, cfg), train_items[:8])
        for cfg in (FeaturizerConfig(dim=4096, hash_seed=17), warm)
    )
    assert warm_grad == cold_grad
    assert list(warm_grad.weight_grad) == list(cold_grad.weight_grad)


def test_train_seed_changes_trajectory():
    rng = random.Random(9)
    train_items = make_separable_items(40, rng)
    dev_items = make_separable_items(15, rng)
    m1, _ = train(TrainConfig(max_epochs=3, seed=0), train_items, dev_items, featurizer=CFG)
    m2, _ = train(TrainConfig(max_epochs=3, seed=1), train_items, dev_items, featurizer=CFG)
    assert m1.weights.tobytes() != m2.weights.tobytes()


def test_early_stop_keeps_earliest_best():
    # dev accuracy saturates immediately; ties must keep the first epoch
    rng = random.Random(2)
    train_items = make_separable_items(60, rng)
    dev_items = make_separable_items(20, rng)
    cfg = TrainConfig(max_epochs=50, warmup_steps=10, early_stop_patience=3, seed=0)
    model, log = train(cfg, train_items, dev_items, featurizer=CFG)
    assert log.best_dev_accuracy == 1.0
    first_perfect = next(
        h["epoch"] for h in log.history if h["dev_accuracy"] == 1.0
    )
    assert log.best_epoch == first_perfect
    assert log.stopped_epoch == first_perfect + 3
    assert len(log.history) == log.stopped_epoch + 1


def test_training_diverged():
    rng = random.Random(5)
    train_items = make_separable_items(20, rng)
    dev_items = make_separable_items(8, rng)
    cfg = TrainConfig(learning_rate=1e30, warmup_steps=1, max_epochs=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(cfg, train_items, dev_items, featurizer=CFG)


def test_train_requires_items():
    with pytest.raises(ScorerError):
        train(TrainConfig(), [], [TrainItem("d", ("x", "y"), 0)], featurizer=CFG)
    with pytest.raises(ScorerError):
        train(TrainConfig(), [TrainItem("t", ("x", "y"), 0)], [], featurizer=CFG)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"batch_size": 0}, "batch_size 0 must be at least 1"),
        ({"max_epochs": 0}, "max_epochs 0 must be at least 1"),
        ({"early_stop_patience": 0}, "early_stop_patience 0 must be at least 1"),
        ({"warmup_steps": -1}, "warmup_steps -1 must be finite and not negative"),
        ({"weight_decay": math.inf}, "weight_decay inf must be finite and not negative"),
        ({"learning_rate": math.nan}, "learning_rate nan must be finite and positive"),
    ],
)
def test_train_config_checks_its_ranges(setting, message):
    items = [TrainItem("t", ("x", "y"), 0)]
    with pytest.raises(ScorerError, match=message):
        train(TrainConfig(**setting), items, items, featurizer=CFG)


@pytest.mark.parametrize("gold, texts", [(2, ("x", "y")), (-1, ("x", "y")), (0, ())])
def test_gold_index_outside_its_choices(gold, texts):
    bad = TrainItem("bad", texts, gold)
    good = TrainItem("t", ("x", "y", "z"), 0)
    with pytest.raises(ScorerError, match="'bad': gold index"):
        loss_and_grad(ScorerModel.zeros(CFG), [bad, good])
    with pytest.raises(ScorerError, match="'bad': gold index"):
        train(TrainConfig(max_epochs=1), [good], [bad, good], featurizer=CFG)


def read_checkpoint(path):
    """A checkpoint's meta and its other arrays, whichever layout it holds."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        return meta, {name: data[name] for name in data.files if name != "meta"}


def write_checkpoint(path, meta, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, meta=np.bytes_(json.dumps(meta).encode("utf-8")))


def save_dense(model, path):
    """Write `model` in the layout older versions wrote: full-dim `weights`, `bias` and `meta`."""
    cfg = model.featurizer
    meta = {"dim": cfg.dim, "hash_seed": cfg.hash_seed, "ngram_orders": [1, 2], "lowercase": True}
    write_checkpoint(path, meta, {"weights": model.weights, "bias": np.float64(model.bias)})


def test_checkpoint_round_trip(tmp_path):
    rng = random.Random(6)
    items = make_separable_items(30, rng)
    model, _ = train(TrainConfig(max_epochs=3), items, items[:10], featurizer=CFG)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.featurizer == model.featurizer
    assert loaded.bias == model.bias
    assert np.array_equal(loaded.weights, model.weights)
    aug = [make_augmented()]
    assert predict_labels(loaded, ExperimentConfig(), aug) == predict_labels(
        model, ExperimentConfig(), aug
    )


def test_interrupted_save_model_leaves_the_old_checkpoint(tmp_path, interrupt_writes):
    path = tmp_path / "model.npz"
    save_model(ScorerModel.zeros(CFG), path)
    before = path.read_bytes()
    items = make_separable_items(10, random.Random(3))
    model, _ = train(TrainConfig(max_epochs=1), items, items[:3], featurizer=CFG)
    interrupt_writes()
    with pytest.raises(KeyboardInterrupt):
        save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_checkpoint_missing(tmp_path):
    with pytest.raises(ScorerError, match="not found"):
        load_model(tmp_path / "absent.npz")


def test_checkpoint_corrupt(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not an npz file")
    with pytest.raises((ScorerError, OSError, ValueError)):
        load_model(path)


@pytest.mark.parametrize(
    "weights, bias, message",
    [
        (np.full(CFG.dim, np.nan), np.inf, "weight at index 0 is nan, not finite"),
        (np.where(np.arange(CFG.dim) == 7, -np.inf, 1.0), 0.5, "weight at index 7 is -inf"),
        (np.zeros(CFG.dim), np.nan, "bias is nan, not finite"),
    ],
)
def test_checkpoint_with_a_non_finite_value_is_refused(tmp_path, weights, bias, message):
    path = tmp_path / "model.npz"
    for save in (save_model, save_dense):
        save(ScorerModel.from_weights(weights, bias, CFG), path)
        with pytest.raises(ScorerError, match=re.escape(f"checkpoint {path}: {message}")):
            load_model(path)


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "short.npz"
    meta = {"dim": CFG.dim, "hash_seed": 17, "ngram_orders": [1, 2], "lowercase": True}
    np.savez(
        path,
        weights=np.zeros(CFG.dim // 2),
        bias=np.float64(0.0),
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
    )
    with pytest.raises(ScorerError, match="shape"):
        load_model(path)


@pytest.mark.parametrize(
    "key, value", [("ngram_orders", [1]), ("ngram_orders", [1, 2, 3]), ("lowercase", False)]
)
def test_checkpoint_other_featurization(tmp_path, key, value):
    model = ScorerModel.from_weights(np.linspace(-1, 1, CFG.dim), 0.5, CFG)
    path = tmp_path / "model.npz"
    for save in (save_model, save_dense):
        save(model, path)
        meta, arrays = read_checkpoint(path)
        meta[key] = value
        write_checkpoint(path, meta, arrays)
        with pytest.raises(ScorerError, match=key):
            load_model(path)


@pytest.mark.parametrize(
    "key, value, dim",
    [("dim", "8", 8), ("dim", 8.0, 8), ("dim", True, 1), ("hash_seed", 1.5, 8)],
)
def test_checkpoint_meta_of_another_kind_is_refused(tmp_path, key, value, dim):
    # each loaded: the dims as 8, 8 and 1, and the hash seed as the other featurizer 1
    path = tmp_path / "model.npz"
    model = ScorerModel.from_weights(np.arange(float(dim)), 0.0, FeaturizerConfig(dim=dim))
    message = f"corrupt checkpoint {path}: field {key!r}: expected an integer, got {json.dumps(value)}"
    for save in (save_model, save_dense):
        save(model, path)
        meta, arrays = read_checkpoint(path)
        meta[key] = value
        write_checkpoint(path, meta, arrays)
        with pytest.raises(ScorerError, match=re.escape(message)):
            load_model(path)


def test_checkpoint_missing_meta_key(tmp_path):
    path = tmp_path / "model.npz"
    meta = {"dim": CFG.dim, "hash_seed": 17}
    np.savez(
        path,
        weights=np.zeros(CFG.dim),
        bias=np.float64(0.0),
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
    )
    with pytest.raises(ScorerError, match="ngram_orders"):
        load_model(path)


def test_train_item_gold_index():
    # the item the scorer trains on carries the instance id, one text per
    # choice and the gold label's position among the sorted labels
    aug = make_augmented(gold="c")
    (item,) = build_inputs([aug], "FTC", ContextView.FULL)
    assert isinstance(item, TrainItem)
    assert item.gold_index == 2
    assert item.id == "i1"
    assert len(item.texts) == 4
