import math
import random

import numpy as np
import pytest

from privqa.contexts import ContextView, ParsedContext, SpecificContext
from privqa.corpus import AugmentedInstance, QAInstance
from privqa.scorer import (
    SEPARATOR,
    FeaturizerConfig,
    ScorerError,
    ScorerModel,
    TrainConfig,
    TrainingDiverged,
    TrainItem,
    assemble_input,
    batch_loss,
    choice_texts,
    featurize,
    load_model,
    loss_and_grad,
    predict,
    save_model,
    score_choices,
    score_texts,
    softmax,
    train,
    train_item,
)

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


def test_featurize_empty():
    fv = featurize("", CFG)
    assert fv.indices.size == 0


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
    loss = batch_loss(model, [aug], ContextView.FULL)
    assert abs(loss - math.log(4)) < 1e-12


def test_zero_model_ties_break_to_lowest_label():
    aug = make_augmented()
    model = ScorerModel.zeros(CFG)
    assert predict(model, aug, ContextView.FULL) == "a"


def test_confident_model_loss_near_zero():
    aug = make_augmented(gold="b")
    model = ScorerModel.zeros(CFG)
    gold_text = choice_texts(aug, ContextView.FULL)[1]
    fv = featurize(gold_text, model.featurizer)
    model.weights[fv.indices] = 100.0
    sv = score_choices(model, aug, ContextView.FULL)
    assert sv.probs[1] > 0.999
    assert batch_loss(model, [aug], ContextView.FULL) < 1e-3


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
        batch = [random_augmented(rng, f"p{pair}-{i}") for i in range(3)]
        model = ScorerModel.zeros(CFG)
        model.weights[:] = np.array(
            [rng.gauss(0, 0.5) for _ in range(CFG.dim)], dtype=np.float64
        )
        model.bias = rng.gauss(0, 0.5)
        lg = loss_and_grad(model, batch, ContextView.FULL)
        scale = max(max((abs(v) for v in lg.weight_grad.values()), default=0.0), 1e-8)

        touched = sorted(lg.weight_grad)
        coords = rng.sample(touched, min(10, len(touched)))
        coords += [rng.randrange(CFG.dim) for _ in range(5)]
        for idx in coords:
            keep = model.weights[idx]
            model.weights[idx] = keep + eps
            up = batch_loss(model, batch, ContextView.FULL)
            model.weights[idx] = keep - eps
            down = batch_loss(model, batch, ContextView.FULL)
            model.weights[idx] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - lg.weight_grad.get(idx, 0.0)) / scale)

        keep = model.bias
        model.bias = keep + eps
        up = batch_loss(model, batch, ContextView.FULL)
        model.bias = keep - eps
        down = batch_loss(model, batch, ContextView.FULL)
        model.bias = keep
        fd_bias = (up - down) / (2 * eps)
        worst = max(worst, abs(fd_bias - lg.bias_grad))
    assert worst <= 1e-4


def test_bias_gradient_is_zero_for_shared_bias():
    # the bias shifts every choice equally, so softmax cancels it exactly
    rng = random.Random(4)
    batch = [random_augmented(rng, f"b{i}") for i in range(4)]
    model = ScorerModel.zeros(CFG)
    model.weights[:] = np.array([rng.gauss(0, 0.5) for _ in range(CFG.dim)])
    lg = loss_and_grad(model, batch, ContextView.FULL)
    assert abs(lg.bias_grad) <= 1e-12


def test_loss_and_grad_empty_batch():
    model = ScorerModel.zeros(CFG)
    with pytest.raises(ScorerError):
        loss_and_grad(model, [], ContextView.FULL)


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
        sv = score_texts(model, ("a", "b", "c", "d"), item.texts)
        assert int(np.argmax(sv.probs)) == item.gold_index


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
    aug = make_augmented()
    assert predict(loaded, aug, ContextView.FULL) == predict(model, aug, ContextView.FULL)


def test_checkpoint_missing(tmp_path):
    with pytest.raises(ScorerError, match="not found"):
        load_model(tmp_path / "absent.npz")


def test_checkpoint_corrupt(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not an npz file")
    with pytest.raises((ScorerError, OSError, ValueError)):
        load_model(path)


def test_checkpoint_shape_mismatch(tmp_path):
    model = ScorerModel.zeros(CFG)
    clipped = ScorerModel(
        weights=model.weights[: CFG.dim // 2].copy(), bias=0.0, featurizer=CFG
    )
    path = tmp_path / "short.npz"
    save_model(clipped, path)
    with pytest.raises(ScorerError, match="shape"):
        load_model(path)


def test_train_item_gold_index():
    aug = make_augmented(gold="c")
    item = train_item(aug, ContextView.FULL)
    assert item.gold_index == 2
    assert item.id == "i1"
    assert len(item.texts) == 4
