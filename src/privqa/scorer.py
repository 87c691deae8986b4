"""Hashed-feature linear scorer over per-choice assembled inputs.

Each candidate answer is scored from one assembled text
[question ⊕ answer ⊕ overall context ⊕ choice context], featurized as
hashed lowercase word unigrams and bigrams with counts, and passed through
a shared linear head. Scores are normalized with a softmax across the
instance's choices; training minimizes mean cross-entropy of the gold label
with AdamW-style decoupled weight decay, linear warmup, and early stopping
on development accuracy.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from privqa.contexts import ContextView, apply_view
from privqa.corpus import AugmentedInstance

# Segment separator: a control character that never occurs in natural text,
# so distinct (question, answer, contexts) tuples assemble to distinct inputs.
SEPARATOR = "\x1e"


class ScorerError(Exception):
    """Model construction or checkpoint IO failed."""


class TrainingDiverged(ScorerError):
    """The loss became non-finite during training."""


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 2**18
    hash_seed: int = 17
    ngram_orders: tuple[int, ...] = (1, 2)
    lowercase: bool = True


@dataclass(frozen=True)
class FeatureVector:
    """Sparse counts: parallel index/value arrays, indices strictly below dim."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


def assemble_input(question: str, answer: str, overall: str, choice_context: str) -> str:
    """Join the four segments with the reserved separator token."""
    clean = [
        seg.replace(SEPARATOR, " ") for seg in (question, answer, overall, choice_context)
    ]
    return f" {SEPARATOR} ".join(clean)


def _hash_token(token: str, seed: int, dim: int) -> int:
    h = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(h, "little") % dim


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash word n-grams of the text into a sparse count vector."""
    tokens = text.lower().split() if config.lowercase else text.split()
    counts: dict[int, float] = {}
    for order in config.ngram_orders:
        if order < 1:
            raise ScorerError(f"ngram order {order} must be >= 1")
        for i in range(len(tokens) - order + 1):
            gram = "\x1f".join(tokens[i : i + order])
            idx = _hash_token(gram, config.hash_seed, config.dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    idxs = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return FeatureVector(indices=idxs, values=vals, dim=config.dim)


@dataclass
class ScorerModel:
    weights: np.ndarray
    bias: float
    featurizer: FeaturizerConfig

    @classmethod
    def zeros(cls, featurizer: FeaturizerConfig | None = None) -> "ScorerModel":
        cfg = featurizer or FeaturizerConfig()
        return cls(weights=np.zeros(cfg.dim, dtype=np.float64), bias=0.0, featurizer=cfg)

    def copy(self) -> "ScorerModel":
        return ScorerModel(weights=self.weights.copy(), bias=self.bias, featurizer=self.featurizer)


@dataclass(frozen=True)
class ScoreVector:
    labels: tuple[str, ...]
    scores: tuple[float, ...]
    probs: tuple[float, ...]


def softmax(scores: Sequence[float]) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    s = s - s.max()
    e = np.exp(s)
    return e / e.sum()


def choice_texts(instance: AugmentedInstance, view: ContextView) -> tuple[str, ...]:
    """Assemble the per-choice scorer inputs for an instance under a view."""
    overall, per_choice = apply_view(instance.context, view)
    q = instance.instance.question
    return tuple(
        assemble_input(q, answer, overall, per_choice.get(label, ""))
        for label, answer in instance.instance.choices.items()
    )


def _raw_score(model: ScorerModel, fv: FeatureVector) -> float:
    return float(model.weights[fv.indices] @ fv.values) + model.bias


def score_texts(model: ScorerModel, labels: Sequence[str], texts: Sequence[str]) -> ScoreVector:
    fvs = [featurize(t, model.featurizer) for t in texts]
    raw = [_raw_score(model, fv) for fv in fvs]
    probs = softmax(raw)
    return ScoreVector(labels=tuple(labels), scores=tuple(raw), probs=tuple(float(p) for p in probs))


def score_choices(model: ScorerModel, instance: AugmentedInstance, view: ContextView) -> ScoreVector:
    labels = instance.instance.labels()
    return score_texts(model, labels, choice_texts(instance, view))


def predict(model: ScorerModel, instance: AugmentedInstance, view: ContextView) -> str:
    """Argmax label; exact ties resolve to the lowest label."""
    sv = score_choices(model, instance, view)
    return sv.labels[int(np.argmax(sv.probs))]


# ---------------------------------------------------------------------------
# Loss and gradient


@dataclass(frozen=True)
class TrainItem:
    """One training row: assembled per-choice texts plus the gold position."""

    id: str
    texts: tuple[str, ...]
    gold_index: int


@dataclass(frozen=True)
class LossGrad:
    loss: float
    weight_grad: dict[int, float]
    bias_grad: float


def train_item(instance: AugmentedInstance, view: ContextView) -> TrainItem:
    labels = instance.instance.labels()
    return TrainItem(
        id=instance.instance.id,
        texts=choice_texts(instance, view),
        gold_index=labels.index(instance.instance.gold),
    )


def _featurize_item(item: TrainItem, cfg: FeaturizerConfig) -> list[FeatureVector]:
    return [featurize(t, cfg) for t in item.texts]


def _loss_grad_featurized(
    model: ScorerModel,
    batch: Sequence[tuple[list[FeatureVector], int]],
) -> LossGrad:
    if not batch:
        raise ScorerError("empty batch")
    grad: dict[int, float] = {}
    bias_grad = 0.0
    total = 0.0
    inv = 1.0 / len(batch)
    for fvs, gold in batch:
        raw = [_raw_score(model, fv) for fv in fvs]
        probs = softmax(raw)
        total -= math.log(max(probs[gold], 1e-300))
        for j, fv in enumerate(fvs):
            coeff = (probs[j] - (1.0 if j == gold else 0.0)) * inv
            bias_grad += coeff
            for idx, val in zip(fv.indices, fv.values):
                i = int(idx)
                grad[i] = grad.get(i, 0.0) + coeff * float(val)
    return LossGrad(loss=total * inv, weight_grad=grad, bias_grad=bias_grad)


def _batch_from_instances(
    batch: Sequence[AugmentedInstance], view: ContextView, cfg: FeaturizerConfig
) -> list[tuple[list[FeatureVector], int]]:
    out = []
    for aug in batch:
        item = train_item(aug, view)
        out.append((_featurize_item(item, cfg), item.gold_index))
    return out


def loss_and_grad(
    model: ScorerModel, batch: Sequence[AugmentedInstance], view: ContextView
) -> LossGrad:
    """Mean cross-entropy over the batch and its sparse gradient."""
    return _loss_grad_featurized(model, _batch_from_instances(batch, view, model.featurizer))


def batch_loss(model: ScorerModel, batch: Sequence[AugmentedInstance], view: ContextView) -> float:
    """Loss only, for finite-difference checks."""
    featurized = _batch_from_instances(batch, view, model.featurizer)
    total = 0.0
    for fvs, gold in featurized:
        probs = softmax([_raw_score(model, fv) for fv in fvs])
        total -= math.log(max(probs[gold], 1e-300))
    return total / len(featurized)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 8
    max_epochs: int = 100
    warmup_steps: int = 200
    early_stop_patience: int = 5
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class TrainLog:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_accuracy: float = 0.0
    stopped_epoch: int = -1


def _eval_items(model: ScorerModel, items: Sequence[tuple[list[FeatureVector], int]]) -> float:
    if not items:
        return 0.0
    correct = 0
    for fvs, gold in items:
        raw = np.array([_raw_score(model, fv) for fv in fvs])
        if int(np.argmax(raw)) == gold:
            correct += 1
    return correct / len(items)


def train(
    config: TrainConfig,
    train_items: Sequence[TrainItem],
    dev_items: Sequence[TrainItem],
    featurizer: FeaturizerConfig | None = None,
) -> tuple[ScorerModel, TrainLog]:
    """Deterministic mini-batch training with warmup and early stopping.

    Identical config and items give identical weights. The best checkpoint
    by dev accuracy is returned; on ties the earlier epoch wins.
    """
    if not train_items:
        raise ScorerError("no training items")
    if not dev_items:
        raise ScorerError("no dev items for early stopping")
    cfg = featurizer or FeaturizerConfig()
    model = ScorerModel.zeros(cfg)

    train_fv = [(_featurize_item(it, cfg), it.gold_index) for it in train_items]
    dev_fv = [(_featurize_item(it, cfg), it.gold_index) for it in dev_items]

    m = np.zeros(cfg.dim, dtype=np.float64)
    v = np.zeros(cfg.dim, dtype=np.float64)
    rng = random.Random(config.seed)
    log = TrainLog()
    best = model.copy()
    since_best = 0
    step = 0

    for epoch in range(config.max_epochs):
        order = list(range(len(train_fv)))
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train_fv[i] for i in order[lo : lo + config.batch_size]]
            lg = _loss_grad_featurized(model, batch)
            if not math.isfinite(lg.loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} step {step}")
            epoch_loss += lg.loss
            n_batches += 1
            step += 1
            lr = config.learning_rate * min(1.0, step / max(1, config.warmup_steps))

            g = np.zeros(cfg.dim, dtype=np.float64)
            if lg.weight_grad:
                idx = np.fromiter(lg.weight_grad.keys(), dtype=np.int64, count=len(lg.weight_grad))
                val = np.fromiter(
                    lg.weight_grad.values(), dtype=np.float64, count=len(lg.weight_grad)
                )
                g[idx] = val
            m *= config.beta1
            m += (1 - config.beta1) * g
            v *= config.beta2
            v += (1 - config.beta2) * np.square(g)
            mhat = m / (1 - config.beta1**step)
            vhat = v / (1 - config.beta2**step)
            model.weights -= lr * (mhat / (np.sqrt(vhat) + config.eps))
            model.weights -= lr * config.weight_decay * model.weights
            model.bias -= lr * lg.bias_grad

        dev_acc = _eval_items(model, dev_fv)
        log.history.append(
            {"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches), "dev_accuracy": dev_acc}
        )
        if dev_acc > log.best_dev_accuracy or log.best_epoch < 0:
            log.best_dev_accuracy = dev_acc
            log.best_epoch = epoch
            best = model.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                log.stopped_epoch = epoch
                break
    if log.stopped_epoch < 0:
        log.stopped_epoch = len(log.history) - 1
    return best, log


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(model: ScorerModel, path: str | Path) -> None:
    meta = {
        "dim": model.featurizer.dim,
        "hash_seed": model.featurizer.hash_seed,
        "ngram_orders": list(model.featurizer.ngram_orders),
        "lowercase": model.featurizer.lowercase,
    }
    np.savez(
        Path(path),
        weights=model.weights,
        bias=np.float64(model.bias),
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
    )


def load_model(path: str | Path) -> ScorerModel:
    p = Path(path)
    if not p.exists():
        raise ScorerError(f"checkpoint not found: {p}")
    with np.load(p, allow_pickle=False) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            weights = np.asarray(data["weights"], dtype=np.float64)
            bias = float(data["bias"])
        except (KeyError, ValueError) as exc:
            raise ScorerError(f"corrupt checkpoint {p}: {exc}") from exc
    cfg = FeaturizerConfig(
        dim=int(meta["dim"]),
        hash_seed=int(meta["hash_seed"]),
        ngram_orders=tuple(int(o) for o in meta["ngram_orders"]),
        lowercase=bool(meta["lowercase"]),
    )
    if weights.shape != (cfg.dim,):
        raise ScorerError(
            f"checkpoint {p}: weight shape {weights.shape} does not match dim {cfg.dim}"
        )
    return ScorerModel(weights=weights, bias=bias, featurizer=cfg)
