"""Hashed-feature linear scorer over per-choice texts.

The scorer only sees texts: each candidate answer is one text (how a
question, answer and context become that text is the harness's concern),
featurized as hashed lowercase word unigrams and bigrams with counts, and
passed through a shared linear head. Scores are normalized with a softmax
across an item's choices; training minimizes mean cross-entropy of the gold
position with AdamW-style decoupled weight decay, linear warmup, and early
stopping on development accuracy.

Training runs over the feature support: the hashed indices that occur in
the training texts, remapped to a compact range. A feature outside the
support gets zero gradient at every step, so under decoupled decay its
Adam moments and its weight stay exactly 0; every optimizer operation is
elementwise, and the gradient is summed in the same order as a per-item
loop. The trained weights, bias and log therefore equal those of dense
Adam over all `dim` weights bit for bit, and the returned model is
full-dim.
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

# Featurization is fixed: these word n-gram orders, over text that `featurize`
# always lowercases. Checkpoints record both, and one made with other values
# does not load.
NGRAM_ORDERS = (1, 2)
LOWERCASE = True

# AdamW moment decay rates and denominator epsilon.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ScorerError(Exception):
    """Model construction or checkpoint IO failed."""


class TrainingDiverged(ScorerError):
    """The loss became non-finite during training."""


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 2**18
    hash_seed: int = 17

    def __post_init__(self) -> None:
        # n-gram -> index memo filled by `featurize`. It lives on this object,
        # which a run builds once, so every run starts cold; it is not a field,
        # so equality, hashing and checkpoint metadata ignore it.
        object.__setattr__(self, "_index", {})


@dataclass(frozen=True)
class FeatureVector:
    """Sparse counts: parallel index/value arrays, indices below the featurizer's dim."""

    indices: np.ndarray
    values: np.ndarray


def _hash_token(token: str, seed: int, dim: int) -> int:
    h = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(h, "little") % dim


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash word n-grams of the text into a sparse count vector."""
    tokens = text.lower().split()
    index: dict[str, int] = config._index
    counts: dict[int, float] = {}
    for order in NGRAM_ORDERS:
        for gram in map("\x1f".join, zip(*[tokens[k:] for k in range(order)])):
            idx = index.get(gram)
            if idx is None:
                idx = index[gram] = _hash_token(gram, config.hash_seed, config.dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    idxs = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return FeatureVector(indices=idxs, values=vals)


@dataclass
class ScorerModel:
    weights: np.ndarray
    bias: float
    featurizer: FeaturizerConfig

    @classmethod
    def zeros(cls, featurizer: FeaturizerConfig | None = None) -> "ScorerModel":
        cfg = featurizer or FeaturizerConfig()
        return cls(weights=np.zeros(cfg.dim, dtype=np.float64), bias=0.0, featurizer=cfg)


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


def _scores(
    weights: np.ndarray, bias: float, indices: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> list[float]:
    """Raw score per choice: one dot product over the choice's own n-grams."""
    return [float(weights[i] @ v) + bias for i, v in zip(indices, values)]


def score_texts(model: ScorerModel, labels: Sequence[str], texts: Sequence[str]) -> ScoreVector:
    fvs = [featurize(t, model.featurizer) for t in texts]
    raw = _scores(
        model.weights, model.bias, [fv.indices for fv in fvs], [fv.values for fv in fvs]
    )
    probs = softmax(raw)
    return ScoreVector(labels=tuple(labels), scores=tuple(raw), probs=tuple(float(p) for p in probs))


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


def _featurize_item(item: TrainItem, cfg: FeaturizerConfig) -> list[FeatureVector]:
    return [featurize(t, cfg) for t in item.texts]


@dataclass(frozen=True)
class _Encoded:
    """One item's choices with indices remapped into a support's positions."""

    indices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    gold: int
    flat_indices: np.ndarray
    flat_values: np.ndarray
    sizes: np.ndarray


def _support(featurized: Sequence[tuple[list[FeatureVector], int]]) -> np.ndarray:
    """Sorted distinct feature indices of the featurized items."""
    return np.unique(np.concatenate([fv.indices for fvs, _ in featurized for fv in fvs]))


def _encode(fvs: list[FeatureVector], gold: int, support: np.ndarray) -> _Encoded:
    """Remap to positions in `support`; an index outside it maps to `support.size`.

    Outside n-grams are kept, not dropped, so each choice's dot product sums
    the same number of terms in the same order as over full-dim weights.
    """
    flat = np.concatenate([fv.indices for fv in fvs])
    pos = np.searchsorted(support, flat)
    found = pos < support.size
    found[found] = support[pos[found]] == flat[found]
    pos[~found] = support.size
    sizes = np.array([fv.indices.size for fv in fvs], dtype=np.int64)
    values = tuple(fv.values for fv in fvs)
    return _Encoded(
        indices=tuple(np.split(pos, np.cumsum(sizes)[:-1])),
        values=values,
        gold=gold,
        flat_indices=pos,
        flat_values=np.concatenate(values),
        sizes=sizes,
    )


def _loss_grad(
    weights: np.ndarray, bias: float, batch: Sequence[_Encoded]
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy, its weight gradient (dense over `weights`) and its bias gradient."""
    inv = 1.0 / len(batch)
    total = 0.0
    coeffs = []
    for item in batch:
        probs = softmax(_scores(weights, bias, item.indices, item.values))
        total -= math.log(max(probs[item.gold], 1e-300))
        probs[item.gold] -= 1.0
        probs *= inv
        coeffs.append(probs)
    coeff = np.concatenate(coeffs)
    # a plain left-to-right sum (builtin sum() compensates on newer Pythons)
    bias_grad = 0.0
    for c in coeff.tolist():
        bias_grad += c
    # bincount adds its weights in input order, and the parts are laid out in
    # (item, choice, n-gram) order: every gradient entry is the sequential sum
    grad = np.bincount(
        np.concatenate([item.flat_indices for item in batch]),
        weights=np.repeat(coeff, np.concatenate([item.sizes for item in batch]))
        * np.concatenate([item.flat_values for item in batch]),
        minlength=weights.size,
    )
    return total * inv, grad, bias_grad


def loss_and_grad(model: ScorerModel, batch: Sequence[TrainItem]) -> LossGrad:
    """Mean cross-entropy over the batch and its sparse gradient.

    `weight_grad` has one entry per distinct feature index in the batch.
    """
    if not batch:
        raise ScorerError("empty batch")
    featurized = [(_featurize_item(item, model.featurizer), item.gold_index) for item in batch]
    support = _support(featurized)
    encoded = [_encode(fvs, gold, support) for fvs, gold in featurized]
    loss, grad, bias_grad = _loss_grad(model.weights[support], model.bias, encoded)
    return LossGrad(
        loss=loss, weight_grad=dict(zip(support.tolist(), grad.tolist())), bias_grad=bias_grad
    )


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


@dataclass
class TrainLog:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_accuracy: float = 0.0
    stopped_epoch: int = -1


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

    train_fv = [(_featurize_item(it, cfg), it.gold_index) for it in train_items]
    dev_fv = [(_featurize_item(it, cfg), it.gold_index) for it in dev_items]
    # Weights live at support positions 0..K-1. Slot K holds the dev n-grams
    # that never occur in training: its gradient is always 0, so it stays 0.0.
    support = _support(train_fv)
    train_enc = [_encode(fvs, gold, support) for fvs, gold in train_fv]
    dev_enc = [_encode(fvs, gold, support) for fvs, gold in dev_fv]

    w = np.zeros(support.size + 1, dtype=np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    t = np.empty_like(w)
    u = np.empty_like(w)
    bias = 0.0
    rng = random.Random(config.seed)
    log = TrainLog()
    best_w, best_bias = w.copy(), bias
    since_best = 0
    step = 0

    for epoch in range(config.max_epochs):
        order = list(range(len(train_enc)))
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train_enc[i] for i in order[lo : lo + config.batch_size]]
            loss, g, bias_grad = _loss_grad(w, bias, batch)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} step {step}")
            epoch_loss += loss
            n_batches += 1
            step += 1
            lr = config.learning_rate * min(1.0, step / max(1, config.warmup_steps))

            # AdamW with decoupled decay, written into two scratch buffers; the
            # operations are those of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2,
            # w -= lr * mhat / (sqrt(vhat) + eps), w -= (lr*decay) * w
            m *= BETA1
            m += np.multiply(1 - BETA1, g, out=t)
            v *= BETA2
            v += np.multiply(1 - BETA2, np.square(g, out=t), out=t)
            mhat = np.divide(m, 1 - BETA1**step, out=t)
            denom = np.sqrt(np.divide(v, 1 - BETA2**step, out=u), out=u)
            denom += EPS
            mhat /= denom
            w -= np.multiply(lr, mhat, out=t)
            w -= np.multiply(lr * config.weight_decay, w, out=t)
            bias -= lr * bias_grad

        correct = sum(
            int(np.argmax(_scores(w, bias, it.indices, it.values))) == it.gold for it in dev_enc
        )
        dev_acc = correct / len(dev_enc)
        log.history.append(
            {"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches), "dev_accuracy": dev_acc}
        )
        if dev_acc > log.best_dev_accuracy or log.best_epoch < 0:
            log.best_dev_accuracy = dev_acc
            log.best_epoch = epoch
            best_w, best_bias = w.copy(), bias
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                log.stopped_epoch = epoch
                break
    if log.stopped_epoch < 0:
        log.stopped_epoch = len(log.history) - 1
    weights = np.zeros(cfg.dim, dtype=np.float64)
    weights[support] = best_w[:-1]
    return ScorerModel(weights=weights, bias=best_bias, featurizer=cfg), log


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(model: ScorerModel, path: str | Path) -> None:
    meta = {
        "dim": model.featurizer.dim,
        "hash_seed": model.featurizer.hash_seed,
        "ngram_orders": list(NGRAM_ORDERS),
        "lowercase": LOWERCASE,
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
            cfg = FeaturizerConfig(dim=int(meta["dim"]), hash_seed=int(meta["hash_seed"]))
            featurization = (meta["ngram_orders"], meta["lowercase"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScorerError(f"corrupt checkpoint {p}: {exc}") from exc
    if featurization != (list(NGRAM_ORDERS), LOWERCASE):
        raise ScorerError(
            f"checkpoint {p}: ngram_orders {featurization[0]} and lowercase {featurization[1]}"
            f" differ from this featurizer's {list(NGRAM_ORDERS)} and {LOWERCASE}"
        )
    if weights.shape != (cfg.dim,):
        raise ScorerError(
            f"checkpoint {p}: weight shape {weights.shape} does not match dim {cfg.dim}"
        )
    return ScorerModel(weights=weights, bias=bias, featurizer=cfg)
