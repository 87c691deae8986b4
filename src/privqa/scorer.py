"""Hashed-feature linear scorer over per-choice texts.

The scorer only sees texts: each candidate answer is one text (how a
question, answer and context become that text is the harness's concern),
featurized as hashed lowercase word unigrams and bigrams with counts, and
passed through a shared linear head. Scores are normalized with a softmax
across an item's choices; training minimizes mean cross-entropy of the gold
position with AdamW-style decoupled weight decay, linear warmup, and early
stopping on development accuracy.

Every score goes through one kernel, `_raw_scores`: a text's score is its
terms `w[i] * v` summed left to right in featurizer order, plus the bias. It
is one `np.bincount` call, which adds in input order on every CPU, and the
softmax exponent is `math.exp` per element; no BLAS or SIMD-dispatched
reduction decides a result, so identical inputs give identical bits under
any OpenBLAS kernel or numpy CPU-feature set.

Training runs over the feature support: the hashed indices that occur in
the training texts, remapped to a compact range through the featurizer
memo's slots (in the order the memo first saw them). A feature outside the
support gets zero gradient at every step, so under decoupled decay its
Adam moments and its weight stay exactly 0; every optimizer operation is
elementwise, and scores and gradients are summed in the same order as over
full-dim weights. The trained weights, bias and log therefore equal those
of dense Adam over all `dim` weights bit for bit, and the returned model is
full-dim.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import zipfile
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from privqa.errors import PrivqaError

# Featurization is fixed: these word n-gram orders, over text that `featurize`
# always lowercases. Checkpoints record both, and one made with other values
# does not load.
NGRAM_ORDERS = (1, 2)
LOWERCASE = True

# AdamW moment decay rates and denominator epsilon.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ScorerError(PrivqaError):
    """Model construction or checkpoint IO failed."""


class TrainingDiverged(ScorerError):
    """The loss became non-finite during training."""


@dataclass(frozen=True)
class FeaturizerConfig:
    dim: int = 2**18
    hash_seed: int = 17

    def __post_init__(self) -> None:
        # indices are int64 and the hash key is 8 little-endian bytes
        if not 1 <= self.dim <= 2**63:
            raise ScorerError(f"featurizer dim {self.dim} outside [1, 2**63]")
        if not 0 <= self.hash_seed < 2**64:
            raise ScorerError(f"featurizer hash_seed {self.hash_seed} outside [0, 2**64)")
        # n-gram -> index memo filled by `featurize_texts`. It lives on this
        # object, which a run, or one sweep or compare command, builds once, so
        # each starts cold; it is not a field, so equality, hashing and
        # checkpoint metadata ignore it.
        object.__setattr__(self, "_tokens", _Tokens(self.dim, self.hash_seed))
        object.__setattr__(self, "_bigrams", _Bigrams(self._tokens))


@dataclass(frozen=True)
class FeatureVector:
    """Sparse counts: parallel index/value arrays, indices below the featurizer's dim."""

    indices: np.ndarray
    values: np.ndarray


# Texts deduplicated per sort in `featurize_texts`. Chunks of 64 to 256 texts
# featurize a split equally fast; larger ones raise peak memory (on the
# default sweep, max RSS was ≈1 MB over the per-text featurizer's at 64 and
# ≈3-4 MB at 256).
CHUNK_TEXTS = 64

# A bigram's memo key packs its two token ids into one int64.
_ID_BITS = 32
_LOW_ID = (1 << _ID_BITS) - 1


class _Tokens(dict):
    """Token -> token id, plus the memo's hashed indices.

    An n-gram's index is the keyed 8-byte blake2b digest of its UTF-8 bytes
    (a bigram's two tokens joined by U+001F), little-endian, modulo `dim`,
    computed the first time the n-gram is seen. Each distinct index gets a
    slot, numbered from 0 as first seen, and `indices[slot]` is that index:
    n-grams that hash alike share a slot.
    """

    def __init__(self, dim: int, hash_seed: int) -> None:
        super().__init__()
        self.dim = dim
        self.keyed = hashlib.blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))
        self.words: list[str] = []  # token id -> token
        self.unigram_slots = np.empty(0, dtype=np.int64)  # token id -> slot
        self.slots: dict[int, int] = {}  # index -> slot
        self.indices = np.empty(0, dtype=np.int64)  # slot -> index

    def slot(self, gram: str) -> int:
        h = self.keyed.copy()
        h.update(gram.encode("utf-8"))
        index = int.from_bytes(h.digest(), "little") % self.dim
        slot = self.slots.get(index)
        if slot is None:
            slot = self.slots[index] = len(self.slots)
            self.indices = _grown(self.indices, slot + 1)
            self.indices[slot] = index
        return slot

    def __missing__(self, word: str) -> int:
        tid = self[word] = len(self.words)
        self.words.append(word)
        self.unigram_slots = _grown(self.unigram_slots, tid + 1)
        self.unigram_slots[tid] = self.slot(word)
        return tid


class _Bigrams(dict):
    """Two token ids packed in one int -> the bigram's slot in `tokens`.

    It refers to `tokens` and not the other way round: with no reference
    cycle, a dropped config frees its memo at once, not at the next full
    garbage collection.
    """

    def __init__(self, tokens: _Tokens) -> None:
        super().__init__()
        self.tokens = tokens

    def __missing__(self, key: int) -> int:
        words = self.tokens.words
        gram = words[key >> _ID_BITS] + "\x1f" + words[key & _LOW_ID]
        slot = self[key] = self.tokens.slot(gram)
        return slot


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """`array` if it has room for `size` entries, else a copy with room for twice that."""
    if size <= array.size:
        return array
    out = np.empty(2 * size, dtype=array.dtype)
    out[: array.size] = array
    return out


def featurize_texts(
    texts: Sequence[str], config: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hash word n-grams of each text into sparse counts, as flat arrays.

    Returns (indices, values, sizes): text k's features are the `sizes[k]`
    entries after the first `sizes[:k].sum()`. A text's distinct indices come
    in first-occurrence order over its unigrams, then its bigrams, and each
    value counts the text's n-grams that hash to that index.
    """
    slots, values, sizes = _featurize_slots(texts, config)
    return config._tokens.indices[slots], values, sizes


def _featurize_slots(
    texts: Sequence[str], config: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`featurize_texts` with each index given as its slot in the config's memo."""
    parts = [
        _featurize_chunk(texts[lo : lo + CHUNK_TEXTS], config._tokens, config._bigrams)
        for lo in range(0, max(len(texts), 1), CHUNK_TEXTS)
    ]
    if len(parts) == 1:
        return parts[0]
    return tuple(map(np.concatenate, zip(*parts)))


def _featurize_chunk(
    texts: Sequence[str], tokens: _Tokens, bigrams: _Bigrams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    split = [text.lower().split() for text in texts]
    lens = np.fromiter(map(len, split), np.int64, len(split))
    words = list(chain.from_iterable(split))
    ids = np.fromiter(map(tokens.__getitem__, words), np.int64, len(words))
    # adjacent tokens form a bigram unless the second one starts a text
    ends = np.cumsum(lens)
    pairs = np.ones(ids.size, dtype=bool)
    pairs[(ends - lens)[lens > 0]] = False
    keys = ((ids[:-1] << _ID_BITS) | ids[1:])[pairs[1:]]

    # lay each text out as its unigrams' slots, then its bigrams'
    blens = np.maximum(lens - 1, 0)
    seq = np.empty(ids.size + keys.size, dtype=np.int64)
    unigram_at = np.arange(ids.size) + np.repeat(np.cumsum(blens) - blens, lens)
    seq[unigram_at] = tokens.unigram_slots[ids]
    seq[np.arange(keys.size) + np.repeat(ends, blens)] = np.fromiter(
        map(bigrams.__getitem__, keys.tolist()), np.int64, keys.size
    )
    rows = np.repeat(np.arange(len(texts)), lens + blens)

    # Sorted (slot, position) keys put each text's repeats of a slot next to
    # each other, earliest first; the count goes to the earliest position.
    # Slots and positions each stay far below 2**31, so the keys fit int64.
    n = seq.size
    bits = n.bit_length()
    key = (seq << bits) | np.arange(n)
    key.sort()
    pos = key & ((1 << bits) - 1)
    key >>= bits
    row = rows[pos]
    head = np.ones(n + 1, dtype=bool)
    head[1:n] = (key[1:] != key[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(head)
    counts = np.zeros(n)
    counts[pos[starts[:-1]]] = starts[1:] - starts[:-1]
    keep = counts > 0
    return seq[keep], counts[keep], np.bincount(rows[keep], minlength=len(texts))


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash word n-grams of the text into a sparse count vector: one row of `featurize_texts`."""
    indices, values, _ = featurize_texts([text], config)
    return FeatureVector(indices=indices, values=values)


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


def _raw_scores(
    weights: np.ndarray,
    bias: float,
    indices: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    n: int,
) -> np.ndarray:
    """Raw score of each of `n` texts.

    Term j is `weights[indices[j]] * values[j]` and belongs to text `rows[j]`.
    bincount adds its weights in input order, so each text's terms are summed
    left to right and the bias is added after. With no terms it returns
    int64 zeros, which `+ bias` turns into floats.
    """
    terms = weights[indices]
    terms *= values
    return np.bincount(rows, weights=terms, minlength=n) + bias


def _softmax_groups(scores: np.ndarray, group: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Softmax within each group of consecutive scores; group g starts at `starts[g]`.

    numpy's `exp` picks its kernel by CPU feature, so the exponent is
    `math.exp` per element; bincount sums each group left to right.
    """
    shifted = scores - np.maximum.reduceat(scores, starts)[group]
    e = np.fromiter(map(math.exp, shifted.tolist()), np.float64, shifted.size)
    return e / np.bincount(group, weights=e)[group]


def softmax(scores: Sequence[float]) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    return _softmax_groups(s, np.zeros(s.size, dtype=np.int64), np.zeros(1, dtype=np.int64))


def best_choices(scores: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Each group's `np.argmax` over its `counts[g]` consecutive scores.

    Exact ties go to the lowest position, and a NaN counts as the maximum.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(counts.size), counts)
    top = np.maximum.reduceat(scores, starts)[group]
    local = np.arange(scores.size) - starts[group]
    hit = (scores == top) | np.isnan(scores)
    return np.minimum.reduceat(np.where(hit, local, scores.size), starts)


def score_texts(model: ScorerModel, texts: Sequence[str]) -> np.ndarray:
    """Raw score of each text: one featurizing pass and one kernel call."""
    indices, values, sizes = featurize_texts(texts, model.featurizer)
    rows = np.repeat(np.arange(len(texts)), sizes)
    return _raw_scores(model.weights, model.bias, indices, values, rows, len(texts))


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


def _featurize_items(
    items: Sequence[TrainItem], cfg: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every choice text of the items, featurized to memo slots in one call.

    Returns (slots, values, sizes, counts, gold): the featurizer's flat
    arrays, in which item k's choices are the `counts[k]` texts after its
    predecessors', and each item's gold position among its own choices. A
    batch lays its items' choices end to end, so a gold index outside its own
    item's choices would silently pick a neighbour's: it is rejected.
    """
    for item in items:
        if not 0 <= item.gold_index < len(item.texts):
            raise ScorerError(
                f"item {item.id!r}: gold index {item.gold_index}"
                f" outside its {len(item.texts)} choices"
            )
    slots, values, sizes = _featurize_slots([text for item in items for text in item.texts], cfg)
    counts = np.array([len(item.texts) for item in items], dtype=np.int64)
    gold = np.array([item.gold_index for item in items], dtype=np.int64)
    return slots, values, sizes, counts, gold


def _loss_grad(
    weights: np.ndarray,
    bias: float,
    positions: np.ndarray,
    values: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    gold: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy, its weight gradient (dense over `weights`) and its bias gradient.

    The batch is laid out in (item, choice, n-gram) order: term j is
    `weights[positions[j]] * values[j]`, choice c has `sizes[c]` terms, item
    k has `counts[k]` choices and its gold one is the `gold[k]`-th. It is
    scored in one kernel call, with a softmax over each item's choices.
    """
    inv = 1.0 / counts.size
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(sizes.size), sizes)
    scores = _raw_scores(weights, bias, positions, values, rows, sizes.size)
    probs = _softmax_groups(scores, np.repeat(np.arange(counts.size), counts), starts)
    gold = starts + gold
    total = 0.0
    for p in probs[gold].tolist():
        total -= math.log(max(p, 1e-300))
    probs[gold] -= 1.0
    probs *= inv
    # a plain left-to-right sum (builtin sum() compensates on newer Pythons)
    bias_grad = 0.0
    for c in probs.tolist():
        bias_grad += c
    # bincount adds in input order: every gradient entry is the sequential sum
    grad = np.bincount(positions, weights=probs[rows] * values, minlength=weights.size)
    return total * inv, grad, bias_grad


def loss_and_grad(model: ScorerModel, batch: Sequence[TrainItem]) -> LossGrad:
    """Mean cross-entropy over the batch and its sparse gradient.

    `weight_grad` has one entry per distinct feature index in the batch.
    """
    if not batch:
        raise ScorerError("empty batch")
    cfg = model.featurizer
    slots, values, sizes, counts, gold = _featurize_items(batch, cfg)
    indices = cfg._tokens.indices[slots]
    loss, grad, bias_grad = _loss_grad(
        model.weights, model.bias, indices, values, sizes, counts, gold
    )
    # in index order, so the memo's slot order never shows
    touched = np.unique(indices)
    weight_grad = dict(zip(touched.tolist(), grad[touched].tolist()))
    return LossGrad(loss=loss, weight_grad=weight_grad, bias_grad=bias_grad)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of the ranges `[starts[k], starts[k] + lens[k])`, laid end to end."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)


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

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if not getattr(self, name) >= 1:
                raise ScorerError(f"{name} {getattr(self, name)} must be at least 1")
        for name in ("warmup_steps", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ScorerError(f"{name} {getattr(self, name)} must be finite and not negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ScorerError(f"learning_rate {self.learning_rate} must be finite and positive")


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
    # The returned model is full-dim, so a dim too large to allocate fails
    # here, before any featurizing. The weights themselves are built after
    # training, once its arrays are freed: held through training, they
    # raised a sweep's peak RSS by about 0.9 MB.
    try:
        np.empty(cfg.dim, dtype=np.float64)
    except (ValueError, MemoryError) as exc:
        raise ScorerError(f"featurizer dim {cfg.dim}: cannot allocate its weights ({exc})") from exc

    train_slots, train_values, train_sizes, train_counts, train_gold = _featurize_items(
        train_items, cfg
    )
    dev_slots, dev_values, dev_sizes, dev_counts, dev_gold = _featurize_items(dev_items, cfg)
    # Weights live at support positions 0..K-1, one per slot the training
    # texts use. Position K holds the dev n-grams that never occur in
    # training: its gradient is always 0, so it stays 0.0.
    support = np.flatnonzero(np.bincount(train_slots))
    position = np.full(len(cfg._tokens.slots), support.size, dtype=np.int64)
    position[support] = np.arange(support.size)
    train_positions = position[train_slots]
    dev_positions = position[dev_slots]
    dev_rows = np.repeat(np.arange(dev_sizes.size), dev_sizes)
    # each training item's first text, and each text's first term
    first_text = np.cumsum(train_counts) - train_counts
    first_term = np.cumsum(train_sizes) - train_sizes

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
        order = list(range(len(train_items)))
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            pick = np.array(order[lo : lo + config.batch_size])
            counts = train_counts[pick]
            texts = _ranges(first_text[pick], counts)
            sizes = train_sizes[texts]
            terms = _ranges(first_term[texts], sizes)
            loss, g, bias_grad = _loss_grad(
                w, bias, train_positions[terms], train_values[terms],
                sizes, counts, train_gold[pick],
            )
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

        scores = _raw_scores(w, bias, dev_positions, dev_values, dev_rows, dev_sizes.size)
        correct = int(np.count_nonzero(best_choices(scores, dev_counts) == dev_gold))
        dev_acc = correct / len(dev_items)
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
    weights[cfg._tokens.indices[support]] = best_w[:-1]
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
    try:
        with np.load(p, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            weights = np.asarray(data["weights"], dtype=np.float64)
            bias = float(data["bias"])
            cfg = FeaturizerConfig(dim=int(meta["dim"]), hash_seed=int(meta["hash_seed"]))
            featurization = (meta["ngram_orders"], meta["lowercase"])
    # a damaged archive surfaces as any of these, from zipfile, zlib or numpy,
    # and meta outside the featurizer's range as a ScorerError
    except (
        OSError, EOFError, KeyError, TypeError, ValueError, OverflowError, RuntimeError,
        zipfile.BadZipFile, zlib.error, ScorerError,
    ) as exc:
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
