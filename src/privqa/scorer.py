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
of dense Adam over all `dim` weights bit for bit. The returned model holds
only its support: the sorted feature indices and their weights, every other
weight being 0.0. Checkpoints store the support; older full-dim ones still load.
"""

from __future__ import annotations

import json
import math
import random
import zipfile
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from privqa import errors
from privqa._digest import blake2b
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
        # The n-gram -> index memo filled by `featurize_texts`. It lives on
        # this object, which a run, or one sweep or compare command, builds
        # once, so it starts cold; it is no field, so equality, hashing and
        # checkpoint metadata ignore it.
        object.__setattr__(self, "_tokens", _Tokens(self.dim, self.hash_seed))
        object.__setattr__(self, "_bigrams", _Bigrams(self._tokens))


@dataclass(frozen=True)
class FeatureVector:
    """Sparse counts: parallel index/value arrays, indices below the featurizer's dim."""

    indices: np.ndarray
    values: np.ndarray


# Texts split, looked up and counted together in `featurize_texts`. Each
# chunk's new n-grams go into the memo with one table insert, so smaller
# chunks featurize slower cold (a default sweep's 14,400 texts took 0.05-0.15
# s longer at 64 texts than at 256); larger ones raise a call's peak memory
# (traced over a default 2,000-text train split: ≈3.2 MB at 64 to 256 texts,
# 3.6 MB at 320 and 4.5 MB at 512).
CHUNK_TEXTS = 256

# A bigram's memo key packs its two token ids into one int64.
_ID_BITS = 32


class _Table:
    """int64 key -> int32 value, as sorted keys and a parallel value array.

    A batch of keys is looked up with one `np.searchsorted`, and its new keys
    go in with one `np.insert` per array: 12 bytes an entry, where a dict of
    Python ints holds about a hundred.
    """

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=np.int32)

    def __len__(self) -> int:
        return self.keys.size

    def look_up(
        self, keys: np.ndarray, new_values: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Each key's value. The keys not yet held are passed to one
        `new_values` call, once each and in first-seen order, and get its values."""
        at = np.searchsorted(self.keys, keys)
        found = at < self.keys.size
        found[found] = self.keys[at[found]] == keys[found]
        out = np.empty(keys.size, dtype=np.int32)
        out[found] = self.values[at[found]]
        if not found.all():
            missing = ~found
            new, first, inverse = np.unique(
                keys[missing], return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            values = np.empty(new.size, dtype=np.int32)
            values[order] = new_values(new[order])
            out[missing] = values[inverse]
            at = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, at, new)
            self.values = np.insert(self.values, at, values)
        return out


class _Tokens(dict):
    """Token -> token id, plus the memo's hashed indices.

    An n-gram's index is the keyed 8-byte blake2b digest of its UTF-8 bytes
    (a bigram's two tokens joined by U+001F), little-endian, modulo `dim`,
    computed the first time the n-gram is seen. Each distinct index gets a
    slot, numbered from 0 as first seen; `slots` maps index -> slot as a
    sorted `_Table`, and `indices[slot]` is that index: n-grams that hash
    alike share a slot. A token gets its id when first seen, and `ids` hashes
    a batch's new tokens together into `unigram_slots` (token id -> slot).
    """

    def __init__(self, dim: int, hash_seed: int) -> None:
        super().__init__()
        self.dim = dim
        self.keyed = blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))
        self.words: list[str] = []  # token id -> token
        self.unigram_slots = np.empty(0, dtype=np.int32)  # token id -> slot
        self.slots = _Table()  # index -> slot
        self.indices = np.empty(0, dtype=np.int64)  # slot -> index

    def __missing__(self, word: str) -> int:
        tid = self[word] = len(self.words)
        self.words.append(word)
        return tid

    def ids(self, words: list[str]) -> np.ndarray:
        """Each word's token id; the new words are hashed and looked up in one pass."""
        first = len(self.words)
        ids = np.fromiter(map(self.__getitem__, words), np.int64, len(words))
        if len(self.words) > first:
            self.unigram_slots = _grown(self.unigram_slots, len(self.words))
            self.unigram_slots[first : len(self.words)] = self.slots_of(self.words[first:])
        return ids

    def slots_of(self, grams: list[str]) -> np.ndarray:
        """Each n-gram's slot: all of them hashed, then looked up in one table call."""
        keyed = self.keyed

        def digest(gram: str) -> bytes:
            h = keyed.copy()
            h.update(gram.encode("utf-8"))
            return h.digest()

        digests = np.frombuffer(b"".join(map(digest, grams)), dtype="<u8")
        # below dim <= 2**63, so every index fits int64
        return self.slots.look_up((digests % np.uint64(self.dim)).astype(np.int64), self._number)

    def _number(self, new: np.ndarray) -> np.ndarray:
        first = len(self.slots)
        self.indices = _grown(self.indices, first + new.size)
        self.indices[first : first + new.size] = new
        return np.arange(first, first + new.size, dtype=np.int32)


class _Bigrams(_Table):
    """Two token ids packed in one int64 -> the bigram's slot in `tokens`, a sorted `_Table`.

    A batch's new bigrams are hashed together, in first-seen order. It refers
    to `tokens` and not the other way round: with no reference cycle, a
    dropped config frees its memo at once, not at the next full garbage
    collection.
    """

    def __init__(self, tokens: _Tokens) -> None:
        super().__init__()
        self.tokens = tokens

    def slots_of(self, keys: np.ndarray) -> np.ndarray:
        return self.look_up(keys, self._hash)

    def _hash(self, new: np.ndarray) -> np.ndarray:
        words = self.tokens.words
        left, right = (new >> _ID_BITS).tolist(), (new & ((1 << _ID_BITS) - 1)).tolist()
        return self.tokens.slots_of(
            [words[a] + "\x1f" + words[b] for a, b in zip(left, right)]
        )


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """`array` if it has room for `size` entries, else a copy with room for a quarter more.

    A memo keeps its arrays for a whole command, so their slack counts in its
    peak memory; a quarter still grows them in few copies.
    """
    if size <= array.size:
        return array
    out = np.empty(size + size // 4 + 64, dtype=array.dtype)
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
    slots, counts, sizes = _featurize_slots(texts, config)
    return config._tokens.indices[slots], counts.astype(np.float64), sizes


def _featurize_slots(
    texts: Sequence[str], config: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`featurize_texts` with each index given as its int32 slot in the config's memo.

    Slots and counts are int32: a slot numbers a distinct index held in the
    memo and a count the n-grams of one chunk, both far below 2**31, and
    every use of a count as a float64 converts it exactly.
    """
    tokens, bigrams = config._tokens, config._bigrams
    chunks = [
        _featurize_chunk(texts[lo : lo + CHUNK_TEXTS], tokens, bigrams)
        for lo in range(0, max(len(texts), 1), CHUNK_TEXTS)
    ]
    if len(chunks) == 1:
        return chunks[0]
    return tuple(map(np.concatenate, zip(*chunks)))


def _featurize_chunk(
    texts: Sequence[str], tokens: _Tokens, bigrams: _Bigrams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slots, counts and sizes of the texts: each is lowered and split, the
    chunk's new tokens are hashed together, and its bigrams looked up in one
    table call."""
    split = [text.lower().split() for text in texts]
    lens = np.fromiter(map(len, split), np.int64, len(split))
    ids = tokens.ids(list(chain.from_iterable(split)))
    del split
    ends = np.cumsum(lens)
    # a token starts a bigram unless it ends its text
    pairs = np.ones(ids.size, dtype=bool)
    pairs[ends[lens > 0] - 1] = False
    pair_slots = bigrams.slots_of(((ids[:-1] << _ID_BITS) | ids[1:])[pairs[:-1]])

    # lay each text out as its unigrams' slots, then its bigrams'
    blens = np.maximum(lens - 1, 0)
    seq = np.empty(ids.size + int(blens.sum()), dtype=np.int32)
    unigram_at = np.arange(ids.size) + np.repeat(np.cumsum(blens) - blens, lens)
    seq[unigram_at] = tokens.unigram_slots[ids]
    seq[np.arange(seq.size - ids.size) + np.repeat(ends, blens)] = pair_slots
    rows = np.repeat(np.arange(lens.size), lens + blens)

    # Sorted (slot, position) keys put each text's repeats of a slot next to
    # each other, earliest first; the count goes to the earliest position.
    # Slots and positions each stay far below 2**31, so the keys fit int64.
    n = seq.size
    bits = n.bit_length()
    key = (seq.astype(np.int64) << bits) | np.arange(n)
    key.sort()
    pos = key & ((1 << bits) - 1)
    key >>= bits
    row = rows[pos]
    head = np.ones(n + 1, dtype=bool)
    head[1:n] = (key[1:] != key[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(head)
    counts = np.zeros(n, dtype=np.int32)
    counts[pos[starts[:-1]]] = starts[1:] - starts[:-1]
    keep = counts > 0
    return seq[keep], counts[keep], np.bincount(rows[keep], minlength=lens.size)


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash word n-grams of the text into a sparse count vector: one row of `featurize_texts`."""
    indices, values, _ = featurize_texts([text], config)
    return FeatureVector(indices=indices, values=values)


@dataclass
class ScorerModel:
    """A linear head held as its support.

    `indices` are the feature indices that have a weight, strictly
    increasing and below the featurizer's dim, and `values` their weights;
    every other feature's weight is 0.0.
    """

    indices: np.ndarray
    values: np.ndarray
    bias: float
    featurizer: FeaturizerConfig

    @classmethod
    def zeros(cls, featurizer: FeaturizerConfig | None = None) -> "ScorerModel":
        empty = np.empty(0, dtype=np.int64)
        return cls(empty, empty.astype(np.float64), 0.0, featurizer or FeaturizerConfig())

    @classmethod
    def from_weights(
        cls, weights: np.ndarray, bias: float, featurizer: FeaturizerConfig
    ) -> "ScorerModel":
        """The model of a full-dim weight vector, as older checkpoints hold it:
        every entry whose bits are nonzero is kept, so a -0.0 is too."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (featurizer.dim,):
            raise ScorerError(
                f"weight shape {weights.shape} does not match dim {featurizer.dim}"
            )
        indices = np.flatnonzero(weights.view(np.int64))
        return cls(indices, weights[indices], bias, featurizer)

    @property
    def weights(self) -> np.ndarray:
        """A fresh read-only full-dim copy of the weights, for inspection;
        scoring, gradients and checkpoints use the support alone."""
        out = np.zeros(self.featurizer.dim, dtype=np.float64)
        out[self.indices] = self.values
        out.flags.writeable = False
        return out

    def weights_at(self, indices: np.ndarray) -> np.ndarray:
        """The weight of each feature index: its support value, or 0.0 outside the support."""
        out = np.zeros(indices.size, dtype=np.float64)
        if self.indices.size:
            at = np.minimum(np.searchsorted(self.indices, indices), self.indices.size - 1)
            hit = self.indices[at] == indices
            out[hit] = self.values[at[hit]]
        return out


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
    int64 zeros, which `+ bias` turns into floats. `values` may be the
    featurizer's int32 counts: their conversion to float64 is exact, so the
    products are those of float64 counts, bit for bit.
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
    """Raw score of each text: one featurizing pass and one kernel call.

    The kernel reads the featurizer's int32 slots and counts, against the
    weights looked up once per memo slot; a slot outside the model's support,
    such as an n-gram first seen after training, weighs 0.0.
    """
    cfg = model.featurizer
    slots, counts, sizes = _featurize_slots(texts, cfg)
    # the memo table's keys are its slots' indices in increasing order, a
    # third of the cost of searching them in slot order (default sweep)
    memo = cfg._tokens.slots
    weights = np.empty(len(memo), dtype=np.float64)
    weights[memo.values] = model.weights_at(memo.keys)
    rows = np.repeat(np.arange(len(texts)), sizes)
    return _raw_scores(weights, model.bias, slots, counts, rows, len(texts))


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
    arrays (int32 slots and counts), in which item k's choices are the
    `counts[k]` texts after its predecessors', and each item's gold position
    among its own choices. A batch lays its items' choices end to end, so a
    gold index outside its own item's choices would silently pick a
    neighbour's: it is rejected.
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
    # widened once per batch: numpy gathers and bincounts by intp, and
    # multiplies float64 by float64, without a casting pass per call
    positions = positions.astype(np.intp, copy=False)
    values = values.astype(np.float64, copy=False)
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
    # the batch's slots, renumbered compactly; each has its own feature index
    touched, positions = np.unique(slots, return_inverse=True)
    indices = cfg._tokens.indices[touched]
    loss, grad, bias_grad = _loss_grad(
        model.weights_at(indices), model.bias, positions, values, sizes, counts, gold
    )
    # in index order, so the memo's slot order never shows
    order = np.argsort(indices)
    weight_grad = dict(zip(indices[order].tolist(), grad[order].tolist()))
    return LossGrad(loss=loss, weight_grad=weight_grad, bias_grad=bias_grad)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of the ranges `[starts[k], starts[k] + lens[k])`, laid end to end."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - lens), lens)


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
    by dev accuracy is returned; on ties the earlier epoch wins. The model
    holds one weight per feature index the training texts use, and no
    full-dim array.
    """
    if not train_items:
        raise ScorerError("no training items")
    if not dev_items:
        raise ScorerError("no dev items for early stopping")
    cfg = featurizer or FeaturizerConfig()
    best_w, best_bias, log, support = _fit(config, train_items, dev_items, cfg)
    indices = cfg._tokens.indices[support]
    order = np.argsort(indices)
    return ScorerModel(indices[order], best_w[order], best_bias, cfg), log


def _support_positions(slots: np.ndarray, support: np.ndarray, n_slots: int) -> np.ndarray:
    """Each slot's int32 position in `support`, or `support.size` for a slot outside it."""
    position = np.full(n_slots, support.size, dtype=np.int32)
    position[support] = np.arange(support.size, dtype=np.int32)
    return position[slots]


def _fit(
    config: TrainConfig,
    train_items: Sequence[TrainItem],
    dev_items: Sequence[TrainItem],
    cfg: FeaturizerConfig,
) -> tuple[np.ndarray, float, TrainLog, np.ndarray]:
    """`train`'s epoch loop over the support: (best weights, best bias, log, support).

    The best weights are indexed by support position, with one more entry,
    the 0.0 of position K, at the end; `support` holds the memo slot of
    each position. Each split's slots become int32 support positions as soon
    as it is featurized, and only its positions and int32 counts are kept;
    they and the optimizer's buffers are freed when this returns.
    """
    train_slots, train_values, train_sizes, train_counts, train_gold = _featurize_items(
        train_items, cfg
    )
    # Weights live at support positions 0..K-1, one per slot the training
    # texts use. Position K holds the dev n-grams that never occur in
    # training: its gradient is always 0, so it stays 0.0.
    support = np.flatnonzero(np.bincount(train_slots))
    train_positions = _support_positions(train_slots, support, len(cfg._tokens.slots))
    del train_slots
    dev_slots, dev_values, dev_sizes, dev_counts, dev_gold = _featurize_items(dev_items, cfg)
    dev_positions = _support_positions(dev_slots, support, len(cfg._tokens.slots))
    del dev_slots
    dev_rows = np.repeat(np.arange(dev_sizes.size, dtype=np.int32), dev_sizes)
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
    return best_w, best_bias, log, support


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(model: ScorerModel, path: str | Path) -> None:
    meta = {
        "dim": model.featurizer.dim,
        "hash_seed": model.featurizer.hash_seed,
        "ngram_orders": list(NGRAM_ORDERS),
        "lowercase": LOWERCASE,
    }
    # through an open file, since np.savez appends ".npz" to a path without it
    with errors.replacing(path, binary=True) as fh:
        np.savez(
            fh,
            indices=model.indices,
            values=model.values,
            bias=np.float64(model.bias),
            meta=np.bytes_(json.dumps(meta).encode("utf-8")),
        )


def load_model(path: str | Path) -> ScorerModel:
    """Read the support `save_model` writes, or an older checkpoint's full-dim `weights`."""
    p = Path(path)
    if not p.exists():
        raise ScorerError(f"checkpoint not found: {p}")
    try:
        with np.load(p, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            layout = sorted(set(data.files) - {"meta", "bias"})
            if layout not in (["weights"], ["indices", "values"]):
                raise ScorerError(f"arrays {layout}: neither 'weights' nor 'indices' and 'values'")
            arrays = {name: data[name] for name in ("bias", *layout)}
            dim, hash_seed = (errors.field(meta, k, int, ScorerError) for k in ("dim", "hash_seed"))
            cfg = FeaturizerConfig(dim=dim, hash_seed=hash_seed)
            featurization = (meta["ngram_orders"], meta["lowercase"])
    # a damaged archive surfaces as any of these, from zipfile, zlib or numpy,
    # and meta outside the featurizer's range or arrays of neither layout as a ScorerError
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
    # converted, a "1.5" bias, a bool or int weight or a complex one's real
    # part would load as a float; either byte order loads, converted to native
    for name, array in arrays.items():
        want = np.dtype(np.int64 if name == "indices" else np.float64)
        if (array.dtype.kind, array.dtype.itemsize) != (want.kind, want.itemsize):
            raise ScorerError(f"checkpoint {p}: array {name!r} has dtype {array.dtype}, not {want}")
        arrays[name] = array.astype(want, copy=False)
    bias = arrays.pop("bias")
    if bias.shape:
        raise ScorerError(f"checkpoint {p}: array 'bias' has shape {bias.shape}, not ()")
    bias = bias.item()
    if "weights" in arrays:
        try:
            model = ScorerModel.from_weights(arrays["weights"], bias, cfg)
        except ScorerError as exc:
            raise ScorerError(f"checkpoint {p}: {exc}") from exc
    else:
        # scoring looks an index up by binary search, and its value by position
        indices, values, fault = arrays["indices"], arrays["values"], None
        if indices.ndim != 1:
            fault = f"'indices' has shape {indices.shape}, not 1-d"
        elif values.shape != indices.shape:
            fault = f"'values' has shape {values.shape}, not that of 'indices' {indices.shape}"
        elif np.any(indices[1:] <= indices[:-1]):
            fault = "'indices' is not strictly increasing"
        elif indices.size and not (0 <= indices[0] and indices[-1] < dim):
            fault = f"'indices' spans [{indices[0]}, {indices[-1]}], outside [0, {dim}) of dim {dim}"
        if fault:
            raise ScorerError(f"checkpoint {p}: array {fault}")
        model = ScorerModel(indices, values, bias, cfg)
    # a NaN or infinite weight would score every choice alike, silently
    bad = np.flatnonzero(~np.isfinite(model.values))
    if bad.size:
        at = bad[0]
        raise ScorerError(
            f"checkpoint {p}: weight at index {model.indices[at]} is {model.values[at]}, not finite"
        )
    if not math.isfinite(bias):
        raise ScorerError(f"checkpoint {p}: bias is {bias}, not finite")
    return model
