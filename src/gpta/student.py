"""The trainable text classifier: softmax regression over hashed features
of the prefix-augmented input.

Features are hashed unigram counts of the concatenated token stream plus
prefix-token x input-token interaction counts. The interactions are what
let a prefix reshape the decision surface instead of merely shifting class
priors, so the prefix search has something real to optimize. Hashing is
FNV-1a 64-bit over UTF-8 token bytes with the seed XORed into the offset
basis; everything here is bit-stable across runs and platforms.

`featurize` is the from-scratch reference, and `forward`, `loss`, `grad`,
`sgd_step` and `predict` are the per-example oracles built on it: tests
compare against them, and no run reaches them. Training uses a
`Featurizer`, which merges the same features for a block of texts at
once from per-run token tables and hands each text's over as index and
count arrays; `train_pass` steps on those arrays, bit-identical
to `grad` + `sgd_step`. Scoring uses `batch_logits`, which factors a whole
split's logits through the same tables. Both take the tables from
`_featurizer_for`: the ones given when they hold every text of the data,
else new ones over the data's texts.
"""

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import StateError, ValidationError
from .fileio import decoding, read_json, record_from_json, write_atomic

FeatureVector = dict[int, float]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Joins prefix token and input token into one interaction key. \x01 is not
# whitespace, so a text token containing it hashes exactly like a pair:
# featurize("", "a\x01b", dims) and featurize("a", "b", dims) share an
# index. It is kept because any other separator would move every
# interaction index and change the byte-identical run outputs.
_PAIR_SEP = "\x01"

DEFAULT_DIMS = 1 << 18
# A student allocates a dense class_count x dims weight matrix, so dims is bounded.
MAX_DIMS = 1 << 24


def _fold(h: int, data: str) -> int:
    """Continue an FNV-1a 64-bit state over the UTF-8 bytes of `data`."""
    for byte in data.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 17)
def fnv1a64(data: str, seed: int = 0) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes of `data`."""
    return _fold(_FNV_OFFSET ^ seed, data)


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _check_dims(dims: int) -> None:
    if not 2 <= dims <= MAX_DIMS or dims & (dims - 1):
        raise ValidationError(f"dims must be a power of two in [2, {MAX_DIMS}], got {dims}")


def featurize(prefix: str, text: str, dims: int, hash_seed: int = 0) -> FeatureVector:
    """Hashed feature counts for the input `text` under `prefix`.

    Unigram counts over the concatenated prefix+text token stream, plus a
    count for every (prefix token, text token) pair. dims must be a power
    of two in [2, MAX_DIMS].
    """
    _check_dims(dims)
    prefix_tokens, text_tokens = tokenize(prefix), tokenize(text)
    # FNV-1a folds bytewise: a pair's hash continues prefix token + _PAIR_SEP over the text token.
    starts = [_fold(_FNV_OFFSET ^ hash_seed, p_tok + _PAIR_SEP) for p_tok in prefix_tokens]
    return Counter(
        [fnv1a64(tok, hash_seed) % dims for tok in prefix_tokens + text_tokens]
        + [_fold(start, x_tok) % dims for start in starts for x_tok in text_tokens]
    )


class Featurizer:
    """`featurize(prefix, text, dims, hash_seed)` for each of `texts`, as
    index and count arrays, from tables built here: each text as
    vocabulary ids, each vocabulary token's unigram index and, per prefix
    token when first seen, its pair index with every vocabulary token.
    Features are merged a block of texts at a time under one prefix
    (`_build`), and `featurize` looks one text up in the last block. A
    plain class, so the benchmark's tracer counts `featurize` calls here."""

    def __init__(self, dims: int, hash_seed: int, texts: list[str]):
        _check_dims(dims)
        self.dims, self.hash_seed = dims, hash_seed
        # Longest first, so the tokens still being folded at byte j are a leading slice.
        encoded = dict.fromkeys(t.encode() for text in texts for t in tokenize(text))
        self._vocab = sorted(encoded, key=len, reverse=True)
        ids = {token.decode(): i for i, token in enumerate(self._vocab)}
        # text -> vocabulary id of each token
        self._ids = {text: np.array([ids[t] for t in tokenize(text)], dtype=np.int64) for text in texts}
        # Column j holds byte j of each token longer than j: a padded byte matrix without the padding.
        self._columns = [np.array([t[j] for t in self._vocab if len(t) > j], dtype=np.uint64)
                         for j in range(max(map(len, self._vocab), default=0))]
        self._unigrams = self._fold_vocab(_FNV_OFFSET ^ hash_seed)
        self._rows: dict[str, np.ndarray] = {}  # prefix token -> its pair index with each vocabulary token
        self._block: tuple = (None,)  # the last block's prefix, text -> slot, slot offsets, indices, counts

    def _fold_vocab(self, start: int) -> np.ndarray:
        """Index of every vocabulary token under FNV-1a continued from `start`."""
        h = np.full(len(self._vocab), start & _MASK64, dtype=np.uint64)
        for column in self._columns:
            h[: len(column)] ^= column
            h[: len(column)] *= np.uint64(_FNV_PRIME)
        return (h % self.dims).astype(np.int64)

    def featurize(self, prefix: str, text: str) -> tuple[np.ndarray, np.ndarray]:
        """featurize(prefix, text, self.dims, self.hash_seed) as two arrays:
        its keys in the same order, and their counts as float64. `text`
        must be one of the featurizer's texts. Read from the block last
        built for `prefix` when it holds `text`, else from a new one-text
        block; the arrays are views into that block."""
        if self._block[0] != prefix or text not in self._block[1]:
            self._build(prefix, [text])
        _, slots, offsets, indices, counts = self._block
        slot = slots[text]
        return indices[offsets[slot] : offsets[slot + 1]], counts[offsets[slot] : offsets[slot + 1]]

    def _build(self, prefix: str, texts: list[str]) -> None:
        """Merge the features of every one of `texts` under `prefix` in a few
        numpy passes, and keep them as the block `featurize` reads.

        Each text's raw keys are laid out in featurize's order: the
        prefix's unigram indices, then each table row (the unigram row,
        then one pair row per prefix token) gathered at the text's ids.
        One sort of (text, key, position) finds each key's first position
        and its count; the first positions, in order, are the keys."""
        unigrams, rows = self._prefix_indices(prefix)
        unigrams, table = np.array(unigrams, dtype=np.int64), np.array([self._unigrams] + rows)
        slots = {text: slot for slot, text in enumerate(dict.fromkeys(texts))}
        ids = [self._ids[text] for text in slots]
        lengths = np.array([len(i) for i in ids])
        sizes = len(unigrams) + len(table) * lengths  # raw keys per text
        ends = np.cumsum(sizes)
        raw = np.empty(ends[-1], dtype=np.int64)
        raw[(ends - sizes)[:, None] + np.arange(len(unigrams))] = unigrams
        # Token g of text t sits in row r at t's start + len(unigrams) + r * len(t) + (g - t's first token).
        token_slots = np.repeat(np.arange(len(ids)), lengths)
        row0 = (ends - sizes + len(unigrams) - (np.cumsum(lengths) - lengths))[token_slots] + np.arange(len(token_slots))
        raw[row0 + np.arange(len(table))[:, None] * lengths[token_slots]] = table[:, np.concatenate(ids)]
        # (text, key, position) packed in one int64: texts x dims x raw keys stays far below 2^63.
        n = len(raw)
        keyed = np.sort((np.repeat(np.arange(len(ids)), sizes) * self.dims + raw) * n + np.arange(n))
        starts = np.flatnonzero(np.diff(keyed // n, prepend=-1))  # of each run of one (text, key)
        counts = np.zeros(n)
        counts[keyed[starts] % n] = np.diff(starts, append=n)
        kept = np.flatnonzero(counts)  # each key's first position, in raw order
        self._block = (prefix, slots, [0] + np.searchsorted(kept, ends).tolist(), raw[kept], counts[kept])

    def _prefix_indices(self, prefix: str) -> tuple[list[int], list[np.ndarray]]:
        """The unigram index and the pair-index row of each token of `prefix`, in order."""
        p_toks, seeded = tokenize(prefix), _FNV_OFFSET ^ self.hash_seed
        for p_tok in set(p_toks) - self._rows.keys():
            self._rows[p_tok] = self._fold_vocab(_fold(seeded, p_tok + _PAIR_SEP))
        return [_fold(seeded, p_tok) % self.dims for p_tok in p_toks], [self._rows[p_tok] for p_tok in p_toks]


def _featurizer_for(featurizer: Featurizer | None, dims: int, hash_seed: int, data: Dataset) -> Featurizer:
    """`featurizer` when its tables hold every text of data, else a new one
    over data's texts. A featurizer given must hash with dims and
    hash_seed (seeds equal modulo 2^64 hash alike), else ValidationError."""
    if featurizer is not None and (featurizer.dims != dims or (featurizer.hash_seed - hash_seed) & _MASK64):
        raise ValidationError(
            f"the featurizer hashes with dims {featurizer.dims} and hash_seed {featurizer.hash_seed}, "
            f"not dims {dims} and hash_seed {hash_seed}"
        )
    if featurizer is None or any(ex.text not in featurizer._ids for ex in data.examples):
        return Featurizer(dims, hash_seed, [ex.text for ex in data.examples])
    return featurizer


@dataclass(frozen=True)
class StudentParams:
    """Weights and bias of the classifier. Treated as immutable: training
    operations return new instances and refuse to run while frozen."""

    weights: np.ndarray  # (class_count, dims)
    bias: np.ndarray  # (class_count,)
    frozen: bool = False

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Gradient:
    weights: np.ndarray  # (class_count, dims)
    bias: np.ndarray  # (class_count,)


def init_params(dims: int, class_count: int) -> StudentParams:
    """Zero-initialized parameters: the uniform-probability starting point."""
    _check_dims(dims)
    if class_count < 2:
        raise ValidationError(f"class_count must be >= 2, got {class_count}")
    return StudentParams(weights=np.zeros((class_count, dims)), bias=np.zeros(class_count))


def freeze(params: StudentParams) -> StudentParams:
    return replace(params, frozen=True)


def unfreeze(params: StudentParams) -> StudentParams:
    return replace(params, frozen=False)


def _logits(weights: np.ndarray, bias: np.ndarray, f: FeatureVector) -> np.ndarray:
    """Logits b + W·f."""
    z = bias.copy()
    if f:
        idx = np.fromiter(f.keys(), dtype=np.int64, count=len(f))
        vals = np.fromiter(f.values(), dtype=np.float64, count=len(f))
        z += weights[:, idx] @ vals
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """softmax over the last axis of z (a logits vector, or one row per
    example), shifting z in place by its maximum."""
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: StudentParams, f: FeatureVector) -> np.ndarray:
    """Class probability vector softmax(W·f + b)."""
    return _softmax(_logits(params.weights, params.bias, f))


def loss(probs: np.ndarray, label: int) -> float:
    """Cross-entropy -ln(probs[label]), the probability floored at 1e-300 so
    one that underflows to 0 costs about 690.8 instead of infinity."""
    if not 0 <= label < len(probs):
        raise ValidationError(f"label {label} out of range for {len(probs)} classes")
    return float(-np.log(max(float(probs[label]), 1e-300)))


def _mean_loss(label_probs: np.ndarray | list[float]) -> float:
    """The mean of `loss` over the probabilities given to each example's
    label, floored and logged at once, then summed one by one in order as
    the per-example sum does (np.sum sums pairwise)."""
    total = 0.0
    for example_loss in (-np.log(np.maximum(label_probs, 1e-300))).tolist():
        total += example_loss
    return total / len(label_probs)


def grad(params: StudentParams, f: FeatureVector, label: int) -> Gradient:
    """Analytic cross-entropy gradient: dW_c = (p_c - 1{c=label})·f,
    db_c = p_c - 1{c=label}."""
    probs = forward(params, f)
    coef = probs.copy()
    coef[label] -= 1.0
    gw = np.zeros_like(params.weights)
    for idx, val in f.items():
        gw[:, idx] += coef * val
    return Gradient(weights=gw, bias=coef)


def sgd_step(params: StudentParams, g: Gradient, lr: float) -> StudentParams:
    """One gradient-descent step theta - lr·g. Refuses frozen params."""
    if params.frozen:
        raise StateError("cannot update frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    return replace(params, weights=params.weights - lr * g.weights, bias=params.bias - lr * g.bias)


def _gather(weights: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions of weights[:, idx] in weights, and weights[:, idx]
    taken from them in the same F-ordered layout that fancy indexing
    gives, so a product with it sums in the same order."""
    class_count, dims = weights.shape
    flat = (idx[:, None] + np.arange(0, class_count * dims, dims)).ravel()
    return flat, weights.take(flat).reshape(len(idx), class_count).T


# Training examples whose features train_pass merges at once: enough to
# spread the per-call numpy cost, few enough to keep the arrays small.
TRAIN_BLOCK = 64


def train_pass(
    params: StudentParams,
    train: Dataset,
    prefix: str,
    lr: float,
    hash_seed: int = 0,
    shuffle_seed: int = 0,
    featurizer: Featurizer | None = None,
) -> tuple[StudentParams, float]:
    """One shuffled pass of per-example SGD with `prefix` prepended to
    every input. Returns the new params and the mean pre-update loss,
    each example's loss floored as in `loss`. Features come from
    `featurizer`, which must hash with params.dims and hash_seed, else
    ValidationError; when it is None or lacks one of train's texts, from
    a new one over train's texts. An empty `train`, or a label outside
    [0, class_count), raises ValidationError before any update.

    The shuffled order is walked in blocks of TRAIN_BLOCK examples, whose
    features the featurizer merges at once. Each example's update is
    applied sparsely, at its active feature indices only; coordinates
    outside the support have zero gradient. The gather, the sums and the
    products are those of grad + sgd_step, and `_mean_loss` sums the
    losses in the pass's order, so weights, bias and mean loss are
    bit-identical to that per-example reference.
    """
    if params.frozen:
        raise StateError("cannot train frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    if not len(train):
        raise ValidationError("cannot train on an empty dataset")
    for ex in train.examples:
        if not 0 <= ex.label < params.class_count:
            raise ValidationError(f"label {ex.label} out of range for {params.class_count} classes")
    featurizer = _featurizer_for(featurizer, params.dims, hash_seed, train)
    weights = params.weights.copy()
    bias = params.bias.copy()
    order = np.random.default_rng(shuffle_seed).permutation(len(train))
    label_probs = []
    for start in range(0, len(order), TRAIN_BLOCK):
        block = [train.examples[i] for i in order[start : start + TRAIN_BLOCK]]
        featurizer._build(prefix, [ex.text for ex in block])
        for ex in block:
            idx, vals = featurizer.featurize(prefix, ex.text)
            flat, gathered = _gather(weights, idx)
            probs = _softmax(bias + gathered @ vals)
            label_probs.append(probs[ex.label])
            probs[ex.label] -= 1.0  # now the gradient of the loss at the logits
            weights.put(flat, (gathered - lr * (probs[:, None] * vals)).T)
            bias -= lr * probs
    return replace(params, weights=weights, bias=bias), _mean_loss(label_probs)


def _segment_sums(columns: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per run of `lengths` consecutive columns, their sum: one column per
    run, zero for an empty run (np.add.reduceat would give the next run's
    first column)."""
    sums = np.zeros((len(columns), len(lengths)))
    nonempty = lengths > 0
    sums[:, nonempty] = np.add.reduceat(columns, (np.cumsum(lengths) - lengths)[nonempty], axis=1)
    return sums


def batch_logits(
    params: StudentParams, data: Dataset, hash_seed: int = 0, featurizer: Featurizer | None = None
) -> Callable[[str], np.ndarray]:
    """The frozen student's logits on every example of `data` as a
    function of the prefix: an examples x classes matrix whose row for
    text x equals `_logits` of featurize(prefix, x) up to summation order.

    Logits are linear in the hashed counts, so a row splits into b + W·u(x),
    computed here once, plus per prefix p the columns of p's unigrams and
    x's tokens gathered from M_p = sum over q in p of W[:, rows[q]], where
    rows[q] is q's pair index with each vocabulary token. Both gathers are
    summed per example with np.add.reduceat. The tables come from
    `featurizer`, which must hash with params.dims and hash_seed, else
    ValidationError; when it is None or lacks one of data's texts, from a
    new one over data's texts.
    """
    if not params.frozen:
        raise StateError("scoring requires a frozen student")
    if not len(data):
        raise ValidationError("cannot score an empty dataset")
    featurizer = _featurizer_for(featurizer, params.dims, hash_seed, data)
    ids = [featurizer._ids[ex.text] for ex in data.examples]
    lengths, flat = np.array([len(i) for i in ids]), np.concatenate(ids)
    weights = params.weights
    base = params.bias[:, None] + _segment_sums(weights[:, featurizer._unigrams[flat]], lengths)

    def logits(prefix: str) -> np.ndarray:
        unigrams, rows = featurizer._prefix_indices(prefix)
        z = base + weights[:, unigrams].sum(axis=1, keepdims=True)
        if rows:
            pairs = sum(weights[:, row] for row in rows)
            z += _segment_sums(pairs[:, flat], lengths)
        return z.T

    return logits


def predict(params: StudentParams, prefix: str, text: str, hash_seed: int = 0) -> int:
    """Argmax class for the prefixed input; ties break to the lowest index."""
    f = featurize(prefix, text, params.dims, hash_seed)
    return int(np.argmax(_logits(params.weights, params.bias, f)))


def params_to_dict(params: StudentParams) -> dict:
    """Sparse JSON-ready form: `columns` lists, ascending, the feature
    columns where any class weight is non-zero, and `weights` holds those
    columns' values row-major as class_count x len(columns). Hashed
    features leave most columns at zero, so this is far smaller than the
    dense matrix. Floats serialize via repr, so the round-trip is lossless."""
    columns = np.flatnonzero(params.weights.any(axis=0))
    return {
        "dims": params.dims,
        "class_count": params.class_count,
        "bias": params.bias.tolist(),
        "columns": columns.tolist(),
        "weights": params.weights[:, columns].reshape(-1).tolist(),
    }


def save_checkpoint(params: StudentParams, path: str | Path) -> None:
    """Write params_to_dict(params) as compact JSON, atomically."""
    write_atomic(path, json.dumps(params_to_dict(params), separators=(",", ":")))


def load_checkpoint(path: str | Path) -> StudentParams:
    """The student in `path`: a checkpoint, or a run state file's `student`."""
    obj = read_json(path)
    with decoding(str(path)):
        return params_from_dict(obj["student"] if isinstance(obj, dict) and "student" in obj else obj)


@dataclass(frozen=True)
class _Checkpoint:
    """The JSON object params_to_dict writes, as the typed reader reads it."""

    dims: int
    class_count: int
    bias: tuple[float, ...]
    columns: tuple[int, ...]
    weights: tuple[float, ...]


def params_from_dict(obj: dict) -> StudentParams:
    """Inverse of params_to_dict. The five keys are read by the typed
    reader, so errors name the value, e.g. $.student.weights[1]. A dense
    layout (`weights` without `columns`) is rejected, not read."""
    if isinstance(obj, dict) and "weights" in obj and "columns" not in obj:
        raise ValidationError(
            "dense student format (weights without columns) is not supported; "
            "checkpoints now store only the non-zero weight columns"
        )
    saved = record_from_json(_Checkpoint, obj, "student")
    dims, class_count, columns = saved.dims, saved.class_count, saved.columns
    if len(saved.bias) != class_count:
        raise ValidationError("bias length does not match class_count")
    weights = init_params(dims, class_count).weights
    # Columns past int64 make np.diff use floats or Python ints; rounding keeps their order.
    if columns and (columns[0] < 0 or columns[-1] >= dims or (np.diff(columns) <= 0).any()):
        raise ValidationError(f"student columns must be strictly increasing within [0, {dims})")
    if len(saved.weights) != class_count * len(columns):
        raise ValidationError(
            f"student weights length {len(saved.weights)} != class_count x columns "
            f"= {class_count} x {len(columns)}"
        )
    weights[:, list(columns)] = np.array(saved.weights).reshape(class_count, len(columns))
    return StudentParams(weights=weights, bias=np.array(saved.bias))
