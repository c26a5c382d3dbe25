"""The trainable text classifier: softmax regression over hashed features
of the prefix-augmented input.

Features are hashed unigram counts of the concatenated token stream plus
prefix-token x input-token interaction counts. The interactions are what
let a prefix reshape the decision surface instead of merely shifting class
priors, so the prefix search has something real to optimize. Hashing is
FNV-1a 64-bit over UTF-8 token bytes with the seed XORed into the offset
basis; everything here is bit-stable across runs and platforms.

`featurize` is the from-scratch reference; training uses a `Featurizer`,
which gives the same features from per-run token tables, and scoring uses
`batch_logits`, which factors a whole split's logits through those tables.
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
from .fileio import read_json, record_from_json, write_atomic

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


def _featurize(prefix: str, text: str, dims: int, hash_seed: int) -> FeatureVector:
    prefix_tokens, text_tokens = tokenize(prefix), tokenize(text)
    # FNV-1a folds bytewise: a pair's hash continues prefix token + _PAIR_SEP over the text token.
    starts = [_fold(_FNV_OFFSET ^ hash_seed, p_tok + _PAIR_SEP) for p_tok in prefix_tokens]
    return Counter(
        [fnv1a64(tok, hash_seed) % dims for tok in prefix_tokens + text_tokens]
        + [_fold(start, x_tok) % dims for start in starts for x_tok in text_tokens]
    )


def featurize(prefix: str, text: str, dims: int, hash_seed: int = 0) -> FeatureVector:
    """Hashed feature counts for the input `text` under `prefix`.

    Unigram counts over the concatenated prefix+text token stream, plus a
    count for every (prefix token, text token) pair. dims must be a power
    of two in [2, MAX_DIMS].
    """
    _check_dims(dims)
    return _featurize(prefix, text, dims, hash_seed)


class Featurizer:
    """`featurize(prefix, text, dims, hash_seed)` from tables built on first
    use: each of `texts` as vocabulary ids, each vocabulary token's unigram
    index and, per prefix token when first seen, its pair index with every
    vocabulary token. A text not in `texts` is featurized from scratch. A
    plain class, so the benchmark's tracer counts `featurize` calls here."""

    def __init__(self, dims: int, hash_seed: int, texts: list[str]):
        _check_dims(dims)
        self.dims, self.hash_seed, self._texts = dims, hash_seed, texts
        self._ids: dict[str, np.ndarray] | None = None  # text -> vocabulary id of each token
        self._rows: dict[str, np.ndarray] = {}  # prefix token -> its pair index with each vocabulary token
        self._prefix: tuple = (None,)  # the last prefix, its unigram indices and its stacked rows

    def _build(self) -> None:
        # Longest first, so the tokens still being folded at byte j are a leading slice.
        encoded = dict.fromkeys(t.encode() for text in self._texts for t in tokenize(text))
        self._vocab = sorted(encoded, key=len, reverse=True)
        ids = {token.decode(): i for i, token in enumerate(self._vocab)}
        self._ids = {text: np.array([ids[t] for t in tokenize(text)], dtype=np.int64) for text in self._texts}
        # Column j holds byte j of each token longer than j: a padded byte matrix without the padding.
        self._columns = [np.array([t[j] for t in self._vocab if len(t) > j], dtype=np.uint64)
                         for j in range(max(map(len, self._vocab), default=0))]
        self._unigrams = self._fold_vocab(_FNV_OFFSET ^ self.hash_seed)

    def _fold_vocab(self, start: int) -> np.ndarray:
        """Index of every vocabulary token under FNV-1a continued from `start`."""
        h = np.full(len(self._vocab), start & _MASK64, dtype=np.uint64)
        for column in self._columns:
            h[: len(column)] ^= column
            h[: len(column)] *= np.uint64(_FNV_PRIME)
        return (h % self.dims).astype(np.int64)

    def featurize(self, prefix: str, text: str) -> FeatureVector:
        """Exactly featurize(prefix, text, self.dims, self.hash_seed): the
        same keys in the same order, with the same values."""
        if self._ids is None:
            self._build()
        ids = self._ids.get(text)
        if ids is None:
            return _featurize(prefix, text, self.dims, self.hash_seed)
        if self._prefix[0] != prefix:
            unigrams, rows = self._prefix_indices(prefix)
            self._prefix = (prefix, unigrams, np.array([self._unigrams] + rows))
        _, unigrams, table = self._prefix
        return Counter(unigrams + table[:, ids].ravel().tolist())

    def _prefix_indices(self, prefix: str) -> tuple[list[int], list[np.ndarray]]:
        """The unigram index and the pair-index row of each token of `prefix`, in order."""
        p_toks, seeded = tokenize(prefix), _FNV_OFFSET ^ self.hash_seed
        for p_tok in set(p_toks) - self._rows.keys():
            self._rows[p_tok] = self._fold_vocab(_fold(seeded, p_tok + _PAIR_SEP))
        return [_fold(seeded, p_tok) % self.dims for p_tok in p_toks], [self._rows[p_tok] for p_tok in p_toks]

    def _text_ids(self, texts: list[str]) -> list[np.ndarray] | None:
        """Each of `texts` as vocabulary ids, or None when one is not in the tables."""
        if self._ids is None:
            self._build()
        ids = [self._ids.get(text) for text in texts]
        return None if any(i is None for i in ids) else ids


def _featurizer_for(featurizer: Featurizer | None, dims: int, hash_seed: int, data: Dataset) -> Featurizer:
    """`featurizer`, checked to hash with dims and hash_seed (seeds equal
    modulo 2^64 hash alike), or a new one over data's texts when None."""
    if featurizer is None:
        return Featurizer(dims, hash_seed, [ex.text for ex in data.examples])
    if featurizer.dims != dims or (featurizer.hash_seed - hash_seed) & _MASK64:
        raise ValidationError(
            f"the featurizer hashes with dims {featurizer.dims} and hash_seed {featurizer.hash_seed}, "
            f"not dims {dims} and hash_seed {hash_seed}"
        )
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


def _logits(
    weights: np.ndarray, bias: np.ndarray, f: FeatureVector
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Logits b + W·f, with the index and value arrays of f they were
    gathered with (both None when f is empty)."""
    z = bias.copy()
    idx = vals = None
    if f:
        idx = np.fromiter(f.keys(), dtype=np.int64, count=len(f))
        vals = np.fromiter(f.values(), dtype=np.float64, count=len(f))
        z += weights[:, idx] @ vals
    return z, idx, vals


def _softmax(z: np.ndarray) -> np.ndarray:
    """softmax over the last axis of z (a logits vector, or one row per
    example), shifting z in place by its maximum."""
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: StudentParams, f: FeatureVector) -> np.ndarray:
    """Class probability vector softmax(W·f + b)."""
    return _softmax(_logits(params.weights, params.bias, f)[0])


def loss(probs: np.ndarray, label: int) -> float:
    """Cross-entropy -ln(probs[label]), the probability floored at 1e-300 so
    one that underflows to 0 costs about 690.8 instead of infinity."""
    if not 0 <= label < len(probs):
        raise ValidationError(f"label {label} out of range for {len(probs)} classes")
    return float(-np.log(max(float(probs[label]), 1e-300)))


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
    ValidationError (by default a new one over `train`'s texts).

    The update is applied sparsely (only at an example's active feature
    indices); coordinates outside the support have zero gradient, so this
    matches grad + sgd_step exactly.
    """
    if params.frozen:
        raise StateError("cannot train frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    featurizer = _featurizer_for(featurizer, params.dims, hash_seed, train)
    weights = params.weights.copy()
    bias = params.bias.copy()
    order = np.random.default_rng(shuffle_seed).permutation(len(train))
    total_loss = 0.0
    for i in order:
        ex = train.examples[i]
        f = featurizer.featurize(prefix, ex.text)
        z, idx, vals = _logits(weights, bias, f)
        probs = _softmax(z)
        total_loss += loss(probs, ex.label)
        coef = probs.copy()
        coef[ex.label] -= 1.0
        if f:
            weights[:, idx] -= lr * np.outer(coef, vals)
        bias -= lr * coef
    new_params = replace(params, weights=weights, bias=bias)
    return new_params, float(total_loss / len(train))


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
    texts = [ex.text for ex in data.examples]
    featurizer = _featurizer_for(featurizer, params.dims, hash_seed, data)
    ids = featurizer._text_ids(texts)
    if ids is None:
        featurizer = Featurizer(params.dims, hash_seed, texts)
        ids = featurizer._text_ids(texts)
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
    return int(np.argmax(_logits(params.weights, params.bias, f)[0]))


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
    return params_from_dict(read_json(path))


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
