"""The trainable text classifier: softmax regression over hashed features
of the prefix-augmented input.

Features are hashed unigram counts of the concatenated token stream plus
prefix-token x input-token interaction counts. The interactions are what
let a prefix reshape the decision surface instead of merely shifting class
priors, so the prefix search has something real to optimize. Hashing is
FNV-1a 64-bit over UTF-8 token bytes with the seed XORed into the offset
basis. What is pinned across runs, CPUs and library releases: the hash,
which is plain integer arithmetic; the random streams, drawn from
`gpta.rng`; every exp and log of a run, taken with libm's `math.exp` and
`math.log`; and every sum's order, set by numpy's reductions
(`np.add.reduce`, `np.add.reduceat`) or by Python's left-to-right loops,
which no CPU kernel reorders. No run path reaches a BLAS or numpy's SIMD
`exp`/`log`, whose last bits depend on the kernels the CPU selects. What
is not pinned: another OS's libm, and glibc on a CPU without FMA, may
round `exp`/`log` differently. CI's run of the digest manifest
(tests/data/run_digests.json) checks the bytes.

The student holds only the weight columns it has touched, as its
checkpoint stores them; a column it does not hold reads as zero, and no
path builds the dense class_count x dims matrix.

`featurize` is the from-scratch reference, and `forward`, `loss`, `grad`,
`sgd_step` and `predict` are the per-example oracles built on it: tests
compare against them, and no run reaches them. A `Featurizer` holds the
token tables of one split, and the hash seed, and stands in for that
split: `train_pass` and `batch_logits` take it alone. Training merges
the features of a block of texts at once from the tables and steps on
each text's index and count arrays, bit-identical to `grad` +
`sgd_step`. Scoring factors a whole split's logits through its tables; a
run keeps one `Featurizer` over its train split and one over its val
split. `batch_logits` gathers with `take` and adds a prefix's columns one token
at a time, in token order: numpy's `.sum` over a gather picks its order
from the memory layout, pairwise over a C-ordered `take` from 8 columns
on, so only a spelled-out order keeps the scores' bytes.
"""

import json
import math
from array import array
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import StateError, ValidationError
from .fileio import decoding, read_json, record_from_json, write_atomic
from .rng import Stream

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
# Each training pass and each scorer maps features to the student's columns
# through an int32 array of dims entries (64 MiB at 2^24), so dims is bounded.
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
    """The split `data` with the token tables that hash its texts: each
    text as vocabulary ids (each distinct text tokenized once, its ids a
    view into one array), each vocabulary token's unigram index and, per
    prefix token from first use until `retain` drops it, its unigram index
    and pair index with every vocabulary token. `featurize` gives
    `featurize(prefix, text, dims, hash_seed)` for a text of `data` as
    index and count arrays. Features are merged a block of texts at a time
    under one prefix (`_build`), and `featurize` looks one text up in the
    last block. `len` counts data's examples. A plain class, so the
    benchmark's tracer counts `featurize` calls here."""

    def __init__(self, dims: int, hash_seed: int, data: Dataset):
        _check_dims(dims)
        self.dims, self.hash_seed, self.data = dims, hash_seed, data
        texts = dict.fromkeys(ex.text for ex in data.examples)
        # Each token numbered by its first appearance; one pass, holding no text's token list.
        numbers, seen, ends = array("q"), {}, []
        for text in texts:
            numbers.extend(seen.setdefault(t, len(seen)) for t in tokenize(text))
            ends.append(len(numbers))
        encoded = [t.encode() for t in seen]
        # Longest first, so the tokens still being folded at byte j are a leading slice.
        order = sorted(range(len(encoded)), key=lambda i: len(encoded[i]), reverse=True)
        self._vocab = [encoded[i] for i in order]
        vocab_id = np.empty(len(order), dtype=np.int64)
        vocab_id[order] = np.arange(len(order))
        flat = vocab_id[np.frombuffer(numbers, dtype=np.int64)]
        # text -> vocabulary id of each token, as views into one array
        self._ids = {text: flat[start:end] for text, start, end in zip(texts, [0] + ends, ends)}
        # Column j holds byte j of each token longer than j: a padded byte matrix without the padding.
        self._columns = [np.array([t[j] for t in self._vocab if len(t) > j], dtype=np.uint64)
                         for j in range(max(map(len, self._vocab), default=0))]
        self._unigrams = self._fold_vocab([_FNV_OFFSET ^ hash_seed])[0]
        self._tokens: dict[str, tuple[int, np.ndarray]] = {}  # prefix token -> its unigram index, its pair row
        self._block: tuple = (None,)  # the last block's prefix, text -> slot, slot offsets, indices, counts

    def __len__(self) -> int:
        return len(self.data)

    def _fold_vocab(self, starts: list[int]) -> np.ndarray:
        """Row i: the index of every vocabulary token under FNV-1a continued
        from starts[i], all rows folded in one pass. dims is a power of two,
        so masking with dims - 1 is the modulo."""
        h = np.empty((len(starts), len(self._vocab)), dtype=np.uint64)
        h[:] = np.array([start & _MASK64 for start in starts], dtype=np.uint64)[:, None]
        for column in self._columns:
            h[:, : len(column)] ^= column
            h[:, : len(column)] *= np.uint64(_FNV_PRIME)
        return (h & np.uint64(self.dims - 1)).astype(np.int64)

    def featurize(self, prefix: str, text: str) -> tuple[np.ndarray, np.ndarray]:
        """featurize(prefix, text, self.dims, self.hash_seed) as two arrays:
        its keys in the same order, and their counts as float64. `text`
        must be a text of `data`. Read from the block last
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
        raw[row0 + np.arange(len(table))[:, None] * lengths[token_slots]] = table.take(np.concatenate(ids), axis=1)
        # (text, key, position) packed in one int64 by shifts. texts x dims x raw keys,
        # the raw keys rounded up to a power of two, stays far below 2^63: a
        # TRAIN_BLOCK of 2^7 texts at MAX_DIMS = 2^24 leaves 2^32 raw keys.
        n = len(raw)
        shift, dims_shift = n.bit_length(), self.dims.bit_length() - 1
        keyed = np.sort((np.repeat(np.arange(len(ids)), sizes) << dims_shift | raw) << shift | np.arange(n))
        key, position = keyed >> shift, keyed & ((1 << shift) - 1)
        repeats = np.flatnonzero(key[1:] == key[:-1]) + 1  # sorted indices that repeat the one before
        keep = np.ones(n, dtype=bool)
        keep[position[repeats]] = False
        kept = np.flatnonzero(keep)  # each key's first position, in raw order
        counts = np.ones(len(kept))
        # Each run of consecutive repeats adds its length to the count of the key just before it.
        runs = np.flatnonzero(np.diff(repeats, prepend=-2) != 1)
        counts[np.searchsorted(kept, position[repeats[runs] - 1])] += np.diff(runs, append=len(repeats))
        self._block = (prefix, slots, [0] + np.searchsorted(kept, ends).tolist(), raw[kept], counts)

    def _prefix_indices(self, prefix: str) -> tuple[list[int], list[np.ndarray]]:
        """The unigram index and the pair-index row of each token of
        `prefix`, in order. The tokens the table lacks are folded in one
        pass, each row copied out of the pass's matrix so `retain` frees it."""
        p_toks, seeded = tokenize(prefix), _FNV_OFFSET ^ self.hash_seed
        if new := list(dict.fromkeys(p_tok for p_tok in p_toks if p_tok not in self._tokens)):
            rows = self._fold_vocab([_fold(seeded, p_tok + _PAIR_SEP) for p_tok in new])
            self._tokens.update((tok, (_fold(seeded, tok) % self.dims, row.copy())) for tok, row in zip(new, rows))
        held = [self._tokens[p_tok] for p_tok in p_toks]
        return [unigram for unigram, _ in held], [row for _, row in held]

    def retain(self, prefixes: Iterable[str]) -> None:
        """Drop every token the prefixes lack. A token's entry depends on the
        token alone, so one needed again is folded again to the same values."""
        kept = {p_tok for prefix in prefixes for p_tok in tokenize(prefix)}
        self._tokens = {p_tok: entry for p_tok, entry in self._tokens.items() if p_tok in kept}


def _check_tables(tables: Featurizer, dims: int) -> None:
    if tables.dims != dims:
        raise ValidationError(f"the featurizer hashes with dims {tables.dims}, not the student's {dims}")


def _check_columns(columns, dims: int) -> None:
    # Columns past int64 make np.diff use floats or Python ints; rounding keeps their order.
    if len(columns) and (columns[0] < 0 or columns[-1] >= dims or (np.diff(columns) <= 0).any()):
        raise ValidationError(f"student columns must be strictly increasing within [0, {dims})")


@dataclass(frozen=True)
class StudentParams:
    """Weights and bias of the classifier, held as they are saved: the
    weight columns the student has touched, at the feature indices
    `columns`, and no other. Every other column of the class_count x dims
    weight matrix is zero. Treated as immutable: training operations
    return new instances and refuse to run while frozen."""

    columns: np.ndarray  # (n,) int64 feature indices, strictly ascending in [0, dims)
    weights: np.ndarray  # (class_count, n)
    bias: np.ndarray  # (class_count,)
    dims: int
    frozen: bool = False

    def __post_init__(self):
        _check_columns(self.columns, self.dims)
        if self.weights.ndim != 2 or self.weights.shape[1] != len(self.columns):
            raise ValidationError(
                f"student weights have shape {self.weights.shape}, not class_count x {len(self.columns)} columns"
            )
        if self.bias.shape != self.weights.shape[:1]:
            raise ValidationError(f"student bias has shape {self.bias.shape}, not ({self.weights.shape[0]},)")

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Gradient:
    """The loss gradient at the weight columns of the feature indices
    `columns`, and at the bias; every other weight's gradient is zero."""

    columns: np.ndarray  # (n,) distinct feature indices
    weights: np.ndarray  # (class_count, n)
    bias: np.ndarray  # (class_count,)


def _check_shape(dims: int, class_count: int) -> None:
    _check_dims(dims)
    if class_count < 2:
        raise ValidationError(f"class_count must be >= 2, got {class_count}")


def init_params(dims: int, class_count: int) -> StudentParams:
    """Zero-initialized parameters, which hold no column: the
    uniform-probability starting point."""
    _check_shape(dims, class_count)
    return StudentParams(np.zeros(0, dtype=np.int64), np.zeros((class_count, 0)), np.zeros(class_count), dims)


def freeze(params: StudentParams) -> StudentParams:
    return replace(params, frozen=True)


def unfreeze(params: StudentParams) -> StudentParams:
    return replace(params, frozen=False)


def _union(*parts: np.ndarray) -> np.ndarray:
    """The distinct indices of `parts`, ascending: a sort and a mask of the
    entries that differ from the one before (np.unique allocates ~1.2 MiB
    on its first call in a process)."""
    merged = np.sort(np.concatenate(parts))
    keep = np.ones(len(merged), dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _column_map(columns: np.ndarray, dims: int) -> np.ndarray:
    """An int32 array of dims entries that maps feature j to 1 + the
    position of j in `columns`, and every feature outside `columns` to 0."""
    column_map = np.zeros(dims, dtype=np.int32)
    column_map[columns] = np.arange(1, len(columns) + 1, dtype=np.int32)
    return column_map


def _feature_arrays(f: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
    """f's keys and values as int64 and float64 arrays, in f's order."""
    idx = np.fromiter(f.keys(), dtype=np.int64, count=len(f))
    return idx, np.fromiter(f.values(), dtype=np.float64, count=len(f))


def _logits(params: StudentParams, f: FeatureVector) -> np.ndarray:
    """Logits b + W·f. f's columns are gathered class-major into a
    C-ordered array, so each class's dot is one pairwise `np.add.reduce`
    over a contiguous row, in f's key order; no BLAS sums it. f's keys
    are looked up in `columns` by binary search, and a column the student
    does not hold reads zero, so nothing of the size of dims is made."""
    z = params.bias.copy()
    if f:
        idx, vals = _feature_arrays(f)
        pos = np.searchsorted(params.columns, idx)
        held = pos < len(params.columns)
        held[held] = params.columns[pos[held]] == idx[held]
        gathered = np.zeros((params.class_count, len(idx)))
        gathered[:, held] = params.weights[:, pos[held]]
        z += np.add.reduce(gathered * vals, axis=1)
    return z


def _softmax_row(z: list[float]) -> list[float]:
    """softmax of one logits vector in Python floats, in place, returning
    z: each logit shifted by the maximum, libm's `math.exp`, and the exps
    summed left to right in class order (not builtin `sum`, which
    compensates from Python 3.12)."""
    top = max(z)
    total = 0.0
    for c, v in enumerate(z):
        z[c] = e = math.exp(v - top)
        total += e
    for c, e in enumerate(z):
        z[c] = e / total
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """softmax over the last axis of z (a logits vector, or one row per
    example) by `_softmax_row`'s operations on every row at once: `math.exp`
    mapped over the shifted logits, and the exps summed one class column at
    a time. z is not modified."""
    shifted = z - z.max(axis=-1, keepdims=True)
    exps = np.fromiter(map(math.exp, shifted.ravel().tolist()), dtype=np.float64, count=z.size).reshape(z.shape)
    total = exps[..., 0].copy()
    for c in range(1, z.shape[-1]):
        total += exps[..., c]
    return exps / total[..., None]


def forward(params: StudentParams, f: FeatureVector) -> np.ndarray:
    """Class probability vector softmax(W·f + b)."""
    return _softmax(_logits(params, f))


def loss(probs: np.ndarray, label: int) -> float:
    """Cross-entropy -ln(probs[label]), the probability floored at 1e-300 so
    one that underflows to 0 costs about 690.8 instead of infinity."""
    if not 0 <= label < len(probs):
        raise ValidationError(f"label {label} out of range for {len(probs)} classes")
    return -math.log(max(float(probs[label]), 1e-300))


def _mean_loss(label_probs: list[float]) -> float:
    """The mean of `loss` over the probabilities given to each example's
    label, each floored and logged with `math.log`, then summed one by one
    in order as the per-example sum does."""
    total = 0.0
    for p in label_probs:
        total -= math.log(1e-300 if p < 1e-300 else p)  # max(p, 1e-300), NaN kept, without the call
    return total / len(label_probs)


def grad(params: StudentParams, f: FeatureVector, label: int) -> Gradient:
    """Analytic cross-entropy gradient at f's columns, in f's key order:
    dW_c = (p_c - 1{c=label})·f, db_c = p_c - 1{c=label}."""
    probs = forward(params, f)
    coef = probs.copy()
    coef[label] -= 1.0
    idx, vals = _feature_arrays(f)
    return Gradient(columns=idx, weights=np.multiply.outer(coef, vals), bias=coef)


def sgd_step(params: StudentParams, g: Gradient, lr: float) -> StudentParams:
    """One gradient-descent step theta - lr·g, over params' columns widened
    by g's; a column outside g's keeps its weights. Refuses frozen params."""
    if params.frozen:
        raise StateError("cannot update frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    missing = np.sort(np.setdiff1d(g.columns, params.columns, assume_unique=True))
    at = np.searchsorted(params.columns, missing)
    columns = np.insert(params.columns, at, missing)
    weights = np.insert(params.weights, at, 0.0, axis=1) if len(missing) else params.weights.copy()
    stepped = np.searchsorted(columns, g.columns)
    weights[:, stepped] -= lr * g.weights
    return replace(params, columns=columns, weights=weights, bias=params.bias - lr * g.bias)


# Training examples whose features train_pass merges at once: enough to
# spread the per-call numpy cost of `_build`, few enough to keep its arrays
# small (a block of 256 raised a default-dims run's peak RSS by ~1 MiB, with no
# measurable gain).
TRAIN_BLOCK = 128


def train_pass(
    params: StudentParams, train: Featurizer, prefix: str, lr: float, shuffle_seed: int = 0
) -> tuple[StudentParams, float]:
    """One shuffled pass of per-example SGD over the split `train.data`
    with `prefix` prepended to every input, in the order
    `Stream(shuffle_seed).permutation` draws. Returns the new params and
    the mean pre-update loss, each example's loss floored as in `loss`.
    Features come from `train`'s tables, hashed with their seed. An empty
    split, a label outside [0, class_count), or tables of other dims than
    the student's raise ValidationError before any update.

    The student's columns are first widened to every feature the pass
    can reach: the tables' unigram row, and the prefix's unigram indices
    and pair rows. One int32 column map then takes each feature to its
    column. The shuffled order is walked in blocks of TRAIN_BLOCK
    examples, whose features the tables merge at once. Each example's
    update is applied sparsely, at its active feature indices only,
    through a flat view of the weights; coordinates outside the support
    have zero gradient. The columns are gathered class-major, as
    `_logits` takes them, so each class's dot is the same `np.add.reduce`. The class
    vector (logits, softmax, bias and its update) is held in Python
    floats and goes through `_softmax_row`, whose operations `forward`'s
    `_softmax` repeats. The products and the weight update are those of
    grad + sgd_step, and `_mean_loss` sums the losses in the pass's order,
    so weights, bias and mean loss are bit-identical to that per-example
    reference.
    """
    if params.frozen:
        raise StateError("cannot train frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    if not len(train):
        raise ValidationError("cannot train on an empty dataset")
    class_count, dims = params.class_count, params.dims
    examples = train.data.examples
    for ex in examples:
        if not 0 <= ex.label < class_count:
            raise ValidationError(f"label {ex.label} out of range for {class_count} classes")
    _check_tables(train, dims)
    unigrams, rows = train._prefix_indices(prefix)
    columns = _union(params.columns, train._unigrams, np.array(unigrams, dtype=np.int64), *rows)
    column_map = _column_map(columns, dims)
    weights = np.zeros((class_count, len(columns)))
    weights[:, column_map[params.columns] - 1] = params.weights
    flat_weights = weights.reshape(-1)
    bias = params.bias.tolist()
    # Feature j's weight for class c sits at column_map[j] + class_offsets[c] of the flat weights.
    classes, class_offsets = range(class_count), np.arange(class_count)[:, None] * len(columns) - 1
    order = Stream(shuffle_seed).permutation(len(train))
    label_probs = []
    coef_column = np.empty((class_count, 1))
    for start in range(0, len(order), TRAIN_BLOCK):
        block = [examples[i] for i in order[start : start + TRAIN_BLOCK]]
        train._build(prefix, [ex.text for ex in block])
        for ex in block:
            idx, vals = train.featurize(prefix, ex.text)
            flat = column_map[idx] + class_offsets  # of weights[:, idx's columns], class-major
            gathered = flat_weights[flat]
            product = gathered * vals
            coef = np.add.reduce(product, axis=1).tolist()
            for c in classes:
                coef[c] += bias[c]  # the logits
            _softmax_row(coef)  # the probabilities
            label_probs.append(coef[ex.label])
            coef[ex.label] -= 1.0  # now the gradient of the loss at the logits
            coef_column[:, 0] = coef
            np.multiply(coef_column, vals, out=product)
            product *= lr
            flat_weights[flat] = np.subtract(gathered, product, out=gathered)
            for c in classes:
                bias[c] -= lr * coef[c]
    return replace(params, columns=columns, weights=weights, bias=np.array(bias)), _mean_loss(label_probs)


def _segment_summer(lengths: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The function that sums each run of `lengths` consecutive columns:
    one column per run, zero for an empty run (np.add.reduceat would give
    the next run's first column). The runs' starts are worked out once."""
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]

    def sums(columns: np.ndarray) -> np.ndarray:
        out = np.zeros((len(columns), len(lengths)))
        out[:, nonempty] = np.add.reduceat(columns, starts, axis=1)
        return out

    return sums


def batch_logits(params: StudentParams, tables: Featurizer) -> Callable[[str], np.ndarray]:
    """The frozen student's logits on every example of the split
    `tables.data` as a function of the prefix: an examples x classes
    matrix whose row for text x equals `_logits` of featurize(prefix, x)
    up to summation order. The tables must hash with the student's dims.

    Logits are linear in the hashed counts, so a row splits into b + W·u(x),
    computed here once, plus per prefix p the columns of p's unigrams and
    x's tokens gathered from M_p = sum over q in p of W[:, rows[q]], where
    rows[q] is q's pair index with each vocabulary token, hashed with the
    tables' seed; the per-example runs of tokens are laid out here once.
    W is read through one int32 column map, built here, in which every
    column the student does not hold reads a zero column.

    Every sum has a fixed order: p's unigram columns are added one at a
    time in token order, M_p row by row in token order, and each example's
    columns by np.add.reduceat. The order is spelled out because numpy's
    own `.sum` picks it from the memory layout: over a C-ordered gather it
    adds pairwise from 8 columns on, which moves the last bits.
    """
    if not params.frozen:
        raise StateError("scoring requires a frozen student")
    if not len(tables):
        raise ValidationError("cannot score an empty dataset")
    _check_tables(tables, params.dims)
    ids = [tables._ids[ex.text] for ex in tables.data.examples]
    flat = np.concatenate(ids)
    segment_sums = _segment_summer(np.array([len(i) for i in ids]))
    column_map = _column_map(params.columns, params.dims)
    class_count, vocab = params.class_count, len(tables._vocab)
    weights = np.zeros((class_count, 1 + len(params.columns)))  # column 0 stands for every column not held
    weights[:, 1:] = params.weights
    base = params.bias[:, None] + segment_sums(weights.take(column_map[tables._unigrams][flat], axis=1))

    def logits(prefix: str) -> np.ndarray:
        unigrams, rows = tables._prefix_indices(prefix)
        prefix_unigrams = np.zeros(class_count)
        for u in unigrams:
            prefix_unigrams += weights[:, column_map[u]]
        z = base + prefix_unigrams[:, None]
        if rows:
            gathered = weights.take(column_map.take(rows), axis=1)  # classes x prefix tokens x vocabulary
            pairs = np.zeros((class_count, vocab))
            for i in range(len(rows)):
                pairs += gathered[:, i]
            z += segment_sums(pairs.take(flat, axis=1))
        return z.T

    return logits


def predict(params: StudentParams, prefix: str, text: str, hash_seed: int = 0) -> int:
    """Argmax class for the prefixed input; ties break to the lowest index."""
    f = featurize(prefix, text, params.dims, hash_seed)
    return int(np.argmax(_logits(params, f)))


# Values per json.dumps call when a student is written.
WRITE_SLICE = 2048


def _json_items(rows: np.ndarray) -> bytes:
    """The values of `rows`, read row-major, as compact JSON array items,
    encoded WRITE_SLICE at a time by json.dumps's C encoder."""
    return b",".join(json.dumps(row[i:i + WRITE_SLICE].tolist(), separators=(",", ":"))[1:-1].encode()
                     for row in np.atleast_2d(rows) for i in range(0, rows.shape[-1], WRITE_SLICE))


def params_to_json(params: StudentParams) -> bytes:
    """The student as compact JSON, in ASCII bytes: `columns` lists,
    ascending, the feature columns where any class weight is non-zero, and
    `weights` holds those columns' values row-major as class_count x
    len(columns), next to `dims`, `class_count` and `bias`. Floats are
    written via repr, so the round-trip is lossless. The weights are
    encoded one slice at a time, so the write holds about twice the text,
    not a Python float and a repr string per weight."""
    held = params.weights.any(axis=0)
    keep = slice(None) if held.all() else held
    head = json.dumps({"dims": params.dims, "class_count": params.class_count, "bias": params.bias.tolist()},
                      separators=(",", ":"))
    columns, weights = _json_items(params.columns[keep]), _json_items(params.weights[:, keep])
    return b"".join((head[:-1].encode(), b',"columns":[', columns, b'],"weights":[', weights, b"]}"))


def save_checkpoint(params: StudentParams, path: str | Path) -> None:
    """Write params_to_json(params), atomically."""
    write_atomic(path, params_to_json(params))


def load_checkpoint(path: str | Path) -> StudentParams:
    """The student in `path`: a checkpoint, or a run state file's `student`."""
    obj = read_json(path)
    with decoding(str(path)):
        return params_from_dict(obj["student"] if isinstance(obj, dict) and "student" in obj else obj)


@dataclass(frozen=True)
class _Checkpoint:
    """The JSON object params_to_json writes, as the typed reader reads it."""

    dims: int
    class_count: int
    bias: tuple[float, ...]
    columns: tuple[int, ...]
    weights: tuple[float, ...]


def params_from_dict(obj: dict) -> StudentParams:
    """Inverse of params_to_json, from its parsed object. The five keys are read by the typed
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
    _check_shape(dims, class_count)
    _check_columns(columns, dims)
    if len(saved.weights) != class_count * len(columns):
        raise ValidationError(
            f"student weights length {len(saved.weights)} != class_count x columns "
            f"= {class_count} x {len(columns)}"
        )
    return StudentParams(
        np.array(columns, dtype=np.int64),
        np.array(saved.weights).reshape(class_count, len(columns)),
        np.array(saved.bias),
        dims,
    )
