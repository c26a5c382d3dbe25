"""The trainable text classifier: softmax regression over hashed features
of the prefix-augmented input.

Features are hashed unigram counts of the concatenated token stream plus
prefix-token x input-token interaction counts. The interactions are what
let a prefix reshape the decision surface instead of merely shifting class
priors, so the prefix search has something real to optimize. Hashing is
FNV-1a 64-bit over UTF-8 token bytes with the seed XORed into the offset
basis; everything here is bit-stable across runs and platforms.
"""

import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import StateError, ValidationError
from .fileio import write_atomic

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


# Size of the pair-hash rows below, counted as one unit per cached pair and
# two per row; past it the least recently used rows are dropped. Measured
# with tracemalloc, a pair costs less than one fnv1a64 cache entry and a
# row less than two, so the rows never take more memory than a full
# fnv1a64 cache.
_PAIR_CACHE_CAP = 1 << 17
_ROW_UNITS = 2

# (prefix token, hash seed) -> (FNV-1a state after prefix token + _PAIR_SEP,
# {text token: pair hash}), least recently used first. FNV-1a folds one
# byte at a time, so continuing from that state over a text token's bytes
# gives exactly fnv1a64(prefix token + _PAIR_SEP + text token, seed).
_pair_rows: OrderedDict[tuple[str, int], tuple[int, dict[str, int]]] = OrderedDict()
_pair_units = 0


def _fold(h: int, data: str) -> int:
    """Continue an FNV-1a 64-bit state over the UTF-8 bytes of `data`."""
    for byte in data.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 17)
def fnv1a64(data: str, seed: int = 0) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes of `data`."""
    return _fold(_FNV_OFFSET ^ seed, data)


def _clear_pair_hashes() -> None:
    global _pair_units
    _pair_rows.clear()
    _pair_units = 0


def _charge(units: int) -> None:
    """Count `units` more of the pair-hash rows, then drop least recently
    used rows until they fit under the cap. The newest row, which
    featurize is filling, is never dropped; if it alone does not fit, it
    is emptied in place."""
    global _pair_units
    _pair_units += units
    while _pair_units > _PAIR_CACHE_CAP:
        if len(_pair_rows) == 1:
            hashes = next(iter(_pair_rows.values()))[1]
            _pair_units -= len(hashes)
            hashes.clear()
            break
        _, (_, hashes) = _pair_rows.popitem(last=False)
        _pair_units -= len(hashes) + _ROW_UNITS


def _pair_row(p_tok: str, hash_seed: int) -> tuple[int, dict[str, int]]:
    key = (p_tok, hash_seed)
    row = _pair_rows.get(key)
    if row is None:
        row = _pair_rows[key] = (_fold(_FNV_OFFSET ^ hash_seed, p_tok + _PAIR_SEP), {})
        _charge(_ROW_UNITS)
    else:
        _pair_rows.move_to_end(key)
    return row


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def featurize(prefix: str, text: str, dims: int, hash_seed: int = 0) -> FeatureVector:
    """Hashed feature counts for the input `text` under `prefix`.

    Unigram counts over the concatenated prefix+text token stream, plus a
    count for every (prefix token, text token) pair. dims must be a power
    of two >= 2.
    """
    if dims < 2 or dims & (dims - 1):
        raise ValidationError(f"dims must be a power of two >= 2, got {dims}")
    prefix_tokens = tokenize(prefix)
    text_tokens = tokenize(text)
    features: FeatureVector = {}
    for tok in prefix_tokens + text_tokens:
        idx = fnv1a64(tok, hash_seed) % dims
        features[idx] = features.get(idx, 0.0) + 1.0
    for p_tok in prefix_tokens:
        start, hashes = _pair_row(p_tok, hash_seed)
        for x_tok in text_tokens:
            h = hashes.get(x_tok)
            if h is None:
                _charge(1)
                h = hashes[x_tok] = _fold(start, x_tok)
            idx = h % dims
            features[idx] = features.get(idx, 0.0) + 1.0
    return features


@dataclass(frozen=True)
class StudentParams:
    """Weights and bias of the classifier. Treated as immutable: training
    operations return new instances and refuse to run while frozen."""

    weights: np.ndarray  # (class_count, dims)
    bias: np.ndarray  # (class_count,)
    dims: int
    class_count: int
    frozen: bool = False


@dataclass(frozen=True)
class Gradient:
    weights: np.ndarray  # (class_count, dims)
    bias: np.ndarray  # (class_count,)


def init_params(dims: int, class_count: int) -> StudentParams:
    """Zero-initialized parameters: the uniform-probability starting point."""
    if dims < 2 or dims & (dims - 1):
        raise ValidationError(f"dims must be a power of two >= 2, got {dims}")
    if class_count < 2:
        raise ValidationError(f"class_count must be >= 2, got {class_count}")
    return StudentParams(
        weights=np.zeros((class_count, dims)),
        bias=np.zeros(class_count),
        dims=dims,
        class_count=class_count,
    )


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
    """softmax(z), shifting z in place by its maximum."""
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


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
) -> tuple[StudentParams, float]:
    """One shuffled pass of per-example SGD with `prefix` prepended to
    every input. Returns the new params and the mean pre-update loss,
    each example's loss floored as in `loss`.

    The update is applied sparsely (only at an example's active feature
    indices); coordinates outside the support have zero gradient, so this
    matches grad + sgd_step exactly.
    """
    if params.frozen:
        raise StateError("cannot train frozen params")
    if lr < 0:
        raise ValidationError(f"lr must be >= 0, got {lr}")
    weights = params.weights.copy()
    bias = params.bias.copy()
    order = np.random.default_rng(shuffle_seed).permutation(len(train))
    total_loss = 0.0
    for i in order:
        ex = train.examples[i]
        f = featurize(prefix, ex.text, params.dims, hash_seed)
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
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return params_from_dict(obj)


def _flat_array(obj: dict, key: str, dtype) -> np.ndarray:
    try:
        arr = np.asarray(obj[key], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"student {key}: expected a list of numbers") from exc
    if arr.ndim != 1:
        raise ValidationError(f"student {key}: expected a flat list")
    if not np.isfinite(arr).all():
        raise ValidationError(f"student {key}: expected finite numbers")
    return arr


def params_from_dict(obj: dict) -> StudentParams:
    """Inverse of params_to_dict, validating the layout. A dense layout
    (`weights` without `columns`) is rejected, not read."""
    if not isinstance(obj, dict):
        raise ValidationError("student params must be a JSON object")
    if "weights" in obj and "columns" not in obj:
        raise ValidationError(
            "dense student format (weights without columns) is not supported; "
            "checkpoints now store only the non-zero weight columns"
        )
    keys = ("dims", "class_count", "bias", "columns", "weights")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValidationError(f"student params missing keys {missing}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValidationError(f"student params have unknown keys {unknown}")
    dims, class_count = obj["dims"], obj["class_count"]
    if type(dims) is not int or type(class_count) is not int:
        raise ValidationError("student dims and class_count must be integers")
    weights = init_params(dims, class_count).weights
    if not isinstance(obj["columns"], list) or any(type(c) is not int for c in obj["columns"]):
        raise ValidationError("student columns must be a list of integers")
    columns = _flat_array(obj, "columns", np.int64)
    if len(columns) and (columns[0] < 0 or columns[-1] >= dims or np.any(np.diff(columns) <= 0)):
        raise ValidationError(f"student columns must be strictly increasing within [0, {dims})")
    values = _flat_array(obj, "weights", np.float64)
    if len(values) != class_count * len(columns):
        raise ValidationError(
            f"student weights length {len(values)} != class_count x columns "
            f"= {class_count} x {len(columns)}"
        )
    bias = _flat_array(obj, "bias", np.float64)
    if bias.shape != (class_count,):
        raise ValidationError("bias length does not match class_count")
    weights[:, columns] = values.reshape(class_count, len(columns))
    return StudentParams(weights=weights, bias=bias, dims=dims, class_count=class_count)
