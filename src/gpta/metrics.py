"""Evaluation metrics, all normalized to higher-is-better so the history
sort has a single orientation. Mean loss is negated at this boundary for
the same reason. `scorer` turns a frozen student, a split and a metric
into the prefix search's score function.
"""

import enum
from collections.abc import Callable

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from .student import Featurizer, StudentParams, _softmax, batch_logits, loss


class MetricKind(enum.Enum):
    ACCURACY = "accuracy"
    MACRO_F1 = "macro_f1"
    NEG_MEAN_LOSS = "neg_loss"


def evaluate(
    kind: MetricKind,
    logits: np.ndarray,
    labels: list[int],
    class_count: int | None = None,
) -> float:
    """Score an examples x classes logits matrix against labels. Larger is
    always better. Accuracy and macro-F1 take each row's argmax (ties go to
    the lowest class); NEG_MEAN_LOSS takes the mean cross-entropy of each
    row's softmax, as training does. class_count widens the macro-F1 class
    universe beyond what appears in the data (absent classes score 0).
    Every label must index a column of `logits`, whatever the metric.
    `logits` is not modified.
    """
    if np.ndim(logits) != 2 or len(logits) != len(labels):
        raise ValidationError(
            f"expected a logits matrix of {len(labels)} rows, one per label; got shape {np.shape(logits)}"
        )
    if not labels:
        raise ValidationError("cannot evaluate empty prediction set")
    y = np.asarray(labels)
    bad = y[(y < 0) | (y >= np.shape(logits)[1])]
    if bad.size:
        raise ValidationError(f"label {bad[0]} out of range: expected class indices >= 0 and < {np.shape(logits)[1]}")

    if kind is MetricKind.NEG_MEAN_LOSS:
        probs = _softmax(np.array(logits, dtype=np.float64))
        return -sum(map(loss, probs, labels)) / len(labels)

    preds = np.argmax(logits, axis=1)
    if kind is MetricKind.ACCURACY:
        return int(np.count_nonzero(preds == y)) / len(labels)

    if kind is MetricKind.MACRO_F1:
        n_classes = max(class_count or 0, preds.max() + 1, y.max() + 1)
        tp = np.bincount(preds[preds == y], minlength=n_classes)
        # Per class, 2tp + fp + fn is its predicted count plus its true count.
        denom = np.bincount(preds, minlength=n_classes) + np.bincount(y, minlength=n_classes)
        f1s = np.divide(2 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
        return float(np.mean(f1s))

    raise ValidationError(f"unknown metric kind {kind!r}")


def scorer(
    frozen: StudentParams,
    data: Dataset,
    kind: MetricKind,
    hash_seed: int = 0,
    featurizer: Featurizer | None = None,
) -> Callable[[str], float]:
    """The metric of the frozen student on `data` as a function of the
    prefix prepended to every input. `batch_logits` (over `featurizer`'s
    tables when they hold data's texts) does the part no prefix changes
    once, here; each call then scores one prefix's logits with `evaluate`."""
    logits = batch_logits(frozen, data, hash_seed, featurizer)
    labels = data.labels()
    return lambda prefix: evaluate(kind, logits(prefix), labels, class_count=data.class_count)


def score_prefix(student: StudentParams, prefix: str, eval_set: Dataset, kind: MetricKind, hash_seed: int = 0) -> float:
    """One prefix's metric of the frozen student over eval_set."""
    return scorer(student, eval_set, kind, hash_seed)(prefix)
