"""Evaluation metrics, all normalized to higher-is-better so the history
sort has a single orientation. Mean loss is negated at this boundary for
the same reason.
"""

import enum

import numpy as np

from .errors import ValidationError
from .student import _softmax, loss


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
    `logits` is not modified.
    """
    if np.ndim(logits) != 2 or len(logits) != len(labels):
        raise ValidationError(
            f"expected a logits matrix of {len(labels)} rows, one per label; got shape {np.shape(logits)}"
        )
    if not labels:
        raise ValidationError("cannot evaluate empty prediction set")

    if kind is MetricKind.NEG_MEAN_LOSS:
        probs = _softmax(np.array(logits, dtype=np.float64))
        return -sum(map(loss, probs, labels)) / len(labels)

    preds = np.argmax(logits, axis=1)
    if kind is MetricKind.ACCURACY:
        return int(np.count_nonzero(preds == labels)) / len(labels)

    if kind is MetricKind.MACRO_F1:
        if min(labels) < 0:
            raise ValidationError("macro_f1 needs class indices >= 0")
        y = np.asarray(labels)
        n_classes = max(class_count or 0, preds.max() + 1, max(labels) + 1)
        tp = np.bincount(preds[preds == y], minlength=n_classes)
        # Per class, 2tp + fp + fn is its predicted count plus its true count.
        denom = np.bincount(preds, minlength=n_classes) + np.bincount(y, minlength=n_classes)
        f1s = np.divide(2 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
        return float(np.mean(f1s))

    raise ValidationError(f"unknown metric kind {kind!r}")
