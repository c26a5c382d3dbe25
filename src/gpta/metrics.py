"""Evaluation metrics, all normalized to higher-is-better so the history
sort has a single orientation. Mean loss is negated at this boundary for
the same reason.
"""

import enum

import numpy as np

from .errors import ValidationError
from .student import loss


class MetricKind(enum.Enum):
    ACCURACY = "accuracy"
    MACRO_F1 = "macro_f1"
    NEG_MEAN_LOSS = "neg_loss"

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValidationError(
            f"unknown metric {name!r}; expected one of {[k.value for k in cls]}"
        )


def evaluate(
    kind: MetricKind,
    predictions: list,
    labels: list[int],
    class_count: int | None = None,
) -> float:
    """Score predictions against labels. Larger is always better.

    Predictions are class indices or probability vectors; NEG_MEAN_LOSS
    requires probability vectors. class_count widens the macro-F1 class
    universe beyond what appears in the data (absent classes score 0).
    """
    if len(predictions) != len(labels):
        raise ValidationError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    if not labels:
        raise ValidationError("cannot evaluate empty prediction set")

    if kind is MetricKind.NEG_MEAN_LOSS:
        if any(isinstance(p, (int, np.integer)) for p in predictions):
            raise ValidationError("neg_loss requires probability vectors")
        return -sum(loss(p, y) for p, y in zip(predictions, labels)) / len(labels)

    preds = [int(p) if isinstance(p, (int, np.integer)) else int(np.argmax(p)) for p in predictions]
    if kind is MetricKind.ACCURACY:
        return sum(p == y for p, y in zip(preds, labels)) / len(labels)

    if kind is MetricKind.MACRO_F1:
        if min(preds) < 0 or min(labels) < 0:
            raise ValidationError("macro_f1 needs class indices >= 0")
        n_classes = max(class_count or 0, max(preds) + 1, max(labels) + 1)
        p, y = np.asarray(preds), np.asarray(labels)
        tp = np.bincount(p[p == y], minlength=n_classes)
        # Per class, 2tp + fp + fn is its predicted count plus its true count.
        denom = np.bincount(p, minlength=n_classes) + np.bincount(y, minlength=n_classes)
        f1s = np.divide(2 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
        return float(np.mean(f1s))

    raise ValidationError(f"unknown metric kind {kind!r}")
