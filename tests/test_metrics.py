import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpta import MetricKind, ValidationError, evaluate


def test_accuracy_perfect():
    assert evaluate(MetricKind.ACCURACY, [0, 1, 2], [0, 1, 2]) == 1.0


def test_accuracy_fraction():
    assert evaluate(MetricKind.ACCURACY, [1, 1, 1], [1, 0, 1]) == pytest.approx(2 / 3)


def test_accuracy_accepts_probability_vectors():
    preds = [np.array([0.1, 0.9]), np.array([0.8, 0.2])]
    assert evaluate(MetricKind.ACCURACY, preds, [1, 0]) == 1.0


def test_macro_f1_hand_computed():
    # per-class confusion: each class has tp=1, fp=1, fn=1 -> F1 = 0.5
    assert evaluate(MetricKind.MACRO_F1, [0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_macro_f1_absent_class_scores_zero():
    score = evaluate(MetricKind.MACRO_F1, [0, 0], [0, 0], class_count=2)
    assert score == pytest.approx(0.5)  # class 1 absent -> F1 0, class 0 -> F1 1


def test_neg_mean_loss():
    preds = [np.array([0.75, 0.25]), np.array([0.5, 0.5])]
    expected = -(-math.log(0.75) - math.log(0.5)) / 2
    assert evaluate(MetricKind.NEG_MEAN_LOSS, preds, [0, 1]) == pytest.approx(expected)
    assert evaluate(MetricKind.NEG_MEAN_LOSS, preds, [0, 1]) <= 0.0


def test_neg_mean_loss_requires_probabilities():
    with pytest.raises(ValidationError):
        evaluate(MetricKind.NEG_MEAN_LOSS, [0, 1], [0, 1])


def test_length_mismatch_and_empty():
    with pytest.raises(ValidationError):
        evaluate(MetricKind.ACCURACY, [0], [0, 1])
    with pytest.raises(ValidationError):
        evaluate(MetricKind.ACCURACY, [], [])


def test_metric_kind_from_name():
    assert MetricKind.from_name("accuracy") is MetricKind.ACCURACY
    assert MetricKind.from_name("macro_f1") is MetricKind.MACRO_F1
    assert MetricKind.from_name("neg_loss") is MetricKind.NEG_MEAN_LOSS
    with pytest.raises(ValidationError):
        MetricKind.from_name("rouge")


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_permutation_invariance(pairs, seed):
    preds = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    perm = np.random.default_rng(seed).permutation(len(pairs))
    for kind in (MetricKind.ACCURACY, MetricKind.MACRO_F1):
        base = evaluate(kind, preds, labels, class_count=4)
        shuffled = evaluate(
            kind, [preds[i] for i in perm], [labels[i] for i in perm], class_count=4
        )
        assert base == pytest.approx(shuffled)


@given(
    labels=st.lists(st.integers(0, 2), min_size=1, max_size=30),
    data=st.data(),
)
def test_accuracy_dominance(labels, data):
    """Fixing more predictions to the correct label never lowers accuracy."""
    wrong = [(y + 1) % 3 for y in labels]
    n_fix = data.draw(st.integers(0, len(labels)))
    partially_fixed = labels[:n_fix] + wrong[n_fix:]
    a = evaluate(MetricKind.ACCURACY, wrong, labels, class_count=3)
    b = evaluate(MetricKind.ACCURACY, partially_fixed, labels, class_count=3)
    assert b >= a


@given(
    preds=st.lists(st.integers(0, 2), min_size=1, max_size=30),
    data=st.data(),
)
def test_ranges(preds, data):
    labels = data.draw(
        st.lists(st.integers(0, 2), min_size=len(preds), max_size=len(preds))
    )
    assert 0.0 <= evaluate(MetricKind.ACCURACY, preds, labels, class_count=3) <= 1.0
    assert 0.0 <= evaluate(MetricKind.MACRO_F1, preds, labels, class_count=3) <= 1.0


def _macro_f1_loop(preds, labels, class_count):
    """Per-class tp/fp/fn counted in Python: the reference for MACRO_F1."""
    f1s = []
    for c in range(max(class_count, max(preds) + 1, max(labels) + 1)):
        tp = sum(1 for p, y in zip(preds, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, labels) if p != c and y == c)
        f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return float(np.mean(f1s))


@given(
    pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=60),
    class_count=st.integers(0, 9),
)
def test_macro_f1_equals_the_per_class_loop_exactly(pairs, class_count):
    preds = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    expected = _macro_f1_loop(preds, labels, class_count)
    assert evaluate(MetricKind.MACRO_F1, preds, labels, class_count=class_count) == expected


@pytest.mark.parametrize("preds,labels", [([-1, 0], [0, 1]), ([0, 1], [1, -1])])
def test_macro_f1_rejects_negative_class_index(preds, labels):
    with pytest.raises(ValidationError, match="class indices >= 0"):
        evaluate(MetricKind.MACRO_F1, preds, labels)
