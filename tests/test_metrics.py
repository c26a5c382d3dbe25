import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpta import MetricKind, ValidationError, evaluate


def rows(preds, classes=None):
    """One-hot logit rows, one per class index in preds: row i's argmax is preds[i]."""
    return np.eye(classes or max(preds) + 1)[preds]


def test_accuracy_perfect():
    assert evaluate(MetricKind.ACCURACY, rows([0, 1, 2]), [0, 1, 2]) == 1.0


def test_accuracy_fraction():
    assert evaluate(MetricKind.ACCURACY, rows([1, 1, 1]), [1, 0, 1]) == pytest.approx(2 / 3)


def test_accuracy_accepts_probability_vectors():
    preds = [np.array([0.1, 0.9]), np.array([0.8, 0.2])]
    assert evaluate(MetricKind.ACCURACY, preds, [1, 0]) == 1.0


def test_macro_f1_hand_computed():
    # per-class confusion: each class has tp=1, fp=1, fn=1 -> F1 = 0.5
    assert evaluate(MetricKind.MACRO_F1, rows([0, 0, 1, 1]), [0, 1, 0, 1]) == pytest.approx(0.5)


def test_macro_f1_absent_class_scores_zero():
    score = evaluate(MetricKind.MACRO_F1, rows([0, 0]), [0, 0], class_count=2)
    assert score == pytest.approx(0.5)  # class 1 absent -> F1 0, class 0 -> F1 1


def test_neg_mean_loss():
    # The softmax of log-probabilities gives the probabilities back.
    logits = np.log([[0.75, 0.25], [0.5, 0.5]])
    expected = -(-math.log(0.75) - math.log(0.5)) / 2
    assert evaluate(MetricKind.NEG_MEAN_LOSS, logits, [0, 1]) == pytest.approx(expected)
    assert evaluate(MetricKind.NEG_MEAN_LOSS, logits, [0, 1]) <= 0.0


def test_neg_mean_loss_leaves_the_logits_unchanged():
    logits = np.array([[3.0, -1.0], [0.5, 2.0]])
    evaluate(MetricKind.NEG_MEAN_LOSS, logits, [0, 1])
    assert logits.tolist() == [[3.0, -1.0], [0.5, 2.0]]


def test_scores_are_python_floats():
    for kind in MetricKind:
        assert type(evaluate(kind, rows([0, 1]), [0, 0])) is float


def test_class_indices_are_refused():
    for kind in MetricKind:
        with pytest.raises(ValidationError, match="logits matrix"):
            evaluate(kind, [0, 1], [0, 1])


def test_length_mismatch_and_empty():
    with pytest.raises(ValidationError):
        evaluate(MetricKind.ACCURACY, rows([0]), [0, 1])
    with pytest.raises(ValidationError):
        evaluate(MetricKind.ACCURACY, np.zeros((0, 2)), [])


def test_metric_kind_from_name():
    assert MetricKind("accuracy") is MetricKind.ACCURACY
    assert MetricKind("macro_f1") is MetricKind.MACRO_F1
    assert MetricKind("neg_loss") is MetricKind.NEG_MEAN_LOSS
    assert all(MetricKind(kind.value) is kind for kind in MetricKind)
    with pytest.raises(ValueError):
        MetricKind("rouge")


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
        base = evaluate(kind, rows(preds, 4), labels, class_count=4)
        shuffled = evaluate(
            kind, rows([preds[i] for i in perm], 4), [labels[i] for i in perm], class_count=4
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
    a = evaluate(MetricKind.ACCURACY, rows(wrong, 3), labels, class_count=3)
    b = evaluate(MetricKind.ACCURACY, rows(partially_fixed, 3), labels, class_count=3)
    assert b >= a


@given(
    preds=st.lists(st.integers(0, 2), min_size=1, max_size=30),
    data=st.data(),
)
def test_ranges(preds, data):
    labels = data.draw(
        st.lists(st.integers(0, 2), min_size=len(preds), max_size=len(preds))
    )
    assert 0.0 <= evaluate(MetricKind.ACCURACY, rows(preds, 3), labels, class_count=3) <= 1.0
    assert 0.0 <= evaluate(MetricKind.MACRO_F1, rows(preds, 3), labels, class_count=3) <= 1.0


def macro_f1_loop(preds, labels, class_count):
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
    expected = macro_f1_loop(preds, labels, class_count)
    assert evaluate(MetricKind.MACRO_F1, rows(preds), labels, class_count=class_count) == expected


# A negative prediction cannot be written as logits (argmax is never
# negative), so both cases put the negative index in the labels.
@pytest.mark.parametrize("preds,labels", [([0, 1], [-1, 0]), ([0, 1], [1, -1])])
def test_macro_f1_rejects_negative_class_index(preds, labels):
    with pytest.raises(ValidationError, match="class indices >= 0"):
        evaluate(MetricKind.MACRO_F1, rows(preds), labels)
