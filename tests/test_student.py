import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import (
    StateError,
    ValidationError,
    featurize,
    fnv1a64,
    forward,
    freeze,
    grad,
    init_params,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    sgd_step,
    synth_generate,
    train_pass,
    unfreeze,
)
from gpta import student
from gpta.student import Gradient, StudentParams, params_from_dict, params_to_dict


def reference_fnv1a64(data: bytes, seed: int = 0) -> int:
    """Independent FNV-1a implementation for cross-checking."""
    h = 14695981039346656037 ^ seed
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


def test_fnv1a_matches_reference():
    for token in ("a", "hello", "k0w3", "café", ""):
        for seed in (0, 1, 987654321):
            assert fnv1a64(token, seed) == reference_fnv1a64(token.encode("utf-8"), seed)
    # published reference value for the 64-bit FNV-1a of "a"
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_featurize_empty():
    assert featurize("", "", 16, 0) == {}


def test_featurize_unigram_counts():
    # both tokens hash to the same index, weight accumulates
    expected_idx = fnv1a64("a") % 16
    assert featurize("", "a a", 16, 0) == {expected_idx: 2.0}


def test_featurize_prefix_adds_interaction():
    with_prefix = featurize("focus", "a", 64, 0)
    without = featurize("", "a", 64, 0)
    # interaction index = hash of "focus\x01a"
    interaction_idx = fnv1a64("focus\x01a") % 64
    assert interaction_idx in with_prefix
    extra = set(with_prefix) - set(without)
    assert extra  # the prefix genuinely changes the feature set


def test_featurize_lowercases_and_splits():
    assert featurize("", "Hello  WORLD", 256, 0) == featurize("", "hello world", 256, 0)


def reference_featurize(prefix: str, text: str, dims: int, hash_seed: int) -> dict:
    """featurize with every interaction hashed as the whole pair string
    prefix token + "\x01" + text token."""
    prefix_tokens, text_tokens = prefix.lower().split(), text.lower().split()
    features = {}
    keys = prefix_tokens + text_tokens + [p + "\x01" + x for p in prefix_tokens for x in text_tokens]
    for key in keys:
        idx = fnv1a64(key, hash_seed) % dims
        features[idx] = features.get(idx, 0.0) + 1.0
    return features


# Arbitrary Unicode, and strings made mostly of whitespace (including the
# Unicode spaces str.split() breaks on), case pairs and multi-byte characters.
TOKEN_TEXT = st.text(max_size=40) | st.text(
    alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000aAbB\x01\xe9\u0130\u00df\U0001f600", max_size=40
)
FEATURIZE_CALLS = st.tuples(
    st.lists(TOKEN_TEXT, min_size=1, max_size=4),
    st.lists(TOKEN_TEXT, min_size=1, max_size=4),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    st.lists(st.integers(1, 18).map(lambda e: 1 << e), min_size=1, max_size=3),
)


def assert_featurize_matches_reference(prefixes, texts, seeds, dims_list):
    """Every combination, so prefix tokens recur across calls and their
    cached pair hashes are reused."""
    for seed in seeds:
        for dims in dims_list:
            for prefix in prefixes:
                for text in texts:
                    got = featurize(prefix, text, dims, seed)
                    assert list(got.items()) == list(reference_featurize(prefix, text, dims, seed).items())


@settings(max_examples=300, deadline=None)
@given(calls=FEATURIZE_CALLS)
def test_featurize_matches_pair_string_reference(calls):
    assert_featurize_matches_reference(*calls)


@settings(max_examples=300, deadline=None)
@given(calls=FEATURIZE_CALLS, cap=st.integers(3, 40))
def test_featurize_matches_reference_when_pair_cache_overflows(calls, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(student, "_PAIR_CACHE_CAP", cap)
        student._clear_pair_hashes()
        assert_featurize_matches_reference(*calls)
        held = sum(len(hashes) + student._ROW_UNITS for _, hashes in student._pair_rows.values())
        assert held == student._pair_units <= cap
    student._clear_pair_hashes()


def test_pair_cache_drops_least_recently_used_rows_first(monkeypatch):
    monkeypatch.setattr(student, "_PAIR_CACHE_CAP", 3 * (student._ROW_UNITS + 2))
    student._clear_pair_hashes()
    for prefix in ("old", "kept", "new", "kept", "newest"):
        featurize(prefix, "two words", 64, 0)
    assert [p for p, _ in student._pair_rows] == ["new", "kept", "newest"]
    student._clear_pair_hashes()


def test_featurize_does_not_depend_on_call_history():
    calls = [
        (prefix, text, dims, seed)
        for seed in (0, 7, 2**63 + 5)
        for dims in (2, 4096, 1 << 18)
        for prefix in ("focus on the words", "focus", "Ünïcode 日本 words")
        for text in ("the words are here", "focus focus words", "日本 語 text", "")
    ]
    calls = calls[::2] + calls[1::2]  # interleave seeds and dims
    in_sequence = [featurize(*c) for c in calls]
    from_cold = []
    for c in calls:
        student._clear_pair_hashes()
        from_cold.append(featurize(*c))
    assert [list(f.items()) for f in in_sequence] == [list(f.items()) for f in from_cold]


def test_featurize_rejects_bad_dims():
    with pytest.raises(ValidationError):
        featurize("", "a", 12, 0)
    with pytest.raises(ValidationError):
        featurize("", "a", 1, 0)


def test_forward_uniform_for_zero_params():
    p = init_params(16, 4)
    probs = forward(p, {3: 1.0, 7: 2.0})
    assert np.allclose(probs, 0.25)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_forward_two_class_cases():
    p = StudentParams(
        weights=np.array([[math.log(3.0)], [0.0]]),
        bias=np.zeros(2),
        dims=1,
        class_count=2,
    )
    # dims=1 is not constructible through init_params; exercise the math directly
    probs = forward(p, {0: 1.0})
    assert np.allclose(probs, [0.75, 0.25])
    assert np.allclose(forward(p, {}), [0.5, 0.5])


def test_loss_values():
    assert abs(loss(np.full(4, 0.25), 2) - math.log(4)) < 1e-12
    assert loss(np.array([0.0, 1.0]), 1) == 0.0
    assert abs(loss(np.array([0.75, 0.25]), 0) - 0.287682) < 1e-6


def test_grad_zero_when_perfect():
    p = init_params(16, 2)
    f = {3: 1.0}
    g = grad(p, f, 0)
    # not perfect prediction here, but bias rows must sum to zero (softmax identity)
    assert abs(g.bias.sum()) < 1e-12
    assert abs(g.weights.sum(axis=0)).max() < 1e-12


def finite_difference(params, f, label, h=1e-5):
    """Central-difference gradient of the cross-entropy loss."""
    gw = np.zeros_like(params.weights)
    gb = np.zeros_like(params.bias)

    def loss_at(w, b):
        p = StudentParams(weights=w, bias=b, dims=params.dims, class_count=params.class_count)
        return loss(forward(p, f), label)

    for c in range(params.class_count):
        for j in range(params.dims):
            wp, wm = params.weights.copy(), params.weights.copy()
            wp[c, j] += h
            wm[c, j] -= h
            gw[c, j] = (loss_at(wp, params.bias) - loss_at(wm, params.bias)) / (2 * h)
        bp, bm = params.bias.copy(), params.bias.copy()
        bp[c] += h
        bm[c] -= h
        gb[c] = (loss_at(params.weights, bp) - loss_at(params.weights, bm)) / (2 * h)
    return Gradient(weights=gw, bias=gb)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dims = 8
        classes = int(rng.integers(2, 5))
        params = StudentParams(
            weights=rng.normal(0, 1, (classes, dims)),
            bias=rng.normal(0, 1, classes),
            dims=dims,
            class_count=classes,
        )
        f = {int(i): float(rng.integers(1, 4)) for i in rng.choice(dims, 3, replace=False)}
        label = int(rng.integers(classes))
        analytic = grad(params, f, label)
        numeric = finite_difference(params, f, label)
        for a, n in ((analytic.weights, numeric.weights), (analytic.bias, numeric.bias)):
            mask = np.abs(a) > 1e-6
            rel = np.abs(a[mask] - n[mask]) / np.abs(a[mask])
            assert rel.max() < 1e-4


def test_sgd_step_arithmetic():
    p = init_params(2, 2)
    p = StudentParams(
        weights=np.array([[1.0, 0.0], [0.0, 0.0]]),
        bias=np.zeros(2),
        dims=2,
        class_count=2,
    )
    g = Gradient(weights=np.array([[0.5, 0.0], [0.0, 0.0]]), bias=np.zeros(2))
    stepped = sgd_step(p, g, 0.1)
    assert stepped.weights[0, 0] == pytest.approx(0.95)
    zero_g = Gradient(weights=np.zeros((2, 2)), bias=np.zeros(2))
    assert np.array_equal(sgd_step(p, zero_g, 0.1).weights, p.weights)
    assert np.array_equal(sgd_step(p, g, 0.0).weights, p.weights)


def test_frozen_params_refuse_updates():
    p = freeze(init_params(16, 2))
    g = Gradient(weights=np.zeros((2, 16)), bias=np.zeros(2))
    with pytest.raises(StateError):
        sgd_step(p, g, 0.1)
    d = synth_generate(2, 5, 40, 0.0, 1)
    with pytest.raises(StateError):
        train_pass(p, d, "", 0.1)
    # read-only ops still work
    assert predict(p, "", "k0w1") == 0
    forward(p, featurize("", "k0w1", 16, 0))


def test_train_pass_lr_zero_keeps_params():
    d = synth_generate(2, 10, 40, 0.0, 3)
    p = init_params(256, 2)
    new_p, mean_loss = train_pass(p, d, "", lr=0.0, shuffle_seed=1)
    assert np.array_equal(new_p.weights, p.weights)
    assert mean_loss == pytest.approx(math.log(2))


def test_train_pass_deterministic():
    d = synth_generate(2, 20, 60, 0.1, 4)
    p = init_params(1024, 2)
    a, la = train_pass(p, d, "look", 0.1, hash_seed=3, shuffle_seed=9)
    b, lb = train_pass(p, d, "look", 0.1, hash_seed=3, shuffle_seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert la == lb


def test_train_pass_learns_synthetic():
    d = synth_generate(2, 200, 120, 0.0, 13)
    p = init_params(4096, 2)
    for i in range(3):
        p, _ = train_pass(p, d, "", 0.1, shuffle_seed=i)
    acc = sum(predict(p, "", ex.text) == ex.label for ex in d.examples) / len(d)
    assert acc > 0.95


def test_train_pass_equals_grad_plus_sgd_step():
    """The sparse in-loop update must match the dense grad/sgd_step path."""
    d = synth_generate(2, 8, 40, 0.0, 6)
    dims = 64
    p1 = init_params(dims, 2)
    p2 = init_params(dims, 2)
    order = np.random.default_rng(3).permutation(len(d))
    p1, _ = train_pass(p1, d, "hint", 0.05, hash_seed=1, shuffle_seed=3)
    for i in order:
        ex = d.examples[i]
        f = featurize("hint", ex.text, dims, 1)
        p2 = sgd_step(p2, grad(p2, f, ex.label), 0.05)
    assert np.array_equal(p1.weights, p2.weights)
    assert np.array_equal(p1.bias, p2.bias)


def test_predict_tie_breaks_low():
    p = init_params(16, 3)
    assert predict(p, "", "anything at all") == 0


def test_predict_follows_planted_weights():
    dims = 64
    idx = fnv1a64("win") % dims
    w = np.zeros((2, dims))
    w[1, idx] = 5.0
    p = StudentParams(weights=w, bias=np.zeros(2), dims=dims, class_count=2)
    assert predict(p, "", "win") == 1
    assert predict(p, "", "other") == 0


def test_prefix_changes_prediction_by_construction():
    """Planting weight on an interaction index makes two prefixes disagree."""
    dims = 256
    idx = fnv1a64("cue\x01thing") % dims
    w = np.zeros((2, dims))
    w[1, idx] = 5.0
    p = StudentParams(weights=w, bias=np.zeros(2), dims=dims, class_count=2)
    assert predict(p, "cue", "thing") == 1
    assert predict(p, "", "thing") == 0


def test_featurize_and_predict_are_pure():
    d = synth_generate(2, 5, 40, 0.1, 9)
    p = init_params(512, 2)
    p, _ = train_pass(p, d, "steady", 0.1, hash_seed=4, shuffle_seed=4)
    for ex in d.examples:
        assert featurize("steady", ex.text, 512, 4) == featurize("steady", ex.text, 512, 4)
        assert predict(p, "steady", ex.text, 4) == predict(p, "steady", ex.text, 4)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    p = StudentParams(
        weights=rng.normal(0, 1, (3, 32)),
        bias=rng.normal(0, 1, 3),
        dims=32,
        class_count=3,
    )
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    back = load_checkpoint(path)
    assert np.array_equal(back.weights, p.weights)
    assert np.array_equal(back.bias, p.bias)
    assert back.dims == p.dims and back.class_count == p.class_count
    # lossless: serialize -> load -> serialize is byte-stable
    save_checkpoint(back, tmp_path / "ckpt2.json")
    assert (tmp_path / "ckpt.json").read_bytes() == (tmp_path / "ckpt2.json").read_bytes()


# Zeros of both signs, the smallest and largest subnormals, and floats
# near the ends of the double range.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308)
FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sparse_params(draw):
    """Params over power-of-two dims whose non-zero column share runs from
    none to all, filled from a few drawn values."""
    class_count = draw(st.integers(2, 5))
    dims = 2 ** draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(dims) < draw(st.floats(0.0, 1.0))
    values = draw(st.lists(FINITE, min_size=1, max_size=8))
    weights = np.zeros((class_count, dims))
    weights[:, mask] = rng.choice(values, size=(class_count, int(mask.sum())))
    bias = np.array(draw(st.lists(FINITE, min_size=class_count, max_size=class_count)))
    return StudentParams(weights=weights, bias=bias, dims=dims, class_count=class_count)


@settings(max_examples=200, deadline=None)
@given(p=sparse_params())
def test_sparse_params_round_trip(p):
    text = json.dumps(params_to_dict(p))
    back = params_from_dict(json.loads(text))
    assert np.array_equal(back.weights, p.weights)
    assert np.array_equal(back.bias, p.bias)
    assert (back.dims, back.class_count) == (p.dims, p.class_count)
    assert json.dumps(params_to_dict(back)) == text


def test_freeze_unfreeze_round_trip():
    p = init_params(16, 2)
    assert not p.frozen
    assert freeze(p).frozen
    assert not unfreeze(freeze(p)).frozen
