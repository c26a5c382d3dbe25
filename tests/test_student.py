import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import (
    Featurizer,
    StateError,
    ValidationError,
    featurize,
    fnv1a64,
    forward,
    freeze,
    grad,
    init_params,
    load_checkpoint,
    load_jsonl,
    loss,
    predict,
    save_checkpoint,
    score_prefix,
    sgd_step,
    synth_generate,
    train_pass,
    unfreeze,
)
from gpta import student
from gpta.dataset import Dataset, TextExample
from gpta.metrics import MetricKind, evaluate, scorer
from gpta.student import Gradient, StudentParams, batch_logits, params_from_dict
from gpta.trainer import state_to_json

from conftest import dense_student, dense_weights, one_epoch_state


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


def unlabeled(texts: list[str]) -> Dataset:
    """A split of `texts`, every label 0, for tables over just those texts."""
    return Dataset(tuple(TextExample(text, 0) for text in texts), 2)


def items(features) -> list:
    """A Featurizer's (indices, counts) arrays as featurize's (key, count)
    items, after checking the arrays' dtypes."""
    indices, counts = features
    assert indices.dtype == np.int64 and counts.dtype == np.float64
    return list(zip(indices.tolist(), counts.tolist()))


@settings(max_examples=300, deadline=None)
@given(calls=FEATURIZE_CALLS, seed=st.integers(-(2**70), 2**70))
def test_featurizer_matches_featurize(calls, seed):
    """Every combination, so prefix tokens recur across calls and their
    pair rows are reused: each text looked up alone (a one-text block),
    then from a block of every text, repeats included."""
    prefixes, texts, seeds, dims_list = calls
    for seed in seeds + [seed, seed + 2**64, -1 - seed]:
        for dims in dims_list:
            featurizer = Featurizer(dims, seed, unlabeled(texts))
            for prefix in prefixes:
                expected = [list(featurize(prefix, text, dims, seed).items()) for text in texts]
                assert [items(featurizer.featurize(prefix, text)) for text in texts] == expected
                featurizer._build(prefix, texts + texts[::-1])
                assert [items(featurizer.featurize(prefix, text)) for text in texts] == expected


def test_featurize_does_not_depend_on_call_history():
    calls = [
        (prefix, text, dims, seed)
        for seed in (0, 7, 2**63 + 5)
        for dims in (2, 4096, 1 << 18)
        for prefix in ("focus on the words", "focus", "Ünïcode 日本 words")
        for text in ("the words are here", "focus focus words", "日本 語 text", "")
    ]
    calls = calls[::2] + calls[1::2]  # interleave seeds and dims
    texts = sorted({text for _, text, _, _ in calls})
    featurizers = {}
    in_sequence = []
    for prefix, text, dims, seed in calls:
        featurizer = featurizers.setdefault((dims, seed), Featurizer(dims, seed, unlabeled(texts)))
        in_sequence.append(items(featurizer.featurize(prefix, text)))
    from_cold = [items(Featurizer(dims, seed, unlabeled(texts)).featurize(prefix, text)) for prefix, text, dims, seed in calls]
    oracle = [list(featurize(*c).items()) for c in calls]
    assert in_sequence == from_cold
    assert in_sequence == oracle


def test_featurizer_builds_its_tables_at_construction():
    """The text tables are built with the featurizer; a prefix token's
    pair row only when a prefix holding it is first used."""
    featurizer = Featurizer(64, 0, unlabeled(["a b", "c"]))
    assert set(featurizer._ids) == {"a b", "c"} and featurizer._tokens == {}
    featurizer.featurize("p q", "a b")
    assert set(featurizer._tokens) == {"p", "q"}


def test_token_table_folds_only_tokens_it_does_not_hold(monkeypatch):
    """A prefix whose tokens are all held folds nothing; one pass folds
    only the new tokens, each once; `retain` keeps the tokens of the
    prefixes it is given, and a dropped token folds again to the same
    indices."""
    featurizer = Featurizer(64, 3, unlabeled(["a b", "c a"]))
    passes = []
    fold_vocab = featurizer._fold_vocab
    monkeypatch.setattr(featurizer, "_fold_vocab", lambda starts: passes.append(len(starts)) or fold_vocab(starts))
    first = featurizer._prefix_indices("p q p")
    assert passes == [2]
    featurizer._prefix_indices("q p")
    featurizer._prefix_indices("")
    assert passes == [2]
    featurizer._prefix_indices("q r")
    assert passes == [2, 1] and set(featurizer._tokens) == {"p", "q", "r"}
    # Each row owns its memory, so a dropped row is freed.
    assert all(row.base is None for _, row in featurizer._tokens.values())
    featurizer.retain(["r", "q q"])
    assert set(featurizer._tokens) == {"q", "r"}
    again = featurizer._prefix_indices("p q p")
    assert passes == [2, 1, 1]
    assert again[0] == first[0]
    assert all(np.array_equal(x, y) for x, y in zip(again[1], first[1], strict=True))


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
    p = dense_student(np.array([[math.log(3.0)], [0.0]]), np.zeros(2))
    # dims=1 is not constructible through init_params; exercise the math directly
    probs = forward(p, {0: 1.0})
    assert np.allclose(probs, [0.75, 0.25])
    assert np.allclose(forward(p, {}), [0.5, 0.5])


def test_loss_values():
    assert abs(loss(np.full(4, 0.25), 2) - math.log(4)) < 1e-12
    assert loss(np.array([0.0, 1.0]), 1) == 0.0
    assert abs(loss(np.array([0.75, 0.25]), 0) - 0.287682) < 1e-6


def test_loss_floors_an_underflowed_probability():
    assert loss(np.array([0.0, 1.0]), 0) == pytest.approx(300 * math.log(10))


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
        p = dense_student(w, b)
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
    return Gradient(np.arange(params.dims), gw, gb)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dims = 8
        classes = int(rng.integers(2, 5))
        params = dense_student(rng.normal(0, 1, (classes, dims)), rng.normal(0, 1, classes))
        f = {int(i): float(rng.integers(1, 4)) for i in rng.choice(dims, 3, replace=False)}
        label = int(rng.integers(classes))
        analytic = grad(params, f, label)
        numeric = finite_difference(params, f, label)
        for a, n in ((dense_weights(analytic, dims), numeric.weights), (analytic.bias, numeric.bias)):
            mask = np.abs(a) > 1e-6
            rel = np.abs(a[mask] - n[mask]) / np.abs(a[mask])
            assert rel.max() < 1e-4


def test_sgd_step_arithmetic():
    p = init_params(2, 2)
    p = dense_student(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
    g = Gradient(np.arange(2), np.array([[0.5, 0.0], [0.0, 0.0]]), np.zeros(2))
    stepped = sgd_step(p, g, 0.1)
    assert stepped.weights[0, 0] == pytest.approx(0.95)
    zero_g = Gradient(np.arange(2), np.zeros((2, 2)), np.zeros(2))
    assert np.array_equal(sgd_step(p, zero_g, 0.1).weights, p.weights)
    assert np.array_equal(sgd_step(p, g, 0.0).weights, p.weights)


def test_frozen_params_refuse_updates():
    p = freeze(init_params(16, 2))
    g = Gradient(np.arange(16), np.zeros((2, 16)), np.zeros(2))
    with pytest.raises(StateError):
        sgd_step(p, g, 0.1)
    d = synth_generate(2, 5, 40, 0.0, 1)
    with pytest.raises(StateError):
        train_pass(p, Featurizer(16, 0, d), "", 0.1)
    # read-only ops still work
    assert predict(p, "", "k0w1") == 0
    forward(p, featurize("", "k0w1", 16, 0))


def test_train_pass_lr_zero_keeps_params():
    d = synth_generate(2, 10, 40, 0.0, 3)
    p = dense_student(np.zeros((2, 256)), np.zeros(2))
    new_p, mean_loss = train_pass(p, Featurizer(256, 0, d), "", lr=0.0, shuffle_seed=1)
    assert np.array_equal(new_p.weights, p.weights)
    assert mean_loss == pytest.approx(math.log(2))


def test_train_pass_deterministic():
    d = synth_generate(2, 20, 60, 0.1, 4)
    p = init_params(1024, 2)
    a, la = train_pass(p, Featurizer(1024, 3, d), "look", 0.1, shuffle_seed=9)
    b, lb = train_pass(p, Featurizer(1024, 3, d), "look", 0.1, shuffle_seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert la == lb


@pytest.mark.parametrize("dims,hash_seed", [(512, 3), (2048, 3)])
def test_train_pass_rejects_a_featurizer_that_hashes_otherwise(dims, hash_seed):
    d = synth_generate(2, 20, 60, 0.1, 4)
    with pytest.raises(ValidationError, match="featurizer hashes with dims"):
        train_pass(init_params(1024, 2), Featurizer(dims, hash_seed, d), "look", 0.1)


def test_train_pass_accepts_a_featurizer_whose_seed_is_congruent_modulo_2_64():
    """Tables with seeds 3 - 2^64 and 3 hash alike, so they train and score
    bit-identically; seed 0 trains otherwise."""
    d = synth_generate(2, 20, 60, 0.1, 4)
    p = init_params(1024, 2)
    a, la = train_pass(p, Featurizer(1024, 3 - 2**64, d), "look", 0.1, shuffle_seed=9)
    b, lb = train_pass(p, Featurizer(1024, 3, d), "look", 0.1, shuffle_seed=9)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias) and la == lb
    assert not np.array_equal(a.weights, train_pass(p, Featurizer(1024, 0, d), "look", 0.1, shuffle_seed=9)[0].weights)
    congruent, plain = (batch_logits(freeze(a), Featurizer(1024, seed, d)) for seed in (3 - 2**64, 3))
    for prefix in ("", "look", "k0w1 words unseen"):
        assert np.array_equal(congruent(prefix), plain(prefix))


def test_train_pass_refuses_an_empty_dataset():
    with pytest.raises(ValidationError, match="cannot train on an empty dataset"):
        train_pass(init_params(64, 2), Featurizer(64, 0, Dataset((), 2)), "", 0.1)


def test_train_pass_learns_synthetic():
    d = synth_generate(2, 200, 120, 0.0, 13)
    p, tables = init_params(4096, 2), Featurizer(4096, 0, d)
    for i in range(3):
        p, _ = train_pass(p, tables, "", 0.1, shuffle_seed=i)
    acc = sum(predict(p, "", ex.text) == ex.label for ex in d.examples) / len(d)
    assert acc > 0.95


def test_train_pass_equals_grad_plus_sgd_step():
    """The sparse in-loop update must match the dense grad/sgd_step path."""
    d = synth_generate(2, 8, 40, 0.0, 6)
    dims = 64
    p1 = init_params(dims, 2)
    p2 = init_params(dims, 2)
    order = np.random.default_rng(3).permutation(len(d))
    p1, _ = train_pass(p1, Featurizer(dims, 1, d), "hint", 0.05, shuffle_seed=3)
    for i in order:
        ex = d.examples[i]
        f = featurize("hint", ex.text, dims, 1)
        p2 = sgd_step(p2, grad(p2, f, ex.label), 0.05)
    assert np.array_equal(p1.weights, p2.weights)
    assert np.array_equal(p1.bias, p2.bias)


def reference_train_pass(params, train, prefix, lr, hash_seed, shuffle_seed):
    """train_pass from the per-example oracles: featurize + grad +
    sgd_step in the same shuffled order, each pre-update loss summed in
    that order."""
    total_loss = 0.0
    for i in np.random.default_rng(shuffle_seed).permutation(len(train)):
        ex = train.examples[i]
        f = featurize(prefix, ex.text, params.dims, hash_seed)
        total_loss += loss(forward(params, f), ex.label)
        params = sgd_step(params, grad(params, f, ex.label), lr)
    return params, total_loss / len(train)


# Few distinct tokens, so prefixes repeat tokens and share them with the
# texts, and texts share tokens with each other; whitespace-only texts have
# no token at all.
TRAIN_TOKENS = st.sampled_from(["a", "B", "b", "k0w1", "focus", "日本", "é\x01x"])
TRAIN_TEXTS = st.lists(TRAIN_TOKENS, max_size=12).map(" ".join) | st.sampled_from(["", " ", "\t\u3000 \n"])
BLOCK = student.TRAIN_BLOCK


@st.composite
def training_runs(draw):
    """Params (zero, or drawn at a drawn share of the columns), a dataset
    of 1, B - 1, B, B + 1 or 3B + 2 examples for the train_pass block size
    B, and the pass's arguments."""
    class_count = draw(st.integers(2, 12))
    dims = 1 << draw(st.integers(1, 18))
    size = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]))
    texts = draw(st.lists(TRAIN_TEXTS, min_size=size, max_size=size))
    labels = draw(st.lists(st.integers(0, class_count - 1), min_size=size, max_size=size))
    train = Dataset(tuple(TextExample(t, y) for t, y in zip(texts, labels)), class_count)
    params = init_params(dims, class_count)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        columns = np.flatnonzero(rng.random(dims) < draw(st.floats(0.0, 1.0)))
        params = StudentParams(columns, rng.standard_normal((class_count, len(columns))), rng.standard_normal(class_count), dims)
    prefix = " ".join(draw(st.lists(TRAIN_TOKENS, max_size=5)))
    lr = draw(st.sampled_from([0.0, 0.05, 0.5, 3.0]))
    return params, train, prefix, lr, draw(st.integers(-(2**70), 2**70)), draw(st.integers(0, 2**32 - 1))


# No max_examples: the CI step reruns these under the "bit-identity" profile (tests/conftest.py).
@settings(deadline=None)
@given(run=training_runs())
def test_train_pass_is_bit_identical_to_the_per_example_reference(run):
    """train_pass on the train split's tables, hashed with the drawn seed."""
    params, train, prefix, lr, hash_seed, shuffle_seed = run
    got, got_loss = train_pass(params, Featurizer(params.dims, hash_seed, train), prefix, lr, shuffle_seed)
    want, want_loss = reference_train_pass(params, train, prefix, lr, hash_seed, shuffle_seed)
    assert np.array_equal(got.weights, want.weights) and np.array_equal(got.bias, want.bias)
    assert repr(got_loss) == repr(want_loss)


def reference_segment_sums(columns, lengths):
    """Per run of `lengths` consecutive columns, their sum; zero for an empty run."""
    sums = np.zeros((len(columns), len(lengths)))
    nonempty = lengths > 0
    sums[:, nonempty] = np.add.reduceat(columns, (np.cumsum(lengths) - lengths)[nonempty], axis=1)
    return sums


def reference_batch_logits(params, texts, prefix, hash_seed):
    """batch_logits by the column-gather formula it replaced, from tables
    built here: each sum in the order that formula took it."""
    dims, weights, seeded = params.dims, dense_weights(params, params.dims), student._FNV_OFFSET ^ hash_seed
    tokens = [student.tokenize(text) for text in texts]
    vocab = sorted({x for ts in tokens for x in ts})
    ids = {x: i for i, x in enumerate(vocab)}
    flat = np.array([ids[x] for ts in tokens for x in ts], dtype=np.int64)
    lengths = np.array([len(ts) for ts in tokens])
    unigram_rows = np.array([fnv1a64(x, hash_seed) % dims for x in vocab], dtype=np.int64)
    z = params.bias[:, None] + reference_segment_sums(weights[:, unigram_rows[flat]], lengths)
    p_toks = student.tokenize(prefix)
    u = [fnv1a64(q, hash_seed) % dims for q in p_toks]
    z = z + weights[:, u].sum(axis=1, keepdims=True)
    if p_toks:
        starts = [student._fold(seeded, q + student._PAIR_SEP) for q in p_toks]
        rows = [np.array([student._fold(start, x) % dims for x in vocab], dtype=np.int64) for start in starts]
        pairs = sum(weights[:, r] for r in rows)
        z += reference_segment_sums(pairs[:, flat], lengths)
    return z.T


# Tokens of no text, next to the texts' own, so a prefix holds both.
OUTSIDE_TOKENS = st.sampled_from(["zq", "unseen", "Ωmega"])


@st.composite
def scoring_worlds(draw):
    """Frozen params that hold a drawn share of the columns, whose weights
    span many magnitudes and hold signed zeros, texts (some blank, and at
    times of one distinct token) with their labels, the tables over them,
    and prefixes of 0 to 20 tokens."""
    class_count = draw(st.integers(2, 6))
    dims = 1 << draw(st.integers(1, 12))
    text_tokens = draw(st.sampled_from([TRAIN_TOKENS, st.just("a")]))
    blank = st.sampled_from(["", " ", "\t\u3000 \n"])
    texts = draw(st.lists(st.lists(text_tokens, max_size=12).map(" ".join) | blank, min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(0, class_count - 1), min_size=len(texts), max_size=len(texts)))
    data = Dataset(tuple(TextExample(t, y) for t, y in zip(texts, labels)), class_count)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.standard_normal((class_count, dims)) * 10.0 ** rng.integers(-8, 9, (class_count, dims))
    weights[rng.random(weights.shape) < 0.1] = -0.0
    weights[rng.random(weights.shape) < 0.1] = 0.0
    held = rng.random(dims) < draw(st.floats(0.0, 1.0))
    params = StudentParams(np.flatnonzero(held), weights[:, held], rng.standard_normal(class_count), dims, frozen=True)
    hash_seed = draw(st.integers(-(2**70), 2**70))
    prefix = st.lists(TRAIN_TOKENS | OUTSIDE_TOKENS, max_size=20).map(" ".join)
    prefixes = draw(st.lists(prefix, min_size=1, max_size=4))
    return params, Featurizer(dims, hash_seed, data), hash_seed, prefixes


# No max_examples: the CI step reruns these under the "bit-identity" profile (tests/conftest.py).
@settings(deadline=None)
@given(world=scoring_worlds())
def test_batch_logits_and_scorer_are_bit_identical_to_the_column_gather_formula(world):
    """Each prefix's logits equal the reference's byte for byte, and each
    metric's score is evaluate's on the reference logits."""
    params, tables, hash_seed, prefixes = world
    data = tables.data
    texts = [ex.text for ex in data.examples]
    logits = batch_logits(params, tables)
    scores = {kind: scorer(params, tables, kind) for kind in MetricKind}
    for prefix in prefixes:
        want = reference_batch_logits(params, texts, prefix, hash_seed)
        got = logits(prefix)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for kind, score in scores.items():
            assert repr(score(prefix)) == repr(evaluate(kind, want, data.labels(), class_count=data.class_count))


def test_train_pass_on_a_whitespace_only_text_under_the_empty_prefix():
    """No features: only the bias moves, exactly as in the reference."""
    train = Dataset((TextExample(" \t ", 1),), 3)
    params = dense_student(np.ones((3, 8)), np.array([0.5, -1.0, 2.0]))
    got, got_loss = train_pass(params, Featurizer(8, 4, train), "", 0.5)
    want, want_loss = reference_train_pass(params, train, "", 0.5, 4, 0)
    assert np.array_equal(got.weights, params.weights) and np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias) and not np.array_equal(got.bias, params.bias)
    assert got_loss == want_loss


@pytest.mark.parametrize("label", [3, 7, -1])
def test_train_pass_refuses_a_label_outside_the_classes_before_any_update(label):
    train = Dataset(tuple(TextExample(f"k{i} words", i % 3) for i in range(BLOCK + 1)) + (TextExample("x", label),), 3)
    featurizer = Featurizer(64, 0, train)
    with pytest.raises(ValidationError, match=f"label {label} out of range for 3 classes"):
        train_pass(init_params(64, 3), featurizer, "p", 0.1)
    assert featurizer._block[0] is None  # no block built, so no example was stepped


def test_predict_tie_breaks_low():
    p = init_params(16, 3)
    assert predict(p, "", "anything at all") == 0


def test_predict_follows_planted_weights():
    dims = 64
    idx = fnv1a64("win") % dims
    w = np.zeros((2, dims))
    w[1, idx] = 5.0
    p = dense_student(w, np.zeros(2))
    assert predict(p, "", "win") == 1
    assert predict(p, "", "other") == 0


def test_prefix_changes_prediction_by_construction():
    """Planting weight on an interaction index makes two prefixes disagree."""
    dims = 256
    idx = fnv1a64("cue\x01thing") % dims
    w = np.zeros((2, dims))
    w[1, idx] = 5.0
    p = dense_student(w, np.zeros(2))
    assert predict(p, "cue", "thing") == 1
    assert predict(p, "", "thing") == 0


def test_featurize_and_predict_are_pure():
    d = synth_generate(2, 5, 40, 0.1, 9)
    p = init_params(512, 2)
    p, _ = train_pass(p, Featurizer(512, 4, d), "steady", 0.1, shuffle_seed=4)
    for ex in d.examples:
        assert featurize("steady", ex.text, 512, 4) == featurize("steady", ex.text, 512, 4)
        assert predict(p, "steady", ex.text, 4) == predict(p, "steady", ex.text, 4)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    p = dense_student(rng.normal(0, 1, (3, 32)), rng.normal(0, 1, 3))
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
    columns = np.flatnonzero(weights.any(axis=0))  # the columns a checkpoint keeps
    return StudentParams(columns, weights[:, columns], bias, dims)


@settings(max_examples=200, deadline=None)
@given(p=sparse_params())
def test_sparse_params_round_trip(p):
    text = student.params_to_json(p)
    back = params_from_dict(json.loads(text))
    assert np.array_equal(back.weights, p.weights)
    assert np.array_equal(back.bias, p.bias)
    assert (back.dims, back.class_count) == (p.dims, p.class_count)
    assert student.params_to_json(back) == text


def whole_dict(p):
    """The student's JSON object built whole, every weight a Python float:
    the formula every student write must reproduce byte for byte."""
    nonzero = np.flatnonzero(p.weights.any(axis=0))
    return {"dims": p.dims, "class_count": p.class_count, "bias": p.bias.tolist(),
            "columns": p.columns[nonzero].tolist(), "weights": p.weights[:, nonzero].reshape(-1).tolist()}


SLICE = student.WRITE_SLICE
ANY_FLOAT = FINITE | st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def written_students(draw):
    """Students that write no column, or weight rows one short of, equal to
    and one past a write slice (or a total of one slice), or a few columns;
    they also hold up to 40 all-zero columns (either sign), which a write
    drops. Weights and bias come from edge floats, NaN and infinities."""
    class_count = draw(st.integers(2, 4))
    kept = draw(st.just(0) | st.integers(SLICE - 1, SLICE + 1) | st.sampled_from([SLICE // 2, SLICE // 4])
                | st.integers(1, 40))
    n = kept + draw(st.integers(0, 40))
    dims = 1 << (n.bit_length() + draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = np.sort(rng.choice(dims, size=n, replace=False)).astype(np.int64)
    weights = rng.choice(draw(st.lists(ANY_FLOAT, min_size=1, max_size=8)), size=(class_count, n))
    order = rng.permutation(n)
    written, zero = order[:kept], order[kept:]
    nonzero = draw(st.lists(ANY_FLOAT.filter(bool), min_size=1, max_size=4))
    weights[rng.integers(0, class_count, kept), written] = rng.choice(nonzero, size=kept)
    weights[:, zero] = rng.choice([0.0, -0.0], size=(class_count, len(zero)))
    bias = np.array(draw(st.lists(ANY_FLOAT, min_size=class_count, max_size=class_count)))
    return StudentParams(columns, weights, bias, dims, draw(st.booleans()))


# No max_examples: the CI step reruns this under the "bit-identity" profile (tests/conftest.py).
@settings(deadline=None)
@given(p=written_students())
def test_student_writes_are_bit_identical_to_the_whole_dict_formula(p, tmp_path_factory):
    """params_to_json, a checkpoint file and a run state's text, which
    encode the weights a slice at a time, equal json.dumps of the whole
    dict: NaN and infinities as JSON's NaN and Infinity, -0.0 kept."""
    text = json.dumps(whole_dict(p), separators=(",", ":")).encode()
    assert student.params_to_json(p) == text
    path = tmp_path_factory.getbasetemp() / "written_student.json"
    save_checkpoint(p, path)
    assert path.read_bytes() == text
    state = one_epoch_state(p)
    whole_state = {"epoch": 1, "student": whole_dict(p), "student_frozen": p.frozen, "ta": state.ta.to_dict(),
                   "history": state.history.to_list(), "best": asdict(state.best),
                   "records": [asdict(r) for r in state.records]}
    assert state_to_json(state) == (json.dumps(whole_state, ensure_ascii=False, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("columns", [[4, 1], [4, 4], [-1, 4], [1, 8]])
def test_student_params_refuse_columns_not_strictly_increasing_within_dims(columns):
    with pytest.raises(ValidationError, match=re.escape("student columns must be strictly increasing within [0, 8)")):
        StudentParams(np.array(columns), np.zeros((2, 2)), np.zeros(2), 8)


@pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 1)])
def test_student_params_refuse_weights_of_another_shape_than_class_count_x_columns(shape):
    with pytest.raises(ValidationError, match="student weights have shape"):
        StudentParams(np.array([1, 4]), np.zeros(shape), np.zeros(2), 8)


@pytest.mark.parametrize("length", [1, 3])
def test_student_params_refuse_a_bias_of_another_length_than_class_count(length):
    with pytest.raises(ValidationError, match="student bias has shape"):
        StudentParams(np.array([1, 4]), np.zeros((2, 2)), np.zeros(length), 8)


def test_a_wide_checkpoint_loads_and_scores_below_its_dense_matrix(tmp_path):
    """load_checkpoint + score_prefix of a 2-class student at dims 2^22
    trace less than its dense 2 x dims float64 matrix (64 MiB): the
    student holds its saved columns, and scoring maps features to them."""
    dims = 1 << 22
    data = synth_generate(2, 20, 40, 0.1, 5)
    columns = sorted({i for ex in data.examples for i in featurize("look", ex.text, dims)})
    weights = np.random.default_rng(6).standard_normal(2 * len(columns)).tolist()
    path = tmp_path / "student.json"
    path.write_text(json.dumps({"dims": dims, "class_count": 2, "bias": [0.1, -0.1],
                                "columns": columns, "weights": weights}))
    tracemalloc.start()
    try:
        score = score_prefix(freeze(load_checkpoint(path)), "look", data, MetricKind.ACCURACY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= score <= 1.0
    assert peak < 2 * dims * 8


def per_text_tables(dims, hash_seed, data):
    """A Featurizer's _vocab, _ids, _columns and _unigrams built text by
    text: every text's tokens encoded, each text's ids its own array, and
    each vocabulary token hashed on its own."""
    texts = [ex.text for ex in data.examples]
    vocab = sorted(dict.fromkeys(t.encode() for text in texts for t in student.tokenize(text)), key=len, reverse=True)
    ids = {token.decode(): i for i, token in enumerate(vocab)}
    text_ids = {text: np.array([ids[t] for t in student.tokenize(text)], dtype=np.int64) for text in texts}
    columns = [np.array([t[j] for t in vocab if len(t) > j], dtype=np.uint64) for j in range(max(map(len, vocab), default=0))]
    unigrams = np.array([fnv1a64(t.decode(), hash_seed) % dims for t in vocab], dtype=np.int64)
    return vocab, text_ids, columns, unigrams


def same_arrays(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("texts", ["desk", "duplicates", "whitespace"])
def test_featurizer_tables_equal_the_per_text_build(texts, desk_dataset_path):
    data = {
        "desk": load_jsonl(desk_dataset_path),
        "duplicates": Dataset(tuple(TextExample(t, 0) for t in ["b a", "café b", "b a", "", "café b", "zz"]), 2),
        "whitespace": Dataset(tuple(TextExample(t, 1) for t in ["", " ", "\t\u3000 \n", " "]), 2),
    }[texts]
    tables = Featurizer(1 << 18, -7, data)
    vocab, text_ids, columns, unigrams = per_text_tables(1 << 18, -7, data)
    assert tables._vocab == vocab
    assert list(tables._ids) == list(text_ids) and all(same_arrays(tables._ids[t], text_ids[t]) for t in text_ids)
    assert len(tables._columns) == len(columns) and all(map(same_arrays, tables._columns, columns))
    assert same_arrays(tables._unigrams, unigrams)


def test_freeze_unfreeze_round_trip():
    p = init_params(16, 2)
    assert not p.frozen
    assert freeze(p).frozen
    assert not unfreeze(freeze(p)).frozen
