import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import (
    MetricKind,
    PrefixHistory,
    Proposer,
    ScoredPrefix,
    StallError,
    StateError,
    ValidationError,
    collect,
    evaluate,
    freeze,
    init_params,
    insert_sorted,
    predict,
    score_prefix,
    seed_history,
    simulated_handle,
    synth_generate,
    train_pass,
    unfreeze,
)
from gpta import history, metrics
from gpta.history import Origin, RoundStats, carry_over
from gpta.dataset import Dataset, TextExample
from gpta.student import Featurizer, _logits, batch_logits, featurize, forward, loss

from conftest import dense_student
from test_metrics import macro_f1_loop, rows
from test_ta import make_mp

# Prefixes of synthetic-corpus tokens (k<class>w<j>, noise<j>) and of tokens
# no corpus text holds, mixed case included (tokenize lowercases).
PREFIXES = st.lists(
    st.one_of(
        st.sampled_from(["k0w0", "k1w1", "K0W2", "noise0", "noise3"]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    ),
    max_size=4,
).map(" ".join)


def oracle_logits(frozen, prefix, text, hash_seed):
    """One text's logits from the reference per-example path."""
    return _logits(frozen, featurize(prefix, text, frozen.dims, hash_seed))


def oracle_score(frozen, prefix, data, kind, hash_seed):
    """The metric from the reference per-example path, computed here and
    not by evaluate."""
    labels = data.labels()
    if kind is MetricKind.NEG_MEAN_LOSS:
        features = (featurize(prefix, ex.text, frozen.dims, hash_seed) for ex in data.examples)
        return -sum(loss(forward(frozen, f), y) for f, y in zip(features, labels)) / len(labels)
    preds = [predict(frozen, prefix, ex.text, hash_seed) for ex in data.examples]
    if kind is MetricKind.ACCURACY:
        return sum(p == y for p, y in zip(preds, labels)) / len(labels)
    return macro_f1_loop(preds, labels, data.class_count)


@pytest.fixture(scope="module")
def trained_student():
    data = synth_generate(2, 60, 80, 0.1, 3)
    p = init_params(1024, 2)
    p, _ = train_pass(p, Featurizer(1024, 0, data), "focus here", 0.1, shuffle_seed=2)
    return freeze(p), data


class TestScorePrefix:
    def test_zero_params_all_class_zero(self):
        d = synth_generate(2, 10, 40, 0.0, 1)
        labels_zero = [ex for ex in d.examples if ex.label == 0]
        eval_set = Dataset(examples=tuple(labels_zero), class_count=2)
        frozen = freeze(init_params(64, 2))
        assert score_prefix(frozen, "", eval_set, MetricKind.ACCURACY) == 1.0

    def test_requires_frozen(self, trained_student):
        frozen, data = trained_student
        with pytest.raises(StateError):
            score_prefix(unfreeze(frozen), "", data, MetricKind.ACCURACY)

    def test_deterministic(self, trained_student):
        frozen, data = trained_student
        a = score_prefix(frozen, "focus here", data, MetricKind.ACCURACY)
        b = score_prefix(frozen, "focus here", data, MetricKind.ACCURACY)
        assert a == b

    def test_neg_loss_variant(self, trained_student):
        frozen, data = trained_student
        s = score_prefix(frozen, "", data, MetricKind.NEG_MEAN_LOSS)
        assert s <= 0.0

    def test_empty_prefix_is_the_raw_input_baseline(self, trained_student):
        """Concatenating the empty prefix is the identity on inputs."""
        frozen, data = trained_student
        preds = [predict(frozen, "", ex.text) for ex in data.examples]
        direct = evaluate(
            MetricKind.ACCURACY,
            rows(preds, data.class_count),
            data.labels(),
            class_count=data.class_count,
        )
        assert score_prefix(frozen, "", data, MetricKind.ACCURACY) == direct

    # No max_examples: the CI step reruns the oracle properties under the "bit-identity" profile (tests/conftest.py).
    @settings(deadline=None)
    @given(
        world=st.tuples(st.integers(2, 4), st.integers(2, 8), st.integers(4, 30), st.integers(0, 2**16)),
        log_dims=st.integers(1, 18),
        hash_seed=st.integers(-(2**70), 2**70),
        prefixes=st.lists(PREFIXES, min_size=1, max_size=3),
        blank_at=st.none() | st.integers(0, 2**16),
    )
    def test_batch_logits_match_the_per_example_oracle(self, world, log_dims, hash_seed, prefixes, blank_at):
        """Each row of batch_logits is within 1e-12 of _logits over
        featurize for its text alone. The weights are random, prefix tokens
        may lie outside the texts, and a text without tokens may sit
        anywhere."""
        classes, per_class, vocab, seed = world
        examples = list(synth_generate(classes, per_class, vocab, 0.2, seed).examples)
        if blank_at is not None:
            examples.insert(blank_at % (len(examples) + 1), TextExample(text=" \t ", label=0))
        dims, rng = 2**log_dims, np.random.default_rng(seed)
        frozen = dense_student(rng.standard_normal((classes, dims)), rng.standard_normal(classes), frozen=True)
        texts = [ex.text for ex in examples]
        logits = batch_logits(frozen, Featurizer(dims, hash_seed, Dataset(tuple(examples), classes)))
        for prefix in prefixes:
            expected = [oracle_logits(frozen, prefix, text, hash_seed) for text in texts]
            np.testing.assert_allclose(logits(prefix), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("blank", [[0], [4], [0, 1, 2, 3, 4]])
    def test_a_text_without_tokens_gets_only_the_bias_and_prefix_terms(self, trained_student, blank):
        """np.add.reduceat gives an empty run the next run's first column,
        so a whitespace-only text, first, last or everywhere, is checked
        on its own."""
        frozen, data = trained_student
        examples = list(data.examples[:5])
        for i in blank:
            examples[i] = TextExample(text="  \n ", label=examples[i].label)
        logits = batch_logits(frozen, Featurizer(frozen.dims, 0, Dataset(tuple(examples), data.class_count)))
        for prefix in ("", "focus here"):
            expected = [oracle_logits(frozen, prefix, ex.text, 0) for ex in examples]
            np.testing.assert_allclose(logits(prefix), expected, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(
        world=st.tuples(st.integers(2, 4), st.integers(2, 8), st.integers(4, 30), st.integers(0, 2**16)),
        log_dims=st.integers(1, 12),
        hash_seed=st.integers(-(2**31), 2**31),
        lr=st.sampled_from([0.0, 0.5]),
        train_prefix=PREFIXES,
        prefixes=st.lists(PREFIXES, min_size=1, max_size=3),
    )
    def test_scores_match_the_per_example_oracle(self, world, log_dims, hash_seed, lr, train_prefix, prefixes):
        """metrics.scorer against the reference path (featurize each example,
        then predict, or forward and loss). The two paths sum the logits in
        different orders, so neg_loss agrees within 1e-12, and accuracy and
        macro-F1 agree exactly when every example's top two reference
        logits lie more than 1e-9 apart, or the student is untrained (lr 0)
        and both paths tie every class at exactly 0."""
        classes, per_class, vocab, seed = world
        data = synth_generate(classes, per_class, vocab, 0.2, seed)
        dims = 2**log_dims
        texts = [ex.text for ex in data.examples]
        tables = Featurizer(dims, hash_seed, data)
        params, _ = train_pass(init_params(dims, classes), tables, train_prefix, lr, shuffle_seed=seed)
        frozen = freeze(params)
        for prefix in prefixes:
            top_two = np.sort([oracle_logits(frozen, prefix, text, hash_seed) for text in texts])[:, -2:]
            clear = lr == 0 or (top_two[:, 1] - top_two[:, 0]).min() > 1e-9
            for kind in MetricKind:
                got = metrics.scorer(frozen, tables, kind)(prefix)
                expected = oracle_score(frozen, prefix, data, kind, hash_seed)
                if kind is MetricKind.NEG_MEAN_LOSS:
                    assert abs(got - expected) <= 1e-12
                elif clear:
                    assert got == expected

    @pytest.mark.parametrize("dims,hash_seed", [(512, 0), (2048, 0)])
    def test_rejects_a_featurizer_that_hashes_otherwise(self, trained_student, dims, hash_seed):
        frozen, data = trained_student
        featurizer = Featurizer(dims, hash_seed, data)
        with pytest.raises(ValidationError, match="featurizer hashes with dims"):
            metrics.scorer(frozen, featurizer, MetricKind.ACCURACY)("focus here")

    def test_accepts_a_featurizer_whose_seed_is_congruent_modulo_2_64(self, trained_student):
        """Tables with seeds 3 - 2^64 and 3 score every metric alike, and as
        score_prefix with hash_seed 3 does."""
        frozen, data = trained_student
        for kind in MetricKind:
            congruent, plain = (metrics.scorer(frozen, Featurizer(1024, s, data), kind) for s in (3 - 2**64, 3))
            for prefix in ("", "focus here"):
                assert congruent(prefix) == plain(prefix) == score_prefix(frozen, prefix, data, kind, 3)


class TestInsertSorted:
    def test_insert_middle(self):
        h = PrefixHistory()
        for prefix, score in (("a", 0.3), ("b", 0.7), ("c", 0.5)):
            h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
        assert [e.score for e in h.entries] == [0.3, 0.5, 0.7]

    def test_duplicate_prefix_kept_as_is(self):
        h = insert_sorted(PrefixHistory(), ScoredPrefix(prefix="a", score=0.3))
        h2 = insert_sorted(h, ScoredPrefix(prefix="a", score=0.9))
        assert h2 == h

    def test_stable_for_ties(self):
        h = PrefixHistory()
        h = insert_sorted(h, ScoredPrefix(prefix="first", score=0.5))
        h = insert_sorted(h, ScoredPrefix(prefix="second", score=0.5))
        assert [e.prefix for e in h.entries] == ["first", "second"]

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, score):
        h = insert_sorted(PrefixHistory(), ScoredPrefix(prefix="a", score=0.3))
        with pytest.raises(ValidationError, match="'bad'"):
            insert_sorted(h, ScoredPrefix(prefix="bad", score=score))

    @settings(max_examples=1000, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(0, 50), st.floats(-1, 1, allow_nan=False)),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_full_resort_oracle(self, items):
        h = PrefixHistory()
        inserted = {}
        arrival = {}
        for i, (pid, score) in enumerate(items):
            prefix = f"p{pid}"
            h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
            if prefix not in inserted:
                inserted[prefix] = score
                arrival[prefix] = i
        # oracle: first-arrival-wins dedup, then a full stable sort by score
        expected = sorted(
            sorted(inserted, key=lambda p: arrival[p]), key=lambda p: inserted[p]
        )
        assert [e.prefix for e in h.entries] == expected
        scores = [e.score for e in h.entries]
        assert scores == sorted(scores)
        assert len({e.prefix for e in h.entries}) == len(h.entries)


def scorer(frozen, data):
    """The search's score function: a prefix's accuracy on data against frozen."""
    return metrics.scorer(frozen, Featurizer(frozen.dims, 0, data), MetricKind.ACCURACY)


def imported_parts(module) -> set[str]:
    """Every dotted part of the names a module's source imports."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return {part for name in names for part in name.split(".")}


def package_imports(module) -> set[str]:
    """The gpta modules a module's source imports, relatively or by name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "gpta"):
            name = (node.module or "").removeprefix("gpta").lstrip(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("gpta.") for alias in node.names if alias.name.startswith("gpta."))
    return found


def test_history_imports_only_errors_from_gpta():
    """The search sees the student only through the score function and the
    assistant model only through the propose function it is given."""
    assert package_imports(history) == {"errors"}


class TestSeedHistory:
    def test_empty_prefix_only(self, trained_student):
        frozen, data = trained_student
        h = seed_history(scorer(frozen, data))
        assert [e.prefix for e in h.entries] == [""]
        assert h.entries[0].origin == Origin(kind="seed")
        assert h.entries[0].score == score_prefix(frozen, "", data, MetricKind.ACCURACY)


@pytest.mark.parametrize("kind,epoch,round_", [
    ("generated", None, None),
    ("generated", 0, None),
    ("generated", 0, 1.0),
    ("generated", True, 1),
    ("seed", 0, 0),
    ("invented", None, None),
])
def test_origin_rejects_impossible_provenance(kind, epoch, round_):
    with pytest.raises(ValidationError, match="an origin is a seed, or generated at an integer epoch"):
        Origin(kind=kind, epoch=epoch, round=round_)


def seeded(frozen, data, prefixes):
    """The seed history plus the given prefixes, each scored and inserted."""
    score = scorer(frozen, data)
    h = seed_history(score)
    for prefix in prefixes:
        h = insert_sorted(h, ScoredPrefix(prefix, score(prefix)))
    return h


def small_world(seed=0, pool_size=30):
    data = synth_generate(2, 40, 60, 0.1, seed)
    p = init_params(512, 2)
    p, _ = train_pass(p, Featurizer(512, 0, data), "alpha beta", 0.1, shuffle_seed=seed)
    frozen = freeze(p)
    pool = [(f"alpha variant {i}", 1.0) for i in range(pool_size // 2)]
    pool += [(f"junk token {i}", 0.0) for i in range(pool_size - pool_size // 2)]
    ta = simulated_handle(pool, rng_seed=seed)
    return frozen, data, ta


class TestCollect:
    def test_single_round_when_all_fresh(self):
        frozen, data, ta = small_world()
        h0 = seed_history(scorer(frozen, data))
        k = len(h0) + 5
        h, rounds = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=k, l=5)
        assert len(rounds) == 1
        assert len(h) == k
        assert rounds[0].generated == 5

    def test_exact_k_after_overshoot(self):
        frozen, data, ta = small_world(seed=1)
        h0 = seed_history(scorer(frozen, data))
        h, _ = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=8, l=5)
        assert len(h) == 8

    def test_sorted_and_unique_after_collect(self):
        frozen, data, ta = small_world(seed=2)
        h0 = seed_history(scorer(frozen, data))
        h, _ = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=12, l=4)
        scores = [e.score for e in h.entries]
        assert scores == sorted(scores)
        assert len({e.prefix for e in h.entries}) == len(h)
        assert h.find("") is not None  # baseline floor survives

    def test_max_never_decreases_below_h0(self):
        frozen, data, ta = small_world(seed=3)
        h0 = seeded(frozen, data, ["alpha variant 0"])
        h, _ = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=10, l=3)
        assert h.best().score >= h0.best().score

    def test_stall_when_pool_exhausted(self):
        frozen, data, ta = small_world(seed=4, pool_size=4)
        pool_prefixes = [p for p, _ in ta.sim.pool]
        h0 = seeded(frozen, data, pool_prefixes)
        with pytest.raises(StallError):
            collect(Proposer(ta, make_mp()), scorer(frozen, data), h0,
                    k=len(h0) + 3, l=4)

    def test_k_not_above_h0_rejected(self):
        frozen, data, ta = small_world(seed=5)
        h0 = seeded(frozen, data, ["a", "b"])
        with pytest.raises(ValidationError):
            collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=3, l=2)

    def test_round_stats_consistent(self):
        frozen, data, ta = small_world(seed=6)
        h0 = seed_history(scorer(frozen, data))
        h, rounds = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=15, l=4)
        for r in rounds:
            assert 0 <= r.exceeded_max <= r.generated

    def test_deterministic_collect(self):
        outs = []
        for _ in range(2):
            frozen, data, ta = small_world(seed=7)
            h0 = seed_history(scorer(frozen, data))
            h, rounds = collect(Proposer(ta, make_mp()), scorer(frozen, data), h0, k=12, l=4)
            outs.append((h, tuple(rounds)))
        assert outs[0] == outs[1]


def scripted(replies, asked=None):
    """A propose function that returns the given rounds of candidates in
    turn, appending each call's (history prefixes, l) to asked."""
    replies = iter(replies)

    def propose(h, l):
        if asked is not None:
            asked.append(([e.prefix for e in h.entries], l))
        return next(replies)

    return propose


class TestCollectScoring:
    SCORES = {"": 0.5, "a": 0.2, "b": 0.6, "c": 0.7, "d": 0.1, "e": 0.9, "f": 0.8}

    def counting_scorer(self):
        calls = []

        def score(prefix):
            calls.append(prefix)
            return self.SCORES[prefix]

        return score, calls

    def test_scores_each_fresh_candidate_once(self):
        score, calls = self.counting_scorer()
        h0 = insert_sorted(seed_history(score), ScoredPrefix("a", self.SCORES["a"]))
        assert calls == [""]
        calls.clear()
        asked = []
        propose = scripted([["a", "b", "b", ""], ["b", "c", "a"], ["d", "c", "e", "f"]], asked)
        h, rounds = collect(propose, score, h0, k=5, l=4)
        # Known prefixes (from h0 or inserted earlier) and repeats within a round go unscored.
        assert calls == ["b", "c", "d", "e", "f"]
        assert [e.prefix for e in h.entries] == ["d", "a", "", "b", "c"]
        assert rounds == [RoundStats(4, 1), RoundStats(3, 1), RoundStats(4, 2)]
        # Each round asks for l candidates given the history as it stands.
        assert asked == [(["a", ""], 4), (["a", "", "b"], 4), (["a", "", "b", "c"], 4)]

    def test_final_round_surplus_is_scored_and_counted_but_not_inserted(self):
        """Pins current behaviour: once k entries are held, the final round's
        remaining fresh candidates are still scored, and those beating the
        pre-round best count in exceeded_max, so in improvement_rate."""
        score, calls = self.counting_scorer()
        h0 = seed_history(score)
        calls.clear()
        h, rounds = collect(scripted([["d", "e", "f"]]), score, h0, k=2, l=3)
        assert calls == ["d", "e", "f"]
        assert [e.prefix for e in h.entries] == ["d", ""]
        assert rounds == [RoundStats(3, 2)]

    @pytest.mark.parametrize("seed", range(4))
    def test_never_scores_a_prefix_in_the_history(self, seed):
        _, _, ta = small_world(seed=seed)
        table = {prefix: (i * 7919 % 101) / 101 for i, (prefix, _) in enumerate(ta.sim.pool)}
        table[""] = 0.5
        calls = Counter()

        def score(prefix):
            calls[prefix] += 1
            return table[prefix]

        h0 = insert_sorted(seed_history(score), ScoredPrefix("alpha variant 0", table["alpha variant 0"]))
        calls.clear()
        h, rounds = collect(Proposer(ta, make_mp()), score, h0, k=12, l=4)
        assert set(calls.values()) == {1}
        assert not calls.keys() & h0.prefixes()
        assert h.prefixes() - h0.prefixes() <= calls.keys()
        assert sum(r.exceeded_max for r in rounds) <= sum(calls.values())


def history_from(*pairs):
    """A history of (prefix, score) pairs, each generated at epoch 0, round 0."""
    h = PrefixHistory()
    for prefix, score in pairs:
        h = insert_sorted(h, ScoredPrefix(prefix, score, Origin(kind="generated", epoch=0, round=0)))
    return h


class TestCarryOver:
    PAIRS = (("", 0.05), ("a", 0.10), ("b", 0.20), ("c", 0.30), ("d", 0.40), ("e", 0.60), ("f", 0.70))

    @pytest.mark.parametrize("k,kept", [
        (7, ["d", "e", "f", ""]),  # best k // 2 = 3, plus the baseline
        (4, ["e", "f", ""]),  # best k // 2 = 2, plus the baseline
        (3, ["f", ""]),  # best k - 2 = 1, plus the baseline
    ])
    def test_a_full_history_keeps_its_best_and_the_baseline(self, k, kept):
        h = history_from(*self.PAIRS)
        carried = carry_over(h, lambda prefix: dict(self.PAIRS)[prefix], k)
        assert [e.prefix for e in carried.entries] == sorted(kept, key=dict(self.PAIRS).get)
        assert len(carried) < k

    def test_the_baseline_is_not_added_twice(self):
        h = history_from(("a", 0.1), ("", 0.8), ("b", 0.9))
        carried = carry_over(h, lambda prefix: {"": 0.8, "a": 0.1, "b": 0.9}[prefix], 3)
        assert [e.prefix for e in carried.entries] == ["", "b"]

    def test_a_short_history_is_kept_whole(self):
        h = history_from(*self.PAIRS[:4])
        carried = carry_over(h, lambda prefix: dict(self.PAIRS)[prefix], 5)
        assert carried.prefixes() == h.prefixes()

    def test_every_entry_is_rescored_once_and_resorted(self):
        h = history_from(*self.PAIRS)
        calls = []

        def score(prefix):
            calls.append(prefix)
            return -dict(self.PAIRS)[prefix]  # the order reverses

        carried = carry_over(h, score, 8)
        assert sorted(calls) == sorted(h.prefixes())
        assert [e.prefix for e in carried.entries] == [e.prefix for e in reversed(h.entries)]
        assert [e.score for e in carried.entries] == [score(e.prefix) for e in carried.entries]
        assert {e.prefix: e.origin for e in carried.entries} == {e.prefix: e.origin for e in h.entries}

    def test_equal_scores_keep_their_order(self):
        h = history_from(*self.PAIRS)
        carried = carry_over(h, lambda prefix: 0.5, 8)
        assert [e.prefix for e in carried.entries] == [e.prefix for e in h.entries]
        carried = carry_over(h, lambda prefix: 0.5, 7)  # the baseline is re-added last
        assert [e.prefix for e in carried.entries] == ["d", "e", "f", ""]

    def test_k_2_carries_only_the_baseline(self):
        """At k=2, k - 2 = 0 entries are carried: a slice from -0 would keep all."""
        h = history_from(("", 0.5), ("a", 0.9))
        carried = carry_over(h, lambda prefix: 0.3, 2)
        assert [(e.prefix, e.score) for e in carried.entries] == [("", 0.3)]
        assert carried.entries[0].origin == Origin(kind="generated", epoch=0, round=0)
