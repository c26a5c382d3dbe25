import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import (
    MetricKind,
    PrefixHistory,
    ScoredPrefix,
    StallError,
    StateError,
    ValidationError,
    collect,
    freeze,
    init_params,
    insert_sorted,
    score_prefix,
    seed_history,
    simulated_handle,
    synth_generate,
    train_pass,
    unfreeze,
)
from gpta.history import Origin

from test_ta import make_mp


@pytest.fixture(scope="module")
def trained_student():
    data = synth_generate(2, 60, 80, 0.1, 3)
    p = init_params(1024, 2)
    p, _ = train_pass(p, data, "focus here", 0.1, shuffle_seed=2)
    return freeze(p), data


class TestScorePrefix:
    def test_zero_params_all_class_zero(self):
        d = synth_generate(2, 10, 40, 0.0, 1)
        labels_zero = [ex for ex in d.examples if ex.label == 0]
        from gpta.dataset import Dataset

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
        from gpta import evaluate, predict

        frozen, data = trained_student
        direct = evaluate(
            MetricKind.ACCURACY,
            [predict(frozen, "", ex.text) for ex in data.examples],
            data.labels(),
            class_count=data.class_count,
        )
        assert score_prefix(frozen, "", data, MetricKind.ACCURACY) == direct


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


class TestSeedHistory:
    def test_empty_prefix_only(self, trained_student):
        frozen, data = trained_student
        h = seed_history(frozen, data, MetricKind.ACCURACY)
        assert [e.prefix for e in h.entries] == [""]
        assert h.entries[0].origin == Origin(kind="seed")


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
    h = seed_history(frozen, data, MetricKind.ACCURACY)
    for prefix in prefixes:
        h = insert_sorted(h, ScoredPrefix(prefix, score_prefix(frozen, prefix, data, MetricKind.ACCURACY)))
    return h


def small_world(seed=0, pool_size=30):
    data = synth_generate(2, 40, 60, 0.1, seed)
    p = init_params(512, 2)
    p, _ = train_pass(p, data, "alpha beta", 0.1, shuffle_seed=seed)
    frozen = freeze(p)
    pool = [(f"alpha variant {i}", 1.0) for i in range(pool_size // 2)]
    pool += [(f"junk token {i}", 0.0) for i in range(pool_size - pool_size // 2)]
    ta = simulated_handle(pool, rng_seed=seed)
    return frozen, data, ta


class TestCollect:
    def test_single_round_when_all_fresh(self):
        frozen, data, ta = small_world()
        h0 = seed_history(frozen, data, MetricKind.ACCURACY)
        k = len(h0) + 5
        h, rounds = collect(
            ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=k, l=5
        )
        assert len(rounds) == 1
        assert len(h) == k
        assert rounds[0].generated == 5

    def test_exact_k_after_overshoot(self):
        frozen, data, ta = small_world(seed=1)
        h0 = seed_history(frozen, data, MetricKind.ACCURACY)
        h, _ = collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=8, l=5)
        assert len(h) == 8

    def test_sorted_and_unique_after_collect(self):
        frozen, data, ta = small_world(seed=2)
        h0 = seed_history(frozen, data, MetricKind.ACCURACY)
        h, _ = collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=12, l=4)
        scores = [e.score for e in h.entries]
        assert scores == sorted(scores)
        assert len({e.prefix for e in h.entries}) == len(h)
        assert h.find("") is not None  # baseline floor survives

    def test_max_never_decreases_below_h0(self):
        frozen, data, ta = small_world(seed=3)
        h0 = seeded(frozen, data, ["alpha variant 0"])
        h, _ = collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=10, l=3)
        assert h.best().score >= h0.best().score

    def test_stall_when_pool_exhausted(self):
        frozen, data, ta = small_world(seed=4, pool_size=4)
        pool_prefixes = [p for p, _ in ta.sim.pool]
        h0 = seeded(frozen, data, pool_prefixes)
        with pytest.raises(StallError):
            collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0,
                    k=len(h0) + 3, l=4)

    def test_k_not_above_h0_rejected(self):
        frozen, data, ta = small_world(seed=5)
        h0 = seeded(frozen, data, ["a", "b"])
        with pytest.raises(ValidationError):
            collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=3, l=2)

    def test_round_stats_consistent(self):
        frozen, data, ta = small_world(seed=6)
        h0 = seed_history(frozen, data, MetricKind.ACCURACY)
        h, rounds = collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY, h0, k=15, l=4)
        for r in rounds:
            assert 0 <= r.exceeded_max <= r.generated

    def test_deterministic_collect(self):
        outs = []
        for _ in range(2):
            frozen, data, ta = small_world(seed=7)
            h0 = seed_history(frozen, data, MetricKind.ACCURACY)
            h, rounds = collect(ta, make_mp(), frozen, data, MetricKind.ACCURACY,
                                h0, k=12, l=4)
            outs.append((h, tuple(rounds)))
        assert outs[0] == outs[1]
