from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gpta import (
    ChatMessage,
    MetaPrompt,
    Proposer,
    ProtocolError,
    ScoredPrefix,
    SimState,
    TextExample,
    ValidationError,
    finetune,
    generate,
    parse_prefixes,
    render_generation_request,
    serialize_jsonl,
    simulated_handle,
    softmax_pool_mass,
)
from gpta.dialogue_gradient import FinetuneExample
from gpta.history import PrefixHistory, insert_sorted
from gpta.rng import Stream
from gpta.ta import SimulatedTA, render_history_lines, render_system_content


def make_mp(with_exemplars=False):
    return MetaPrompt(
        instruction="Propose useful prefixes.",
        name="toy",
        task_summary="Classify each input into one of 2 classes.",
        label_semantics=("0: negative", "1: positive"),
        exemplars=(TextExample("great stuff", 1), TextExample("awful", 0)) if with_exemplars else (),
    )


def history_of(*pairs):
    h = PrefixHistory()
    for prefix, score in pairs:
        h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
    return h


class TestRendering:
    def test_empty_history_asks_for_one(self):
        msgs = render_generation_request(make_mp(), PrefixHistory(), 1)
        assert [m.role for m in msgs] == ["system", "user"]
        assert "PREFIX:" not in msgs[1].content
        assert "exactly 1 new prefix" in msgs[1].content

    def test_history_rendered_ascending(self):
        h = history_of(("high scorer", 0.7), ("low scorer", 0.3))
        msgs = render_generation_request(make_mp(), h, 2)
        body = msgs[1].content
        assert body.index("low scorer") < body.index("high scorer")
        assert "PREFIX: low scorer | SCORE: 0.3000" in body
        assert "PREFIX: high scorer | SCORE: 0.7000" in body

    def test_rendering_deterministic(self):
        h = history_of(("a", 0.1), ("b", 0.2))
        one = render_generation_request(make_mp(True), h, 3)
        two = render_generation_request(make_mp(True), h, 3)
        assert one == two

    def test_temperature_is_checked_where_it_is_used(self):
        """The request text holds no temperature, so rendering takes none."""
        with pytest.raises(TypeError):
            render_generation_request(make_mp(), PrefixHistory(), 1, 1.0)
        request = render_generation_request(make_mp(), PrefixHistory(), 1)
        with pytest.raises(ValidationError, match=r"^temperature must be >= 0, got -1.0$"):
            generate(simulated_handle([("a", 0.0)]), request, 1, -1.0)

    def test_exemplars_rendered_in_system(self):
        msgs = render_generation_request(make_mp(True), PrefixHistory(), 1)
        assert "EXEMPLARS:" in msgs[0].content
        assert "great stuff→1" in msgs[0].content

    def test_no_exemplar_block_when_empty(self):
        msgs = render_generation_request(make_mp(), PrefixHistory(), 1)
        assert "EXEMPLARS:" not in msgs[0].content

    def test_truncates_to_best_sixty(self):
        h = history_of(*((f"p{i}", i / 100.0) for i in range(80)))
        msgs = render_generation_request(make_mp(), h, 1)
        assert msgs[1].content.count("PREFIX:") == 60
        assert "PREFIX: p79 | SCORE: 0.7900" in msgs[1].content
        assert "PREFIX: p10 | SCORE:" not in msgs[1].content

    def test_nondecreasing_line_scores(self):
        h = history_of(("x", 0.5), ("y", 0.1), ("z", 0.5), ("w", 0.9))
        lines = render_history_lines(h.entries)
        scores = [float(line.rsplit("SCORE: ", 1)[1]) for line in lines]
        assert scores == sorted(scores)


class TestParsePrefixes:
    def test_numbered_list(self):
        text = "1. Think step by step\n2. Focus on sentiment"
        assert parse_prefixes(text, 2) == ["Think step by step", "Focus on sentiment"]

    def test_bullets_and_quotes(self):
        text = '- "Mind the tone"\n* `Check keywords`\n'
        assert parse_prefixes(text, 5) == ["Mind the tone", "Check keywords"]

    def test_duplicates_collapse(self):
        assert parse_prefixes("same line\nsame line\nother", 5) == ["same line", "other"]

    def test_word_cap(self):
        text = "one two three four five six seven eight nine ten eleven twelve"
        assert parse_prefixes(text, 1) == ["one two three four five six seven eight nine ten"]

    def test_truncates_to_l(self):
        assert parse_prefixes("a\nb\nc\nd", 2) == ["a", "b"]

    def test_whitespace_only_errors(self):
        with pytest.raises(ProtocolError):
            parse_prefixes("   \n\t\n", 3)

    def test_line_that_is_not_utf8_dropped(self):
        # A reply's JSON can carry a lone surrogate, which featurize could not encode.
        assert parse_prefixes("focus \ud800\nlook closely", 2) == ["look closely"]
        with pytest.raises(ProtocolError):
            parse_prefixes("focus \ud800", 1)


class TestChatMessage:
    def test_lone_surrogate_rejected(self):
        with pytest.raises(ValidationError, match="chat message content must encode as UTF-8"):
            ChatMessage("user", "ok \udc80")


def draws(h, l, count):
    """`count` successive generate calls, each on the handle the last returned."""
    out = []
    for _ in range(count):
        prefixes, h = generate(h, [], l, 1.0)
        out.append(prefixes)
    return out


class TestSimulatedGenerate:
    def test_full_pool_when_l_equals_size(self):
        pool = [(f"p{i}", 0.0) for i in range(6)]
        h = simulated_handle(pool, rng_seed=1)
        out, _ = generate(h, [], 6, 1.0)
        assert sorted(out) == sorted(p for p, _ in pool)

    def test_l_larger_than_pool_clamps(self):
        h = simulated_handle([("only", 0.0), ("two", 0.0)], rng_seed=1)
        assert len(generate(h, [], 10, 1.0)[0]) == 2

    def test_heavy_weight_dominates(self):
        pool = [("favored", 10.0)] + [(f"p{i}", 0.0) for i in range(39)]
        h = simulated_handle(pool, rng_seed=3)
        hits = sum(prefixes[0] == "favored" for prefixes in draws(h, 1, 100))
        assert hits >= 95

    def test_deterministic_across_runs(self):
        pool = [(f"p{i}", float(i % 3)) for i in range(10)]
        a = simulated_handle(pool, rng_seed=42)
        b = simulated_handle(pool, rng_seed=42)
        assert draws(a, 4, 5) == draws(b, 4, 5)

    def test_calls_advance_state(self):
        """generate leaves its handle as it was and returns one whose
        counter is one higher, which draws anew."""
        h = simulated_handle([(f"p{i}", 0.0) for i in range(10)], rng_seed=7)
        first, after = generate(h, [], 3, 1.0)
        assert h.sim.calls == 0 and after.sim.calls == 1
        assert generate(h, [], 3, 1.0) == (first, after)
        second, _ = generate(after, [], 3, 1.0)
        assert first != second  # overwhelmingly likely under distinct draws

    def test_temperature_zero_is_greedy(self):
        pool = [("low", 0.0), ("high", 5.0), ("mid", 2.0)]
        h = simulated_handle(pool, rng_seed=0)
        assert generate(h, [], 2, 0.0)[0] == ["high", "mid"]

    def test_temperature_that_underflows_the_scale_is_greedy(self):
        """A temperature times temperature_scale that rounds to 0 takes the
        greedy limit, as temperature 0 does, rather than dividing by zero."""
        pool = [("low", -1.0), ("zero", 0.0), ("high", 5.0), ("mid", 2.0), ("tie", 2.0)]
        h = simulated_handle(pool, rng_seed=0, temperature_scale=1e-200)
        assert generate(h, [], 5, 1e-200)[0] == generate(h, [], 5, 0.0)[0] == ["high", "mid", "tie", "zero", "low"]

    def test_proposer_is_generate_on_the_rendered_request(self):
        """The proposer asks the handle the last call returned, and holds
        it; the handle it started from is left unchanged."""
        pool = [(f"p{i}", float(i % 3)) for i in range(10)]
        a, b = simulated_handle(pool, rng_seed=5), simulated_handle(pool, rng_seed=5)
        propose = Proposer(a, make_mp(), 0.5)
        h = history_of(("p1", 0.2))
        for l in (1, 3):
            expected, b = generate(b, render_generation_request(make_mp(), h, l), l, 0.5)
            assert propose(h, l) == expected
        assert propose.handle == b and b.sim.calls == 2 and a.sim.calls == 0
        with pytest.raises(ValidationError, match="l must be >= 1"):
            propose(h, 0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            simulated_handle([])

    def test_duplicate_pool_prefix_rejected(self):
        with pytest.raises(ValidationError):
            simulated_handle([("a", 0.0), ("a", 1.0)])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_pool_weight_rejected(self, weight):
        with pytest.raises(ValidationError, match="non-finite pool weight for 'a'"):
            simulated_handle([("a", weight), ("b", 0.0)])

    def test_nonpositive_temperature_scale_rejected(self):
        with pytest.raises(ValidationError, match="temperature_scale must be positive"):
            SimState([("a", 0.0)], temperature_scale=0)


def numpy_ranked(state, l, temperature):
    """The prefixes SimulatedTA.generate returned when it ranked the pool
    with numpy: keys in a float64 array, ordered by a stable argsort."""
    n = len(state.pool)
    weights = np.array([w for _, w in state.pool], dtype=np.float64)
    if temperature == 0.0:
        order = np.argsort(-weights, kind="stable")
    else:
        with np.errstate(over="ignore"):  # a weight over a tiny scale is +-inf, in Python floats too
            keys = weights / (state.temperature_scale * temperature) + Stream((state.rng_seed, state.calls)).gumbel(n)
        order = np.argsort(-keys, kind="stable")
    return [state.pool[i][0] for i in order[: min(l, n)]]


POSITIVE = st.floats(min_value=1e-300, max_value=1e6) | st.sampled_from([1.0, 0.5, 2.0])


@given(
    weights=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]) | st.floats(-1e300, 1e300), min_size=1, max_size=70),
    seed=st.integers(0, 2**64),
    calls=st.integers(0, 2**32),
    temperature_scale=POSITIVE,
    temperature=st.just(0.0) | POSITIVE,
    l=st.integers(1, 80),
)
def test_simulated_generate_is_bit_identical_to_the_numpy_argsort_formula(
    weights, seed, calls, temperature_scale, temperature, l
):
    """Tied weights keep pool order, and a weight over a tiny scale
    overflows to +-inf, in both; a scale that underflows to 0 is the greedy
    limit (test_temperature_that_underflows_the_scale_is_greedy)."""
    assume(temperature == 0.0 or temperature_scale * temperature > 0.0)
    state = SimState([(f"p{i}", w) for i, w in enumerate(weights)], seed, temperature_scale, calls)
    got, after = generate(SimulatedTA(state), [], l, temperature)
    assert got == numpy_ranked(state, l, temperature)
    assert after.sim == replace(state, calls=calls + 1)


def finetune_file(targets):
    mp = make_mp()
    sys_msg = render_system_content(mp)
    examples = [
        FinetuneExample(
            messages=(
                ChatMessage("system", sys_msg),
                ChatMessage("user", "PREFIX: a | SCORE: 0.1000"),
                ChatMessage("assistant", t),
            )
        )
        for t in targets
    ]
    return serialize_jsonl(examples)


class TestSimulatedFinetune:
    def test_weight_bump_per_occurrence(self):
        pool = [("Focus on keywords", 0.0), ("other", 0.0)]
        h = simulated_handle(pool, rng_seed=0)
        targets = ["Focus on keywords"] * 5
        new = finetune(h, finetune_file(targets), targets)
        weights = dict(new.sim.pool)
        assert weights["Focus on keywords"] == pytest.approx(5.0)
        assert weights["other"] == 0.0

    def test_generation_increments(self):
        h = simulated_handle([("a", 0.0)], rng_seed=0)
        new = finetune(h, finetune_file(["a"]), ["a"])
        assert new.generation == h.generation + 1 == 1

    def test_absent_target_inserted(self):
        h = simulated_handle([("a", 0.0)], rng_seed=0)
        new = finetune(h, finetune_file(["brand new prefix"]), ["brand new prefix"])
        assert ("brand new prefix", 1.0) in new.sim.pool

    def test_target_mass_strictly_increases(self):
        pool = [(f"good{i}", 2.0) for i in range(5)] + [(f"bad{i}", 0.0) for i in range(15)]
        h = simulated_handle(pool, rng_seed=0)
        targets = [f"good{i}" for i in range(5)]
        before = softmax_pool_mass(h.sim, targets)
        new = finetune(h, finetune_file(targets * 3), targets * 3)
        after = softmax_pool_mass(new.sim, targets)
        assert after > before

    def test_empty_targets_rejected(self):
        h = simulated_handle([("a", 0.0)], rng_seed=0)
        with pytest.raises(ValidationError, match="^finetune needs at least one target$"):
            finetune(h, finetune_file(["a"]), [])

    def test_input_handle_unchanged(self):
        h = simulated_handle([("a", 0.0), ("b", 0.0)], rng_seed=0)
        new = finetune(h, finetune_file(["a", "brand new prefix"]), ["a", "brand new prefix"])
        assert h.sim.pool == [("a", 0.0), ("b", 0.0)]
        assert h.generation == 0
        assert new.sim.pool == [("a", 1.0), ("b", 0.0), ("brand new prefix", 1.0)]
