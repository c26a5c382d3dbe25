import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import (
    ChatMessage,
    MetaPrompt,
    ParseError,
    ScoredPrefix,
    TextExample,
    ValidationError,
    build_windows,
    cap,
    enrich,
    parse_jsonl,
    render_generation_request,
    serialize_jsonl,
)
from gpta.dialogue_gradient import FinetuneExample
from gpta.history import PrefixHistory, insert_sorted

GOLDEN = Path(__file__).parent / "data" / "golden_gradients.jsonl"

# Non-empty message contents rich in the characters str.splitlines() breaks at,
# drawn from the text ChatMessage accepts: no lone surrogates (category Cs).
LINE_BREAK_TEXT = st.text(
    st.sampled_from("ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    | st.characters(exclude_categories=("Cs",)),
    min_size=1,
)


def history_of_scores(scores, prefix_fmt="p{i}"):
    h = PrefixHistory()
    for i, s in enumerate(sorted(scores)):
        h = insert_sorted(h, ScoredPrefix(prefix=prefix_fmt.format(i=i), score=s))
    return h


def golden_inputs():
    entries = [
        ("", 0.10), ("noise words", 0.20), ("check twice", 0.30),
        ("mind the gap", 0.40), ("look closely", 0.55), ("focus intently", 0.70),
        ("weigh the evidence", 0.85), ("café visé", 0.90),
    ]
    h = PrefixHistory()
    for p, s in entries:
        h = insert_sorted(h, ScoredPrefix(prefix=p, score=s))
    mp = MetaPrompt(
        instruction="Propose useful prefixes.",
        name="toy",
        task_summary="Classify each input into one of 2 classes.",
        label_semantics=("0: negative", "1: positive"),
        exemplars=(TextExample("great stuff", 1),),
    )
    return h, mp


class TestBuildWindows:
    def test_seven_entries_window_five(self):
        h = history_of_scores([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        gs = build_windows(h, 5)
        assert len(gs) == 2
        assert gs[0].target == h.entries[5].prefix
        assert gs[1].target == h.entries[6].prefix

    def test_fifty_entries_window_five_yields_45(self):
        h = history_of_scores([i / 100 for i in range(50)])
        assert len(build_windows(h, 5)) == 45

    def test_boundary_single_window_targets_best(self):
        h = history_of_scores([0.1, 0.2, 0.3, 0.4, 0.5, 0.9])
        gs = build_windows(h, 5)
        assert len(gs) == 1
        assert gs[0].target == h.entries[-1].prefix

    def test_too_short_history_rejected(self):
        h = history_of_scores([0.1, 0.2])
        with pytest.raises(ValidationError):
            build_windows(h, 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_count_contiguity_dominance(self, data):
        n = data.draw(st.integers(2, 200))
        w = data.draw(st.integers(1, n - 1))
        h = history_of_scores(
            data.draw(
                st.lists(
                    st.floats(0, 1, allow_nan=False), min_size=n, max_size=n
                )
            )
        )
        n = len(h)  # score collisions can dedupe nothing here; prefixes unique
        gs = build_windows(h, w)
        assert len(gs) == n - w
        for i, g in enumerate(gs):
            assert g.window == h.entries[i : i + w]  # window i starts at entry i
            assert len(g.window) == w
            # target dominates its window
            assert all(
                h.find(g.target).score >= e.score for e in g.window
            )
            # windows slide by exactly one entry
            if i:
                assert gs[i - 1].window[1:] == g.window[:-1]


class TestEnrich:
    def test_empty_list(self):
        _, mp = golden_inputs()
        assert enrich([], mp) == []

    def test_system_matches_generation_request(self):
        h, mp = golden_inputs()
        examples = enrich(build_windows(h, 5), mp)
        request = render_generation_request(mp, h, 3, 1.0)
        for ex in examples:
            assert ex.messages[0].content == request[0].content

    def test_assistant_is_bare_prefix(self):
        h, mp = golden_inputs()
        for ex in enrich(build_windows(h, 5), mp):
            assert "SCORE" not in ex.messages[2].content
            assert ex.messages[2].role == "assistant"

    def test_empty_target_skipped(self):
        _, mp = golden_inputs()
        h = PrefixHistory()
        # empty prefix lands at the top, so the last window targets it
        for prefix, score in (("a", 0.1), ("b", 0.2), ("", 0.9)):
            h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
        gs = build_windows(h, 2)
        examples = enrich(gs, mp)
        assert len(examples) == len(gs) - 1


class TestCap:
    def _examples(self, n):
        h, mp = golden_inputs()
        base = enrich(build_windows(h, 5), mp)[0]
        return [
            FinetuneExample(
                messages=(
                    base.messages[0],
                    base.messages[1],
                    ChatMessage("assistant", f"target {i}"),
                )
            )
            for i in range(n)
        ]

    def test_under_cap_keeps_all(self):
        ex = self._examples(45)
        assert cap(ex, 50) == ex

    def test_keeps_last(self):
        ex = self._examples(45)
        kept = cap(ex, 10)
        assert kept == ex[35:]

    def test_default_cap_is_50(self):
        ex = self._examples(60)
        assert len(cap(ex)) == 50


class TestWireFormat:
    def test_golden_bytes(self):
        h, mp = golden_inputs()
        data = serialize_jsonl(enrich(build_windows(h, 5), mp))
        assert data == GOLDEN.read_bytes()

    def test_round_trip_identity(self):
        golden = GOLDEN.read_bytes()
        assert serialize_jsonl(parse_jsonl(golden)) == golden

    def test_single_example_single_line(self):
        h, mp = golden_inputs()
        examples = enrich(build_windows(h, 5), mp)[:1]
        data = serialize_jsonl(examples)
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert [m["role"] for m in parsed["messages"]] == ["system", "user", "assistant"]

    def test_embedded_newlines_escaped(self):
        h, mp = golden_inputs()
        examples = enrich(build_windows(h, 5), mp)
        data = serialize_jsonl(examples)
        # system content has real newlines; the file still has 1 line/example
        assert data.count(b"\n") == len(examples)
        assert b"\\n" in data

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            serialize_jsonl([])

    @pytest.mark.parametrize("bad,message", [
        (b'{"messages":[{"role":"system","content":"x"}]}\n', "line 1: expected exactly 3 messages"),
        (b'{"messages":[\n', "line 1: invalid JSON"),
        (b"[1, 2]\n", "line 1: expected a JSON object"),
    ], ids=["wrong-message-count", "not-json", "not-object"])
    def test_parse_rejects_malformed_line(self, bad, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_jsonl(bad)

    @settings(max_examples=50, deadline=None)
    @given(contents=st.lists(st.lists(LINE_BREAK_TEXT, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_parse_inverts_serialize(self, contents):
        examples = [
            FinetuneExample(messages=tuple(ChatMessage(role, c) for role, c in zip(("system", "user", "assistant"), cs)))
            for cs in contents
        ]
        assert parse_jsonl(serialize_jsonl(examples)) == examples
