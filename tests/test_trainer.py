import ast
import dataclasses
import json
import logging
import re
import resource
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gpta import (
    RunConfig,
    ValidationError,
    featurize,
    improvement_rate,
    init_params,
    parse_jsonl,
    run,
    save_checkpoint,
    synth_generate,
    write_jsonl,
)
from gpta import metrics as metrics_mod
from gpta import student as student_mod
from gpta import ta as ta_mod
from gpta import trainer as trainer_mod
from gpta.history import Origin, RoundStats
from gpta.trainer import (
    config_to_json,
    init_state,
    prepare,
    run_epoch,
    state_from_json,
    state_to_json,
)
from gpta.student import DEFAULT_DIMS

from conftest import dense_student, one_epoch_state
from test_history import imported_parts


class TestImprovementRate:
    def test_zero_and_one(self):
        assert improvement_rate([RoundStats(8, 0)]) == 0.0
        assert improvement_rate([RoundStats(8, 8)]) == 1.0

    def test_weighted_across_rounds(self):
        rounds = [RoundStats(8, 2), RoundStats(8, 1)]
        assert improvement_rate(rounds) == pytest.approx(3 / 16)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            improvement_rate([])


CONFIG_ERRORS = {
    "not-object": ([], "config must be a JSON object"),
    "no-data-path": ({}, "missing required config key $.data_path"),
    "unknown-key": ({"data_path": "x", "ww": 5}, "unknown config key $.ww"),
    "str": ({"data_path": "x", "metric": 1}, "$.metric: expected string, got int"),
    "int": ({"data_path": "x", "k": "fifty"}, "$.k: expected integer, got str"),
    "int-not-float": ({"data_path": "x", "k": 5.0}, "$.k: expected integer, got float"),
    "int-not-bool": ({"data_path": "x", "k": True}, "$.k: expected integer, got bool"),
    "float": ({"data_path": "x", "lr": "0.1"}, "$.lr: expected number, got str"),
    "float-not-bool": ({"data_path": "x", "lr": False}, "$.lr: expected number, got bool"),
    "fractions-short": (
        {"data_path": "x", "split_fractions": [0.8, 0.2]},
        "$.split_fractions: expected a list of three numbers",
    ),
    "fractions-not-list": (
        {"data_path": "x", "split_fractions": 0.8},
        "$.split_fractions: expected a list of three numbers",
    ),
    "fractions-item": (
        {"data_path": "x", "split_fractions": [0.8, "a", 0.1]},
        "$.split_fractions[1]: expected number, got str",
    ),
    "strings-not-list": (
        {"data_path": "x", "label_semantics": "a"},
        "$.label_semantics: expected a list of strings",
    ),
    "strings-item": (
        {"data_path": "x", "label_semantics": ["a", 3]},
        "$.label_semantics[1]: expected string, got int",
    ),
    "pool-not-list": ({"data_path": "x", "sim_pool": "a"}, "$.sim_pool: expected a list"),
    "pool-item": (
        {"data_path": "x", "sim_pool": ["a", 3]},
        "$.sim_pool[1]: expected a string or [prefix, weight] pair",
    ),
    "pool-triple": (
        {"data_path": "x", "sim_pool": [["a", 1.0, 2.0]]},
        "$.sim_pool[0]: expected a string or [prefix, weight] pair",
    ),
    "pool-prefix": (
        {"data_path": "x", "sim_pool": [[3, 1.0]]},
        "$.sim_pool[0][0]: expected string, got int",
    ),
    "pool-weight": (
        {"data_path": "x", "sim_pool": [["a", "b"]]},
        "$.sim_pool[0][1]: expected number, got str",
    ),
    "lr-nan": ({"data_path": "x", "lr": float("nan")}, "$.lr: expected a finite number, got nan"),
    "temperature-inf": (
        {"data_path": "x", "temperature": float("inf")},
        "$.temperature: expected a finite number, got inf",
    ),
    "fractions-nan": (
        {"data_path": "x", "split_fractions": [0.8, float("nan"), 0.1]},
        "$.split_fractions[1]: expected a finite number, got nan",
    ),
    "pool-weight-inf": (
        {"data_path": "x", "sim_pool": [["a", float("-inf")]], "k": 2, "w": 1},
        "$.sim_pool[0][1]: expected a finite number, got -inf",
    ),
    "unreachable-k": (
        {"data_path": "x", "k": 14},
        "k=14 is unreachable: the simulated backend knows only 13 distinct prefixes "
        "(those of sim_pool and the empty prefix)",
    ),
    "lr-negative": ({"data_path": "x", "lr": -1}, "lr must be >= 0, got -1.0"),
    "request-timeout-zero": (
        {"data_path": "x", "request_timeout_s": 0}, "request_timeout_s must be > 0, got 0.0"
    ),
    "retry-backoff-negative": (
        {"data_path": "x", "retry_backoff_s": -0.5}, "retry_backoff_s must be >= 0, got -0.5"
    ),
    "poll-interval-negative": (
        {"data_path": "x", "poll_interval_s": -1}, "poll_interval_s must be >= 0, got -1.0"
    ),
    "finetune-timeout-negative": (
        {"data_path": "x", "finetune_timeout_s": -1}, "finetune_timeout_s must be >= 0, got -1.0"
    ),
    "epochs-zero": ({"data_path": "x", "epochs": 0}, "epochs must be >= 1, got 0"),
    "w-zero": ({"data_path": "x", "w": 0}, "w must be >= 1, got 0"),
    "l-zero": ({"data_path": "x", "l": 0}, "l must be >= 1, got 0"),
    "temperature-negative": ({"data_path": "x", "temperature": -1}, "temperature must be >= 0, got -1.0"),
    "finetune-cap-zero": ({"data_path": "x", "finetune_cap": 0}, "finetune_cap must be >= 1, got 0"),
    "exemplar-count-negative": ({"data_path": "x", "exemplar_count": -1}, "exemplar_count must be >= 0, got -1"),
    "exemplar-count-past-cap": ({"data_path": "x", "exemplar_count": 9}, "exemplar_count must be <= 8, got 9"),
    "sim-temperature-scale-zero": (
        {"data_path": "x", "sim_temperature_scale": 0}, "sim_temperature_scale must be > 0, got 0.0"
    ),
    "metric-unknown": (
        {"data_path": "x", "metric": "f1"}, "unknown metric 'f1'; expected one of ['accuracy', 'macro_f1', 'neg_loss']"
    ),
    "ta-backend-unknown": (
        {"data_path": "x", "ta_backend": "local"}, "unknown ta_backend 'local'; expected one of ['simulated', 'remote']"
    ),
    "ta-lineage-unknown": (
        {"data_path": "x", "ta_lineage": "fresh"},
        "unknown ta_lineage 'fresh'; expected one of ['continual', 'from_base']",
    ),
    "remote-without-base-url": (
        {"data_path": "x", "ta_backend": "remote", "base_url": ""}, "remote backend requires base_url and model_id"
    ),
    "remote-without-model-id": (
        {"data_path": "x", "ta_backend": "remote", "model_id": ""}, "model_id and base_model_id must be non-empty"
    ),
    "remote-base-url-without-scheme": (
        {"data_path": "x", "ta_backend": "remote", "base_url": "api.openai.com"},
        "base_url must be an absolute http or https URL with a host, got 'api.openai.com'",
    ),
    "remote-base-url-bad-port": (
        {"data_path": "x", "ta_backend": "remote", "base_url": "http://localhost:port"},
        "base_url must be an absolute http or https URL with a host, got 'http://localhost:port'",
    ),
    "dims-not-power-of-two": ({"data_path": "x", "dims": 12}, "dims must be a power of two in [2, 16777216], got 12"),
    "dims-past-max": (
        {"data_path": "x", "dims": 2**25}, "dims must be a power of two in [2, 16777216], got 33554432"
    ),
    "lone-surrogate": (
        {"data_path": "x", "sim_pool": ["ok", "bad \ud800"]},
        "$.sim_pool[1][0]: expected a string that encodes as UTF-8",
    ),
    "empty-data-path": ({"data_path": ""}, "$.data_path: expected a non-empty path"),
}


LIMIT_SIGNS = {"min": ">=", "gt": ">", "max": "<="}
PROSE = object()


def readme_config_rows() -> list[tuple[list[str], str, str]]:
    """(keys, default cell, whole row) for each row of README's Configuration table."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = []
    for row in section.splitlines():
        if row.startswith("| `"):
            key_cell, default_cell = row.split(" | ", 2)[:2]
            rows.append((re.findall(r"`(\w+)`", key_cell), default_cell, row))
    return rows


def readme_literal(text: str):
    """The value a default cell states: JSON, or a backticked word such as
    `gpt-3.5-turbo`; PROSE for a description such as "built-in pool"."""
    code = re.fullmatch(r"`(.*)`", text)
    try:
        return json.loads(code[1] if code else text)
    except json.JSONDecodeError:
        return code[1] if code else PROSE


class TestConfig:
    def test_defaults(self, desk_dataset_path):
        cfg = RunConfig.from_dict({"data_path": str(desk_dataset_path)})
        assert cfg.k == 9
        assert cfg.w == 5
        assert cfg.epochs == 5
        assert cfg.temperature == 1.0
        assert cfg.finetune_cap == 50
        assert cfg.l == 8

    def test_w_must_be_below_k(self):
        with pytest.raises(ValidationError, match="w < k"):
            RunConfig.from_dict({"data_path": "x.jsonl", "w": 50, "k": 50})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match=r"\$\.ww"):
            RunConfig.from_dict({"data_path": "x.jsonl", "ww": 5})

    def test_type_mismatch_names_path(self):
        with pytest.raises(ValidationError, match=r"\$\.k"):
            RunConfig.from_dict({"data_path": "x.jsonl", "k": "fifty"})

    @pytest.mark.parametrize("field,value", [
        ("instruction", "hi \ud800"),
        ("task_summary", "\udcff"),
        ("label_semantics", ("0: a", "1: b \ud800")),
        ("sim_pool", tuple((f"p{i}", 0.0) for i in range(19)) + (("lone \ud800 prefix", 1.0),)),
    ])
    def test_a_string_that_does_not_encode_as_utf8_is_refused(self, desk_config, tmp_path, field, value):
        """Such a string could not be written to config.json, so the run
        would crash after creating its directory."""
        with pytest.raises(ValidationError, match=rf"^\$\.{field}(\[\d+\])*: expected a string that encodes as UTF-8$"):
            run(desk_config(**{field: value}), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,value", [
        ("data_path", Path("x.jsonl")),
        ("lr", True),
        ("epochs", "5"),
        ("k", "9"),
        ("dims", 4096.0),
        ("epochs", np.int64(3)),
    ], ids=["path", "bool-lr", "str-epochs", "str-k", "float-dims", "numpy-epochs"])
    def test_a_value_the_loader_would_refuse_is_refused_when_built(self, desk_config, tmp_path, field, value):
        """Building a config in Python runs the JSON loader's type checks,
        so the run is never reached and leaves no directory."""
        with pytest.raises(ValidationError, match=rf"^\$\.{field}: expected "):
            run(desk_config(**{field: value}), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_cap_above_soft_limit_warns(self, caplog, desk_dataset_path):
        with caplog.at_level(logging.WARNING):
            cfg = RunConfig.from_dict(
                {"data_path": str(desk_dataset_path), "finetune_cap": 200}
            )
        assert cfg.finetune_cap == 200
        assert any("150" in r.message for r in caplog.records)

    def test_cap_above_soft_limit_warns_once_per_run(self, caplog, desk_config, tmp_path):
        with caplog.at_level(logging.WARNING):
            run(desk_config(epochs=2, finetune_cap=200), tmp_path / "run")
        assert sum("exceeds 150" in r.getMessage() for r in caplog.records) == 1

    def test_negative_hash_seed_allowed(self, desk_dataset_path):
        cfg = RunConfig.from_dict({"data_path": str(desk_dataset_path), "hash_seed": -5})
        assert cfg.hash_seed == -5

    def test_round_trips_through_dict(self, desk_config):
        cfg = desk_config()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("value", [True, {}], ids=["bool", "object"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_every_key_rejects_wrong_type(self, key, value):
        obj = {"data_path": "x.jsonl", key: value}
        with pytest.raises(ValidationError, match=rf"^\$\.{key}: expected "):
            RunConfig.from_dict(obj)

    @pytest.mark.parametrize("obj,message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
    def test_error_messages(self, obj, message):
        with pytest.raises(ValidationError) as exc:
            RunConfig.from_dict(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")),
        ("temperature", float("inf")),
        ("sim_temperature_scale", float("-inf")),
        ("request_timeout_s", float("nan")),
        ("split_fractions", (0.8, float("nan"), 0.1)),
    ])
    def test_constructor_rejects_non_finite_floats(self, key, value):
        with pytest.raises(ValidationError, match=rf"^\$\.{key}(\[1\])?: expected a finite number, got "):
            RunConfig(data_path="x", **{key: value})

    def test_reachable_k_counts_distinct_prefixes_and_the_empty_one(self):
        pool = [["a", 1.0], "b", ""]
        assert RunConfig.from_dict({"data_path": "x", "sim_pool": pool, "k": 3, "w": 1}).k == 3
        with pytest.raises(ValidationError, match="k=4 is unreachable"):
            RunConfig.from_dict({"data_path": "x", "sim_pool": pool, "k": 4, "w": 1})
        remote = {"data_path": "x", "ta_backend": "remote", "sim_pool": pool, "k": 50}
        assert RunConfig.from_dict(remote).k == 50

    # A NaN weight meets the type check before the assistant is built;
    # tests/test_ta.py covers SimState's own check of it.
    @pytest.mark.parametrize("pool,message", [
        ((("a", 0.0), ("a", 1.0), ("b", 0.0)), "duplicate pool prefix 'a'"),
        ((("a", float("nan")), ("b", 0.0)), "$.sim_pool[0][1]: expected a finite number, got nan"),
    ], ids=["repeated-prefix", "nan-weight"])
    def test_config_is_checked_by_building_its_assistant(self, pool, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            RunConfig(data_path="x", k=3, w=1, sim_pool=pool)

    def test_bare_default_config_runs(self, tmp_path):
        data = tmp_path / "synth.jsonl"
        write_jsonl(synth_generate(2, 40, 60, 0.1, 3), data)
        report = run(RunConfig(data_path=str(data)), tmp_path / "run")
        assert len(report.records) == RunConfig(data_path=str(data)).epochs

    def test_prepare_builds_no_tables_and_each_run_builds_its_own(self, desk_config, tmp_path, monkeypatch):
        """prepare leaves the token tables unbuilt (the benchmark times it as
        set-up); each run, and each resume, builds exactly one table over
        the train split and one over the val split on first use."""
        contexts, built = [], []

        def spy(cfg):
            ctx = prepare(cfg)
            assert not {"train_featurizer", "val_featurizer"} & vars(ctx).keys()
            contexts.append(ctx)
            return ctx

        class Counted(student_mod.Featurizer):
            def __init__(self, dims, hash_seed, data):
                built.append(data)
                super().__init__(dims, hash_seed, data)

        monkeypatch.setattr(trainer_mod, "prepare", spy)
        monkeypatch.setattr(student_mod, "Featurizer", Counted)
        run(desk_config(epochs=1), tmp_path / "run")
        run(desk_config(epochs=2), tmp_path / "run", resume_from=tmp_path / "run" / "state_epoch0.json")
        assert len(contexts) == 2
        # A run scores before it trains, a resume trains first.
        splits = [split for ctx in contexts for split in (ctx.train, ctx.val)]
        assert sorted(map(id, built)) == sorted(map(id, splits))
        assert contexts[0].train_featurizer is not contexts[1].train_featurizer
        for ctx in contexts:
            assert ctx.train_featurizer.data is ctx.train and ctx.val_featurizer.data is ctx.val
            assert ctx.train_featurizer._ids.keys() == {ex.text for ex in ctx.train.examples}
            assert ctx.val_featurizer._ids.keys() == {ex.text for ex in ctx.val.examples}
            assert ctx.train_featurizer._tokens and ctx.val_featurizer._tokens

    def test_loader_converts_to_field_types(self):
        cfg = RunConfig.from_dict(
            {"data_path": "x.jsonl", "k": 3, "w": 1, "lr": 1, "split_fractions": [1, 0, 0],
             "label_semantics": ["0: a"], "sim_pool": ["bare", ["paired", 2]]}
        )
        assert cfg.lr == 1.0 and type(cfg.lr) is float
        assert cfg.split_fractions == (1.0, 0.0, 0.0)
        assert all(type(f) is float for f in cfg.split_fractions)
        assert cfg.label_semantics == ("0: a",)
        assert cfg.sim_pool == (("bare", 0.0), ("paired", 2.0))
        assert type(cfg.sim_pool[1][1]) is float

    def test_config_json_golden_bytes(self, desk_config):
        cfg = desk_config(data_path="desk.jsonl")
        golden = Path(__file__).parent / "data" / "desk_config.json"
        assert config_to_json(cfg).encode("utf-8") == golden.read_bytes()

    def test_readme_table_lists_every_key(self):
        listed = [key for keys, _, _ in readme_config_rows() for key in keys]
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(RunConfig))

    def test_readme_table_states_defaults_and_limits(self):
        defaults = RunConfig(data_path="x").to_dict()
        field_by_name = {f.name: f for f in dataclasses.fields(RunConfig)}
        for keys, default_cell, row in readme_config_rows():
            stated = re.split(r",\s*(?![^\[]*\])", default_cell)  # commas outside [...]
            assert len(stated) == len(keys), row
            for key, text in zip(keys, stated):
                value = readme_literal(text)
                assert value is PROSE or value == defaults[key], (key, text)
                for kind, limit in field_by_name[key].metadata.items():
                    wanted = [f"`{c}`" for c in limit] if kind == "choices" else [f"{LIMIT_SIGNS[kind]} {limit}"]
                    assert all(w in row for w in wanted), (key, kind, limit)


class TestRunEpoch:
    @pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
    def test_epoch_0_trains_on_the_first_proposal(self, desk_config, metric):
        """The zero student scores every prefix alike, and a tie goes after
        the entries it equals, so the first proposal is the best entry."""
        cfg = desk_config(metric=metric)
        ctx = prepare(cfg)
        state = init_state(ctx)
        empty, s0 = state.history.entries
        assert (empty.prefix, empty.score) == ("", s0.score) and s0.prefix
        assert state.history.best() == s0
        assert s0.origin == Origin(kind="generated", epoch=0, round=-1)
        state, _ = run_epoch(state, ctx)
        assert state.records[0].train_prefix == s0.prefix

    def test_a_first_proposal_of_the_empty_prefix_is_trained_on(self, desk_config):
        cfg = desk_config(k=3, w=1, l=3, temperature=0.0, sim_pool=(("", 1.0), ("a", 0.0), ("b", 0.0)))
        ctx = prepare(cfg)
        state = init_state(ctx)
        assert [e.prefix for e in state.history.entries] == [""]
        state, _ = run_epoch(state, ctx)
        assert state.records[0].train_prefix == ""

    def test_single_epoch_contracts(self, desk_config):
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        state = init_state(ctx)
        new_state, gradients = run_epoch(state, ctx)

        assert new_state.epoch == 1
        assert new_state.student.frozen
        assert new_state.ta.generation == 1
        assert len(new_state.history) == cfg.k
        rec = new_state.records[0]
        assert rec.val_best >= rec.val_empty
        assert rec.finetune_error is None
        assert gradients is not None
        examples = parse_jsonl(gradients)
        assert 1 <= len(examples) <= cfg.finetune_cap

    def test_history_trimmed_and_regrown_each_epoch(self, desk_config):
        cfg = desk_config(epochs=2)
        ctx = prepare(cfg)
        state = init_state(ctx)
        state, _ = run_epoch(state, ctx)
        first_history = state.history
        state, _ = run_epoch(state, ctx)
        assert len(state.history) == cfg.k
        # the baseline empty prefix always survives the carryover trim
        assert state.history.find("") is not None
        # second epoch scores are refreshed against the new checkpoint
        assert state.records[1].val_best >= state.records[1].val_empty
        assert first_history.find("") is not None

    def test_best_tracks_max_val_score(self, desk_config):
        for metric in ("accuracy", "macro_f1", "neg_loss"):
            # k <= l + 1, so collect cannot stall (the desk k=20 stalls in epoch 4
            # under accuracy and macro_f1, ROADMAP item 7). The best epoch is then
            # 2, 2 and 1, and under accuracy epoch 3 ties it.
            cfg = desk_config(metric=metric, epochs=5, k=9)
            ctx = prepare(cfg)
            state = init_state(ctx)
            histories = []
            for _ in range(cfg.epochs):
                state, _ = run_epoch(state, ctx)
                histories.append(state.history)
            assert state.best.score == max(r.val_best for r in state.records)
            assert state.best.epoch == min(
                r.epoch for r in state.records if r.val_best == state.best.score
            )
            assert state.best.prefix == histories[state.best.epoch].best().prefix

    def test_run_epoch_is_a_pure_function_of_its_state(self, desk_config):
        """Two calls on one state give the same epoch and leave the state as
        it was, the simulated assistant's draw counter included: init_state
        leaves it at 1, and the epoch's rounds move it on in the new state."""
        cfg = desk_config()
        ctx = prepare(cfg)
        state = init_state(ctx)
        before = state_to_json(state)
        assert state.ta.sim.calls == 1
        (first, first_gradients), (second, second_gradients) = run_epoch(state, ctx), run_epoch(state, ctx)
        assert state_to_json(first) == state_to_json(second) and first_gradients == second_gradients
        assert state_to_json(state) == before and state.ta.sim.calls == 1
        assert first.ta.sim.calls > 1

    @pytest.mark.parametrize("metric", ["accuracy", "neg_loss"])
    def test_token_tables_keep_only_the_tokens_the_next_epoch_reads(self, desk_config, metric):
        """After each epoch the val table holds exactly the distinct tokens
        of the history's prefixes, and the train table those of the prefix
        it trained on that the next training prefix also holds, so neither
        grows with the prefixes proposed over the run."""
        ctx = prepare(desk_config(metric=metric))
        state = init_state(ctx)
        val_counts = []
        for _ in range(ctx.cfg.epochs):
            state, _ = run_epoch(state, ctx)
            history_tokens = {t for p in state.history.prefixes() for t in student_mod.tokenize(p)}
            assert set(ctx.val_featurizer._tokens) == history_tokens
            trained, following = (set(student_mod.tokenize(p)) for p in (state.records[-1].train_prefix,
                                                                          state.history.best().prefix))
            assert set(ctx.train_featurizer._tokens) == trained & following
            val_counts.append(len(history_tokens))
        assert max(val_counts) == val_counts[0]

    def test_generation_counts_epochs(self, desk_config):
        cfg = desk_config()
        ctx = prepare(cfg)
        state = init_state(ctx)
        for expected in range(1, cfg.epochs + 1):
            state, _ = run_epoch(state, ctx)
            assert state.ta.generation == expected


class TestStateSerialization:
    def test_round_trip_byte_identical(self, desk_config):
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        state, _ = run_epoch(init_state(ctx), ctx)
        text = state_to_json(state)
        back = state_from_json(text, cfg)
        assert state_to_json(back) == text

    @pytest.mark.parametrize("prefix", ["plain words", "café ☕", "clef 𝄞"])
    def test_state_write_holds_at_most_two_and_a_half_times_its_text(self, prefix):
        """Writing a 4-class student of 50,000 held columns traces a peak of
        at most 2.5x the file's UTF-8 size, whatever script the prefix is
        in: the weights are encoded a slice at a time, not held as one
        Python float and one repr string each, and no part of the state is
        held as a str as wide as its widest character."""
        rng = np.random.default_rng(31)
        weights, bias = rng.standard_normal((4, 50_000)), rng.standard_normal(4)
        state = one_epoch_state(student_mod.StudentParams(np.arange(50_000) * 5, weights, bias, 1 << 18), prefix)
        tracemalloc.start()
        try:
            text = state_to_json(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    def test_reader_names_the_mistyped_value(self, desk_config):
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        state, _ = run_epoch(init_state(ctx), ctx)
        obj = json.loads(state_to_json(state))
        obj["records"][0]["train_loss"] = "x"
        with pytest.raises(ValidationError, match=r"\$\.records\[0\]\.train_loss: expected number, got str"):
            state_from_json(json.dumps(obj), cfg)
        del obj["records"][0]["train_loss"]
        with pytest.raises(ValidationError, match=r"\$\.records\[0\]: missing keys \['train_loss'\]"):
            state_from_json(json.dumps(obj), cfg)

    def test_reader_wants_a_pair_for_a_pool_entry(self, desk_config):
        """A state file, unlike a config, takes no bare string for a pool entry."""
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        state, _ = run_epoch(init_state(ctx), ctx)
        obj = json.loads(state_to_json(state))
        obj["ta"]["sim"]["pool"][0] = "bare"
        with pytest.raises(ValidationError, match=r"\$\.ta\.sim\.pool\[0\]: expected a \[prefix, weight\] pair$"):
            state_from_json(json.dumps(obj), cfg)

    @pytest.mark.parametrize("key", ["model_id", "base_model_id"])
    def test_reader_refuses_an_empty_remote_model_id(self, desk_config, key):
        """A saved remote handle passes the check a config's handle does."""
        ctx = prepare(desk_config(epochs=1))
        state, _ = run_epoch(init_state(ctx), ctx)
        cfg = desk_config(epochs=1, ta_backend="remote", base_url="http://127.0.0.1:9")
        remote = dataclasses.replace(trainer_mod.build_ta(cfg), generation=state.ta.generation)
        obj = json.loads(state_to_json(dataclasses.replace(state, ta=remote)))
        assert state_from_json(json.dumps(obj), cfg).ta.to_dict() == remote.to_dict()
        obj["ta"][key] = ""
        with pytest.raises(ValidationError, match="malformed run state: .*model_id and base_model_id must be non-empty$"):
            state_from_json(json.dumps(obj), cfg)

    def test_reader_refuses_a_student_of_other_dims(self, desk_config):
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        state, _ = run_epoch(init_state(ctx), ctx)
        with pytest.raises(ValidationError, match="dims 4096, the config 8192"):
            state_from_json(state_to_json(state), desk_config(epochs=1, dims=8192))


def _dir_files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestFeaturizerRuns:
    @pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
    def test_run_and_resume_match_the_reference_featurize(self, desk_config, tmp_path, monkeypatch, metric):
        """Every run-directory file is byte-identical to a run whose every
        featurize goes through the from-scratch reference."""

        def straight_and_resumed(root):
            run(desk_config(metric=metric), root / "straight")
            run(desk_config(metric=metric, epochs=1), root / "resumed")
            run(desk_config(metric=metric), root / "resumed", resume_from=root / "resumed" / "state_epoch0.json")
            return _dir_files(root / "straight"), _dir_files(root / "resumed")

        def reference(self, prefix, text):
            """The reference's items as the (indices, counts) arrays Featurizer.featurize returns."""
            features = featurize(prefix, text, self.dims, self.hash_seed)
            return np.array(list(features), dtype=np.int64), np.array(list(features.values()), dtype=np.float64)

        tables = straight_and_resumed(tmp_path / "tables")
        with monkeypatch.context() as mp:
            mp.setattr(student_mod.Featurizer, "featurize", reference)
            oracle = straight_and_resumed(tmp_path / "oracle")
        assert tables == oracle
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
    def test_run_and_resume_reach_no_per_example_reference(self, desk_config, tmp_path, monkeypatch, metric):
        """Every gpta binding of a per-example reference is replaced by one
        that raises, as the benchmark's tracer rebinds names, and a run and
        its resume from epoch 0 still complete."""
        for name in ("featurize", "fnv1a64", "_logits", "forward", "predict", "grad", "sgd_step", "loss"):
            original = getattr(student_mod, name)

            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"run path called the reference {name}")

            for modname, mod in list(sys.modules.items()):
                if modname == "gpta" or modname.startswith("gpta."):
                    for attr, obj in list(vars(mod).items()):
                        if obj is original:
                            monkeypatch.setattr(mod, attr, refuse)
        run(desk_config(metric=metric), tmp_path / "run")
        run(desk_config(metric=metric), tmp_path / "resumed", resume_from=tmp_path / "run" / "state_epoch0.json")

    def test_each_trained_or_scored_example_is_featurized_or_batch_scored_once(
        self, desk_config, tmp_path, monkeypatch
    ):
        """The benchmark's traced identity, restated for the batch scorer:
        featurize calls (the tables' and the reference's) plus the examples
        of each batch_logits call = train_pass examples plus the validation
        examples of each score the search asks for."""
        counts = Counter()

        def counting(key, fn, examples_of):
            def wrapped(*args, **kwargs):
                counts[key] += examples_of(*args, **kwargs)
                return fn(*args, **kwargs)

            return wrapped

        def counting_calls(key, make, examples_of):
            """`make`, whose returned function counts examples_of(make's arguments) per call."""
            def wrapped(*args, **kwargs):
                n = examples_of(*args, **kwargs)
                return counting(key, make(*args, **kwargs), lambda *a, **k: n)

            return wrapped

        for owner in (student_mod.Featurizer, student_mod):
            monkeypatch.setattr(owner, "featurize", counting("featurized", owner.featurize, lambda *a, **k: 1))
        monkeypatch.setattr(student_mod, "train_pass",
                            counting("trained", student_mod.train_pass, lambda params, train, *a, **k: len(train)))
        monkeypatch.setattr(metrics_mod, "batch_logits",
                            counting_calls("batch", metrics_mod.batch_logits, lambda params, data, *a, **k: len(data)))
        monkeypatch.setattr(trainer_mod, "scorer",
                            counting_calls("scored", trainer_mod.scorer, lambda frozen, data, *a, **k: len(data)))
        run(desk_config(epochs=1), tmp_path / "run")
        run(desk_config(epochs=2), tmp_path / "run", resume_from=tmp_path / "run" / "state_epoch0.json")
        assert counts["trained"] > 0 and counts["scored"] > 0
        assert counts["featurized"] + counts["batch"] == counts["trained"] + counts["scored"]


class TestRun:
    def test_single_epoch_report(self, desk_config, tmp_path):
        report = run(desk_config(epochs=1), tmp_path / "run")
        assert len(report.records) == 1
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "state_epoch0.json").exists()
        assert (tmp_path / "run" / "gradients_epoch0.jsonl").exists()
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
    def test_unicode_line_break_in_the_system_prompt_runs(self, char, desk_config, tmp_path):
        """str.splitlines() breaks at these; the tuning file's lines must not."""
        summary = f"Classify each text{char}into one of two classes."
        report = run(desk_config(epochs=1, task_summary=summary), tmp_path / "run")
        assert report.records[0].finetune_error is None
        examples = parse_jsonl((tmp_path / "run" / "gradients_epoch0.jsonl").read_bytes())
        assert all(summary in ex.messages[0].content for ex in examples)

    def test_metrics_csv_shape(self, desk_config, tmp_path):
        run(desk_config(epochs=3), tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_best,val_empty,improvement_rate"
        assert len(lines) == 4

    def test_deterministic_runs(self, desk_config, tmp_path):
        run(desk_config(), tmp_path / "a")
        run(desk_config(), tmp_path / "b")
        for e in range(3):
            assert (tmp_path / "a" / f"state_epoch{e}.json").read_bytes() == (
                tmp_path / "b" / f"state_epoch{e}.json"
            ).read_bytes()

    def test_resume_is_bit_identical(self, desk_config, tmp_path):
        run(desk_config(epochs=3), tmp_path / "straight")
        run(desk_config(epochs=1), tmp_path / "resumed")
        run(
            desk_config(epochs=3),
            tmp_path / "resumed",
            resume_from=tmp_path / "resumed" / "state_epoch0.json",
        )
        for e in range(3):
            assert (tmp_path / "straight" / f"state_epoch{e}.json").read_bytes() == (
                tmp_path / "resumed" / f"state_epoch{e}.json"
            ).read_bytes()

    def test_integer_temperature_scale_resumes_byte_identically(self, desk_config, tmp_path):
        """A Python-built config may hold an int scale; the handle, and so
        every state file, holds it as a float either way."""
        cfg = desk_config(epochs=2, sim_temperature_scale=2)
        assert type(trainer_mod.build_ta(cfg).sim.temperature_scale) is float
        run(cfg, tmp_path / "straight")
        run(desk_config(epochs=1, sim_temperature_scale=2), tmp_path / "resumed")
        run(cfg, tmp_path / "resumed", resume_from=tmp_path / "resumed" / "state_epoch0.json")
        assert _dir_files(tmp_path / "straight") == _dir_files(tmp_path / "resumed")

    def test_shipped_dims_resume_is_bit_identical_and_states_are_small(
        self, desk_config, tmp_path
    ):
        run(desk_config(epochs=2, dims=DEFAULT_DIMS), tmp_path / "straight")
        run(desk_config(epochs=1, dims=DEFAULT_DIMS), tmp_path / "resumed")
        run(
            desk_config(epochs=2, dims=DEFAULT_DIMS),
            tmp_path / "resumed",
            resume_from=tmp_path / "resumed" / "state_epoch0.json",
        )
        for e in range(2):
            straight = (tmp_path / "straight" / f"state_epoch{e}.json").read_bytes()
            assert straight == (tmp_path / "resumed" / f"state_epoch{e}.json").read_bytes()
            assert len(straight) < 1_000_000

    def test_shipped_dims_run_and_resume_trace_less_than_one_dense_weight_matrix(self, desk_config, tmp_path):
        """The student holds its touched columns, so neither a run nor a
        resume allocates a class_count x dims float64 matrix."""
        cfg = desk_config(dims=DEFAULT_DIMS)
        matrix = prepare(cfg).train.class_count * cfg.dims * 8
        tracemalloc.start()
        try:
            run(cfg, tmp_path / "run")
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run(cfg, tmp_path / "resumed", resume_from=tmp_path / "run" / "state_epoch0.json")
            resume_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run_peak < matrix and resume_peak < matrix

    def test_config_echo_is_idempotent(self, desk_config, tmp_path):
        # Built in Python, a list becomes a tuple and an int in a float field a float, as the loader makes them.
        cfg = desk_config(epochs=1, split_fractions=[0.8, 0.1, 0.1], lr=1)
        assert cfg.split_fractions == (0.8, 0.1, 0.1) and (cfg.lr, type(cfg.lr)) == (1.0, float)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        run(cfg, tmp_path / "run")
        echoed = json.loads((tmp_path / "run" / "config.json").read_text())
        assert RunConfig.from_dict(echoed) == cfg


class TestSmallConfigs:
    def test_minimal_k_runs_all_epochs(self, desk_config):
        # k=2, w=1 exercises the carryover trim's tight corner
        cfg = desk_config(epochs=3, k=2, w=1, l=2)
        ctx = prepare(cfg)
        state = init_state(ctx)
        for _ in range(3):
            state, _ = run_epoch(state, ctx)
        assert state.epoch == 3
        assert len(state.history) == 2
        assert state.history.find("") is not None


class TestRunAbort:
    def test_generate_failure_aborts_with_checkpoints_intact(
        self, desk_config, tmp_path, monkeypatch
    ):
        from gpta import trainer as trainer_mod
        from gpta.errors import TransportError

        real_collect = trainer_mod.collect

        def flaky_collect(*args, **kwargs):
            if kwargs.get("epoch") == 1:
                raise TransportError("link down")
            return real_collect(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "collect", flaky_collect)
        with pytest.raises(TransportError):
            run(desk_config(epochs=2), tmp_path / "run")
        assert (tmp_path / "run" / "state_epoch0.json").exists()
        assert not (tmp_path / "run" / "state_epoch1.json").exists()


def test_the_run_tunes_on_exactly_the_targets_of_the_file_it_writes(desk_config, tmp_path):
    """Each epoch raises a pool prefix's weight by its count among the
    assistant messages of the epoch's gradients file, read back with
    parse_jsonl."""
    cfg = desk_config(epochs=3)
    run(cfg, tmp_path / "run")
    before = dict(cfg.sim_pool)
    for e in range(cfg.epochs):
        state = json.loads((tmp_path / "run" / f"state_epoch{e}.json").read_text(encoding="utf-8"))
        after = dict(state["ta"]["sim"]["pool"])
        examples = parse_jsonl((tmp_path / "run" / f"gradients_epoch{e}.jsonl").read_bytes())
        targets = Counter(ex.messages[2].content for ex in examples)
        assert targets
        assert {p: w - before.get(p, 0.0) for p, w in after.items() if w != before.get(p)} == targets
        before = after


class TestFinetuneFailureTolerance:
    def test_epoch_survives_finetune_failure(self, desk_config, monkeypatch, caplog):
        from gpta import trainer as trainer_mod
        from gpta.errors import FinetuneError

        def boom(handle, data, targets):
            raise FinetuneError("provider says no")

        monkeypatch.setattr(trainer_mod.ta_mod, "finetune", boom)
        cfg = desk_config(epochs=1)
        ctx = prepare(cfg)
        with caplog.at_level(logging.WARNING):
            state, _ = run_epoch(init_state(ctx), ctx)
        rec = state.records[0]
        assert rec.finetune_error is not None
        assert "provider says no" in rec.finetune_error
        assert state.ta.generation == 0  # handle untouched
        assert state.epoch == 1  # student progress kept
        assert any("fine-tune failed" in r.message for r in caplog.records)


@contextmanager
def file_size_limit(nbytes):
    """Cap the size of files this process writes, so that a write past
    `nbytes` fails part-way through, as it would on a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestAtomicWrites:
    def test_failed_state_write_keeps_previous_file(self, desk_config, tmp_path):
        cfg = desk_config(epochs=1)
        run(cfg, tmp_path / "run")
        before = _dir_bytes(tmp_path / "run")
        # config.json and the gradients file are written before the state
        # file, so only the state write crosses the limit.
        limit = max(len(before["config.json"]), len(before["gradients_epoch0.jsonl"])) + 1
        assert limit < len(before["state_epoch0.json"])
        with file_size_limit(limit), pytest.raises(OSError):
            run(cfg, tmp_path / "run")
        assert _dir_bytes(tmp_path / "run") == before

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "student.json"
        save_checkpoint(init_params(64, 2), path)
        before = _dir_bytes(tmp_path)
        rng = np.random.default_rng(5)
        dense = dense_student(rng.normal(size=(2, 4096)), np.zeros(2))
        with file_size_limit(len(before["student.json"]) + 1), pytest.raises(OSError):
            save_checkpoint(dense, path)
        assert _dir_bytes(tmp_path) == before


def test_number_lists_are_read_as_their_element_type():
    floats = trainer_mod._from_json("w", tuple[float, ...], [1, 2.5, -0.0])
    assert floats == (1.0, 2.5, -0.0) and [type(v) for v in floats] == [float] * 3
    assert trainer_mod._from_json("c", tuple[int, ...], [3, -1, 2**70]) == (3, -1, 2**70)
    assert trainer_mod._from_json("w", tuple[float, ...], []) == ()


def test_trainer_imports_nothing_from_remote():
    """Each backend builds itself from the config, so the loop needs no transport."""
    parts = imported_parts(trainer_mod)
    assert "ta" in parts and "remote" not in parts


def test_ta_imports_neither_dialogue_gradient_nor_numpy():
    """The run hands finetune the targets it holds, and the simulated pool
    is ranked in Python floats."""
    assert not imported_parts(ta_mod) & {"dialogue_gradient", "numpy"}


def test_trainer_asks_the_assistant_only_through_the_proposer():
    """Requests are rendered and sent in one place, ta.Proposer, which both
    the first proposal and each epoch's collect go through."""
    tree = ast.parse(Path(trainer_mod.__file__).read_text(encoding="utf-8"))
    called = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = {getattr(f, "attr", None) or getattr(f, "id", None) for f in called}
    assert "Proposer" in names and not names & {"generate", "render_generation_request"}
    assert not hasattr(trainer_mod, "_rescore")
