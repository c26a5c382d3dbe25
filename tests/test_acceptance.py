"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gpta import (
    PrefixHistory,
    Proposer,
    RunConfig,
    ScoredPrefix,
    TransportError,
    build_windows,
    collect,
    enrich,
    finetune,
    freeze,
    generate,
    init_params,
    insert_sorted,
    parse_jsonl,
    run,
    seed_history,
    serialize_jsonl,
    simulated_handle,
    softmax_pool_mass,
    synth_generate,
    train_pass,
)
from gpta.fileio import record_from_json
from gpta.remote import RemoteClient
from gpta.student import Featurizer, forward, grad, loss
from gpta.ta import remote_handle, render_generation_request, SimState

from conftest import DESK_POOL, FAMILY_PREFIXES, dense_student, dense_weights
from mock_openai import MockOpenAIServer
from test_history import scorer
from test_ta import finetune_file, make_mp

GOLDEN = Path(__file__).parent / "data" / "golden_gradients.jsonl"


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient vs central finite differences"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        h = 1e-5
        for _ in range(100):
            dims = 16
            classes = int(rng.integers(2, 6))
            params = dense_student(rng.normal(0, 1, (classes, dims)), rng.normal(0, 1, classes))
            nnz = int(rng.integers(2, 6))
            f = {
                int(i): float(rng.integers(1, 4))
                for i in rng.choice(dims, nnz, replace=False)
            }
            label = int(rng.integers(classes))
            analytic = grad(params, f, label)
            analytic_weights = dense_weights(analytic, dims)

            def loss_at(w, b):
                return loss(
                    forward(
                        dense_student(w, b), f
                    ),
                    label,
                )

            for c in range(classes):
                for j in range(dims):
                    wp, wm = params.weights.copy(), params.weights.copy()
                    wp[c, j] += h
                    wm[c, j] -= h
                    numeric = (loss_at(wp, params.bias) - loss_at(wm, params.bias)) / (2 * h)
                    a = analytic_weights[c, j]
                    if abs(a) > 1e-6:
                        assert abs(a - numeric) / abs(a) < 1e-4
                bp, bm = params.bias.copy(), params.bias.copy()
                bp[c] += h
                bm[c] -= h
                numeric = (loss_at(params.weights, bp) - loss_at(params.weights, bm)) / (2 * h)
                a = analytic.bias[c]
                if abs(a) > 1e-6:
                    assert abs(a - numeric) / abs(a) < 1e-4
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"gradient check took {elapsed:.2f}s"


def test_criterion_2_history_invariants():
    with criterion(2, "history order/uniqueness/monotonicity properties"):
        rng = np.random.default_rng(202)
        # 1000 random insertion sequences vs a full re-sort oracle
        for _ in range(1000):
            n_ops = int(rng.integers(1, 40))
            h = PrefixHistory()
            best_so_far = None
            model = {}
            arrival = {}
            for op in range(n_ops):
                prefix = f"p{int(rng.integers(0, 25))}"
                score = float(np.round(rng.uniform(-1, 1), 3))
                h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
                if prefix not in model:
                    model[prefix] = score
                    arrival[prefix] = op
                scores = [e.score for e in h.entries]
                assert scores == sorted(scores)
                prefixes = [e.prefix for e in h.entries]
                assert len(set(prefixes)) == len(prefixes)
                if best_so_far is not None:
                    assert h.best().score >= best_so_far
                best_so_far = h.best().score
            oracle = sorted(
                sorted(model, key=lambda p: arrival[p]), key=lambda p: model[p]
            )
            assert [e.prefix for e in h.entries] == oracle

        # collect sequences: baseline floor, sortedness, max monotonicity
        for seed in range(12):
            data = synth_generate(2, 30, 60, 0.1, seed)
            p = init_params(512, 2)
            p, _ = train_pass(p, Featurizer(512, 0, data), "alpha beta", 0.1, shuffle_seed=seed)
            frozen = freeze(p)
            pool = [(f"alpha word {i}", 1.0) for i in range(10)]
            pool += [(f"junk word {i}", 0.0) for i in range(10)]
            ta = simulated_handle(pool, rng_seed=seed)
            score = scorer(frozen, data)
            h0 = seed_history(score)
            h, rounds = collect(Proposer(ta, make_mp()), score, h0, k=int(3 + seed), l=int(1 + seed % 4))
            scores = [e.score for e in h.entries]
            assert scores == sorted(scores)
            assert len({e.prefix for e in h.entries}) == len(h)
            assert h.find("") is not None  # baseline floor
            assert h.best().score >= h0.best().score
            assert all(0 <= r.exceeded_max <= r.generated for r in rounds)


def test_criterion_3_window_law():
    with criterion(3, "sliding-window count/contiguity/dominance"):
        rng = np.random.default_rng(303)
        for _ in range(200):
            n = int(rng.integers(2, 201))
            w = int(rng.integers(1, n))
            h = PrefixHistory()
            for i in range(n):
                h = insert_sorted(
                    h, ScoredPrefix(prefix=f"p{i}", score=float(rng.uniform(0, 1)))
                )
            gs = build_windows(h, w)
            assert len(gs) == n - w
            for i, g in enumerate(gs):
                assert len(g.window) == w
                target_score = h.find(g.target).score
                assert all(target_score >= e.score for e in g.window)
                if i:
                    assert gs[i - 1].window[1:] == g.window[:-1]
        # the default regime: 50 entries, window 5 -> exactly 45
        h = PrefixHistory()
        for i in range(50):
            h = insert_sorted(h, ScoredPrefix(prefix=f"q{i}", score=i / 50.0))
        assert len(build_windows(h, 5)) == 45


def test_criterion_4_wire_format_golden():
    with criterion(4, "byte-exact tuning-file wire format"):
        from test_dialogue_gradient import golden_inputs

        h, mp = golden_inputs()
        data = serialize_jsonl(enrich(build_windows(h, 5), mp))
        assert data == GOLDEN.read_bytes()
        assert serialize_jsonl(parse_jsonl(data)) == data


def _desk_cfg(desk_dataset_path, epochs=3):
    return RunConfig(
        data_path=str(desk_dataset_path),
        split_fractions=(0.7, 0.2, 0.1),
        split_seed=13,
        metric="accuracy",
        epochs=epochs,
        k=20,
        w=5,
        l=8,
        temperature=1.0,
        finetune_cap=50,
        lr=0.1,
        dims=4096,
        sim_pool=DESK_POOL,
        sim_seed=11,
    )


def test_criterion_5_end_to_end_desk_run(desk_dataset_path, tmp_path):
    with criterion(5, "offline end-to-end run"):
        start = time.monotonic()
        report_a = run(_desk_cfg(desk_dataset_path), tmp_path / "a")
        run(_desk_cfg(desk_dataset_path), tmp_path / "b")
        elapsed = time.monotonic() - start

        # (a) determinism: byte-identical run states
        for e in range(3):
            assert (tmp_path / "a" / f"state_epoch{e}.json").read_bytes() == (
                tmp_path / "b" / f"state_epoch{e}.json"
            ).read_bytes()

        # (b) baseline floor per epoch on the same checkpoint
        for rec in report_a.records:
            assert rec.val_best >= rec.val_empty

        # (c) tuning-target softmax mass strictly increases each epoch
        state = SimState(pool=list(DESK_POOL), rng_seed=11)
        for e in range(3):
            targets = sorted(
                {
                    ex.messages[2].content
                    for ex in parse_jsonl(
                        (tmp_path / "a" / f"gradients_epoch{e}.jsonl").read_bytes()
                    )
                }
            )
            after = record_from_json(
                SimState, json.loads((tmp_path / "a" / f"state_epoch{e}.json").read_text())["ta"]["sim"], "sim"
            )
            assert softmax_pool_mass(after, targets) > softmax_pool_mass(state, targets)
            state = after

        # (d) improvement-rate series recorded and finite
        rates = [r.improvement_rate for r in report_a.records]
        assert len(rates) == 3
        assert all(np.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)

        assert elapsed < 60.0, f"desk run took {elapsed:.1f}s"


def test_criterion_6_planted_quality_mass_rises(desk_dataset_path, tmp_path):
    with criterion(6, "probability of emitting a top-quartile prefix rises"):
        run(_desk_cfg(desk_dataset_path), tmp_path / "run")
        initial = SimState(pool=list(DESK_POOL), rng_seed=11)
        final = record_from_json(
            SimState, json.loads((tmp_path / "run" / "state_epoch2.json").read_text())["ta"]["sim"], "sim"
        )
        # top quartile of the 40-prefix pool by planted quality = the 10
        # family prefixes that genuinely transfer score between each other
        before = softmax_pool_mass(initial, FAMILY_PREFIXES)
        after = softmax_pool_mass(final, FAMILY_PREFIXES)
        assert after > before


def test_criterion_7_config_defaults(desk_dataset_path, caplog):
    with criterion(7, "config defaults and cap warning"):
        cfg = RunConfig.from_dict({"data_path": str(desk_dataset_path)})
        assert cfg.k == 9
        assert cfg.w == 5
        assert cfg.temperature == 1.0
        assert cfg.epochs == 5
        assert cfg.finetune_cap == 50
        import logging

        with caplog.at_level(logging.WARNING):
            RunConfig.from_dict(
                {"data_path": str(desk_dataset_path), "finetune_cap": 151}
            )
        assert any("150" in r.message for r in caplog.records)


def test_criterion_8_remote_protocol_conformance(every_reply_closed):
    with criterion(8, "remote protocol conformance"):
        data = synth_generate(2, 30, 60, 0.1, 5)
        p = init_params(512, 2)
        p, _ = train_pass(p, Featurizer(512, 0, data), "alpha", 0.1, shuffle_seed=1)
        frozen = freeze(p)

        score = scorer(frozen, data)

        def client(server, **kw):
            base = dict(
                base_url=server.base_url,
                api_key="k",
                backoff_base=0.01,
                poll_interval=0.01,
                finetune_timeout=5.0,
            )
            base.update(kw)
            return RemoteClient(**base)

        # one chat call per collect round, history lines ascending
        completions = ["alpha one\nalpha two\nalpha three", "beta one\nbeta two\nbeta three"]
        with MockOpenAIServer(completions=completions) as server:
            handle = remote_handle(client(server), "base-model")
            h0 = seed_history(score)
            _, rounds = collect(Proposer(handle, make_mp()), score, h0, k=7, l=3)
            chats = server.requests_for("/v1/chat/completions")
            assert len(chats) == len(rounds) == 2
            for req in chats:
                lines = [
                    line
                    for line in req.json()["messages"][1]["content"].splitlines()
                    if line.startswith("PREFIX:")
                ]
                scores = [float(line.rsplit("SCORE: ", 1)[1]) for line in lines]
                assert scores == sorted(scores)

        # finetune: upload -> job create -> poll -> handle swap
        with MockOpenAIServer(job_statuses=["running", "succeeded"]) as server:
            handle = remote_handle(client(server), "base-model")
            tuned = finetune(handle, finetune_file(["alpha one"]))
            assert tuned.model_id == "ft:mock-model:v1"
            assert tuned.generation == 1
            paths = [r.path for r in server.requests]
            assert paths[0] == "/v1/files"
            assert paths[1] == "/v1/fine_tuning/jobs"
            assert all(p.startswith("/v1/fine_tuning/jobs/") for p in paths[2:])

        # transport failures: 3 attempts with backoff, then error, no mutation
        with MockOpenAIServer(fail_first=99) as server:
            handle = remote_handle(client(server), "base-model")
            request = render_generation_request(make_mp(), seed_history(score), 1)
            t0 = time.monotonic()
            with pytest.raises(TransportError):
                generate(handle, request, 1, 1.0)
            waited = time.monotonic() - t0
            assert len(server.requests_for("/v1/chat/completions")) == 3
            assert waited >= 0.01 + 0.02  # two backoff sleeps happened
            assert handle.generation == 0
            assert handle.model_id == "base-model"
