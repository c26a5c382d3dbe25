import json
import os
import socket
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gpta
from gpta import (
    Featurizer,
    FinetuneError,
    Proposer,
    ProtocolError,
    TransportError,
    ValidationError,
    collect,
    finetune,
    freeze,
    generate,
    init_params,
    run,
    seed_history,
    synth_generate,
    train_pass,
)
from gpta import remote as remote_mod
from gpta.remote import RemoteClient
from gpta.ta import remote_handle, render_generation_request
from gpta.trainer import state_from_json

from mock_openai import MockOpenAIServer
from test_history import scorer
from test_ta import finetune_file, make_mp

# Every test here that reaches a server leaves each reply closed.
pytestmark = pytest.mark.usefixtures("every_reply_closed")


def make_client(server, **kwargs) -> RemoteClient:
    defaults = dict(
        base_url=server.base_url,
        api_key="test-key",
        timeout=5.0,
        backoff_base=0.01,
        poll_interval=0.01,
        finetune_timeout=5.0,
    )
    defaults.update(kwargs)
    return RemoteClient(**defaults)


class TestGenerate:
    def test_single_chat_call_with_auth(self):
        with MockOpenAIServer(completions=["alpha one\nbeta two"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 2)
            out, after = generate(handle, request, 2, 1.0)
            assert out == ["alpha one", "beta two"] and after is handle
            chats = server.requests_for("/v1/chat/completions")
            assert len(chats) == 1
            assert chats[0].headers["Authorization"] == "Bearer test-key"
            body = chats[0].json()
            assert body["model"] == "base-model"
            assert body["temperature"] == 1.0
            assert [m["role"] for m in body["messages"]] == ["system", "user"]

    def test_proposer_sends_the_rendered_request(self):
        with MockOpenAIServer(completions=["alpha one\nbeta two\ngamma three"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            assert Proposer(handle, make_mp(), 0.5)(_history(), 2) == ["alpha one", "beta two"]
            (chat,) = server.requests_for("/v1/chat/completions")
            assert chat.json()["temperature"] == 0.5
            expected = render_generation_request(make_mp(), _history(), 2)
            assert chat.json()["messages"] == [{"role": m.role, "content": m.content} for m in expected]

    def test_history_lines_ordered_in_request(self):
        with MockOpenAIServer() as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            generate(handle, request, 1, 1.0)
            user = server.requests_for("/v1/chat/completions")[0].json()["messages"][1]
            scores = [
                float(line.rsplit("SCORE: ", 1)[1])
                for line in user["content"].splitlines()
                if line.startswith("PREFIX:")
            ]
            assert scores == sorted(scores)

    def test_transport_retries_three_attempts_then_error(self):
        with MockOpenAIServer(fail_first=99) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            with pytest.raises(TransportError, match="3 attempts"):
                generate(handle, request, 1, 1.0)
            assert len(server.requests_for("/v1/chat/completions")) == 3
            assert handle.generation == 0  # no local mutation

    def test_recovers_within_retry_budget(self):
        with MockOpenAIServer(fail_first=2, completions=["good prefix"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            assert generate(handle, request, 1, 1.0) == (["good prefix"], handle)
            assert len(server.requests_for("/v1/chat/completions")) == 3

    def test_rate_limit_retried(self):
        with MockOpenAIServer(fail_first=1, fail_status=429, completions=["good prefix"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            assert generate(handle, request, 1, 1.0) == (["good prefix"], handle)
            assert len(server.requests_for("/v1/chat/completions")) == 2

    def test_rate_limit_on_every_attempt_raises(self):
        with MockOpenAIServer(fail_first=99, fail_status=429) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            with pytest.raises(TransportError, match="3 attempts.*HTTP 429"):
                generate(handle, request, 1, 1.0)
            assert len(server.requests_for("/v1/chat/completions")) == 3

    def test_unparseable_completions_share_the_transport_budget(self):
        with MockOpenAIServer(fail_first=2, completions=["   \n\t"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            with pytest.raises(ProtocolError, match="no parseable prefixes"):
                generate(handle, request, 1, 1.0)
            assert len(server.requests_for("/v1/chat/completions")) == 3

    # A lone surrogate survives the reply's JSON escapes, but featurize could not encode it.
    @pytest.mark.parametrize("bad", ["  ", None, "focus \ud800"], ids=["blank", "null-content", "lone-surrogate"])
    def test_bad_completion_retried_once(self, bad):
        with MockOpenAIServer(completions=[bad, "good prefix"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            request = render_generation_request(make_mp(), _history(), 1)
            assert generate(handle, request, 1, 1.0) == (["good prefix"], handle)
            assert len(server.requests_for("/v1/chat/completions")) == 2

    @pytest.mark.parametrize("header,expected", [("0.25", 0.25), ("100", 5.0), ("soon", 0.01)])
    def test_retry_after_sets_wait_capped_at_timeout(self, header, expected, monkeypatch):
        sleeps = []
        monkeypatch.setattr(remote_mod, "time", SimpleNamespace(sleep=sleeps.append))
        with MockOpenAIServer(fail_first=1, fail_status=429, retry_after=header) as server:
            client = make_client(server)  # backoff 0.01 s, timeout 5 s
            assert client.chat("base-model", [], 1.0) == "Think step by step"
        assert sleeps == [expected]


class TestFinetune:
    def test_full_protocol_flow(self):
        with MockOpenAIServer(job_statuses=["running", "running", "succeeded"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            data = finetune_file(["good prefix"])
            new = finetune(handle, data)

            assert new.model_id == "ft:mock-model:v1"
            assert new.generation == 1
            assert new.base_model_id == "base-model"

            uploads = server.requests_for("/v1/files")
            assert len(uploads) == 1
            assert b"fine-tune" in uploads[0].body  # multipart purpose field
            assert b"good prefix" in uploads[0].body  # the JSONL payload

            creates = server.requests_for("/v1/fine_tuning/jobs")
            creates = [r for r in creates if r.method == "POST"]
            assert len(creates) == 1
            assert creates[0].json() == {
                "model": "base-model",
                "training_file": "file-mock-1",
            }

            polls = [
                r for r in server.requests_for("/v1/fine_tuning/jobs/") if r.method == "GET"
            ]
            assert len(polls) == 3  # two running, one succeeded

    def test_job_failure_raises_without_mutation(self):
        with MockOpenAIServer(job_statuses=["failed"]) as server:
            handle = remote_handle(make_client(server), "base-model")
            with pytest.raises(FinetuneError, match="failed"):
                finetune(handle, finetune_file(["x"]))
            assert handle.model_id == "base-model"
            assert handle.generation == 0

    def test_poll_timeout(self):
        with MockOpenAIServer(job_statuses=["running"]) as server:
            handle = remote_handle(make_client(server, finetune_timeout=0.05), "base-model")
            with pytest.raises(FinetuneError, match="still"):
                finetune(handle, finetune_file(["x"]))

    def test_from_base_lineage_always_tunes_base(self):
        with MockOpenAIServer() as server:
            handle = remote_handle(make_client(server), "base-model", lineage="from_base")
            tuned = finetune(handle, finetune_file(["x"]))
            tuned = finetune(tuned, finetune_file(["y"]))
            creates = [
                r
                for r in server.requests_for("/v1/fine_tuning/jobs")
                if r.method == "POST"
            ]
            assert [c.json()["model"] for c in creates] == ["base-model", "base-model"]
            assert tuned.generation == 2

    def test_continual_lineage_chains_models(self):
        with MockOpenAIServer() as server:
            handle = remote_handle(make_client(server), "base-model")
            tuned = finetune(handle, finetune_file(["x"]))
            finetune(tuned, finetune_file(["y"]))
            creates = [
                r
                for r in server.requests_for("/v1/fine_tuning/jobs")
                if r.method == "POST"
            ]
            assert [c.json()["model"] for c in creates] == [
                "base-model",
                "ft:mock-model:v1",
            ]

    @pytest.mark.parametrize("replies,route,key", [
        ({"/v1/files": {"purpose": "fine-tune"}}, "POST /v1/files", "'id'"),
        ({"/v1/fine_tuning/jobs": {"id": 7, "status": "queued"}}, "POST /v1/fine_tuning/jobs", "'id'"),
        ({"/v1/fine_tuning/jobs/ftjob-mock-1": ["succeeded"]}, "GET /v1/fine_tuning/jobs/ftjob-mock-1",
         "not an object"),
        ({"/v1/fine_tuning/jobs/ftjob-mock-1": {"status": "succeeded", "fine_tuned_model": ""}},
         "GET /v1/fine_tuning/jobs/ftjob-mock-1", "'fine_tuned_model'"),
    ], ids=["upload-without-id", "job-id-not-a-string", "job-not-an-object", "empty-model"])
    def test_unusable_reply_raises_unretried(self, replies, route, key):
        with MockOpenAIServer(replies=replies) as server:
            handle = remote_handle(make_client(server), "base-model")
            with pytest.raises(FinetuneError) as info:
                finetune(handle, finetune_file(["x"]))
            assert route in str(info.value) and key in str(info.value)
            method, path = route.split(" ")
            assert len([r for r in server.requests_for(path) if r.method == method]) == 1
            assert handle.model_id == "base-model"


class TestCollectOverRemote:
    def test_one_chat_call_per_round(self):
        frozen, data = _scored_world()
        completions = [
            "alpha step one\nalpha step two\nalpha step three",
            "beta move one\nbeta move two\nbeta move three",
        ]
        with MockOpenAIServer(completions=completions) as server:
            handle = remote_handle(make_client(server), "base-model")
            score = scorer(frozen, data)
            h0 = seed_history(score)
            h, rounds = collect(Proposer(handle, make_mp()), score, h0, k=7, l=3)
            assert len(h) == 7
            assert len(rounds) == 2
            assert len(server.requests_for("/v1/chat/completions")) == 2


# Every chat reply holds 8 prefixes no earlier reply had, so collection never stalls.
FRESH_COMPLETIONS = ["\n".join(f"remote candidate {i} {j}" for j in range(8)) for i in range(40)]


def remote_config(desk_config, server, epochs):
    return desk_config(epochs=epochs, ta_backend="remote", base_url=server.base_url,
                       model_id="base-model", retry_backoff_s=0.01, poll_interval_s=0.01)


class TestResumeOverRemote:
    def test_resumed_run_continues_the_model_lineage(self, desk_config, tmp_path):
        with MockOpenAIServer(completions=FRESH_COMPLETIONS) as server:
            run(remote_config(desk_config, server, 2), tmp_path / "straight")
            run(remote_config(desk_config, server, 1), tmp_path / "first")
        saved = (tmp_path / "first" / "state_epoch0.json").read_text(encoding="utf-8")

        with MockOpenAIServer(completions=FRESH_COMPLETIONS) as server:
            cfg = remote_config(desk_config, server, 2)
            assert state_from_json(saved, cfg).ta.client.base_url == server.base_url
            run(cfg, tmp_path / "resumed", resume_from=tmp_path / "first" / "state_epoch0.json")
            assert server.requests_for("/v1/chat/completions")
            creates = [r for r in server.requests_for("/v1/fine_tuning/jobs") if r.method == "POST"]
            assert [c.json()["model"] for c in creates] == ["ft:mock-model:v1"]

        def final_ta(run_dir):
            return json.loads((run_dir / "state_epoch1.json").read_text(encoding="utf-8"))["ta"]

        assert final_ta(tmp_path / "resumed") == final_ta(tmp_path / "straight") == {
            "backend": "remote",
            "generation": 2,
            "model_id": "ft:mock-model:v1",
            "base_model_id": "base-model",
            "lineage": "continual",
        }


@pytest.mark.parametrize("server_kwargs,field", [
    (dict(fine_tuned_model="ft:\ud800"), "'fine_tuned_model'"),
    (dict(fine_tuned_model=123), "'fine_tuned_model'"),
    (dict(replies={"/v1/files": {"purpose": "fine-tune"}}), "POST /v1/files replied without a usable 'id'"),
], ids=["lone-surrogate-model", "integer-model", "upload-without-id"])
def test_unusable_finetune_reply_keeps_the_base_model(desk_config, tmp_path, server_kwargs, field):
    """A reply the run cannot use is a failed fine-tune: the run completes
    on the base model, the record names the field, and the state resumes."""
    with MockOpenAIServer(completions=FRESH_COMPLETIONS, **server_kwargs) as server:
        report = run(remote_config(desk_config, server, 2), tmp_path / "run")
        assert all(field in rec.finetune_error for rec in report.records)
        middle = tmp_path / "run" / "state_epoch0.json"
        assert json.loads(middle.read_text(encoding="utf-8"))["ta"]["model_id"] == "base-model"
        resumed = run(remote_config(desk_config, server, 2), tmp_path / "resumed", resume_from=middle)
    assert [rec.finetune_error for rec in resumed.records] == [rec.finetune_error for rec in report.records]
    final = json.loads((tmp_path / "resumed" / "state_epoch1.json").read_text(encoding="utf-8"))
    assert (final["ta"]["model_id"], final["ta"]["generation"]) == ("base-model", 0)


def _python(code: str, *args: str, env: dict[str, str] | None = None) -> str:
    """stdout of `code` run by a fresh interpreter that finds this gpta,
    with `env` added to its environment."""
    src = str(Path(gpta.__file__).parent.parent)
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestTransport:
    def test_import_loads_only_the_standard_library_and_numpy(self):
        # The site may preload packages, so only what the import adds counts.
        added = json.loads(_python(
            "import json, sys; before = set(sys.modules); import gpta; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
        ))
        assert "gpta" in added
        assert set(added) - set(sys.stdlib_module_names) <= {"gpta", "numpy"}

    def test_a_run_loads_neither_numpy_random_nor_secrets(self, desk_config, tmp_path):
        """gpta.rng owns every draw, so a run, straight or resumed, never
        loads numpy.random, whose bit generator imports secrets and with it
        hashlib and OpenSSL."""
        (tmp_path / "config.json").write_text(json.dumps(desk_config(exemplar_count=4).to_dict()))
        loaded = json.loads(_python(
            "import json, sys; from pathlib import Path; import gpta; d = Path(sys.argv[1]); "
            "cfg = gpta.RunConfig.from_dict(json.loads((d / 'config.json').read_text())); "
            "gpta.run(cfg, d / 'straight'); gpta.run(cfg, d / 'resumed', resume_from=d / 'straight' / 'state_epoch0.json'); "
            "print(json.dumps(sorted(sys.modules)))",
            str(tmp_path),
        ))
        assert (tmp_path / "resumed" / "report.json").exists()
        assert not {"numpy.random", "secrets"} & set(loaded)
        src = Path(gpta.__file__).parent
        assert [str(path) for path in src.glob("*.py") if "np.random" in path.read_text(encoding="utf-8")] == []

    def test_import_leaves_the_http_transport_out(self):
        """The remote client imports urllib.request and http.client on first
        use; `import gpta` itself still loads gpta.remote. The site may
        preload modules, so only what the import adds counts."""
        added = json.loads(_python(
            "import json, sys; before = set(sys.modules); import gpta; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        ))
        assert "gpta.remote" in added
        assert not {"urllib.request", "http.client"} & set(added)

    def test_full_flow_without_requests(self):
        code = (
            "import sys; sys.modules['requests'] = None\n"
            "from gpta.remote import RemoteClient\n"
            "client = RemoteClient(sys.argv[1], api_key='k', backoff_base=0.01, poll_interval=0.01)\n"
            "print(client.chat('base-model', [], 1.0))\n"
            "print(client.run_finetune('base-model', b'{}'))\n"
        )
        with MockOpenAIServer() as server:
            out = _python(code, server.base_url)
            routes = [(r.method, r.path) for r in server.requests]
        assert out.splitlines() == ["Think step by step", "ft:mock-model:v1"]
        assert routes == [
            ("POST", "/v1/chat/completions"),
            ("POST", "/v1/files"),
            ("POST", "/v1/fine_tuning/jobs"),
            ("GET", "/v1/fine_tuning/jobs/ftjob-mock-1"),
            ("GET", "/v1/fine_tuning/jobs/ftjob-mock-1"),
        ]

    @pytest.mark.parametrize("url", ["file:///tmp", "data:,{}", "api.openai.com", "http://localhost:port", "http://[::1"])
    def test_client_refuses_a_base_url_that_is_not_http(self, url):
        with pytest.raises(ValidationError, match="base_url must be an absolute http or https URL with a host"):
            RemoteClient(url)

    def test_refused_connection_uses_the_attempt_budget(self, caplog):
        with socket.create_server(("127.0.0.1", 0)) as closed:
            port = closed.getsockname()[1]
        client = RemoteClient(f"http://127.0.0.1:{port}", timeout=5.0, backoff_base=0.01)
        with pytest.raises(TransportError, match="3 attempts.*refused"):
            client.chat("base-model", [], 1.0)
        assert [r.getMessage()[:12] for r in caplog.records] == ["attempt 1/3 ", "attempt 2/3 ", "attempt 3/3 "]

    def test_read_timeout_uses_the_attempt_budget(self):
        # The kernel accepts connections into the listen queue; nothing replies.
        with socket.create_server(("127.0.0.1", 0)) as silent:
            client = RemoteClient(f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.1, backoff_base=0.01)
            with pytest.raises(TransportError, match="3 attempts.*timed out"):
                client.chat("base-model", [], 1.0)
            silent.setblocking(False)
            connections = []
            try:
                while True:
                    connections.append(silent.accept()[0])
            except BlockingIOError:
                pass
            for conn in connections:
                conn.close()
        assert len(connections) == 3

    def test_uploaded_file_reaches_the_server_byte_exact(self):
        data = b'{"a": "--"}\r\n--\r\n--\n\r\n\r\n\x00\xff' + bytes(range(256)) + b"\r\n"
        with MockOpenAIServer() as server:
            assert make_client(server).upload_file(data) == "file-mock-1"
            (upload,) = server.requests_for("/v1/files")
        form = upload.form()
        assert list(form) == ["purpose", "file"]
        assert form["purpose"][1] == b"fine-tune"
        assert b'filename="training.jsonl"' in form["file"][0]
        assert b"Content-Type: application/jsonl" in form["file"][0]
        assert form["file"][1] == data

    def test_http_proxy_from_the_environment(self, monkeypatch):
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with MockOpenAIServer() as server:
            monkeypatch.setenv("HTTP_PROXY", server.base_url)
            client = make_client(server, base_url="http://gpta.invalid")
            assert client.chat("base-model", [], 1.0) == "Think step by step"
            (chat,) = server.requests
        assert chat.target == "http://gpta.invalid/v1/chat/completions"
        assert chat.path == "/v1/chat/completions"
        assert chat.headers["Host"] == "gpta.invalid"

    def test_every_reply_is_closed(self, every_reply_closed):
        with MockOpenAIServer(fail_first=1) as server:
            client = make_client(server)
            assert client.chat("base-model", [], 1.0) == "Think step by step"  # a 500, then a 200
            with pytest.raises(TransportError, match="HTTP 404: .*no such route /v1/nope"):
                client._request("GET", "/v1/nope")
            assert len(server.requests) == 3  # the 404 is not retried
        assert [getattr(r, "code", 200) for r in every_reply_closed] == [500, 200, 404]


def _history():
    from gpta import ScoredPrefix
    from gpta.history import PrefixHistory, insert_sorted

    h = PrefixHistory()
    for prefix, score in (("mid", 0.5), ("low", 0.1), ("high", 0.9)):
        h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))
    return h


def _scored_world():
    data = synth_generate(2, 30, 60, 0.1, 5)
    p = init_params(512, 2)
    p, _ = train_pass(p, Featurizer(512, 0, data), "alpha", 0.1, shuffle_seed=1)
    return freeze(p), data
