"""Tests of the benchmark itself: determinism of its inputs and counts,
tracing that leaves the program's output alone, the loopback server's
script, and the refusal to run without the program's sources.

    python3 -m pytest -q bench/

Each workload runs three workers (one untraced with two resumes, two
traced), so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from loopback_server import FAIL_EVERY, LoopbackServer
from run import BENCH, ROOT, run_worker
from workloads import WORKLOADS, make_inputs, part_seed

SEED = 5


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workers(request, tmp_path_factory):
    """One untraced worker with two resumes and two traced workers, on the
    same seeded inputs."""
    tmp = tmp_path_factory.mktemp(request.param)
    make_inputs(WORKLOADS[request.param], SEED, tmp / "inputs")
    spec = tmp / "inputs" / "spec.json"
    return [run_worker(spec, tmp / "iter0", "untraced", resumes=2)] + [
        run_worker(spec, tmp / f"iter{i}", "traced") for i in (1, 2)
    ]


def test_every_check_passes(workers):
    for r in workers:
        assert r["checks"] and all(r["checks"].values()), r["checks"]
        assert r["epochs_failed"] == 0
    assert workers[1]["checks"]["featurize_calls_identity"]
    assert [len(r["resume_s"]) for r in workers] == [2, 1, 1]


def test_same_seed_gives_identical_counts_and_scores(workers):
    a, b = workers[1], workers[2]
    for name in ("student.featurize.calls", "history.score_prefix.examples", "remote.http_requests",
                 "remote.retries"):
        assert a["layers"][name] == b["layers"][name], name
    for key in ("run_dir_bytes", "val_best", "test_score", "http_requests"):
        assert a[key] == b[key], key


def test_tracing_does_not_change_the_output(workers):
    untraced, traced = workers[0], workers[1]
    for key in ("val_best", "test_score", "run_dir_bytes"):
        assert untraced[key] == traced[key], key
    by_phase = untraced["http_requests_by_phase"]
    assert by_phase == {**traced["http_requests_by_phase"], "resume1": by_phase["resume0"]}


def test_traced_run_reports_every_declared_layer_metric(workers):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_pct"}
    assert names == set(workers[1]["layers"])
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, (_, unit) in workers[1]["layers"].items():
        assert units[name] == unit, name


def test_seed_determines_the_corpus(tmp_path):
    w = WORKLOADS["search-heavy"]
    specs = [make_inputs(w, seed, tmp_path / str(i)) for i, seed in enumerate((1, 1, 2))]
    corpora = [(tmp_path / str(i) / "corpus.jsonl").read_bytes() for i in range(3)]
    assert corpora[0] == corpora[1]
    assert corpora[0] != corpora[2]
    assert specs[0]["config"]["sim_pool"] == specs[1]["config"]["sim_pool"]
    assert specs[0]["config"]["sim_pool"] != specs[2]["config"]["sim_pool"]


def test_each_worker_of_a_run_gets_its_own_input_set():
    parts = [part_seed(1, i) for i in range(4)]
    assert parts == [part_seed(1, i) for i in range(4)]
    assert len(set(parts)) == 4
    assert part_seed(2, 0) not in parts


def _chat(server, body: bytes) -> tuple[int, dict]:
    return server.handle("POST", "/v1/chat/completions", "application/json", body)


def test_server_failure_schedule_never_fails_twice_in_a_row():
    server = LoopbackServer(seed=3, pool=["a b", "c d", "e f"], l=2)
    statuses = [_chat(server, b'{"n": %d}' % i)[0] for i in range(10 * FAIL_EVERY)]
    assert statuses.count(500) == 10
    assert all(not (x == y == 500) for x, y in zip(statuses, statuses[1:]))


def test_server_replies_depend_on_seed_and_request_only():
    def replies(seed):
        server = LoopbackServer(seed=seed, pool=[f"p{i} q{i}" for i in range(30)], l=3)
        return [_chat(server, b'{"n": %d}' % (i // 2)) for i in range(20)]

    first, again, other = replies(7), replies(7), replies(8)
    assert first == again
    assert first != other
    texts = [r["choices"][0]["message"]["content"] for status, r in first if status == 200]
    # A request repeated right after itself gets a fresh reply.
    assert len(set(texts)) > len(texts) // 2


def test_server_walks_each_job_through_its_statuses():
    server = LoopbackServer(seed=1, pool=["a"], l=1)  # request 1 of each 25 fails
    body = b"x" * 10
    ctype = "multipart/form-data; boundary=BND"
    upload = b'--BND\r\nContent-Disposition: form-data; name="file"\r\n\r\n' + body + b"\r\n--BND--\r\n"
    assert server.handle("GET", "/v1/fine_tuning/jobs/none", "", b"")[0] == 404
    assert server.handle("POST", "/v1/files", ctype, upload)[0] == 500
    status, file_reply = server.handle("POST", "/v1/files", ctype, upload)
    assert status == 200
    req = json.dumps({"model": "m", "training_file": file_reply["id"]}).encode()
    status, job = server.handle("POST", "/v1/fine_tuning/jobs", "application/json", req)
    assert (status, job["status"]) == (200, "queued")
    polls = [server.handle("GET", f"/v1/fine_tuning/jobs/{job['id']}", "", b"")[1] for _ in range(4)]
    assert [p["status"] for p in polls] == ["queued", "running", "succeeded", "succeeded"]
    assert polls[2]["fine_tuned_model"].startswith("ft:bench-")
    assert server.counts[("files", 500)] == 1 and server.counts[("jobs.get", 200)] == 4


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default-dims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
