"""One benchmark iteration in a fresh process: set up, run, resume, check.

    python3 bench/worker.py SPEC RESULT WORK_DIR [--trace SPANS | --resumes N | --setup-only]

SPEC is a spec.json written by workloads.make_inputs. The worker times its
set-up (import gpta, RunConfig construction and validation,
trainer.prepare and, for a remote workload, the loopback server start),
one uninterrupted gpta.run, and N runs (1 by default) resumed from the
middle epoch's state file, each from an empty fnv1a64 cache. It then
checks the outputs, scores the kept artifact on the test split, and
writes RESULT as JSON. With --trace, every gpta
layer is wrapped in spans before set-up; the per-layer metrics join the
result and the spans are written to SPANS. With --setup-only, the worker
stops after set-up and reports only its time.
"""

import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _ok_2xx(counts: Counter, route: str) -> int:
    return sum(n for (r, status), n in counts.items() if r == route and 200 <= status < 300)


def check_outputs(gpta, cfg, run_dir: Path, resume_dirs: list[Path], mid: int, counts: dict) -> dict:
    """Correctness checks on one iteration's outputs, as name -> passed."""
    checks = {}
    last = f"state_epoch{cfg.epochs - 1}.json"
    checks["resume_byte_identical"] = all(
        (run_dir / name).read_bytes() == (d / name).read_bytes()
        for d in resume_dirs
        for name in (last, "report.json")
    )
    sorted_k = True
    for epoch in range(cfg.epochs):
        history = json.loads((run_dir / f"state_epoch{epoch}.json").read_text(encoding="utf-8"))["history"]
        scores = [entry["score"] for entry in history]
        sorted_k = sorted_k and len(history) == cfg.k and scores == sorted(scores)
    checks["history_sorted_k"] = sorted_k
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    checks["val_best_over_empty"] = all(r["val_best"] >= r["val_empty"] for r in report["epochs"])
    gradients = sorted(run_dir.glob("gradients_epoch*.jsonl"))
    checks["gradients_round_trip"] = len(gradients) == cfg.epochs and all(
        gpta.serialize_jsonl(gpta.parse_jsonl(p.read_bytes())) == p.read_bytes() for p in gradients
    )
    if cfg.ta_backend == "remote":
        resumed_epochs = cfg.epochs - mid - 1
        checks["one_upload_and_job_per_epoch"] = all(
            _ok_2xx(c, "files") == n and _ok_2xx(c, "jobs.create") == n
            for phase, c in counts.items()
            for n in [cfg.epochs if phase == "run" else resumed_epochs]
        )
    return checks


def main(argv: list[str]) -> int:
    spec_path, result_path, work_dir = (Path(a) for a in argv[:3])
    spans_path = Path(argv[4]) if argv[3:4] == ["--trace"] else None
    resumes = int(argv[4]) if argv[3:4] == ["--resumes"] else 1
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    config = dict(spec["config"])
    # The client honours proxy variables; the loopback server is reached directly.
    os.environ["NO_PROXY"] = "127.0.0.1"

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gpta

    if not Path(gpta.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"gpta imported from {gpta.__file__}, not from the checkout")
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(gpta)
    server = None
    if spec["server"]:
        from loopback_server import LoopbackServer

        server = LoopbackServer(**spec["server"]).start()
        config["base_url"] = server.base_url
    try:
        cfg = gpta.RunConfig.from_dict(config)
        ctx = gpta.prepare(cfg)
        setup_s = time.perf_counter() - t0
        if argv[3:4] == ["--setup-only"]:
            result = {"setup_s": setup_s}
        else:
            result = iterate(gpta, cfg, ctx, server, tracer, work_dir, spans_path, resumes)
            result["setup_s"] = setup_s
    finally:
        if server is not None:
            server.stop()
    Path(result_path).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


def iterate(gpta, cfg, ctx, server, tracer, work_dir: Path, spans_path: Path | None,
            resumes: int) -> dict:
    """Run once, resume `resumes` times and check; returns the figures."""
    counts: dict[str, Counter] = {}

    def phase(name, fn):
        if tracer is not None:
            tracer.run_id = name
        before = server.snapshot() if server else Counter()
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        counts[name] = (server.snapshot() - before) if server else Counter()
        return out, elapsed

    run_dir = work_dir / "run"
    resume_dirs = [work_dir / f"resume{i}" for i in range(resumes)]
    for d in (run_dir, *resume_dirs):
        shutil.rmtree(d, ignore_errors=True)
    mid = cfg.epochs // 2 - 1
    report, run_s = phase("run", lambda: gpta.run(cfg, run_dir))
    # A resume recovers from a crash, so it starts as a fresh process
    # would: with an empty fnv1a64 cache.
    resumes_out = []
    fnv = gpta.student.fnv1a64
    fnv_infos = []
    for i, d in enumerate(resume_dirs):
        fnv_infos.append(fnv.cache_info())
        fnv.cache_clear()
        resumes_out.append(
            phase(f"resume{i}", lambda: gpta.run(cfg, d, resume_from=run_dir / f"state_epoch{mid}.json"))
        )
    resumed = resumes_out[0][0]
    resume_samples = [elapsed for _, elapsed in resumes_out]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_dir_bytes = _dir_bytes(run_dir)
    if tracer is not None:
        tracer.enabled = False
    fnv_infos.append(fnv.cache_info())
    fnv_info = fnv_infos[-1]._replace(
        hits=sum(i.hits for i in fnv_infos), misses=sum(i.misses for i in fnv_infos)
    )

    checks = check_outputs(gpta, cfg, run_dir, resume_dirs, mid, counts)
    best_file = run_dir / report.to_dict()["best_state_file"]
    best = gpta.trainer.state_from_json(best_file.read_text(encoding="utf-8"), cfg)
    test = gpta.score_prefix(gpta.freeze(best.student), report.best.prefix, ctx.test, ctx.kind, cfg.hash_seed)
    val = report.best.score
    if ctx.kind is gpta.MetricKind.NEG_MEAN_LOSS:
        # Report the geometric-mean probability of the true label, so
        # the score is positive and still higher-is-better.
        val, test = math.exp(val), math.exp(test)

    http = sum(counts.values(), Counter())
    result = {
        "run_s": run_s,
        "resume_s": resume_samples,
        "run_dir_bytes": run_dir_bytes,
        "peak_rss_mb": peak_rss_mb,
        "val_best": val,
        "test_score": test,
        "epochs_attempted": cfg.epochs + resumes * (cfg.epochs - mid - 1),
        "epochs_failed": sum(r.finetune_error is not None for r in report.records)
        + sum(r.finetune_error is not None for out, _ in resumes_out for r in out.records[mid + 1 :]),
        "checks": checks,
        "http_requests": sum(http.values()),
        "http_requests_by_phase": {phase: sum(c.values()) for phase, c in counts.items()},
        "http_non2xx": sum(n for (_, status), n in http.items() if not 200 <= status < 300),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        from tracer import layer_metrics, layer_stats, summary

        stats = layer_stats(tracer.spans)
        layers = layer_metrics(stats, fnv_info, server.snapshot() if server else None)
        feat = layers["student.featurize.calls"][0]
        expected = layers["student.train_pass.examples"][0] + layers["history.score_prefix.examples"][0]
        checks["featurize_calls_identity"] = feat == expected
        result["layers"] = layers
        result["trace_summary"] = summary(stats)
        tracer.write(spans_path)
    if all(checks.values()):
        for d in (run_dir, *resume_dirs):
            shutil.rmtree(d)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
