"""Benchmark command: run one named workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh worker processes one after another, a closed loop from a
single client, until S seconds have passed and at least the minimum
number have run. Each worker gets its own input set, built from the
seed and its index (not timed). It times set-up, an uninterrupted run
and resumes, and checks the outputs (see worker.py).

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
times are means over the workers, the rest medians. With --trace 1
untraced and traced workers alternate; the metrics are the per-layer
ones, as medians over the traced workers, and trace.overhead_pct
compares the two kinds. The last stdout
line is one JSON object: correct, attempted, failed and metrics.
Everything a run writes goes under .bench_work/ in the checkout,
including BENCH_<workload>.json with the environment and every worker's
figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs, part_seed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_UNTRACED = 3
# Set-up-only workers per end-to-end run, so setup_s is a median of many.
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 150
# Resumes per untraced worker, each from the same state file.
RESUMES = 2


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_worker(spec_path: Path, iter_dir: Path, mode: str = "untraced", resumes: int = 1) -> dict:
    """Run one worker process to completion; mode is untraced, traced or setup."""
    iter_dir.mkdir(parents=True)
    result_path = iter_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path), str(iter_dir)]
    if mode == "traced":
        cmd += ["--trace", str(iter_dir / "spans.jsonl")]
    elif mode == "setup":
        cmd += ["--setup-only"]
    else:
        cmd += ["--resumes", str(resumes)]
    log = iter_dir / "worker.log"
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(encoding="utf-8"))
        raise RuntimeError(f"worker exited with code {proc.returncode}; log in {log}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["mode"] = mode
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gpta" / "__init__.py").is_file():
        print(f"error: no gpta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    def spec(part: int) -> Path:
        """The spec of the run's part-th input set, built on first use."""
        inputs = work / f"inputs{part}"
        if not inputs.exists():
            make_inputs(WORKLOADS[args.workload], part_seed(args.seed, part), inputs)
        return inputs / "spec.json"

    def by_mode(mode):
        return [r for r in results if r["mode"] == mode]

    results = []
    start = time.perf_counter()
    while True:
        untraced, traced = by_mode("untraced"), by_mode("traced")
        if args.trace:
            needed = not untraced or not traced
        else:
            needed = len(untraced) < MIN_UNTRACED
        if not needed and time.perf_counter() - start >= args.seconds:
            break
        setups = len(by_mode("setup"))
        if not args.trace and setups < SETUP_SAMPLES:
            # One before each full worker, so the samples spread over the run.
            results.append(run_worker(spec(setups), work / f"setup{setups}", "setup"))
        mode = "traced" if args.trace and len(traced) < len(untraced) else "untraced"
        # The k-th traced worker runs the k-th untraced worker's inputs.
        part = len(by_mode(mode))
        results.append(run_worker(spec(part), work / f"iter{len(results)}", mode, RESUMES))
    untraced, traced = by_mode("untraced"), by_mode("traced")
    full = untraced + traced

    attempted = sum(r["epochs_attempted"] + len(r["checks"]) for r in full)
    failed = sum(r["epochs_failed"] + sum(not ok for ok in r["checks"].values()) for r in full)
    requests = sum(r["http_requests"] for r in full)
    non2xx = sum(r["http_non2xx"] for r in full)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if not args.trace:
        # Over the input sets every run covers, so these repeat for a seed.
        computed = {
            key: (med(untraced[:MIN_UNTRACED], key), None)
            for key in ("run_dir_bytes", "peak_rss_mb", "val_best", "test_score")
        }
        # Mean, not median: on a shared host the CPU speed can alternate
        # between two levels over seconds. The mean moves smoothly with the
        # share of the run spent at each level; the median jumps.
        computed["run_s"] = (statistics.fmean(r["run_s"] for r in untraced), None)
        computed["resume_s"] = (statistics.fmean(t for r in untraced for t in r["resume_s"]), None)
        computed["setup_s"] = (med(by_mode("setup") + untraced, "setup_s"), None)
        computed["ok_ratio"] = (1 - (failed + non2xx) / (attempted + requests), None)
    else:
        computed = {
            name: (statistics.median(r["layers"][name][0] for r in traced), traced[0]["layers"][name][1])
            for name in traced[0]["layers"]
        }
        walls, traced_walls = (
            statistics.fmean(r["run_s"] + r["resume_s"][0] for r in rs) for rs in (untraced, traced)
        )
        computed["trace.overhead_pct"] = (100 * (traced_walls / walls - 1), "%")

    metrics = {}
    for m in wanted:
        value, unit = computed[m["name"]]
        if unit is not None and unit != m["unit"]:
            raise ValueError(f"{m['name']}: computed in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    env = environment()
    env.update(python=full[0]["python"], numpy=full[0]["numpy"])
    failing = sorted({name for r in full for name, ok in r["checks"].items() if not ok})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "workers": {mode: len(by_mode(mode)) for mode in ("setup", "untraced", "traced")},
        "operations": {"attempted": attempted, "failed": failed, "http_requests": requests,
                       "http_non2xx": non2xx},
        "metrics": metrics,
        "failing_checks": failing,
        "iterations": results,
    }
    (WORK / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: workers {json.dumps(record['workers'])}, "
          f"operations {json.dumps(record['operations'])}, environment {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if traced:
        for key, value in traced[-1]["trace_summary"].items():
            print(f"  {key:44s} {value:>16.6g}")
    if failing:
        print(f"failing checks: {', '.join(failing)}")
    print(json.dumps({"correct": not failing, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
