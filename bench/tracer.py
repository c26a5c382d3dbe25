"""Span tracer for the benchmark's traced run, and the per-layer metrics
derived from its spans.

`Tracer.install` wraps the public functions of each gpta layer module
(and the public methods of its plain classes, which is how the remote
client is reached) and rebinds every name in the package that refers to
an original. Modules import functions from each other by name, so
patching only the defining module would miss calls. Spans stay in memory
as (name, start, end, parent, run id, work) until `write` at the end.
"""

import dataclasses
import functools
import inspect
import json
import math
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("dataset", "trainer", "student", "history", "metrics", "ta", "dialogue_gradient", "remote")


def _bound(name):
    return lambda args, result: len(args[name])


# Work counted at a span: a function of the bound call arguments and the
# result, evaluated after the span ends, so its cost lands in the caller's
# self time. Hence the state size skips encoding an ASCII string
# (isascii() does not scan it).
WORK = {
    "student.train_pass": _bound("train"),
    "history.score_prefix": _bound("eval_set"),
    "trainer.state_to_json": lambda args, result: len(result)
    if result.isascii()
    else len(result.encode("utf-8")),
    "dialogue_gradient.serialize_jsonl": lambda args, result: len(result),
    "history.collect": lambda args, result: [len(result[1]), sum(r.generated for r in result[1])],
}

NAME, START, END, PARENT, RUN, WORK_ = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self.enabled = True
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work:
                span[WORK_] = work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules and rebind all
        references to them across the package."""
        prefix = package.__name__
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], "run": s[RUN], "work": s[WORK_]}
                    )
                    + "\n"
                )


def tail_quantile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond
    it; the median when there are too few samples for any of them."""
    for q in (0.999, 0.99, 0.95, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_stats(spans: list[list]) -> dict:
    """Per span name: calls, total time, self time, durations, work values
    and parent-name counts; a name never called reads as zero. Self time
    is a span's duration minus the time its child spans cover; spans come
    from one thread, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": [], "work": [],
                                 "parents": Counter()})
    for i, s in enumerate(spans):
        st = stats[s[NAME]]
        d = s[END] - s[START]
        st["calls"] += 1
        st["s"] += d
        st["self_s"] += d - child[i]
        st["durs"].append(d)
        if s[WORK_] is not None:
            st["work"].append(s[WORK_])
        st["parents"][spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None] += 1
    return stats


def layer_metrics(stats: dict, fnv_info, server_counts: Counter | None) -> dict:
    """The benchmark's per-layer metrics from layer_stats, as
    name -> (value, unit)."""
    get = stats.__getitem__
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for name in ("dataset.load_jsonl", "dataset.split", "trainer.prepare", "trainer.state_from_json",
                 "metrics.evaluate", "ta.render_generation_request", "ta.generate", "ta.finetune",
                 "dialogue_gradient.build_windows", "dialogue_gradient.enrich",
                 "dialogue_gradient.serialize_jsonl", "dialogue_gradient.parse_jsonl",
                 "student.featurize", "student.train_pass", "history.score_prefix",
                 "history.collect", "trainer.state_to_json"):
        put(f"{name}.s", get(name)["s"], "s")

    epochs = get("trainer.run_epoch")
    put("trainer.run_epoch.s_median", statistics.median(epochs["durs"]) if epochs["durs"] else 0.0, "s")
    put("trainer.run_epoch.s_max", max(epochs["durs"], default=0.0), "s")
    for name in ("trainer.run_epoch", "trainer.run", "trainer.state_to_json", "student.train_pass",
                 "history.score_prefix", "history.collect"):
        put(f"{name}.self_s", get(name)["self_s"], "s")
    put("trainer.state_to_json.bytes", sum(get("trainer.state_to_json")["work"]), "bytes")
    put("dialogue_gradient.serialize_jsonl.bytes", sum(get("dialogue_gradient.serialize_jsonl")["work"]),
        "bytes")

    feat = get("student.featurize")
    train_examples = sum(get("student.train_pass")["work"])
    put("student.train_pass.examples", train_examples, "count")
    put("student.featurize.calls", feat["calls"], "count")
    put("student.featurize.us_per_call", 1e6 * feat["s"] / feat["calls"] if feat["calls"] else 0.0, "us")
    lookups = fnv_info.hits + fnv_info.misses
    put("student.fnv1a64.cache_hit_ratio", fnv_info.hits / lookups if lookups else 0.0, "ratio")
    put("student.fnv1a64.misses", fnv_info.misses, "count")
    put("student.predict_forward.self_s",
        get("student.predict")["self_s"] + get("student.forward")["self_s"], "s")
    put("student.predict.calls", get("student.predict")["calls"], "count")
    put("student.forward.calls", get("student.forward")["calls"], "count")

    score = get("history.score_prefix")
    put("history.score_prefix.calls", score["calls"], "count")
    put("history.score_prefix.examples", sum(score["work"]), "count")
    put("history.score_prefix.rescore_calls", score["parents"]["trainer.run_epoch"], "count")
    put("history.score_prefix.collect_calls", score["parents"]["history.collect"], "count")

    collect = get("history.collect")
    rounds = sum(w[0] for w in collect["work"])
    generated = sum(w[1] for w in collect["work"])
    fresh = score["parents"]["history.collect"]
    put("history.collect.rounds", rounds, "count")
    put("history.collect.generated", generated, "count")
    put("history.collect.fresh", fresh, "count")
    put("history.collect.fresh_ratio", fresh / generated if generated else 0.0, "ratio")

    put("metrics.evaluate.calls", get("metrics.evaluate")["calls"], "count")
    gen = get("ta.generate")
    q = tail_quantile(len(gen["durs"]))
    put("ta.generate.calls", gen["calls"], "count")
    put("ta.generate.ms_p50", 1e3 * quantile(gen["durs"], 0.5) if gen["durs"] else 0.0, "ms")
    put("ta.generate.ms_tail", 1e3 * quantile(gen["durs"], q) if gen["durs"] else 0.0, "ms")
    put("ta.finetune.calls", get("ta.finetune")["calls"], "count")

    client_calls = 0
    for name in ("chat", "upload_file", "create_job", "get_job"):
        calls = get(f"remote.{name}")["calls"]
        client_calls += calls
        put(f"remote.{name}.calls", calls, "count")
    server_counts = server_counts or Counter()
    requests = sum(server_counts.values())
    put("remote.http_requests", requests, "count")
    put("remote.retries", requests - client_calls, "count")
    put("remote.http_5xx", sum(n for (_, status), n in server_counts.items() if status >= 500), "count")
    return m


def summary(st: dict) -> dict:
    """What the trace report prints besides the per-layer metrics: the
    largest self times, and the remote-client latencies, which are left
    out of the metrics because they are zero on the offline workloads."""
    ranked = sorted(st.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:6]
    out = {f"self_s rank {i + 1}: {name}": v["self_s"] for i, (name, v) in enumerate(ranked)}
    chat = st["remote.chat"]["durs"]
    out["remote.chat.samples"] = len(chat)
    if chat:
        q = tail_quantile(len(chat))
        out["remote.chat.ms_p50"] = 1e3 * quantile(chat, 0.5)
        out[f"remote.chat.ms_p{100 * q:g}"] = 1e3 * quantile(chat, q)
    for name in ("upload_file", "run_finetune"):
        out[f"remote.{name}.s"] = st[f"remote.{name}"]["s"]
    return out
