"""Turn a scored history into tuning data and tune the assistant model.

A sliding window over the ascending history becomes the user message and
the next (better) prefix becomes the assistant message: "given these
scored attempts, emit what beats them". Tuning on those examples shifts
the simulated model's sampling mass toward the prefixes that actually
scored well.
"""

from gpta import (
    MetaPrompt,
    ScoredPrefix,
    build_windows,
    cap,
    enrich,
    finetune,
    serialize_jsonl,
    simulated_handle,
    softmax_pool_mass,
)
from gpta.history import PrefixHistory, insert_sorted

pairs = [
    ("", 0.50), ("unrelated filler 3", 0.50), ("unrelated filler 7", 0.51),
    ("focus variant number 2", 0.58), ("focus variant number 5", 0.60),
    ("focus variant number 1", 0.63), ("focus variant number 8", 0.66),
    ("focus variant number 0", 0.70),
]
h = PrefixHistory()
for prefix, score in pairs:
    h = insert_sorted(h, ScoredPrefix(prefix=prefix, score=score))

windows = build_windows(h, w=5)
print(f"history of {len(h)} entries, window 5 -> {len(windows)} dialogue examples")
print(f"targets: {[g.target for g in windows]}")

mp = MetaPrompt(
    instruction="Propose short prefixes that raise the validation score.",
    name="synth-demo",
    task_summary="Classify each input text into one of 2 classes.",
)
examples = cap(enrich(windows, mp), max_n=50)
data = serialize_jsonl(examples)
print(f"\nwire format ({len(data)} bytes), first line:")
print("  " + data.decode("utf-8").splitlines()[0][:160] + "...")

pool = [(f"focus variant number {i}", 1.0) for i in range(10)]
pool += [(f"unrelated filler {i}", 0.0) for i in range(10)]
ta = simulated_handle(pool, rng_seed=5)

targets = sorted({g.target for g in windows})
before = softmax_pool_mass(ta.sim, targets)
tuned = finetune(ta, data)
after = softmax_pool_mass(tuned.sim, targets)
print(f"\nsampling mass on the tuning targets: {before:.4f} -> {after:.4f}")
print(f"model generation: {ta.generation} -> {tuned.generation}")
