"""The whole loop, end to end and offline.

Each epoch: train the student with the current best prefix, freeze it,
re-score and grow the prefix history against the new checkpoint, slice the
history into dialogue examples, and tune the assistant model on them. Both
models improve toward the same validation metric; everything below is a
pure function of the config.
"""

import json
from pathlib import Path

from gpta import RunConfig, run, synth_generate, write_jsonl
from gpta.cli import emit_report
from gpta.fileio import record_from_json
from gpta.ta import SimState, softmax_pool_mass

workdir = Path("demo_out_run")
workdir.mkdir(exist_ok=True)
data_path = workdir / "synth.jsonl"
write_jsonl(synth_generate(2, 500, 200, 0.1, 7), data_path)

family = tuple(f"focus variant number {i}" for i in range(10))
pool = tuple((p, 2.0) for p in family) + tuple(
    (f"unrelated filler {i}", 0.0) for i in range(30)
)

cfg = RunConfig(
    data_path=str(data_path),
    split_fractions=(0.7, 0.2, 0.1),
    epochs=3,
    k=20,
    w=5,
    l=8,
    dims=1 << 12,
    sim_pool=pool,
    sim_seed=11,
)

report = run(cfg, workdir / "run")
print("per-epoch records:")
for r in report.records:
    print(f"  epoch {r.epoch}: trained with {r.train_prefix!r}")
    print(f"    train loss {r.train_loss:.4f}, val best {r.val_best:.4f}, "
          f"val baseline {r.val_empty:.4f}, improvement rate {r.improvement_rate:.3f}")

print(f"\nbest prefix overall: {report.best.prefix!r} "
      f"({report.best.score:.4f} at epoch {report.best.epoch})")

initial = SimState(pool=list(pool), rng_seed=11)
final = record_from_json(
    SimState, json.loads((workdir / "run" / "state_epoch2.json").read_text())["ta"]["sim"], "sim"
)
print(f"assistant model's mass on the useful prefix family: "
      f"{softmax_pool_mass(initial, family):.4f} -> {softmax_pool_mass(final, family):.4f}")

emit_report(workdir / "run", workdir / "report")
print(f"\nrun artifacts in {workdir / 'run'}, curves in {workdir / 'report'}/curves.svg")
