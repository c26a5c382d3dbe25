"""Generate a synthetic classification corpus and look at what's inside.

Each class owns a planted set of keyword tokens (k0w3 belongs to class 0,
k1w7 to class 1, ...) mixed with shared noise tokens, so we always know
how learnable a corpus is: at label noise 0 a simple keyword-count
classifier is exact, and every bit is reproducible from the seed.
"""

import re

from gpta import load_jsonl, make_exemplars, split, synth_generate, write_jsonl

data = synth_generate(class_count=2, per_class=200, vocab_size=200, noise=0.1, seed=7)
print(f"generated {len(data)} examples, {data.class_count} classes")
for ex in data.examples[:3]:
    print(f"  label={ex.label}  text={ex.text!r}")

# a keyword-count oracle tells us the ceiling any classifier can reach
token_class = re.compile(r"^k(\d+)w\d+$")


def oracle(text):
    counts = [0, 0]
    for tok in text.split():
        m = token_class.match(tok)
        if m:
            counts[int(m.group(1))] += 1
    return 0 if counts[0] >= counts[1] else 1


acc = sum(oracle(ex.text) == ex.label for ex in data.examples) / len(data)
print(f"keyword-count oracle accuracy: {acc:.3f} (label noise 0.1 caps it near 0.95)")

train, val, test = split(data, (0.7, 0.2, 0.1), seed=13)
print(f"split sizes: train={len(train)} val={len(val)} test={len(test)}")

exemplars = make_exemplars(train, count=3, seed=17)
print("exemplars for the assistant model's prompt:")
for ex in exemplars:
    print(f"  {ex.text[:40]}... -> {ex.label}")

write_jsonl(data, "demo_out_synth.jsonl")
reloaded = load_jsonl("demo_out_synth.jsonl")
print(f"wrote and reloaded demo_out_synth.jsonl: round-trip equal = {reloaded == data}")
