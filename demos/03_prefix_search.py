"""Search for good prefixes with the simulated assistant model.

The search sees the student only through a score function: the frozen
student's accuracy on validation data with a candidate prefix prepended,
read from the validation split's token tables.
It sees the assistant model only through a propose function,
`Proposer(ta, mp)`, which renders the history into a request and asks the
model for candidates.
The history keeps (prefix, score) pairs sorted ascending: that sorted
list is exactly what the assistant model conditions on when proposing the
next candidates, so it always sees the best results last.
"""

from gpta import (
    Featurizer,
    MetaPrompt,
    MetricKind,
    Proposer,
    collect,
    freeze,
    init_params,
    scorer,
    seed_history,
    simulated_handle,
    split,
    synth_generate,
    train_pass,
)
from gpta.ta import render_generation_request

data = synth_generate(class_count=2, per_class=200, vocab_size=120, noise=0.1, seed=7)
train, val, _ = split(data, (0.7, 0.2, 0.1), seed=13)

params = init_params(dims=1 << 12, class_count=2)
train_tables = Featurizer(dims=1 << 12, hash_seed=0, data=train)
params, _ = train_pass(params, train_tables, prefix="focus on tokens", lr=0.1, shuffle_seed=0)
frozen = freeze(params)

# half the pool shares the training prefix's "focus" token (useful family),
# half is junk with disjoint tokens
pool = [(f"focus variant number {i}", 1.0) for i in range(10)]
pool += [(f"unrelated filler {i}", 0.0) for i in range(10)]
ta = simulated_handle(pool, rng_seed=5)

mp = MetaPrompt(
    instruction="Propose short prefixes that raise the validation score.",
    name="synth-demo",
    task_summary="Classify each input text into one of 2 classes.",
    label_semantics=("0: class0", "1: class1"),
)

score = scorer(frozen, Featurizer(dims=1 << 12, hash_seed=0, data=val), MetricKind.ACCURACY)

h0 = seed_history(score)
print(f"seeded history: baseline (empty prefix) scores {h0.entries[0].score:.4f}")

h, rounds = collect(Proposer(ta, mp), score, h0, k=12, l=4)
print("\ncollected history (ascending, best last):")
for entry in h.entries:
    print(f"  {entry.score:.4f}  {entry.prefix!r}")

print("\nper-round improvement events:")
for i, r in enumerate(rounds):
    print(f"  round {i}: {r.generated} candidates, "
          f"{r.exceeded_max} beat the pre-round best")

print("\nwhat the assistant model would see next:")
request = render_generation_request(mp, h, l=4)
print("  " + request[1].content.replace("\n", "\n  "))
