"""Train the student classifier and see why prefixes matter to it.

The student is softmax regression over hashed token counts, plus
prefix-token x input-token interaction features. The interactions are the
point: a prefix changes which weights an input activates, so different
prefixes genuinely reshape the decision surface instead of just shifting
class priors.
"""

from gpta import (
    Featurizer,
    MetricKind,
    featurize,
    freeze,
    init_params,
    predict,
    score_prefix,
    split,
    synth_generate,
    train_pass,
)

data = synth_generate(class_count=2, per_class=200, vocab_size=120, noise=0.1, seed=3)
train, val, _ = split(data, (0.7, 0.2, 0.1), seed=13)

# interaction features in action: same text, different prefix, different set
f_plain = featurize("", "k0w1 noise4", dims=1 << 12, hash_seed=0)
f_prefixed = featurize("focus here", "k0w1 noise4", dims=1 << 12, hash_seed=0)
print(f"feature count without prefix: {len(f_plain)}, with prefix: {len(f_prefixed)}")
print(f"new indices contributed by the prefix: {sorted(set(f_prefixed) - set(f_plain))}")

# the train split as token tables: every text's tokens, hashed with one seed
train_tables = Featurizer(dims=1 << 12, hash_seed=0, data=train)
params = init_params(dims=1 << 12, class_count=2)
for i in range(3):
    params, mean_loss = train_pass(
        params, train_tables, prefix="focus here", lr=0.1, shuffle_seed=i
    )
    acc = sum(
        predict(params, "focus here", ex.text) == ex.label for ex in train.examples
    ) / len(train)
    print(f"pass {i}: mean pre-update loss {mean_loss:.4f}, train accuracy {acc:.3f}")

# the model co-adapted to its training prefix: score with it, without it,
# and with a prefix it has never seen (all on held-out data)
frozen = freeze(params)
for prefix in ("focus here", "", "totally novel words"):
    acc = score_prefix(frozen, prefix, val, MetricKind.ACCURACY)
    nll = -score_prefix(frozen, prefix, val, MetricKind.NEG_MEAN_LOSS)
    print(f"validation under prefix {prefix!r}: accuracy {acc:.3f}, mean loss {nll:.4f}")
print("(a good prefix is one the trained weights expect to see)")
