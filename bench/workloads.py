"""The benchmark's named workloads and the seeded inputs each one runs on.

Everything random here (corpus, prefix pools, program seeds, the loopback
server's script) derives from the workload seed, so the same seed gives
byte-identical inputs. The program under test only sees what
`make_inputs` writes: a JSONL corpus and a spec holding the run config.
Generating the inputs is load generation and is never timed.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One named workload; BENCHMARK.json and BENCHMARK.md say why each
    exists."""

    name: str
    classes: int
    per_class: int
    vocab_size: int
    # RunConfig keyword arguments; data_path and the seeded fields are
    # filled in by make_inputs.
    config: dict
    # Number of seeded prefixes in the pool; 0 keeps the program's default
    # simulated pool. A remote workload's pool is the loopback server's.
    pool_size: int = 0
    # Words per seeded prefix. One count per workload keeps the scoring
    # work and the checkpoint bytes steady from seed to seed.
    prefix_words: int = 6
    label_noise: float = 0.0
    # Planted keywords per class; 0 gives half the vocabulary to keywords.
    # The rest of the vocabulary is shared noise tokens.
    keywords_per_class: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default-dims",
            classes=2,
            per_class=1000,
            vocab_size=200,
            config=dict(
                split_fractions=[0.85, 0.05, 0.10],
                metric="accuracy",
                epochs=4,
                # k - 2 < l: the history never holds enough of the 12-prefix
                # default pool for a round of l draws to be all known, so
                # collect cannot stall (at k=12 it does for some seeds).
                k=9,
                w=3,
                l=8,
            ),
            label_noise=0.05,
        ),
        Workload(
            name="search-heavy",
            classes=4,
            per_class=200,
            vocab_size=2000,
            config=dict(
                split_fractions=[0.4, 0.3, 0.3],
                metric="macro_f1",
                epochs=3,
                k=30,
                w=5,
                l=8,
                dims=4096,
            ),
            pool_size=60,
            prefix_words=6,
            label_noise=0.02,
            keywords_per_class=60,
        ),
        Workload(
            name="remote-loopback",
            classes=2,
            per_class=200,
            vocab_size=200,
            config=dict(
                split_fractions=[0.5, 0.25, 0.25],
                metric="neg_loss",
                epochs=6,
                k=12,
                w=3,
                l=2,
                dims=4096,
                ta_backend="remote",
                model_id="bench-base",
                request_timeout_s=30.0,
                retry_backoff_s=0.002,
                poll_interval_s=0.002,
                finetune_timeout_s=60.0,
            ),
            pool_size=40,
            prefix_words=4,
            keywords_per_class=20,
        ),
    )
}


def part_seed(seed: int, part: int) -> int:
    """Seed of the part-th input set of a benchmark run given `seed`. Each
    worker of a run gets its own input set, so a run's times average over
    several corpora and search paths instead of resting on one."""
    return int(np.random.SeedSequence((seed, part)).generate_state(1)[0])


def _seed_stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, purpose)))


def make_corpus(w: Workload, seed: int) -> list[tuple[str, int]]:
    """Planted-keyword corpus: class c owns tokens k{c}w{j}, the rest of the
    vocabulary is shared noise tokens n{j}. Texts are 8-14 tokens, 70% keywords;
    a share `label_noise` of labels is resampled uniformly."""
    rng = _seed_stream(seed, 0)
    per_class_kw = w.keywords_per_class or max(1, w.vocab_size // (2 * w.classes))
    noise_count = max(0, w.vocab_size - w.classes * per_class_kw)
    out = []
    for c in range(w.classes):
        for _ in range(w.per_class):
            length = int(rng.integers(8, 15))
            is_kw = rng.random(length) < 0.7
            is_kw[0] = True
            kw = rng.integers(per_class_kw, size=length)
            nz = rng.integers(max(1, noise_count), size=length)
            tokens = [
                f"k{c}w{kw[i]}" if is_kw[i] or not noise_count else f"n{nz[i]}"
                for i in range(length)
            ]
            label = c
            if rng.random() < w.label_noise:
                label = int(rng.integers(w.classes))
            out.append((" ".join(tokens), label))
    return out


def make_pool(w: Workload, seed: int, corpus: list[tuple[str, int]]) -> list[str]:
    """pool_size distinct prefixes of prefix_words distinct corpus words."""
    rng = _seed_stream(seed, 1)
    words = sorted({t for text, _ in corpus for t in text.split()})
    pool: dict[str, None] = {}
    while len(pool) < w.pool_size:
        pool[" ".join(rng.choice(words, size=w.prefix_words, replace=False))] = None
    return list(pool)


def make_inputs(w: Workload, seed: int, out_dir: Path) -> dict:
    """Write the corpus and return the spec a worker runs: the RunConfig
    keyword arguments and, for a remote workload, the server script."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_corpus(w, seed)
    data_path = out_dir / "corpus.jsonl"
    with open(data_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"classes": [f"class{c}" for c in range(w.classes)]}) + "\n")
        for text, label in corpus:
            f.write(json.dumps({"text": text, "label": label}) + "\n")

    seeds = _seed_stream(seed, 2).integers(0, 2**31, size=3)
    config = dict(w.config)
    config.update(
        data_path=str(data_path),
        split_seed=int(seeds[0]),
        shuffle_seed=int(seeds[1]),
        sim_seed=int(seeds[2]),
    )
    spec = {"workload": w.name, "seed": seed, "config": config, "server": None}
    pool = make_pool(w, seed, corpus) if w.pool_size else []
    if config.get("ta_backend") == "remote":
        spec["server"] = {"seed": seed, "pool": pool, "l": config["l"]}
    elif pool:
        config["sim_pool"] = [[p, 0.0] for p in pool]
    (out_dir / "spec.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec
