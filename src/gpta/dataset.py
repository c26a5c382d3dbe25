"""Labeled text data: JSONL ingestion, deterministic splits, exemplar
subsets, and a synthetic corpus generator for offline runs.

All values are immutable after construction and safe to share across
threads. Labels are dense 0-based integers; callers with string labels
must map them before loading.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .fileio import encodes, jsonl_objects, read_text, write_atomic
from .rng import Stream


@dataclass(frozen=True)
class TextExample:
    """One (text, label) pair."""

    text: str
    label: int


@dataclass(frozen=True)
class Dataset:
    examples: tuple[TextExample, ...]
    class_count: int
    class_names: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> list[int]:
        return [ex.label for ex in self.examples]


# Exemplar sets are deliberately tiny: they end up verbatim inside
# assistant-model prompts, so a hard cap keeps those prompts short.
EXEMPLAR_CAP = 8


def _validate_example(text: str, label: int, line: int) -> TextExample:
    if not isinstance(text, str) or not text.strip() or not encodes(text):
        raise ParseError("field 'text' must be a non-empty string that encodes as UTF-8", line)
    if isinstance(label, bool) or not isinstance(label, int):
        raise ParseError("field 'label' must be an integer", line)
    if label < 0:
        raise ParseError(f"label {label} out of range (must be >= 0)", line)
    return TextExample(text=text, label=label)


def load_jsonl(path: str | Path) -> Dataset:
    """Load a dataset from a JSONL file.

    Each line is a JSON object with a string "text" and an integer
    "label". An optional first line {"classes": [...]} fixes the class
    count and names; otherwise class_count = 1 + max label.
    """
    path = Path(path)
    examples: list[TextExample] = []
    class_names: tuple[str, ...] | None = None
    declared_count: int | None = None

    for lineno, obj in jsonl_objects(read_text(path)):
        if lineno == 1 and "classes" in obj:
            names = obj["classes"]
            if not isinstance(names, list) or not names or not all(isinstance(n, str) and encodes(n) for n in names):
                raise ParseError("'classes' must be a non-empty list of strings that encode as UTF-8", lineno)
            class_names = tuple(names)
            declared_count = len(names)
            continue
        if "text" not in obj or "label" not in obj:
            raise ParseError("missing required field 'text' or 'label'", lineno)
        ex = _validate_example(obj["text"], obj["label"], lineno)
        if declared_count is not None and ex.label >= declared_count:
            raise ParseError(f"label {ex.label} out of range for {declared_count} classes", lineno)
        examples.append(ex)

    if not examples:
        raise ValidationError(f"no examples in {path}")
    class_count = declared_count or (1 + max(ex.label for ex in examples))
    return Dataset(examples=tuple(examples), class_count=class_count, class_names=class_names)


def split(
    d: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministically split into (train, validation, test).

    Shuffles by `Stream(seed).permutation`, then slices contiguously; the
    three parts partition the input exactly.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if len(fractions) != 3:
        raise ValidationError("fractions must have exactly three entries")
    if any(not (0.0 < f < 1.0) for f in fractions):
        raise ValidationError("each fraction must lie in (0, 1)")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(d)
    if n < 3:
        raise ValidationError(f"need at least 3 examples to split, got {n}")

    order = Stream(seed).permutation(n)
    shuffled = [d.examples[i] for i in order]
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    parts = (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )
    for name, part in zip(("train", "validation", "test"), parts):
        if not part:
            raise ValidationError(f"{name} split is empty (n={n}, fractions={fractions})")
    return tuple(
        Dataset(examples=tuple(p), class_count=d.class_count, class_names=d.class_names)
        for p in parts
    )


def make_exemplars(train: Dataset, count: int, seed: int) -> tuple[TextExample, ...]:
    """Sample `count` training examples without replacement, by
    `Stream(seed).choice`. Count 0 is valid and yields no exemplars (they
    are optional)."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not 0 <= count <= EXEMPLAR_CAP:
        raise ValidationError(f"exemplar count must be in [0, {EXEMPLAR_CAP}], got {count}")
    if count > len(train):
        raise ValidationError(f"exemplar count {count} exceeds train size {len(train)}")
    if count == 0:
        return ()
    return tuple(train.examples[i] for i in Stream(seed).choice(len(train), count))


def synth_generate(
    class_count: int,
    per_class: int,
    vocab_size: int = 200,
    noise: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Generate a synthetic classification corpus with planted keywords.

    Class c owns keyword tokens "k{c}w{j}"; the rest of the vocabulary is
    shared noise tokens "noise{j}". Each example draws most of its tokens
    from its class keywords, always starting with one, so at noise 0 a
    keyword-count classifier is exact. With probability `noise` the label
    is resampled uniformly. Every draw comes from one `Stream(seed)`, so
    identical seeds give byte-identical output.
    """
    if class_count < 2:
        raise ValidationError(f"class_count must be >= 2, got {class_count}")
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    if not 0.0 <= noise < 1.0:
        raise ValidationError(f"noise must be in [0, 1), got {noise}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    keywords_per_class = max(1, vocab_size // (2 * class_count))
    noise_count = max(0, vocab_size - class_count * keywords_per_class)
    keywords = [
        [f"k{c}w{j}" for j in range(keywords_per_class)] for c in range(class_count)
    ]
    noise_pool = [f"noise{j}" for j in range(noise_count)]

    rng = Stream(seed)
    examples: list[TextExample] = []
    for c in range(class_count):
        for _ in range(per_class):
            length = rng.integers(8, 15)
            tokens = [keywords[c][rng.integers(keywords_per_class)]]
            for _ in range(length - 1):
                if noise_pool and rng.random() >= 0.7:
                    tokens.append(noise_pool[rng.integers(noise_count)])
                else:
                    tokens.append(keywords[c][rng.integers(keywords_per_class)])
            label = c
            if noise > 0.0 and rng.random() < noise:
                label = rng.integers(class_count)
            examples.append(TextExample(text=" ".join(tokens), label=label))

    return Dataset(
        examples=tuple(examples),
        class_count=class_count,
        class_names=tuple(f"class{c}" for c in range(class_count)),
    )


def write_jsonl(d: Dataset, path: str | Path) -> None:
    """Write a dataset atomically in the JSONL format load_jsonl reads,
    including the classes header line when class names are known."""
    header = [] if d.class_names is None else [{"classes": list(d.class_names)}]
    rows = header + [{"text": ex.text, "label": ex.label} for ex in d.examples]
    write_atomic(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
