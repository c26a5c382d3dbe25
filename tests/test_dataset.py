import re
from collections import Counter

import pytest

from gpta import Dataset, ParseError, TextExample, ValidationError, load_jsonl, make_exemplars, split, synth_generate
from gpta.dataset import write_jsonl


def write_lines(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_jsonl_basic(tmp_path):
    path = write_lines(
        tmp_path, ['{"text":"good","label":1}', '{"text":"bad","label":0}']
    )
    d = load_jsonl(path)
    assert len(d) == 2
    assert d.class_count == 2
    assert d.examples[0].text == "good"
    assert d.examples[0].label == 1


def test_load_jsonl_classes_header(tmp_path):
    path = write_lines(
        tmp_path,
        ['{"classes":["neg","pos","neutral"]}', '{"text":"meh","label":2}'],
    )
    d = load_jsonl(path)
    assert d.class_count == 3
    assert d.class_names == ("neg", "pos", "neutral")


def test_load_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match="no examples"):
        load_jsonl(path)


def test_load_jsonl_negative_label_names_line(tmp_path):
    path = write_lines(
        tmp_path, ['{"text":"ok","label":0}', '{"text":"bad","label":-1}']
    )
    with pytest.raises(ParseError, match="line 2"):
        load_jsonl(path)


_OK = '{"text":"ok","label":0}'
MALFORMED_FILES = {
    "not-json": ([_OK, "{not json"], "line 2: invalid JSON"),
    "not-object": ([_OK, "[1, 2]"], "line 2: expected a JSON object"),
    "blank-text": ([_OK, '{"text":"  ","label":0}'], "line 2: field 'text' must be a non-empty string"),
    "number-text": ([_OK, '{"text":3,"label":0}'], "line 2: field 'text' must be a non-empty string"),
    "bool-label": ([_OK, '{"text":"x","label":true}'], "line 2: field 'label' must be an integer"),
    "missing-label": ([_OK, '{"text":"x"}'], "line 2: missing required field 'text' or 'label'"),
    "empty-classes": (['{"classes":[]}', _OK], "line 1: 'classes' must be a non-empty list of strings"),
    "string-classes": (['{"classes":"ab"}', _OK], "line 1: 'classes' must be a non-empty list of strings"),
    "number-class": (['{"classes":["a",1]}', _OK], "line 1: 'classes' must be a non-empty list of strings"),
    # JSON's \ud800 escape decodes to a lone surrogate, which no tokenizer or writer can encode.
    "surrogate-text": (
        [_OK, '{"text":"x \\ud800","label":0}'], "line 2: field 'text' must be a non-empty string that encodes as UTF-8"
    ),
    "surrogate-class": (
        ['{"classes":["a","\\udfff"]}', _OK],
        "line 1: 'classes' must be a non-empty list of strings that encode as UTF-8",
    ),
}


@pytest.mark.parametrize("lines,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_load_jsonl_malformed_line(lines, message, tmp_path):
    path = write_lines(tmp_path, lines)
    with pytest.raises(ParseError, match=re.escape(message)):
        load_jsonl(path)


def test_load_jsonl_not_utf8_names_file(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"text":"caf\xe9","label":0}\n')
    with pytest.raises(ValidationError, match=re.escape(f"malformed {path}: UnicodeDecodeError")):
        load_jsonl(path)


def test_load_jsonl_label_exceeds_declared_classes(tmp_path):
    path = write_lines(
        tmp_path, ['{"classes":["a","b"]}', '{"text":"x","label":2}']
    )
    with pytest.raises(ParseError, match="out of range"):
        load_jsonl(path)


def test_write_jsonl_round_trip(tmp_path):
    d = synth_generate(2, 10, 50, 0.0, 3)
    path = tmp_path / "rt.jsonl"
    write_jsonl(d, path)
    back = load_jsonl(path)
    assert back == d


@pytest.mark.parametrize("text", ["a\x85b", "a\u2028b", "a\u2029b"], ids=["NEL", "LS", "PS"])
def test_write_jsonl_round_trips_unicode_line_breaks(text, tmp_path):
    d = Dataset(examples=(TextExample(text, 0), TextExample("plain", 1)), class_count=2, class_names=(text, "b"))
    path = tmp_path / "rt.jsonl"
    write_jsonl(d, path)
    assert load_jsonl(path) == d


def test_split_sizes_and_determinism():
    d = synth_generate(2, 5, 50, 0.0, 1)  # n=10
    a = split(d, (0.8, 0.1, 0.1), seed=42)
    b = split(d, (0.8, 0.1, 0.1), seed=42)
    assert tuple(len(s) for s in a) == (8, 1, 1)
    assert a == b


def test_split_partitions_input():
    d = synth_generate(3, 20, 80, 0.2, 9)
    train, val, test = split(d, (0.6, 0.2, 0.2), seed=5)
    combined = Counter(train.examples) + Counter(val.examples) + Counter(test.examples)
    assert combined == Counter(d.examples)


def test_split_too_small():
    d = synth_generate(2, 1, 20, 0.0, 0)  # n=2
    with pytest.raises(ValidationError):
        split(d, (0.8, 0.1, 0.1), seed=0)


INVALID_SPLITS = {
    "two-fractions": ((0.5, 0.5), 0, "fractions must have exactly three entries"),
    "zero-fraction": ((0.0, 0.5, 0.5), 0, "each fraction must lie in (0, 1)"),
    "fraction-past-one": ((1.2, -0.1, -0.1), 0, "each fraction must lie in (0, 1)"),
    "sum-past-one": ((0.5, 0.6, 0.1), 0, "fractions must sum to 1"),
    "negative-seed": ((0.8, 0.1, 0.1), -1, "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("fractions,seed,message", INVALID_SPLITS.values(), ids=INVALID_SPLITS)
def test_split_rejects_invalid_arguments(fractions, seed, message):
    d = synth_generate(2, 10, 40, 0.0, 1)
    with pytest.raises(ValidationError, match=re.escape(message)):
        split(d, fractions, seed)


def test_make_exemplars_negative_seed():
    d = synth_generate(2, 10, 40, 0.0, 2)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        make_exemplars(d, 2, seed=-1)


def test_split_empty_part_rejected():
    d = synth_generate(2, 2, 20, 0.0, 0)  # n=4 -> val slice empty at 0.1
    with pytest.raises(ValidationError, match="empty"):
        split(d, (0.8, 0.1, 0.1), seed=0)


def test_make_exemplars_empty_and_deterministic():
    d = synth_generate(2, 5, 40, 0.0, 2)
    assert len(make_exemplars(d, 0, seed=7)) == 0
    a = make_exemplars(d, 2, seed=7)
    b = make_exemplars(d, 2, seed=7)
    assert a == b
    assert len(a) == 2


def test_make_exemplars_cap():
    d = synth_generate(2, 10, 40, 0.0, 2)
    with pytest.raises(ValidationError, match=re.escape("exemplar count must be in [0, 8], got 9")):
        make_exemplars(d, 9, seed=0)


def test_make_exemplars_count_exceeds_train():
    d = synth_generate(2, 2, 40, 0.0, 2)  # n=4
    with pytest.raises(ValidationError):
        make_exemplars(d, 5, seed=0)


TOKEN_CLASS = re.compile(r"^k(\d+)w\d+$")


def keyword_oracle(text: str, class_count: int) -> int:
    """Independent check: count planted keywords per class, argmax with
    ties to the lowest class."""
    counts = [0] * class_count
    for tok in text.split():
        m = TOKEN_CLASS.match(tok)
        if m:
            counts[int(m.group(1))] += 1
    return max(range(class_count), key=lambda c: (counts[c], -c))


def oracle_accuracy(dataset) -> float:
    hits = sum(
        keyword_oracle(ex.text, dataset.class_count) == ex.label
        for ex in dataset.examples
    )
    return hits / len(dataset)


def test_synth_noise_zero_is_separable():
    d = synth_generate(2, 100, 200, 0.0, 11)
    assert oracle_accuracy(d) == 1.0


def test_synth_noise_half_oracle_accuracy():
    # labels survive resampling with prob (1 - noise) + noise / classes = 0.75
    d = synth_generate(2, 1000, 200, 0.5, 11)
    assert abs(oracle_accuracy(d) - 0.75) <= 0.05


def test_synth_deterministic():
    a = synth_generate(3, 40, 150, 0.3, 21)
    b = synth_generate(3, 40, 150, 0.3, 21)
    assert a == b


def test_synth_rejects_bad_args():
    with pytest.raises(ValidationError):
        synth_generate(1, 10)
    with pytest.raises(ValidationError):
        synth_generate(2, 0)
    with pytest.raises(ValidationError):
        synth_generate(2, 10, noise=1.0)
