"""Shared fixtures: a small synthetic world with a simulated assistant
model whose pool contains a planted family of genuinely useful prefixes
(they share a token, so training on one transfers score to the others)
next to junk prefixes with disjoint tokens.
"""

import numpy as np
import pytest
from hypothesis import settings

from gpta import (
    RunConfig,
    RunState,
    ScoredPrefix,
    StudentParams,
    insert_sorted,
    simulated_handle,
    synth_generate,
    write_jsonl,
)
from gpta.history import PrefixHistory
from gpta.trainer import EpochRecord

# Ten times hypothesis's default budget of 100 examples, for properties that
# set no max_examples of their own. CI reruns the bit-identity properties
# under it (pytest -k bit_identical --hypothesis-profile=bit-identity), with
# the per-example oracle properties of tests/test_history.py and the numpy
# oracle properties of tests/test_rng.py.
settings.register_profile("bit-identity", max_examples=1000)

FAMILY_PREFIXES = (
    "focus on the planted keywords",
    "focus on class tokens",
    "focus carefully now",
    "focus on repeated words",
    "focus on the signal",
    "focus and classify",
    "focus on token counts",
    "focus on every clue",
    "focus the evidence",
    "focus on distinctive terms",
)

JUNK_PREFIXES = tuple(f"junk filler phrase {i}" for i in range(30))

DESK_POOL = tuple((p, 2.0) for p in FAMILY_PREFIXES) + tuple(
    (p, 0.0) for p in JUNK_PREFIXES
)


def dense_student(weights, bias, frozen=False):
    """The student whose class_count x dims weight matrix is `weights`: it
    holds every column."""
    return StudentParams(np.arange(weights.shape[1]), weights, bias, weights.shape[1], frozen)


def dense_weights(part, dims):
    """The class_count x dims weight matrix of a StudentParams, or of a
    Gradient, with zero in every column it does not hold."""
    dense = np.zeros((len(part.bias), dims))
    dense[:, part.columns] = part.weights
    return dense


def one_epoch_state(student, prefix="café ☕"):
    """A run state around `student` after one epoch that trained on
    `prefix`, which is also in its assistant's pool and its history."""
    history = insert_sorted(insert_sorted(PrefixHistory(), ScoredPrefix("", 0.25)), ScoredPrefix(prefix, 0.5))
    record = EpochRecord(0, prefix, 0.7, 0.5, 0.25, 0.5)
    return RunState(student, simulated_handle(DESK_POOL + ((prefix, 1.0),)), history, (record,))


@pytest.fixture
def every_reply_closed(monkeypatch):
    """The replies any urllib opener returns during the test, an HTTPError
    for a 4xx or 5xx included; at teardown each must be closed. The leak
    filters below miss an unclosed reply: urllib closes the socket once a
    body is read to its end, and an HTTPError left open is collected
    without a warning."""
    import urllib.request
    from urllib.error import HTTPError

    replies, opened = [], urllib.request.OpenerDirector.open

    def spy(self, *args, **kwargs):
        try:
            replies.append(opened(self, *args, **kwargs))
        except HTTPError as exc:
            replies.append(exc)
            raise
        return replies[-1]

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", spy)
    yield replies
    unclosed = [r.status for r in replies if not r.closed]
    assert not unclosed, f"replies left open, by status: {unclosed}"


def pytest_collection_modifyitems(items):
    """Fail a test that leaks a file handle or socket: the leak surfaces as
    a ResourceWarning, or as an unraisable one when raised in __del__."""
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture(scope="session")
def desk_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    write_jsonl(synth_generate(2, 500, 200, 0.1, 7), path)
    return path


@pytest.fixture
def desk_config(desk_dataset_path):
    def factory(**overrides):
        kwargs = dict(
            data_path=str(desk_dataset_path),
            split_fractions=(0.7, 0.2, 0.1),
            split_seed=13,
            metric="accuracy",
            epochs=3,
            k=20,
            w=5,
            l=8,
            temperature=1.0,
            finetune_cap=50,
            lr=0.1,
            dims=4096,
            sim_pool=DESK_POOL,
            sim_seed=11,
        )
        kwargs.update(overrides)
        return RunConfig(**kwargs)

    return factory
