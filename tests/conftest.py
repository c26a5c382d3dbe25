"""Shared fixtures: a small synthetic world with a simulated assistant
model whose pool contains a planted family of genuinely useful prefixes
(they share a token, so training on one transfers score to the others)
next to junk prefixes with disjoint tokens.
"""

import pytest
from hypothesis import settings

from gpta import RunConfig, synth_generate, write_jsonl

# Ten times hypothesis's default budget of 100 examples, for properties that
# set no max_examples of their own. CI reruns the bit-identity properties
# under it: pytest -k bit_identical --hypothesis-profile=bit-identity.
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
