"""The bytes of a few small runs, pinned: the SHA-256 of every file a run
writes but config.json, compared with tests/data/run_digests.json.
config.json is left out because it holds the absolute data path and, for
the remote run, the mock server's port.

The runs: the desk config under each metric, under accuracy with
hash_seed -5, and under accuracy with four exemplars in the meta-prompt
(they reach gradients_epoch*.jsonl through the system message, and pin
the one draw without replacement), each straight and resumed from
state_epoch0.json and from state_epoch1.json; and the desk config
against the mock OpenAI server.
The manifest holds exactly these runs' entries. A change that moves run
bytes on purpose rewrites the manifest with

    GPTA_WRITE_RUN_DIGESTS=1 python -m pytest tests/test_run_digests.py

and says in CHANGES.md which files moved and why.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from gpta import run

from mock_openai import MockOpenAIServer
from test_remote import FRESH_COMPLETIONS, remote_config

MANIFEST = Path(__file__).parent / "data" / "run_digests.json"

# Desk config overrides of each pinned desk run, by its name in the manifest.
DESK_RUNS = {
    "accuracy": {"metric": "accuracy"},
    "macro_f1": {"metric": "macro_f1"},
    "neg_loss": {"metric": "neg_loss"},
    "accuracy_hash-5": {"metric": "accuracy", "hash_seed": -5},
    "accuracy_exemplars4": {"metric": "accuracy", "exemplar_count": 4},
}
DESK_STARTS = {"straight": None, "resumed": "state_epoch0.json", "resumed_epoch1": "state_epoch1.json"}
RUN_NAMES = {f"{desk}/{start}" for desk in DESK_RUNS for start in DESK_STARTS} | {"remote/straight"}


def digests(run_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.iterdir())
        if path.name != "config.json"
    }


def check(name: str, run_dir: Path) -> None:
    assert name in RUN_NAMES
    got = digests(run_dir)
    if os.environ.get("GPTA_WRITE_RUN_DIGESTS"):
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
        manifest = {key: value for key, value in manifest.items() if key in RUN_NAMES} | {name: got}
        MANIFEST.write_text(json.dumps(dict(sorted(manifest.items())), indent=2) + "\n", encoding="utf-8")
    assert got == json.loads(MANIFEST.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("desk", DESK_RUNS)
def test_desk_run_bytes(desk, desk_config, tmp_path):
    cfg = desk_config(**DESK_RUNS[desk])
    for start, state in DESK_STARTS.items():
        run(cfg, tmp_path / start, resume_from=state and tmp_path / "straight" / state)
        check(f"{desk}/{start}", tmp_path / start)


def test_remote_run_bytes(desk_config, tmp_path):
    with MockOpenAIServer(completions=FRESH_COMPLETIONS) as server:
        run(remote_config(desk_config, server, 2), tmp_path / "remote")
    check("remote/straight", tmp_path / "remote")


def test_manifest_holds_exactly_the_pinned_runs():
    assert set(json.loads(MANIFEST.read_text(encoding="utf-8"))) == RUN_NAMES
