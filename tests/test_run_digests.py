"""The bytes of a few small runs, pinned: the SHA-256 of every file a run
writes but config.json, compared with tests/data/run_digests.json.
config.json is left out because it holds the absolute data path and, for
the remote run, the mock server's port.

The runs: the desk config under each metric, straight and resumed from
state_epoch0.json, and the desk config against the mock OpenAI server. A
change that moves run bytes on purpose rewrites the manifest with

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


def digests(run_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.iterdir())
        if path.name != "config.json"
    }


def check(name: str, run_dir: Path) -> None:
    got = digests(run_dir)
    if os.environ.get("GPTA_WRITE_RUN_DIGESTS"):
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
        manifest[name] = got
        MANIFEST.write_text(json.dumps(dict(sorted(manifest.items())), indent=2) + "\n", encoding="utf-8")
    assert got == json.loads(MANIFEST.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "neg_loss"])
def test_desk_run_bytes(metric, desk_config, tmp_path):
    cfg = desk_config(metric=metric)
    run(cfg, tmp_path / "straight")
    check(f"{metric}/straight", tmp_path / "straight")
    run(cfg, tmp_path / "resumed", resume_from=tmp_path / "straight" / "state_epoch0.json")
    check(f"{metric}/resumed", tmp_path / "resumed")


def test_remote_run_bytes(desk_config, tmp_path):
    with MockOpenAIServer(completions=FRESH_COMPLETIONS) as server:
        run(remote_config(desk_config, server, 2), tmp_path / "remote")
    check("remote/straight", tmp_path / "remote")
