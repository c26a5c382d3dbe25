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
The straight accuracy run is also rerun in a subprocess whose numpy uses
other CPU kernels: OpenBLAS's Prescott kernels, or numpy's baseline SIMD
with every dispatchable feature masked. Its bytes must not move.
The manifest holds exactly these runs' entries. A change that moves run
bytes on purpose rewrites the manifest with

    GPTA_WRITE_RUN_DIGESTS=1 python -m pytest tests/test_run_digests.py

and says in CHANGES.md which files moved and why.
"""

import ast
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from gpta import run

from mock_openai import MockOpenAIServer
from test_remote import FRESH_COMPLETIONS, _python, remote_config

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


def child_numpy() -> tuple[list[str], str]:
    """What numpy reports in a fresh process: the dispatchable SIMD
    features it found on this CPU (`np.show_runtime()`'s
    simd_extensions.found), and its BLAS's OpenBLAS build configuration,
    empty when it has none or numpy cannot say (show_config takes a mode
    from numpy 1.25)."""
    out = _python(
        "import numpy as np\nnp.show_runtime()\n"
        "try: print(np.show_config(mode='dicts')['Build Dependencies']['blas']['openblas configuration'])\n"
        "except (TypeError, KeyError): print()"
    )
    found = re.search(r"'found': (\[[^\]]*\])", out)
    return ast.literal_eval(found.group(1)) if found else [], out.splitlines()[-1]


@pytest.mark.parametrize("kernels", ["openblas_prescott", "numpy_simd_masked"])
def test_desk_run_bytes_do_not_depend_on_the_cpu_kernels(kernels, desk_config, tmp_path):
    """The straight accuracy run in a child whose numpy picks other kernels
    writes the manifest's bytes. The variables act on the child only."""
    features, openblas = child_numpy()
    if kernels == "openblas_prescott":
        if "DYNAMIC_ARCH" not in openblas.split():
            pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {openblas or 'none'}")
        env = {"OPENBLAS_CORETYPE": "Prescott"}
    else:
        if not features:
            pytest.skip("numpy found no dispatchable SIMD feature to mask")
        env = {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    code = "import json, sys; from gpta import RunConfig, run; run(RunConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2])"
    _python(code, json.dumps(desk_config(**DESK_RUNS["accuracy"]).to_dict()), str(tmp_path / "run"), env=env)
    assert digests(tmp_path / "run") == json.loads(MANIFEST.read_text(encoding="utf-8"))["accuracy/straight"]


def test_manifest_holds_exactly_the_pinned_runs():
    assert set(json.loads(MANIFEST.read_text(encoding="utf-8"))) == RUN_NAMES
