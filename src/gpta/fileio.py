"""Whole-file writes for run-directory artifacts and checkpoints."""

import os
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is written as UTF-8) so that it holds
    either its previous bytes or all of the new ones, never a truncated mix.

    The bytes go to a temp file in the same directory, which os.replace
    then renames over `path`. There is no fsync: this survives a crashed
    or interrupted process, not a power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
