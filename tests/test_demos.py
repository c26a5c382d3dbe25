"""Each demo script, the README quickstart and the README's "Library use"
blocks must run cleanly from an empty working directory."""

import re
import runpy
import os
import shlex
from pathlib import Path

import pytest

from gpta.cli import EXIT_OK, main

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every demo narrates something


def _quickstart_steps():
    """The README quickstart's bash block as steps: ("file", name, text) for
    a `cat > name <<'EOF'` heredoc and ("gpta", argv) for a gpta command."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quickstart.*?```bash\n(.*?)```", readme, re.S).group(1)
    lines = iter(block.replace("\\\n", " ").splitlines())
    for line in lines:
        heredoc = re.match(r"cat > (\S+) <<'(\w+)'$", line)
        if heredoc:
            yield "file", heredoc.group(1), "\n".join(iter(lines.__next__, heredoc.group(2))) + "\n"
        elif line.startswith("gpta "):
            yield "gpta", shlex.split(line, comments=True)[1:]
        else:
            assert not line.strip() or line.startswith("#"), f"unhandled README line {line!r}"


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = []
    for step in _quickstart_steps():
        if step[0] == "file":
            Path(step[1]).write_text(step[2], encoding="utf-8")
        else:
            commands.append(step[1][0])
            assert main(step[1]) == EXIT_OK, step[1]
    assert commands == ["gen-synth", "train", "report", "eval"]


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """Each block runs alone, in a fresh namespace, next to the dataset the
    quickstart's gen-synth step writes."""
    monkeypatch.chdir(tmp_path)
    gen_synth = next(step[1] for step in _quickstart_steps() if step[0] == "gpta")
    assert gen_synth[0] == "gen-synth" and main(gen_synth) == EXIT_OK
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"\n## Library use\n(.*?)\n## ", readme, re.S).group(1)
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(block, {})
    assert Path("my_run", "report.json").exists()
