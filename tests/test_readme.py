import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from oridom.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    env = {**os.environ, "PYTHONPATH": "src"}
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def test_readme_shell_lines_run(tmp_path, monkeypatch, capsys):
    # every `oridom ...` line, in order, in one directory: each file is written before it is read
    lines = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("oridom ")]
    assert len(lines) > 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORIDOM_CACHE_DIR", str(tmp_path / "cache"))
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        assert code == 0, (line, capsys.readouterr().err)
