"""The README's examples run as written: the library quick start, and
each ``mbw`` line of the command-line block in order."""

import re
import shlex
import warnings
from pathlib import Path

from mbweibull.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_library_quick_start(capsys):
    (code,) = _blocks("python")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md", "exec"), {})
    assert "'p':" in capsys.readouterr().out


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _blocks("sh") if b.startswith("mbw ")]
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in lines:
        argv = shlex.split(line)[1:]
        # the README shows no study config to run it on
        if argv[0] == "study":
            continue
        assert main(argv) == EXIT_OK, line
        ran.append(argv[0])
    assert ran == ["simulate", "fit", "fit", "vannman", "hazard-grid"]
    assert (tmp_path / "fit.json").exists() and (tmp_path / "grid.csv").exists()
