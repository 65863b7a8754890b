"""The README's examples, run and compared with the output it shows.

The library quick start (the python block) runs through exec and must print
the plain block that follows it. Every `$ egowarp ...` command in the sh
blocks runs in order through egowarp.cli.main in one temporary directory,
so `align` reads the pair `synth` wrote, and must print the lines under it
up to the next blank line. Both compare byte for byte: a change that moves
a printed digit fails here until the README shows the new output.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from egowarp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _blocks() -> list[tuple[str, str]]:
    """(language, body) of every fenced block, in README order."""
    return [(m.group(1), m.group(2)) for m in FENCE.finditer(README.read_text())]


def _commands(body: str) -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ ` prompt in a console block."""
    session: list[tuple[str, str]] = []
    lines = iter(body.splitlines())
    out = None
    for line in lines:
        if line.startswith("$ "):
            cmd = line[2:]
            while cmd.endswith("\\"):
                cmd = cmd[:-1] + next(lines)
            out = []
            session.append((cmd, out))
        elif not line:
            out = None
        elif out is not None:
            out.append(line + "\n")
    return [(cmd, "".join(out)) for cmd, out in session]


def test_library_quick_start(capsys):
    blocks = _blocks()
    i = next(i for i, (lang, _) in enumerate(blocks) if lang == "python")
    lang, expected = blocks[i + 1]
    assert lang == ""
    exec(compile(blocks[i][1], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == expected


def test_console_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    session = [c for lang, body in _blocks() if lang == "sh" for c in _commands(body)]
    argvs = [shlex.split(cmd) for cmd, _ in session]
    assert [argv[:2] for argv in argvs] == [
        ["egowarp", "synth"], ["egowarp", "align"], ["egowarp", "gradcheck"]
    ]
    for argv, (cmd, expected) in zip(argvs, session):
        assert main(argv[1:]) == 0, cmd
        assert capsys.readouterr().out == expected, cmd
