"""The README's command lines are test input.

Every `sh` block of its "Command line" and "Figure commands" sections runs
through hensim.cli.main at smoke size, in a fresh directory prepared as the
section says, so a documented command that stops running fails here.
"""

import re
import shlex
from pathlib import Path
from string import Template

import pytest

from hensim.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"

_SAMPLED = ["--points", "20", "--samples", "500"]
# Flags appended to each documented command of a section, by subcommand (a
# repeated flag overrides the earlier one); the "Command line" concurrence
# example is the analytic-only run, without --samples
SMOKE = {
    "Command line": {"relax": _SAMPLED, "concurrence": ["--points", "20"],
                     "tc-map": ["--resolution", "5"], "validate": []},
    "Figure commands": {"relax": _SAMPLED, "concurrence": _SAMPLED, "tc-map": ["--resolution", "5"]},
}


def section(name):
    """The text of the README's level-2 section ``name``, up to the next level-2 heading."""
    match = re.search(rf"^## {re.escape(name)}\n(.*?)(?=^## |\Z)", README.read_text(), re.M | re.S)
    assert match, name
    return match[1]


def commands(text):
    """The argv of each command of ``text``'s `sh` blocks in order, `hensim` first, with
    each `for VAR in VALUES; do ... done` loop expanded: its body once per value."""
    argvs, loop = [], None
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if not words:
                continue
            if head := re.fullmatch(r"for (\w+) in (.+); do", " ".join(words)):
                loop = (head[1], head[2].split(), [])
            elif words == ["done"]:
                var, values, body = loop
                argvs += [shlex.split(Template(cmd).substitute({var: value}), comments=True)
                          for value in values for cmd in body]
                loop = None
            elif loop:
                loop[2].append(line)
            else:
                argvs.append(words)
    assert loop is None, loop
    return argvs


@pytest.mark.parametrize("name", SMOKE)
def test_documented_commands_run(tmp_path, monkeypatch, name):
    text = section(name)
    monkeypatch.chdir(tmp_path)
    # the directories the section says to make first
    for dirs in re.findall(r"`mkdir -p ([^`]+)`", text):
        for d in dirs.split():
            Path(d).mkdir(parents=True, exist_ok=True)
    argvs = commands(text)
    assert {argv[0] for argv in argvs} == {"hensim"}
    assert {argv[1] for argv in argvs} == set(SMOKE[name])
    for _, command, *args in argvs:
        assert main([command, *args, *SMOKE[name][command]]) == EXIT_OK, (command, args)
