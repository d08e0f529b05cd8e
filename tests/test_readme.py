import re
import shlex
from pathlib import Path

import pytest

import avfusion
from avfusion.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_resolve():
    """Every ``av.<name>`` in the README's Library block exists on avfusion."""
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bav\.(\w+)", block))
    assert names
    assert sorted(n for n in names if not hasattr(avfusion, n)) == []


def readme_commands():
    """The argv of every ``avfusion`` command in the README's shell blocks,
    continuation lines joined and the loop variable ``$ch`` expanded."""
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    commands = []
    for line in shell.replace("\\\n", " ").splitlines():
        argv = shlex.split(line.replace("${ch}", "audio").replace("$ch", "audio"),
                           comments=True)
        if argv[:1] == ["avfusion"]:
            commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    parser = build_parser()
    (subcommands,) = [a.choices for a in parser._actions if a.choices and a.dest == "command"]
    assert {argv[0] for argv in commands} == set(subcommands)  # the README shows each one
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: avfusion {shlex.join(argv)}")
