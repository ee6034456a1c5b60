"""README's command line block parses against the current CLI."""

import re
import shlex
from pathlib import Path

from ecckit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The ``ecc ...`` commands of README's "Command line" block, split as a shell would."""
    text = README.read_text()
    block = re.search(r"^## Command line\n+```bash\n(.*?)^```", text, re.S | re.M).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines()
            if line.startswith("ecc ")]


def test_readme_commands_parse():
    commands = readme_cli_commands()
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {shlex.join(argv)}")
