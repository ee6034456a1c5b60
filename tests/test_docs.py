"""README's command line block and timing keys match the current CLI."""

import json
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


def test_readme_names_every_timing_key(tmp_path):
    # the bulleted keys of README's --emit-timing paragraph are the keys written
    text = README.read_text()
    block = re.search(r"^`ecc compute --emit-timing` writes .*?\n\n(.*?)\n\n", text, re.S | re.M).group(1)
    named = re.findall(r"^- `(\w+)`:", block, re.M)
    grid, timing = tmp_path / "g.eccg", tmp_path / "t.json"
    assert cli.main(["generate", "--dims", "6x5", "--output", str(grid)]) == 0
    assert cli.main(["compute", "--input", str(grid), "--bins", "4", "--output",
                     str(tmp_path / "curve.csv"), "--emit-timing", str(timing)]) == 0
    assert sorted(named) == sorted(json.loads(timing.read_text()))
