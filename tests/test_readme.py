"""Every JSON example under a README subcommand heading runs with exit 0, so
the README and the config registry cannot drift apart."""

import re
from pathlib import Path

import pytest

from beltrami_growth.cli import COMMANDS, EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(subcommand, JSON text) of each ```json block under a ### `<subcommand>` heading."""
    examples, command, block = [], None, None
    for line in README.read_text().splitlines():
        if block is not None:
            if line.startswith("```"):
                examples.append((command, "\n".join(block)))
                block = None
            else:
                block.append(line)
        elif line.startswith("#"):
            heading = re.match(r"### `(\w+)`", line)
            command = heading.group(1) if heading and heading.group(1) in COMMANDS else None
        elif line.startswith("```json") and command is not None:
            block = []
    return examples


EXAMPLES = readme_examples()


def test_every_subcommand_has_an_example():
    assert sorted({command for command, _ in EXAMPLES}) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "command, text", EXAMPLES, ids=[f"{c}-{i}" for i, (c, _) in enumerate(EXAMPLES)]
)
def test_example_runs(tmp_path, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
