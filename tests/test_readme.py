"""Every JSON example under a README subcommand heading runs with exit 0, and
the README's table of subcommand keys matches the COMMANDS rows, so the
README and the config registry cannot drift apart."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from beltrami_growth.cli import COMMANDS, EXIT_CONFIG, EXIT_OK, main

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


def subcommand_table():
    """{subcommand: (required keys, optional keys)} of the README's table whose
    header starts with "| Subcommand |"; parenthesized notes and defaults are
    not keys."""
    rows, inside = {}, False
    for line in README.read_text().splitlines():
        if line.startswith("| Subcommand |"):
            inside = True
        elif inside and not line.startswith("|"):
            break
        elif inside and not line.startswith("|---"):
            name, required, optional = line.strip("|").split("|")
            rows[name.strip().strip("`")] = tuple(
                set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
                for cell in (required, optional)
            )
    return rows


def test_subcommand_table_matches_commands():
    table = subcommand_table()
    assert sorted(table) == sorted(COMMANDS)
    for name, (_, required, optional) in COMMANDS.items():
        assert table[name] == (set(required), set(optional)), name


def run_text(tmp_path, command, cfg):
    """(exit code, stderr) of one CLI run on a config object."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    return code, err.getvalue()


#: the first README example of each subcommand
FIRST_EXAMPLES = {}
for _command, _text in EXAMPLES:
    FIRST_EXAMPLES.setdefault(_command, json.loads(_text))

REQUIRED = [(command, key) for command, (_, required, _) in COMMANDS.items() for key in required]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_extra_key_rejected(tmp_path, command):
    cfg = dict(FIRST_EXAMPLES[command], bogus=1)
    code, err = run_text(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "unknown keys in config: ['bogus']" in err


@pytest.mark.parametrize("command, key", REQUIRED, ids=[f"{c}-{k}" for c, k in REQUIRED])
def test_missing_required_key_rejected(tmp_path, command, key):
    cfg = {k: v for k, v in FIRST_EXAMPLES[command].items() if k != key}
    code, err = run_text(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert f"missing keys in config: [{key!r}]" in err
