"""Every JSON example under a README subcommand heading runs with exit 0, and
the README's tables of subcommand and kind keys match the keys that
config_keys reads from the code, so the README and the config registry
cannot drift apart."""

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import pytest

from beltrami_growth.cli import (
    COEFFICIENT_KINDS,
    COMMANDS,
    EXIT_CONFIG,
    EXIT_OK,
    MAPPING_KINDS,
    PAIR_NAMES,
    PROFILE_KINDS,
    config_keys,
    fmt,
    main,
)

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


def reference_csv(header, rows) -> bytes:
    """Every row through csv.writer, a string as given and any other cell
    through fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else fmt(v) for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "command, text", EXAMPLES, ids=[f"{c}-{i}" for i, (c, _) in enumerate(EXAMPLES)]
)
def test_example_csvs_read_back_by_the_csv_module(tmp_path, command, text):
    # the package writes no quotes, so the csv module must read each file
    # into rows as wide as its header and write those rows back byte for byte
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    written = sorted(out.glob("*.csv"))
    assert written
    for csv_path in written:
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and {len(row) for row in rows} == {len(header)}, csv_path.name
        assert reference_csv(header, rows) == csv_path.read_bytes(), csv_path.name


def readme_table(title):
    """{name: (required keys, optional keys)} of the README's table whose
    header starts with "| <title> |"; a row may name several kinds, and
    parenthesized notes and defaults are not keys."""
    rows, inside = {}, False
    for line in README.read_text().splitlines():
        if line.startswith(f"| {title} |"):
            inside = True
        elif inside and not line.startswith("|"):
            break
        elif inside and not line.startswith("|---"):
            names, required, optional = (
                set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
                for cell in line.strip("|").split("|")
            )
            rows.update(dict.fromkeys(names, (required, optional)))
    return rows


def code_keys(rows, skip=0):
    """{name: (required keys, optional keys)} of each row's config_keys."""
    return {name: tuple(map(set, config_keys(build, skip))) for name, build in rows.items()}


def test_subcommand_table_matches_commands():
    assert readme_table("Subcommand") == code_keys(COMMANDS, skip=3)


@pytest.mark.parametrize(
    "title, rows",
    [
        ("Mapping kind", MAPPING_KINDS),
        ("Coefficient kind", COEFFICIENT_KINDS),
        ("Profile kind", PROFILE_KINDS),
        ("Pair name", PAIR_NAMES),
    ],
    ids=["mapping", "coefficient", "profile", "pair"],
)
def test_kind_table_matches_its_constructors(title, rows):
    assert readme_table(title) == code_keys(rows)


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

REQUIRED = [
    (command, key) for command, build in COMMANDS.items() for key in config_keys(build, skip=3)[0]
]


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
