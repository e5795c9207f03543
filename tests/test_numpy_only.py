"""The package runs on numpy alone, and without numpy.polynomial: a fresh
interpreter, with a meta-path finder that refuses every scipy and every
numpy.polynomial import placed in front of the import system, imports the
package and runs every README example.  The Gauss-Legendre rules are
literal tables, so nothing needs numpy.polynomial's leggauss."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import EXAMPLES

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import importlib.abc
import json
import sys
import tempfile
from pathlib import Path


def refused(name):
    parts = name.split(".")
    return parts[0] == "scipy" or parts[:2] == ["numpy", "polynomial"]


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if refused(name):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, Refuse())
import beltrami_growth
from beltrami_growth import cli, complex_polar, dilatation, growth, mappings, verify


def refused_modules():
    return sorted(name for name in sys.modules if refused(name))


report = {"after_import": refused_modules(), "codes": []}
with tempfile.TemporaryDirectory() as tmp:
    for i, (command, text) in enumerate(json.loads(sys.stdin.read())):
        path = Path(tmp) / f"{i}.json"
        path.write_text(text)
        out = str(Path(tmp) / f"out{i}")
        report["codes"].append(cli.main([command, "--config", str(path), "--out", out, "--quiet"]))
report["after_examples"] = refused_modules()
print(json.dumps(report))
"""


def run_refusing(examples):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        input=json.dumps(examples),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_refusing([])["after_import"] == []


def test_readme_examples_run_without_scipy():
    report = run_refusing(EXAMPLES)
    assert report["codes"] == [0] * len(EXAMPLES)
    assert report["after_examples"] == []
