"""The package runs on numpy alone, as the README states, and declares the
Python versions its CI tests."""

import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import mmwassoc

TEST_ONLY = ("scipy", "hypothesis", "pytest")
ROOT = Path(__file__).resolve().parent.parent


def test_importing_every_module_loads_no_test_only_package():
    # A fresh interpreter, since this one has them all loaded.  __main__
    # is left out: importing it runs the CLI, and it imports only cli.
    names = [
        f"mmwassoc.{info.name}"
        for info in pkgutil.iter_modules(mmwassoc.__path__)
        if info.name != "__main__"
    ]
    assert {"mmwassoc.cli", "mmwassoc.harness", "mmwassoc.lp"} <= set(names)
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted({{m.partition('.')[0] for m in sys.modules}} & set({TEST_ONLY!r})))\n"
    )
    src = str(Path(mmwassoc.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _version(text):
    return tuple(map(int, text.split(".")))


def test_the_declared_python_floor_is_the_lowest_version_ci_tests():
    # The pins were recorded with numpy 2.4.6 and scipy 1.17.1, which need
    # Python 3.11; a lower floor would promise output no CI job checks.
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"^ *python-version: *\[(.*)\] *$", workflow, re.MULTILINE)
    tested = [_version(v) for v in re.findall(r"\d+\.\d+", matrix.group(1))]
    assert re.fullmatch(r">=\d+\.\d+", declared) and tested
    assert _version(declared[2:]) == min(tested)
