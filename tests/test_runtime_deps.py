"""The package runs on numpy alone, as the README states."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mmwassoc

TEST_ONLY = ("scipy", "hypothesis", "pytest")


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
