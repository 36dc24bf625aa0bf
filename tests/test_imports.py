"""Import cost: importing the program loads neither numpy nor the process pool."""

from __future__ import annotations

import subprocess
import sys

from conftest import child_env

# numpy is a test dependency only; the process pool behind `sweep` and
# `figures` is imported when a pool opens, not by importing the CLI.
NOT_LOADED = ("numpy", "multiprocessing", "concurrent.futures")

PROBE = """
import importlib, pkgutil, sys
import proxilab, proxilab.cli
for info in pkgutil.iter_modules(proxilab.__path__, "proxilab."):
    importlib.import_module(info.name)
print(",".join(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_importing_every_module_loads_no_numpy_and_no_pool():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *NOT_LOADED], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
