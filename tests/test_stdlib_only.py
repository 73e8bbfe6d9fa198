"""The package runs on the Python standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import repro, repro.api, repro.service.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(m for m in loaded if m != "repro" and m not in sys.stdlib_module_names))
"""


def test_importing_the_package_loads_only_stdlib_modules():
    # A fresh interpreter: this one has the test tools loaded.  The modules
    # interpreter startup loads itself (site hooks) are not the package's.
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
