"""The package root stays a name and a version, with nothing behind it."""

import json
import subprocess
import sys


def test_import_ddelab_loads_no_submodule_and_no_numpy():
    probe = (
        "import json, sys, ddelab; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'numpy' or m.startswith('ddelab.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []
