"""The package root stays a name and a version, with nothing behind it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ddelab

# the child imports the package under test, also when pytest put it on the path
_SRC = str(Path(ddelab.__file__).resolve().parent.parent)


def test_import_ddelab_loads_no_submodule_and_no_numpy():
    probe = (
        "import json, sys, ddelab; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'numpy' or m.startswith('ddelab.'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert json.loads(out) == []
