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


def test_import_cli_loads_no_argument_parser_dataclasses_or_traceback():
    # the set numpy loads itself is subtracted, so numpy's version does not matter
    probe = (
        "import json, sys; import numpy; before = set(sys.modules); import ddelab.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    loaded = set(json.loads(out))
    assert "ddelab.cli" in loaded
    assert loaded & {"argparse", "gettext", "dataclasses", "traceback"} == set()
