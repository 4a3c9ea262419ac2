"""Demo-corpus reports checked against golden copies.

The golden files hold the ``entries`` of the ``classify``, ``cascade`` and
``limit`` JSON reports on the built-in demo corpus, rendered with the
report's own JSON layout.  ``classify`` and ``cascade`` must match byte for
byte.  The ``limit`` row is compared without its ``truncation`` field: that
field records the expansion depth used, not a result.
"""

import json
from pathlib import Path

import pytest

from ddelab import cli

GOLDEN = Path(__file__).parent / "golden"

IGNORED_FIELDS = {"classify": (), "cascade": (), "limit": ("truncation",)}


@pytest.mark.parametrize("subcommand", sorted(IGNORED_FIELDS))
def test_demo_entries_match_golden(subcommand, tmp_path):
    out = tmp_path / "report.json"
    assert cli.run([subcommand, "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    entries = [
        {k: v for k, v in row.items() if k not in IGNORED_FIELDS[subcommand]}
        for row in json.loads(out.read_text())["entries"]
    ]
    got = json.dumps(entries, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"demo-{subcommand}.json").read_text()
