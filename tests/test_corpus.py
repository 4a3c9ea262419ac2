"""The request schema: converted fields and defaults, and every benchmark corpus loads."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ddelab.cascade import SeedKind
from ddelab.corpus import demo_corpus_text, load_corpus, load_demo_corpus

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_requests_are_converted_with_defaults_filled_in():
    requests = {e.id: e.requests for e in load_demo_corpus()}
    assert requests["confined-basic"] == {
        "cascade": {"steps": 3, "order": 1, "seed": SeedKind.ZERO_OF_W},
        "verify": {"kind": "elliptic", "samples": 100,
                   "g2": 4 + 0j, "g3": 1 + 0j, "omega": 0.37 + 0.11j},
        "nev": {"kind": "elliptic", "r_min": 1.0, "r_max": 16.0, "radii": 24,
                "g2": 4 + 0j, "g3": 1 + 0j, "omega": 1 + 0.3j},
    }
    assert requests["polynomial-blowup-quartic"] == {
        "cascade": {"steps": 3, "order": 1, "seed": SeedKind.POLE_OF_W},
    }
    # an entry without requests still carries the cascade defaults
    assert requests["branch-first"] == {
        "cascade": {"steps": 3, "order": 1, "seed": SeedKind.ZERO_OF_W},
    }
    assert requests["confined-drifting"]["verify"] == {"kind": "mkdv", "samples": 100}


def test_omitted_request_fields_take_their_defaults():
    entry = json.loads(demo_corpus_text())["entries"][1]
    entry["verify"] = {"kind": "exponential"}
    entry["nev"] = {"kind": "exponential"}
    [loaded] = load_corpus(json.dumps({"schema_version": 1, "entries": [entry]}))
    assert loaded.requests["verify"] == {"kind": "exponential", "samples": 100, "p": 1,
                                         "C": 1 + 0j}
    assert loaded.requests["nev"] == {"kind": "exponential", "r_min": 1.0, "r_max": 16.0,
                                      "radii": 24, "p": 1, "C": 1 + 0j}
    assert all(type(v) is float for k, v in loaded.requests["nev"].items() if k[:2] == "r_")


@pytest.mark.parametrize("seed", range(10))
def test_every_benchmark_corpus_loads(seed):
    # a load-time check that rejected a benchmark corpus would fail every operation
    for workload in _workloads().values():
        doc, expect = workload.generate(seed)
        entries = load_corpus(json.dumps(doc))
        assert [e.id for e in entries] == [raw["id"] for raw in doc["entries"]]
        for entry in entries:
            assert set(entry.requests) - {"cascade"} <= set(expect[entry.id])
