"""The benchmark's seed-0 outputs pass their checks and match perfbench/reference.

perfbench/run.py refuses a change whose seed-0 outputs fail an operation's
check or differ from the stored reference beyond the tolerances of
``workloads.compare``.  This test runs each operation of each workload once
and applies the same checks, so such a change fails here first.
perfbench/ is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(p.stem for p in REFERENCE.glob("*.json")))
def test_seed_zero_outputs_match_the_reference(workloads, name):
    wl = workloads.build(name, workloads.DEFAULT_SEED)
    reference = json.loads((REFERENCE / f"{name}.json").read_text())["ops"]
    assert sorted(op.key for op in wl.ops) == sorted(reference)
    problems = []
    for op in wl.ops:
        out = op.run()
        entry = reference[op.key]
        found = list(op.check(out))
        if json.loads(json.dumps(op.inputs)) != entry["inputs"]:
            found.append("inputs differ from the reference inputs")
        found += workloads.compare([float(v) for v in op.values(out)], op.kinds(out),
                                   entry["values"])
        problems += [f"{op.key}: {msg}" for msg in found]
    assert not problems
