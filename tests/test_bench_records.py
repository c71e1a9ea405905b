"""Every committed perf record ``BENCH_*.json`` carries the fields a reader needs.

A record names its title, command, parent commit, claim and host.  Each
workload states its number of alternating ``pairs`` and its ``failed``
operations, and each metric's parent and change sides hold one run per pair
whose stated median and quartiles agree with those runs.
"""

import copy
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("title", "command", "parent", "claim", "host", "workloads")
MEDIAN_TOL = 1e-6  # records round to six decimals


def record_problems(record: dict) -> list[str]:
    """What ``record`` lacks or gets wrong; empty when it is complete."""
    problems = [f"missing {key!r}" for key in FIELDS if key not in record]
    for name, workload in record.get("workloads", {}).items():
        problems += [f"{name}: missing {key!r}" for key in ("pairs", "failed", "metrics")
                     if key not in workload]
        pairs = workload.get("pairs")
        for metric, entry in workload.get("metrics", {}).items():
            for side in ("parent", "change"):
                where = f"{name} {metric} {side}"
                stats = entry.get(side)
                if stats is None or "runs" not in stats:
                    problems.append(f"{where}: no runs")
                    continue
                runs = stats["runs"]
                if len(runs) != pairs:
                    problems.append(f"{where}: {len(runs)} runs for {pairs} pairs")
                if abs(stats["median"] - statistics.median(runs)) > MEDIAN_TOL:
                    problems.append(f"{where}: median {stats['median']} is not the runs' "
                                    f"{statistics.median(runs)}")
                if not stats["q1"] <= stats["median"] <= stats["q3"]:
                    problems.append(f"{where}: quartiles do not bracket the median")
    return problems


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_complete(path):
    assert record_problems(json.loads(path.read_text(encoding="utf-8"))) == []


def test_detector_flags_each_defect():
    good = {"title": "t", "command": "c", "parent": "p", "claim": "x", "host": {},
            "workloads": {"w": {"pairs": 3, "failed": {}, "metrics": {"wall_s": {
                "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5, "runs": [1.0, 2.0, 3.0]},
                "change": {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": [1.0, 1.0, 1.0]},
            }}}}}
    assert record_problems(good) == []
    broken = copy.deepcopy(good)
    del broken["host"]
    del broken["workloads"]["w"]["failed"]
    wall = broken["workloads"]["w"]["metrics"]["wall_s"]
    wall["parent"]["median"] = 2.5
    wall["change"]["runs"].pop()
    wall["change"]["q3"] = 0.5
    assert record_problems(broken) == [
        "missing 'host'",
        "w: missing 'failed'",
        "w wall_s parent: median 2.5 is not the runs' 2.0",
        "w wall_s change: 2 runs for 3 pairs",
        "w wall_s change: quartiles do not bracket the median",
    ]
