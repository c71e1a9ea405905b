#!/usr/bin/env python3
"""Write the seed-0 reference outputs that perfbench/run.py checks against.

Usage (from the root of a source checkout):

    python3 perfbench/capture_reference.py [workload ...]

Run it only on a commit whose outputs are trusted; the stored values are
what every later seed-0 run is compared with (NaN cells stored as null).
"""

import json
import math
import subprocess
import sys

from run import REFERENCE, SRC, WORKLOADS


def capture(name: str) -> dict:
    import workloads

    wl = workloads.build(name, workloads.DEFAULT_SEED)
    ops = {}
    for op in wl.ops:
        values = [float(v) for v in op.values(op.run())]
        ops[op.key] = {
            "inputs": op.inputs,
            "values": [None if math.isnan(v) else v for v in values],
        }
    return {"workload": name, "seed": wl.seed, "ops": ops}


def main(names) -> None:
    sys.path.insert(0, str(SRC))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=SRC).stdout.strip() or "unknown"
    REFERENCE.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        data = {"captured_at": commit, **capture(name)}
        (REFERENCE / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        print(f"{name}: {len(data['ops'])} operations")


if __name__ == "__main__":
    main(sys.argv[1:])
