#!/usr/bin/env python
"""Short benchmark runs checked against the independent-engine references.

``python tools/perfbench_smoke.py`` runs ``perfbench/run.py`` for the
``dect_rx`` and ``hcor_lanes`` workloads (seed 1, 2 seconds, no
tracing; about 7 s each) and exits non-zero unless every run's last
JSON line reports ``"correct": true``, i.e. every op's outputs matched
the references the interpreted engine produced.  It is a correctness
smoke, not a timing: the rates it prints are too short-lived to compare.
For other workloads, seeds or durations run ``perfbench/run.py``
directly.

CI runs it as the perfbench-smoke job.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dect_rx", "hcor_lanes")
SEED = 1
SECONDS = 2


def last_json(stdout: str):
    """The last line of *stdout* that parses as a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    return None


def run_workload(name: str) -> bool:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", name, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = last_json(proc.stdout)
    correct = (proc.returncode == 0 and result is not None
               and result.get("correct") is True)
    if correct:
        rate = result["metrics"]["work_per_s"]["value"]
        print(f"{name}: correct, {result['attempted']} ops checked "
              f"({rate:.0f} work/s)")
    else:
        print(f"{name}: FAILED (exit {proc.returncode})")
        print(proc.stdout[-4000:])
        print(proc.stderr[-4000:], file=sys.stderr)
    return correct


def main() -> int:
    results = [run_workload(name) for name in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
