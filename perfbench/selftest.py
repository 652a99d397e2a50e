"""Self-test of the benchmark at tiny scale (about three minutes).

Run from the repository root::

    python3 perfbench/selftest.py           # check
    python3 perfbench/selftest.py --record  # rewrite reference.json

Checks, for every workload: an untraced and two traced tiny runs pass
their gates (the second traced run compares its exact counts with the
first), and a run against a tampered reference digest fails.
``--record`` re-derives ``reference.json`` from seed-2016 runs at both
scales; do that only in a change that is meant to alter simulated
outputs, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from workloads import REFERENCE_KEY  # noqa: E402


def bench(workload, trace=0, scale="tiny", reference=REFERENCE, seconds=1):
    """Run run.py; returns (exit code, parsed last line or None)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "2016", "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale, "--reference", reference],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    try:
        return completed.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(completed.stderr)
        return completed.returncode, None


def tampered_reference() -> str:
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    for digests in reference["tiny"].values():
        digests[0] = "0" * 64
    path = os.path.join(OUT, "tampered-reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    return path


def check() -> int:
    os.makedirs(OUT, exist_ok=True)
    for stale in os.listdir(OUT):
        if stale.startswith("counts-") and "-tiny-" in stale:
            os.unlink(os.path.join(OUT, stale))
    tampered = tampered_reference()
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        runs = {
            "untraced": bench(workload, trace=0),
            "traced": bench(workload, trace=1),
            "traced again": bench(workload, trace=1),
        }
        for label, (code, result) in runs.items():
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} {label}: {code} {result}")
        code, result = bench(workload, trace=0, reference=tampered)
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: tampered digest passed: {result}")
        state = "ok" if len(problems) == before else "FAILED"
        print(f"{workload}: {state}", flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def record() -> int:
    empty = os.path.join(OUT, "empty-reference.json")
    os.makedirs(OUT, exist_ok=True)
    with open(empty, "w", encoding="utf-8") as handle:
        json.dump({"seed": 2016, "full": {}, "tiny": {}}, handle)
    reference = {"seed": 2016, "full": {}, "tiny": {}}
    for scale in ("tiny", "full"):
        for workload in WORKLOADS:
            code, result = bench(workload, scale=scale, reference=empty,
                                 seconds=1 if scale == "tiny" else 20)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} {scale} failed: {result}")
                return 1
            path = os.path.join(OUT, f"{workload}-{scale}-seed2016-trace0.json")
            with open(path, encoding="utf-8") as handle:
                digests = json.load(handle)["report"]["digests"]
            key = REFERENCE_KEY[workload]
            known = reference[scale].get(key, [])
            common = min(len(known), len(digests))
            if known[:common] != digests[:common]:
                print(f"{workload} {scale}: digests disagree with {key}")
                return 1
            if len(digests) > len(known):
                reference[scale][key] = digests
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(record() if sys.argv[1:] == ["--record"] else check())
