"""Repository benchmark: five closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_serial --seed 2016 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off; ``--trace 1`` prints the per-layer metrics from a
separate traced run.  Every phase runs in a fresh interpreter
(child.py).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full report, the per-layer self-time table and the Chrome/Perfetto
trace go to ``perfbench/out/``.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep_serial", "sweep_parallel", "population_fluid",
             "campaign_explain", "lint_tree")
#: Set-up is sampled in this many fresh interpreters besides the
#: measured one; ``setup_s`` is the median.
SETUP_PROBES = 4
#: Per-phase limit, so a hung phase cannot outlive the 180 s run budget.
PHASE_TIMEOUT_S = 150


class PhaseFailed(RuntimeError):
    pass


def spawn(mode, args, result_name, timeout):
    """Run one child phase; returns (its result, its spawn time)."""
    result_path = os.path.join(OUT, result_name)
    if os.path.exists(result_path):
        os.unlink(result_path)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    command = [sys.executable, os.path.join(HERE, "child.py"), mode,
               args.workload, str(args.seed), args.scale, str(args.seconds),
               result_path, args.reference]
    spawned = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                               stdout=sys.stderr, check=False)
    if completed.returncode != 0 or not os.path.exists(result_path):
        raise PhaseFailed(f"{mode} phase exited with {completed.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), spawned


def environment():
    """What each run records about the machine and the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        # Identifies the sources where git does not (an exported tree).
        "source_digest": tree_digest(),
        "loadavg": list(os.getloadavg()),
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def gate_failures(gates):
    for gate in gates:
        state = "ok" if gate["ok"] else "FAILED"
        print(f"gate {gate['name']}: {state} {gate['detail']}")
    return sum(1 for gate in gates if not gate["ok"])


def measured_run(args):
    setups = []
    for _ in range(SETUP_PROBES):
        result, spawned = spawn("setup", args, "setup.json", PHASE_TIMEOUT_S)
        setups.append(result["ready"] - spawned)
    result, spawned = spawn("measure", args, "measure.json", PHASE_TIMEOUT_S)
    setups.append(result["ready"] - spawned)
    failed = result["failed"] + result["reference_mismatches"]
    failed += gate_failures(result["gates"])
    attempted = result["attempted"] + len(result["gates"])
    values = {
        "units_per_s": result["items"] / sum(result["unit_wall_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    report = dict(result, setup_samples_s=setups)
    return attempted, failed, values, report


def traced_run(args):
    traced, _ = spawn("trace", args, "trace.json", PHASE_TIMEOUT_S)
    replay, _ = spawn("replay", args, "replay.json", PHASE_TIMEOUT_S)
    failed = traced["failed"] + traced["reference_mismatches"]
    failed += 0 if traced["digests"] == replay["digests"] else 1
    failed += 0 if traced["counts_repeat"] else 1
    failed += gate_failures(replay["gates"])
    attempted = traced["attempted"] + len(replay["gates"]) + 2
    extras = traced["extras"]
    memo = [extra["memo_hit_ratio"] for extra in extras
            if "memo_hit_ratio" in extra]
    values = dict(traced["layers"])
    values["campaign.memo_hit_ratio"] = statistics.mean(memo) if memo else 0.0
    values["trace.overhead_x"] = (
        sum(traced["unit_wall_s"]) / sum(replay["unit_wall_s"]))
    values["failed_ratio"] = failed / attempted
    print(f"traced units: {len(traced['digests'])}, spans kept: "
          f"{traced['spans']}, worker files: {traced['worker_files']}")
    return attempted, failed, values, {"trace": traced, "replay": replay}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's scale")
    parser.add_argument("--reference",
                        default=os.path.join(HERE, "reference.json"),
                        help="committed unit digests for the reference seed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    end_to_end, per_layer = declared_metrics()
    env = environment()

    try:
        if args.trace:
            attempted, failed, values, report = traced_run(args)
            declared = per_layer
        else:
            attempted, failed, values, report = measured_run(args)
            declared = end_to_end
    except (PhaseFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
              f"do not match BENCHMARK.json", file=sys.stderr)
        return 1

    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump({"args": vars(args), "environment": env, "report": report,
                   "metrics": values}, handle, indent=1)
    digests = report.get("digests") or report["trace"]["digests"]
    print(f"environment: {json.dumps(env)}")
    print(f"qoe digest ({args.workload}, seed {args.seed}): "
          f"{digests[0] if digests else 'none'} over {len(digests)} units")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
