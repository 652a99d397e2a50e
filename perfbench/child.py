"""One benchmark phase in a fresh interpreter (started by run.py).

Usage: child.py MODE WORKLOAD SEED SCALE SECONDS RESULT_JSON REFERENCE_JSON

MODE is one of:

* ``setup``   - set the workload up, note the time, exit;
* ``measure`` - set up, run units closed-loop for SECONDS with tracing
  off, read peak RSS, then run the workload's correctness gates;
* ``trace``   - wrap the layers (tracer.py), run the fixed traced units,
  write the per-layer table and the Chrome/Perfetto trace;
* ``replay``  - run the same fixed units untraced (for
  ``trace.overhead_x``), then the correctness gates.

Every phase writes one JSON object to RESULT_JSON.  Telemetry that a
study installs process-wide cannot leak from one phase into another,
because each phase is its own interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def tree_digest() -> str:
    """Digest of the program and benchmark sources (counts are only
    comparable between runs of identical sources)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def check_reference(name, scale, seed, digests, reference_path):
    """Failed units: digests that differ from the committed reference."""
    with open(reference_path, encoding="utf-8") as handle:
        reference = json.load(handle)
    if seed != reference["seed"]:
        return 0, 0
    expected = reference[scale].get(workloads.REFERENCE_KEY[name], [])
    compared = min(len(expected), len(digests))
    mismatched = sum(1 for a, b in zip(expected, digests) if a != b)
    for index in range(compared):
        if expected[index] != digests[index]:
            print(f"reference digest mismatch: {name} unit {index}",
                  file=sys.stderr)
    return compared, mismatched


def run_units(workload, state, count=None, seconds=None):
    """Closed loop: a fixed number of units, or until ``seconds`` pass."""
    totals = {"items": 0, "attempted": 0, "failed": 0}
    digests, unit_walls, unit_items, extras = [], [], [], []
    started = time.perf_counter()
    deadline = started + (seconds or 0.0)
    index = 0
    while True:
        # Each unit starts from a collected heap, as in a fresh process;
        # the collection of the previous unit's garbage is not timed.
        gc.collect()
        unit_started = time.perf_counter()
        try:
            result = workload.unit(state, index)
        except Exception:  # a failed unit is counted and ends the loop
            traceback.print_exc()
            totals["attempted"] += 1
            totals["failed"] += 1
            break
        unit_walls.append(time.perf_counter() - unit_started)
        unit_items.append(result.items)
        for key in ("items", "attempted", "failed"):
            totals[key] += getattr(result, key)
        digests.append(result.digest)
        extras.append(result.extra)
        index += 1
        if count is not None and index >= count:
            break
        # Stop where the run ends nearest the deadline: after this unit
        # if another one would overshoot by more than half its length.
        if count is None and (time.perf_counter() + unit_walls[-1] / 2
                              >= deadline):
            break
    totals["wall_s"] = time.perf_counter() - started
    totals["unit_wall_s"] = unit_walls
    totals["unit_items"] = unit_items
    totals["digests"] = digests
    totals["extras"] = extras
    return totals


def run_gates(workload, seed, scale):
    gates = []
    try:
        for gate in workload.gates(seed, scale):
            gates.append({"name": gate.name, "ok": gate.ok,
                          "detail": gate.detail})
    except Exception:
        traceback.print_exc()
        gates.append({"name": "gates_raised", "ok": False, "detail": ""})
    return gates


def peak_rss_mb(workers: int) -> float:
    """Parent peak RSS plus, with a pool, ``workers`` times the largest
    worker's peak: an upper bound on the process tree's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (child * workers if workers > 1 else 0)) / 1024.0


def main(argv) -> int:
    mode, name, seed, scale, seconds, result_path, reference_path = argv
    seed, seconds = int(seed), float(seconds)
    workload = workloads.registry(ROOT, OUT)[name]
    result = {"mode": mode}

    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.Recorder(OUT)
        os.makedirs(os.path.join(OUT, "workers"), exist_ok=True)
        for stale in os.listdir(os.path.join(OUT, "workers")):
            os.unlink(os.path.join(OUT, "workers", stale))
        tracer.install(recorder, workloads)

    state = workload.setup(seed, scale)
    result["ready"] = time.perf_counter()
    if mode == "setup":
        return _write(result_path, result)

    if mode == "measure":
        loop = run_units(workload, state, seconds=seconds)
        result["peak_rss_mb"] = peak_rss_mb(getattr(workload, "workers", 1))
    else:
        loop = run_units(workload, state, count=workloads.TRACE_UNITS[name])
    result.update(loop)
    compared, mismatched = check_reference(
        name, scale, seed, loop["digests"], reference_path)
    result["reference_units"] = compared
    result["reference_mismatches"] = mismatched

    if mode == "trace":
        recorder.uninstall()
        result["worker_files"] = recorder.merge_workers()
        result["layers"] = tracer.layer_metrics(recorder)
        stem = os.path.join(OUT, f"{name}-{scale}-seed{seed}")
        tracer.write_chrome_trace(recorder, stem + "-trace.json")
        table = tracer.self_time_table(recorder)
        with open(stem + "-layers.txt", "w", encoding="utf-8") as handle:
            handle.write(table)
        result["spans"] = len(recorder.spans)
        result["counts_repeat"] = _exact_counts(
            name, scale, seed, result["layers"], tracer.EXACT_COUNTS)
    else:
        result["gates"] = run_gates(workload, seed, scale)
    return _write(result_path, result)


def _exact_counts(name, scale, seed, layers, names) -> bool:
    """Compare the exact counts with the previous traced run of the same
    sources and seed (if any), then store them for the next one."""
    counts = {key: layers[key] for key in names}
    path = os.path.join(
        OUT, f"counts-{name}-{scale}-seed{seed}-{tree_digest()[:16]}.json")
    same = True
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        same = previous == counts
        if not same:
            print(f"exact counts differ from the previous traced run: "
                  f"{previous} vs {counts}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, sort_keys=True)
    return same


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
