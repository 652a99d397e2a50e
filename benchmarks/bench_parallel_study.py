"""Wall-clock benchmark: serial vs process-parallel study batches.

Runs the same seeded bandwidth sweep at several worker counts, checks
the datasets are bit-identical to the serial baseline (the guarantee
the parallel path advertises), and writes the measured times to
``benchmarks/BENCH_parallel_study.json``.  It exits nonzero when a
parallel or fast-path dataset diverges, when one fast-path and one
exact-path session per limit disagree on their packet capture traces,
or when any of those sessions leaves cyclic garbage (a finished session
must be freed by reference counting alone).  It also records how many
generation-2 collections the serial sweep ran.

Numbers are only meaningful relative to the recorded ``cpu_count``: on
a single-core container every worker count serializes onto one core,
so the parallel runs measure pure dispatch overhead, not speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_study.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import resource
import time

from benchenv import canonical_trace, environment
from repro.automation.devices import GALAXY_S4
from repro.core.config import StudyConfig
from repro.core.session import SessionSetup, ViewingSession
from repro.core.study import AutomatedViewingStudy
from repro.netsim import fastpath
from repro.service.broadcast import sample_broadcast
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.service.selection import DeliveryProtocol

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_parallel_study.json"


def run_sweep(seed, per_limit, limits, workers, exact=False):
    """One full seeded sweep at a fixed worker count; returns (dataset, s).

    ``exact=True`` forces the exact per-packet network path; the default
    uses the segment-granularity fast path (:mod:`repro.netsim.fastpath`).
    """
    study = AutomatedViewingStudy(
        StudyConfig(seed=seed, workers=workers, exact_network=exact)
    )
    started = time.perf_counter()
    sweep = {
        limit: study.run_batch(per_limit, bandwidth_limit_mbps=limit)
        for limit in limits
    }
    elapsed = time.perf_counter() - started
    return sweep, elapsed


def count_gen2(run):
    """``run()``'s result and the generation-2 collections it ran."""
    passes = 0

    def on_gc(phase, info):
        nonlocal passes
        if phase == "start" and info["generation"] == 2:
            passes += 1

    gc.callbacks.append(on_gc)
    try:
        return run(), passes
    finally:
        gc.callbacks.remove(on_gc)


def datasets_identical(a, b):
    return all(
        a[limit].sessions == b[limit].sessions
        and a[limit].avatar_bytes == b[limit].avatar_bytes
        and a[limit].down_bytes == b[limit].down_bytes
        for limit in a
    )


def trace_session(seed, limit, protocol, exact):
    """Canonical capture trace of one seeded session at ``limit``, and
    the objects the cyclic collector finds once the session and its
    artifacts are gone (the collector is off while the session runs)."""
    broadcast = sample_broadcast(random.Random(seed), 0.0,
                                 GeoPoint(41.0, 28.9), POPULATION_CENTERS[17])
    broadcast.mean_viewers = 12.0
    broadcast.duration_s = 7200.0
    setup = SessionSetup(
        broadcast=broadcast,
        age_at_join=600.0,
        protocol=protocol,
        device=GALAXY_S4,
        bandwidth_limit_mbps=limit,
        watch_seconds=8.0,
        seed=seed,
    )
    gc.collect()
    gc.disable()
    try:
        if exact:
            with fastpath.exact_network():
                trace = canonical_trace(ViewingSession(setup).run().capture)
        else:
            trace = canonical_trace(ViewingSession(setup).run().capture)
        return trace, gc.collect()
    finally:
        gc.enable()


def trace_gate(seed, limits):
    """One fast and one exact session per limit (RTMP and HLS in turn)
    must capture the same packet trace, line for line.  Returns whether
    they all did, and the cyclic garbage each session left."""
    protocols = (DeliveryProtocol.RTMP, DeliveryProtocol.HLS)
    garbage = []
    for index, limit in enumerate(limits):
        protocol = protocols[index % 2]
        fast, fast_garbage = trace_session(seed, limit, protocol, exact=False)
        exact, exact_garbage = trace_session(seed, limit, protocol, exact=True)
        garbage += [fast_garbage, exact_garbage]
        print(f"trace gate {limit} Mbps {protocol.value}: {len(fast)} records, "
              f"identical={fast == exact}, cyclic garbage "
              f"{fast_garbage} fast / {exact_garbage} exact")
        if fast != exact:
            return False, garbage
    return True, garbage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke (2 sessions/limit, "
                             "workers 1 and 2)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    if args.quick:
        per_limit, limits, worker_counts = 2, (2.0, 100.0), (1, 2)
    else:
        per_limit, limits, worker_counts = 6, (0.5, 2.0, 100.0), (1, 2, 4, 8)

    config = {
        "seed": args.seed,
        "sessions_per_limit": per_limit,
        "limits_mbps": list(limits),
        "quick": args.quick,
    }
    existing = None
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            existing = None

    baseline_sweep = None
    baseline_seconds = None
    runs = []
    gen2_serial = None
    for workers in worker_counts:
        (sweep, elapsed), gen2 = count_gen2(
            lambda: run_sweep(args.seed, per_limit, limits, workers))
        if baseline_sweep is None:
            baseline_sweep, baseline_seconds = sweep, elapsed
            gen2_serial = gen2
        identical = datasets_identical(baseline_sweep, sweep)
        runs.append({
            "workers": workers,
            "seconds": round(elapsed, 3),
            "speedup_vs_serial": round(baseline_seconds / elapsed, 3),
            "identical_to_serial": identical,
        })
        print(f"workers={workers}: {elapsed:.2f}s "
              f"(x{baseline_seconds / elapsed:.2f} vs serial, "
              f"identical={identical})")
        if not identical:
            raise SystemExit(
                f"parallel dataset at workers={workers} diverged from serial"
            )

    # ---- exact-path cross-check: the fast path's one guarantee ---------
    exact_sweep, exact_seconds = run_sweep(
        args.seed, per_limit, limits, workers=1, exact=True
    )
    exact_identical = datasets_identical(baseline_sweep, exact_sweep)
    print(f"exact path (serial): {exact_seconds:.2f}s "
          f"(fast path x{exact_seconds / baseline_seconds:.2f} faster, "
          f"identical={exact_identical})")
    if not exact_identical:
        raise SystemExit("fast-path dataset diverged from the exact path")
    traces_match, garbage = trace_gate(args.seed, limits)
    if not traces_match:
        raise SystemExit("fast-path capture trace diverged from the exact path")
    if any(garbage):
        raise SystemExit(f"a session left cyclic garbage: {garbage} objects")
    n_sessions = per_limit * len(limits)
    print(f"generation-2 collections in the serial sweep: {gen2_serial} "
          f"({gen2_serial / n_sessions:.2f} per session)")

    # ---- speed trajectory: sessions/sec over the repo's history --------
    trajectory = []
    if existing is not None:
        trajectory = list(existing.get("trajectory", []))
        if not trajectory and existing.get("runs"):
            # First run against a pre-trajectory file: anchor the
            # before/after pair by recording the stored serial run.
            prior = existing["runs"][0]
            prior_sessions = (existing["config"]["sessions_per_limit"]
                             * len(existing["config"]["limits_mbps"]))
            trajectory.append({
                "label": "pre-fastpath",
                "config": existing["config"],
                "serial_seconds": prior["seconds"],
                "sessions": prior_sessions,
                "sessions_per_sec_serial": round(
                    prior_sessions / prior["seconds"], 3),
                "cpu_count": existing.get("cpu_count"),
            })
    # ru_maxrss is KB on Linux; the whole-process high-water mark, so it
    # covers every run above, not any single one.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    entry = {
        "label": "current",
        "config": config,
        "serial_seconds": round(baseline_seconds, 3),
        "sessions": n_sessions,
        "sessions_per_sec_serial": round(n_sessions / baseline_seconds, 3),
        "exact_serial_seconds": round(exact_seconds, 3),
        "fast_exact_identical": exact_identical,
        "fast_exact_traces_identical": traces_match,
        "gen2_collections_serial": gen2_serial,
        "gen2_per_session": round(gen2_serial / n_sessions, 3),
        "cyclic_garbage_per_session": garbage,
        **environment(),
        "peak_rss_kb": peak_rss_kb,
    }
    # Against the latest comparable entry: a same-machine A/B is the
    # parent's run recorded just before this one.
    comparable = [
        prior for prior in trajectory if prior.get("config") == config
    ]
    if comparable:
        before = comparable[-1]["sessions_per_sec_serial"]
        entry["speedup_vs_baseline"] = round(
            entry["sessions_per_sec_serial"] / before, 3)
        print(f"sessions/sec serial: {before} -> "
              f"{entry['sessions_per_sec_serial']} "
              f"(x{entry['speedup_vs_baseline']})")
    trajectory.append(entry)

    report = {
        "benchmark": "parallel_study",
        "config": config,
        **environment(),
        "peak_rss_kb": peak_rss_kb,
        "runs": runs,
        "exact": {
            "seconds": round(exact_seconds, 3),
            "identical_to_fast": exact_identical,
        },
        "trajectory": trajectory,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
