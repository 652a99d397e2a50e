"""Wall-clock benchmark: population-scale worlds vs per-session studies.

Advances a full mesoscale world (:mod:`repro.world` via
:class:`~repro.core.popstudy.PopulationStudy`) at the requested viewer
count, verifies the shard/worker invariance the layer advertises on a
small world, and writes throughput plus peak RSS to
``benchmarks/BENCH_population_world.json``.

The headline number is **viewers per second**: cohort dynamics advance
every viewer in closed form, so the rate should sit orders of magnitude
above ``sessions_per_sec_serial`` in ``BENCH_parallel_study.json`` (the
full-fidelity per-session rate).  The report records that ratio as
``viewers_per_session_rate`` — the bar in ROADMAP.md is >= 100x.

Numbers are only meaningful relative to the recorded ``cpu_count``,
Python version and git SHA: on a single-core container extra workers
measure dispatch overhead, not speedup, and a speedup is an A/B only
against a baseline entry run on the same machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_population_world.py \\
        [--viewers 1000000] [--workers 1] [--sample-budget 48] [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import resource
import time

from benchenv import environment
from repro.core.config import StudyConfig
from repro.core.popstudy import PopulationStudy
from repro.world.popularity import PopulationParameters

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_population_world.json"
PARALLEL_BENCH = pathlib.Path(__file__).parent / "BENCH_parallel_study.json"


def run_world(seed, viewers, workers, sample_budget, shards=None):
    """One full population study; returns (result, seconds)."""
    study = PopulationStudy(
        StudyConfig(seed=seed, workers=workers),
        PopulationParameters(viewers=viewers, sample_budget=sample_budget),
    )
    started = time.perf_counter()
    result = study.run(shards=shards)
    elapsed = time.perf_counter() - started
    return result, elapsed


def results_identical(a, b):
    """Bit-identity across shard/worker counts.

    Sessions compare pickled one by one: whole-list pickles differ by
    memoized shared references between in-process and cross-process
    results even when every value is equal.
    """
    return (
        len(a.sampled.sessions) == len(b.sampled.sessions)
        and all(
            pickle.dumps(sa) == pickle.dumps(sb)
            for sa, sb in zip(a.sampled.sessions, b.sampled.sessions)
        )
        and a.sampled.avatar_bytes == b.sampled.avatar_bytes
        and a.sampled.down_bytes == b.sampled.down_bytes
        and pickle.dumps(a.world.totals) == pickle.dumps(b.world.totals)
    )


def session_rate_baseline():
    """Full-fidelity sessions/sec from the parallel-study benchmark."""
    if not PARALLEL_BENCH.exists():
        return None
    try:
        report = json.loads(PARALLEL_BENCH.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None
    trajectory = report.get("trajectory") or []
    for entry in reversed(trajectory):
        rate = entry.get("sessions_per_sec_serial")
        if rate:
            return float(rate)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--viewers", type=int, default=1_000_000,
                        help="concurrent viewers in the benchmark world")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sharded world")
    parser.add_argument("--sample-budget", type=int, default=48,
                        help="expected full-fidelity sessions to promote")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke (50k viewers)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    viewers = 50_000 if args.quick else args.viewers
    config = {
        "seed": args.seed,
        "viewers": viewers,
        "workers": args.workers,
        "sample_budget": args.sample_budget,
        "quick": args.quick,
    }
    existing = None
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            existing = None

    # ---- invariance cross-check on a small world -----------------------
    # Shard count and worker count must both be invisible in the output;
    # checked here (cheaply) on every benchmark run so a regression can
    # never publish a throughput number for a broken world.
    check_a, _ = run_world(args.seed, 4_000, workers=1,
                           sample_budget=8, shards=1)
    check_b, _ = run_world(args.seed, 4_000, workers=1,
                           sample_budget=8, shards=7)
    check_c, _ = run_world(args.seed, 4_000, workers=2,
                           sample_budget=8, shards=5)
    invariant = (results_identical(check_a, check_b)
                 and results_identical(check_a, check_c))
    print(f"shard/worker invariance (4k viewers): {invariant}")
    if not invariant:
        raise SystemExit("sharded world diverged across shard/worker counts")

    # ---- the measured world --------------------------------------------
    result, elapsed = run_world(args.seed, viewers, args.workers,
                                args.sample_budget)
    realized = result.population.total_viewers
    sampled = len(result.sampled.sessions)
    viewers_per_sec = realized / elapsed
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{realized} viewers / {result.population.n_broadcasters} "
          f"broadcasters / {result.world.cohorts} cohorts in {elapsed:.2f}s "
          f"({viewers_per_sec:.0f} viewers/s, {sampled} sampled sessions, "
          f"peak RSS {peak_rss_kb} kB)")

    session_rate = session_rate_baseline()
    rate_ratio = None
    if session_rate:
        rate_ratio = viewers_per_sec / session_rate
        print(f"vs full-fidelity {session_rate} sessions/s: "
              f"x{rate_ratio:.0f} more viewers/s")

    entry = {
        "label": "current",
        "config": config,
        "seconds": round(elapsed, 3),
        "viewers": realized,
        "broadcasters": result.population.n_broadcasters,
        "cohorts": result.world.cohorts,
        "viewers_per_sec": round(viewers_per_sec, 1),
        "sampled_sessions": sampled,
        "sampled_sessions_per_sec": round(sampled / elapsed, 3),
        **environment(),
        "peak_rss_kb": peak_rss_kb,
    }
    if rate_ratio is not None:
        entry["session_rate_baseline"] = session_rate
        entry["viewers_per_session_rate"] = round(rate_ratio, 1)

    trajectory = list(existing.get("trajectory", [])) if existing else []
    comparable = [prior for prior in trajectory
                  if prior.get("config") == config]
    if comparable:
        before = comparable[-1]["viewers_per_sec"]
        entry["speedup_vs_baseline"] = round(
            entry["viewers_per_sec"] / before, 3)
        print(f"viewers/sec: {before} -> {entry['viewers_per_sec']} "
              f"(x{entry['speedup_vs_baseline']})")
    trajectory.append(entry)

    report = {
        "benchmark": "population_world",
        "config": config,
        "cpu_count": entry["cpu_count"],
        "peak_rss_kb": peak_rss_kb,
        "invariance_checked": invariant,
        "run": entry,
        "trajectory": trajectory,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
