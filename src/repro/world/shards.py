"""Sharded execution of population-scale worlds.

The broadcaster population is split into contiguous index ranges
(*shards*) and advanced over a :class:`ProcessPoolExecutor`, mirroring
:mod:`repro.core.parallel`: a module-level initializer bootstraps each
worker, shards are submitted in index order, and results merge back in
submission order.  Two properties make the split invisible:

* every random draw inside a shard is keyed by **broadcaster index**
  (see :mod:`repro.world.popularity` / :mod:`repro.world.sampler`), so
  the shard boundaries never touch an RNG stream — 1 shard and N shards
  produce byte-identical cohorts, samples, and session results;
* telemetry recorded by full-fidelity expansions lands in per-session
  private registries whose snapshots ship back with the shard result
  (a finer grain than :mod:`repro.core.parallel`'s per-chunk
  snapshots); the parent folds them in global session order, so the
  merged registry is byte-identical for every shard and worker count.

The full-fidelity *runner* is injected by the caller (a module-level
callable, picklable by reference) rather than imported: the mesoscale
layer sits below ``core`` in the layer DAG, and the dependency points
upward only at run time, through a value.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.faults.plan import FaultPlan
from repro.netsim import fastpath
from repro.util.rng import Seedable
from repro.world.cohorts import (
    AUDIENCE_CURVE_STEPS,
    CohortAggregate,
    build_cohorts,
    cohort_aggregate,
)
from repro.world.popularity import build_broadcast
from repro.world.sampler import (
    ExpansionRequest,
    joinable_min_duration_s,
    plan_expansions,
)

#: Shards dispatched per worker by default: enough to balance the heavy
#: tail (an "event" broadcaster's expansions cluster in one shard),
#: cheap enough that per-shard dispatch stays negligible.
SHARDS_PER_WORKER = 4

#: Signature of the injected full-fidelity runner:
#: ``runner(world_seed, requests, faults, metrics_enabled,
#: causes_enabled, health_enabled) -> (results, per-session snapshots)``
#: where snapshots is ``None`` when every telemetry surface is off.
ExpansionRunner = Callable[
    [Seedable, Sequence[ExpansionRequest], Optional[FaultPlan],
     bool, bool, bool],
    Tuple[List[object], Optional[List[dict]]],
]


@dataclass(frozen=True)
class WorldContext:
    """Everything a shard needs, picklable and shard-count-free."""

    seed: Seedable
    watch_seconds: float
    hls_viewer_threshold: float
    #: Global sampling rate (budget / total viewers).
    sample_rate: float
    faults: Optional[FaultPlan] = None
    exact_network: bool = False
    metrics_enabled: bool = False
    causes_enabled: bool = False
    health_enabled: bool = False
    #: Module-level callable executing expansion requests at full
    #: fidelity (``None`` plans the sample but runs nothing).
    runner: Optional[ExpansionRunner] = None


@dataclass
class ShardResult:
    """One shard's outcome, merged index-ordered in the parent.

    Aggregates stay **per broadcaster** (a broadcaster is never split
    across shards): the cross-broadcaster fold happens only in the
    parent, over the same index-ordered sequence for every shard count,
    so its float operations reassociate identically — merged totals are
    byte-for-byte shard-count-invariant.
    """

    shard_index: int
    broadcasters: int
    live_broadcasters: int
    cohorts: int
    #: ``(broadcaster_index, protocol value, merged cohort aggregate)``
    #: per live broadcaster, in index order.
    broadcaster_totals: List[Tuple[int, str, CohortAggregate]] = field(
        default_factory=list
    )
    requests: List[ExpansionRequest] = field(default_factory=list)
    session_results: List[object] = field(default_factory=list)
    #: Per-session telemetry snapshots (surface name -> snapshot, one
    #: dict per expanded session, in session order), or ``None`` when
    #: every surface is off.
    telemetry: Optional[List[dict]] = None


@dataclass
class WorldResult:
    """The merged world: exact population facts + cohort aggregates +
    anchored full-fidelity session results."""

    broadcasters: int = 0
    live_broadcasters: int = 0
    cohorts: int = 0
    shard_count: int = 0
    totals: Dict[str, CohortAggregate] = field(default_factory=dict)
    requests: List[ExpansionRequest] = field(default_factory=list)
    session_results: List[object] = field(default_factory=list)
    telemetry_snapshots: List[dict] = field(default_factory=list)

    def fold(self, shard: ShardResult) -> None:
        self.broadcasters += shard.broadcasters
        self.live_broadcasters += shard.live_broadcasters
        self.cohorts += shard.cohorts
        self.shard_count += 1
        for _index, protocol_value, aggregate in shard.broadcaster_totals:
            into = self.totals.setdefault(protocol_value, CohortAggregate())
            into.merge(aggregate)
        self.requests.extend(shard.requests)
        self.session_results.extend(shard.session_results)
        if shard.telemetry is not None:
            self.telemetry_snapshots.extend(shard.telemetry)


def shard_bounds(n_broadcasters: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` index ranges covering the population.

    Deterministic in its arguments; the parent's merge order follows
    this list, never completion order.
    """
    if n_broadcasters <= 0:
        return []
    shards = max(1, shards)
    size = max(1, math.ceil(n_broadcasters / shards))
    return [
        (start, min(start + size, n_broadcasters))
        for start in range(0, n_broadcasters, size)
    ]


def compute_shard(
    context: WorldContext,
    shard_index: int,
    start: int,
    audiences: Sequence[int],
) -> ShardResult:
    """Advance one shard: materialize broadcasters, fold cohort
    aggregates, and run this shard's slice of the stratified sample.

    Pure function of ``(context, start, audiences)`` — the shard index
    is carried for bookkeeping only and feeds no draw.
    """
    min_duration_s = joinable_min_duration_s(context.watch_seconds)
    result = ShardResult(
        shard_index=shard_index,
        broadcasters=len(audiences),
        live_broadcasters=0,
        cohorts=0,
    )
    for offset, audience in enumerate(audiences):
        if audience <= 0:
            continue
        index = start + offset
        result.live_broadcasters += 1
        broadcast = build_broadcast(
            context.seed, index, audience, min_duration_s
        )
        broadcaster_total = CohortAggregate()
        protocol_value = ""
        curve = broadcast.audience_curve(AUDIENCE_CURVE_STEPS)
        for cohort in build_cohorts(
            broadcast, index, audience, context.hls_viewer_threshold
        ):
            result.cohorts += 1
            protocol_value = cohort.protocol.value
            broadcaster_total.merge(
                cohort_aggregate(broadcast, cohort, context.watch_seconds,
                                 curve=curve)
            )
            result.requests.extend(
                plan_expansions(
                    context.seed, cohort, context.sample_rate,
                    context.watch_seconds,
                )
            )
        result.broadcaster_totals.append(
            (index, protocol_value, broadcaster_total)
        )
    if result.requests and context.runner is not None:
        session_results, snapshots = context.runner(
            context.seed, result.requests, context.faults,
            context.metrics_enabled, context.causes_enabled,
            context.health_enabled,
        )
        result.session_results = list(session_results)
        result.telemetry = snapshots
    return result


#: Worker-process context, installed once per worker by :func:`_worker_init`.
_WORKER_CONTEXT: Optional[WorldContext] = None


def _worker_init(context: WorldContext) -> None:
    """Bootstrap one worker: adopt the world context and network mode.

    Telemetry inherited over ``fork`` is discarded — expansion sessions
    capture their own per-session registries through the runner.
    """
    global _WORKER_CONTEXT
    obs.deactivate()
    fastpath.set_enabled(not context.exact_network)
    _WORKER_CONTEXT = context


def _run_shard(
    shard_index: int, start: int, audiences: Sequence[int]
) -> ShardResult:
    """Run one shard inside a worker."""
    context = _WORKER_CONTEXT
    if context is None:
        raise RuntimeError("worker not initialized; dispatch via run_world")
    return compute_shard(context, shard_index, start, audiences)


def run_world(
    context: WorldContext,
    viewers_by_broadcaster: Sequence[int],
    *,
    workers: int = 1,
    shards: Optional[int] = None,
) -> WorldResult:
    """Advance the whole world, sharded over ``workers`` processes.

    ``shards`` fixes the number of work units (default
    ``workers x SHARDS_PER_WORKER``); any value yields byte-identical
    results because no draw is keyed by shard.  ``workers <= 1`` runs
    every shard inline — same code path, no pool.
    """
    bounds = shard_bounds(
        len(viewers_by_broadcaster),
        shards if shards is not None else max(1, workers) * SHARDS_PER_WORKER,
    )
    merged = WorldResult(shard_count=0)
    if workers <= 1:
        previous_fast = fastpath.enabled()
        fastpath.set_enabled(not context.exact_network)
        try:
            for shard_index, (start, stop) in enumerate(bounds):
                merged.fold(
                    compute_shard(
                        context, shard_index, start,
                        viewers_by_broadcaster[start:stop],
                    )
                )
        finally:
            fastpath.set_enabled(previous_fast)
        return merged
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(context,),
    ) as pool:
        futures = [
            pool.submit(
                _run_shard, shard_index, start,
                list(viewers_by_broadcaster[start:stop]),
            )
            for shard_index, (start, stop) in enumerate(bounds)
        ]
        # Submission-order iteration: the merge never sees completion
        # order, so parallel worlds match inline ones byte for byte.
        for future in futures:
            merged.fold(future.result())
    return merged
