"""Per-layer tracing from outside the program.

:func:`install` wraps public calls of each layer (listed in README.md)
with timers.  The wrappers keep spans in memory (name, start, end,
parent) and per-name totals; a layer's *self* time is its span's
duration minus the time its wrapped children cover.  Hot leaf calls
(millions per run) are aggregated only, never kept as spans.

Pool workers are forked from the traced parent and inherit the
wrappers.  Only the parent keeps spans; each worker task instead writes
its per-name totals and counts to ``<out>/workers/`` when it finishes,
and :meth:`Recorder.merge_workers` folds them in.  ``uninstall``
restores every wrapped attribute.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from typing import Dict, List

perf_counter = time.perf_counter


class Recorder:
    """Spans, per-name totals and counts for one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.keep_spans = True
        self.stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}
        #: name -> list of durations (only for names that need quantiles)
        self.samples: Dict[str, List[float]] = {}
        #: [name, start, end, parent_index]
        self.spans: List[list] = []
        self.undo: List[tuple] = []
        self._worker_tasks = 0

    # -- recording -------------------------------------------------------

    def push(self, name: str, keep: bool) -> list:
        span_index = -1
        if keep and self.keep_spans:
            parent = self.stack[-1][2] if self.stack else -1
            span_index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, 0.0, span_index, perf_counter()]
        self.stack.append(frame)
        if span_index >= 0:
            self.spans[span_index][1] = frame[3]
        return frame

    def pop(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, child_s, span_index, start = frame
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if span_index >= 0:
            self.spans[span_index][2] = end
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- worker side -----------------------------------------------------

    def worker_task(self, original):
        """Wrap a pool task so a worker ships its totals back via a file."""
        recorder = self

        @functools.wraps(original)
        def task(*args, **kwargs):
            recorder.keep_spans = False
            recorder.stack, recorder.totals = [], {}
            recorder.counts, recorder.samples = {}, {}
            result = original(*args, **kwargs)
            recorder._worker_tasks += 1
            path = os.path.join(recorder.out_dir, "workers",
                                f"{os.getpid()}-{recorder._worker_tasks}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"totals": recorder.totals,
                           "counts": recorder.counts,
                           "samples": recorder.samples}, handle)
            return result

        return task

    def merge_workers(self) -> int:
        """Fold every worker file into this (parent) recorder."""
        folder = os.path.join(self.out_dir, "workers")
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        for file_name in names:
            with open(os.path.join(folder, file_name),
                      encoding="utf-8") as handle:
                shipped = json.load(handle)
            for name, (calls, total, self_s) in shipped["totals"].items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for name, amount in shipped["counts"].items():
                self.count(name, amount)
            for name, values in shipped["samples"].items():
                self.samples.setdefault(name, []).extend(values)
        return len(names)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, keep: bool = False,
             after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper named ``name``.

        ``keep`` records a span per call (parent process only); otherwise
        only per-name totals.  ``after(recorder, args, result, seconds)``
        runs once the call returned."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = recorder.push(name, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = recorder.pop(frame)
            if after is not None:
                after(recorder, args, result, seconds)
            return result

        self._set(owner, attr, wrapper, original)

    def wrap_generator(self, owner, attr: str, name: str,
                       item_count: str) -> None:
        """Time every resumption of a generator method; count its items."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                frame = recorder.push(name, False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.pop(frame)
                recorder.count(item_count)
                yield item

        self._set(owner, attr, wrapper, original)

    def _set(self, owner, attr, value, original) -> None:
        setattr(owner, attr, value)
        self.undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- layers


def _after_session(recorder, args, artifacts, seconds) -> None:
    session = args[0]
    recorder.count("core.sessions")
    recorder.sample("core.session_s", seconds)
    recorder.count("netsim.events", session.loop.events_processed)
    recorder.count("netsim.trace_records", len(artifacts.capture))
    recorder.count("player.stall_count", len(artifacts.qoe.stalls))


def _after_shard(recorder, args, shard, seconds) -> None:
    recorder.count("world.broadcasters", shard.broadcasters)
    recorder.count("world.cohorts", shard.cohorts)


def _after_lint_parse(recorder, args, result, seconds) -> None:
    modules, _errors = result
    recorder.count("lint.modules", len(modules))


def _after_lint_check(recorder, args, findings, seconds) -> None:
    recorder.count("lint.findings", len(findings))


def _counter(name):
    def after(recorder, args, result, seconds):
        recorder.count(name)
    return after


def install(recorder: Recorder, bench_module) -> None:
    """Wrap each layer's public calls (the list in README.md)."""
    from repro.campaign import cells, runner as campaign_runner, spec
    from repro.campaign.store import CampaignStore
    from repro.core import parallel, popstudy, study
    from repro.core.session import ViewingSession
    from repro.lint import runner as lint_runner
    from repro.media.encoder import VideoEncoder
    from repro.netsim.events import EventLoop
    from repro.netsim.fastpath import FastEngine
    from repro.obs.causes import CauseCollector
    from repro.obs.health import HealthMonitor
    from repro.obs.metrics import MetricFamily, MetricsRegistry
    from repro.player.buffer import PlayoutBuffer
    from repro.protocols import mpegts, rtmp
    from repro.service.broadcast import Broadcast
    from repro.service.world import ServiceWorld
    from repro.world import shards

    wrap = recorder.wrap
    # core
    wrap(ViewingSession, "run", "core.session", keep=True,
         after=_after_session)
    wrap(study.AutomatedViewingStudy, "run_batch", "core.run_batch",
         keep=True)
    wrap(study, "run_sessions", "core.parallel.fanout", keep=True,
         after=_counter("core.parallel.fanouts"))
    wrap(parallel, "run_tasks", "core.parallel.fanout", keep=True,
         after=_counter("core.parallel.fanouts"))
    # Pool tasks are pickled by reference (module + qualified name), so a
    # task wrapper must replace the attribute the original is found under;
    # functools.wraps keeps that name.
    recorder._set(parallel, "_run_chunk",
                  recorder.worker_task(parallel._run_chunk),
                  parallel._run_chunk)
    task = recorder.worker_task(cells.execute_cell)
    recorder._set(cells, "execute_cell", task, cells.execute_cell)
    recorder._set(campaign_runner, "execute_cell", task,
                  campaign_runner.execute_cell)
    # service
    wrap(ServiceWorld, "advance_to", "service.world_advance", keep=True)
    wrap(ServiceWorld, "teleport", "service.teleport", keep=True)
    wrap(Broadcast, "viewers_at", "service.viewers_at")
    # netsim
    wrap(EventLoop, "run", "netsim.loop")
    wrap(EventLoop, "run_until", "netsim.loop")
    wrap(FastEngine, "drain_until", "netsim.fastpath.drain")
    # media / player / protocols
    recorder.wrap_generator(VideoEncoder, "generate", "media.encode",
                            "media.frames_encoded")
    wrap(PlayoutBuffer, "on_media", "player.on_media")
    wrap(mpegts, "mux_segment", "protocols.mux")
    wrap(rtmp, "chunk_message", "protocols.mux")
    # world
    wrap(popstudy.PopulationStudy, "run", "world.run", keep=True)
    wrap(popstudy, "sample_population", "world.sample_population",
         keep=True)
    wrap(shards, "compute_shard", "world.compute_shard", keep=True,
         after=_after_shard)
    wrap(shards, "build_broadcast", "world.build_broadcast")
    wrap(shards, "build_cohorts", "world.build_cohorts")
    wrap(shards, "cohort_aggregate", "world.cohort_aggregate")
    # obs
    wrap(MetricFamily, "child", "obs.metrics.child")
    wrap(HealthMonitor, "check", "obs.health.check")
    wrap(CauseCollector, "add", "obs.causes.add")
    for owner in (MetricsRegistry, CauseCollector, HealthMonitor):
        wrap(owner, "merge_from", "obs.merge", keep=True)
    # campaign
    wrap(campaign_runner.CampaignRunner, "run", "campaign.run", keep=True)
    wrap(spec, "content_hash", "campaign.hash", keep=True)
    wrap(CampaignStore, "put_blob", "campaign.put_blob", keep=True)
    wrap(CampaignStore, "read_blob", "campaign.read_blob", keep=True)
    wrap(CampaignStore, "append_record", "campaign.append_record",
         keep=True)
    wrap(bench_module, "warm_pass", "campaign.warm_resume", keep=True)
    # lint
    wrap(lint_runner, "parse_files", "lint.parse", keep=True,
         after=_after_lint_parse)
    wrap(lint_runner, "lint_modules", "lint.check", keep=True,
         after=_after_lint_check)


# ---------------------------------------------------------------- report


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (all but the run-level
    ``trace.overhead_x``, ``campaign.memo_hit_ratio`` and
    ``failed_ratio``)."""
    totals = recorder.totals
    counts = recorder.counts

    def total(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return totals.get(name, [0, 0.0, 0.0])[0]

    sessions = recorder.samples.get("core.session_s", [])
    session_sum = float(sum(sessions))
    fanout_s = total("core.parallel.fanout")
    events = counts.get("netsim.events", 0)
    loop_self = totals.get("netsim.loop", [0, 0.0, 0.0])[2]
    return {
        "core.session_s.p50": statistics.median(sessions) if sessions else 0.0,
        "core.sessions": counts.get("core.sessions", 0),
        "core.parallel.fanout_s": fanout_s,
        "core.parallel.fanouts": counts.get("core.parallel.fanouts", 0),
        "core.parallel.session_s_sum": session_sum,
        "core.parallel.efficiency":
            session_sum / (2.0 * fanout_s) if fanout_s else 0.0,
        "service.world_advance_s": total("service.world_advance"),
        "service.teleport_s": total("service.teleport"),
        "service.viewers_at_calls": calls("service.viewers_at"),
        "service.viewers_at_s": total("service.viewers_at"),
        "netsim.events": events,
        "netsim.loop_self_s": loop_self,
        "netsim.us_per_event": loop_self * 1e6 / events if events else 0.0,
        "netsim.fastpath.drain_calls": calls("netsim.fastpath.drain"),
        "netsim.trace_records": counts.get("netsim.trace_records", 0),
        "media.frames_encoded": counts.get("media.frames_encoded", 0),
        "media.encode_s": total("media.encode"),
        "player.on_media_calls": calls("player.on_media"),
        "player.on_media_s": total("player.on_media"),
        "player.stall_count": counts.get("player.stall_count", 0),
        "protocols.mux_calls": calls("protocols.mux"),
        "world.sample_population_s": total("world.sample_population"),
        "world.compute_shard_s": total("world.compute_shard"),
        "world.build_broadcast_s": total("world.build_broadcast"),
        "world.build_cohorts_s": total("world.build_cohorts"),
        "world.cohort_aggregate_s": total("world.cohort_aggregate"),
        "world.broadcasters": counts.get("world.broadcasters", 0),
        "world.cohorts": counts.get("world.cohorts", 0),
        "obs.metrics.child_calls": calls("obs.metrics.child"),
        "obs.metrics.child_s": total("obs.metrics.child"),
        "obs.health.check_calls": calls("obs.health.check"),
        "obs.causes.add_calls": calls("obs.causes.add"),
        "obs.merge_s": total("obs.merge"),
        "campaign.hash_s": total("campaign.hash"),
        "campaign.put_blob_s": total("campaign.put_blob"),
        "campaign.read_blob_s": total("campaign.read_blob"),
        "campaign.append_record_s": total("campaign.append_record"),
        "campaign.warm_resume_s": total("campaign.warm_resume"),
        "lint.parse_s": total("lint.parse"),
        "lint.check_s": total("lint.check"),
        "lint.modules": counts.get("lint.modules", 0),
        "lint.findings": counts.get("lint.findings", 0),
    }


#: Counts that must repeat exactly across traced runs of one commit.
EXACT_COUNTS = (
    "netsim.events",
    "service.viewers_at_calls",
    "obs.metrics.child_calls",
    "world.cohorts",
    "media.frames_encoded",
    "player.stall_count",
)


def write_chrome_trace(recorder: Recorder, path: str) -> None:
    """Parent-side spans as Chrome/Perfetto trace-event JSON."""
    spans = recorder.spans
    origin = min(span[1] for span in spans) if spans else 0.0
    events = [{
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "X",
        "ts": (start - origin) * 1e6,
        "dur": (end - start) * 1e6,
        "pid": os.getpid(),
        "tid": 1,
        "args": {"id": index, "parent": parent},
    } for index, (name, start, end, parent) in enumerate(spans)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_time_table(recorder: Recorder) -> str:
    """Per-name and per-layer self time (parent plus merged workers)."""
    rows = sorted(recorder.totals.items(), key=lambda item: -item[1][2])
    by_layer: Dict[str, float] = {}
    for name, (_calls, _total, self_s) in rows:
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    lines = [f"{'span':32} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
    lines += [f"{name:32} {calls:>10} {total:>10.4f} {self_s:>10.4f}"
              for name, (calls, total, self_s) in rows]
    lines += ["", f"{'layer':32} {'self_s':>10}"]
    lines += [f"{layer:32} {self_s:>10.4f}" for layer, self_s in
              sorted(by_layer.items(), key=lambda item: -item[1])]
    return "\n".join(lines) + "\n"
