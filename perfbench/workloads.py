"""The five benchmark workloads, their correctness gates and digests.

Each workload is a closed loop over *units*: the driver runs one unit,
waits for it to finish, then starts the next.  Unit ``k`` of a workload
is a pure function of ``(seed, k)``, so the traced run, its untraced
replay and any two commits see the same inputs.  Every unit returns a
digest of the simulated outputs it produced (QoE records, cohort
totals, lint findings); a speed-only change must leave it unchanged.

Only public entry points of the simulator are called here; nothing
under ``src/`` is changed to make the benchmark possible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import shutil
from dataclasses import dataclass, field
from typing import Dict, List

#: Sizes per scale.  ``full`` is what the benchmark times; ``tiny`` is
#: the self-test's scale.
SCALES = {
    "full": {
        "sweep_per_limit": 4,
        "sweep_limits": (0.5, 2.0, 100.0),
        "population_viewers": 200_000,
        "campaign_seeds": 2,
        "campaign_limits": (0.5, 100.0),
        "campaign_sessions_per_cell": 2,
        "lint_roots": ("src/repro",),
    },
    "tiny": {
        "sweep_per_limit": 2,
        "sweep_limits": (0.5, 100.0),
        "population_viewers": 4_000,
        "campaign_seeds": 1,
        "campaign_limits": (0.5, 100.0),
        "campaign_sessions_per_cell": 1,
        "lint_roots": ("src/repro/util",),
    },
}


@dataclass
class UnitResult:
    """What one closed-loop unit did."""

    #: Work items completed: sessions, viewers or modules.
    items: int
    #: Operations attempted and failed (sessions, cells, worlds, passes).
    attempted: int
    failed: int
    digest: str
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


def digest_of(value: object) -> str:
    """sha256 of ``repr`` of plain data (float ``repr`` is exact)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


def dataset_digest(dataset) -> str:
    """Digest of a :class:`~repro.core.study.StudyDataset`."""
    return digest_of((
        [_plain(qoe) for qoe in dataset.sessions],
        list(dataset.avatar_bytes),
        list(dataset.down_bytes),
        dataset.shortfall,
    ))


def unit_seeds(seed: int, workload: str):
    """Deterministic per-unit seeds for workloads that build fresh state."""
    rng = random.Random(f"{seed}:{workload}")
    while True:
        yield rng.getrandbits(31)


# ------------------------------------------------------------------ sweeps


class SweepWorkload:
    """The paper's tc sweep (Figs. 3(b)/4) on one study object.

    Unit ``k`` is the ``k``-th sweep over the limits; RTMP or HLS is
    chosen by the service's own selection.  ``sweep_serial`` and
    ``sweep_parallel`` run the same units, so their digests must match.
    """


    def __init__(self, name: str, workers: int) -> None:
        self.name = name
        self.workers = workers

    def setup(self, seed: int, scale: str):
        from repro.core.config import StudyConfig
        from repro.core.study import AutomatedViewingStudy

        sizes = SCALES[scale]
        study = AutomatedViewingStudy(
            StudyConfig(seed=seed, workers=self.workers))
        return study, sizes["sweep_per_limit"], sizes["sweep_limits"]

    def unit(self, state, index: int) -> UnitResult:
        study, per_limit, limits = state
        return _sweep_unit(study, per_limit, limits)

    def gates(self, seed: int, scale: str) -> List[Gate]:
        if self.workers == 1:
            fast = _fresh_sweep(seed, workers=1, exact=False, per_limit=1)
            exact = _fresh_sweep(seed, workers=1, exact=True, per_limit=1)
            return [Gate("fast_equals_exact", fast == exact,
                         f"fast {fast[:12]} exact {exact[:12]}")]
        serial = _fresh_sweep(seed, workers=1, exact=False, per_limit=2)
        parallel = _fresh_sweep(seed, workers=2, exact=False, per_limit=2)
        return [Gate("parallel_equals_serial", serial == parallel,
                     f"serial {serial[:12]} parallel {parallel[:12]}")]


def _sweep_unit(study, per_limit, limits) -> UnitResult:
    digests = []
    sessions = 0
    for limit in limits:
        dataset = study.run_batch(per_limit, bandwidth_limit_mbps=limit)
        sessions += len(dataset.sessions)
        digests.append(dataset_digest(dataset))
    requested = per_limit * len(limits)
    return UnitResult(items=sessions, attempted=requested,
                      failed=requested - sessions,
                      digest=digest_of(digests))


def _fresh_sweep(seed, workers, exact, per_limit) -> str:
    """Digest of a reduced sweep on a fresh study (gates only)."""
    from repro.core.config import StudyConfig
    from repro.core.study import AutomatedViewingStudy

    study = AutomatedViewingStudy(StudyConfig(
        seed=seed, workers=workers, exact_network=exact))
    return _sweep_unit(study, per_limit, (0.5, 100.0)).digest


# -------------------------------------------------------------- population


class PopulationWorkload:
    """A fluid-tier world: cohort math only, no promoted sessions."""

    name = "population_fluid"

    def setup(self, seed: int, scale: str):
        from repro.core.config import StudyConfig
        from repro.core.popstudy import PopulationStudy
        from repro.world.popularity import PopulationParameters

        params = PopulationParameters(
            viewers=SCALES[scale]["population_viewers"], sample_budget=0)
        return PopulationStudy, StudyConfig, params, unit_seeds(seed, self.name)

    def unit(self, state, index: int) -> UnitResult:
        study_cls, config_cls, params, seeds = state
        study = study_cls(config_cls(seed=next(seeds), workers=1), params)
        result = study.run()
        return UnitResult(items=result.population.total_viewers,
                          attempted=1, failed=0,
                          digest=_population_digest(result))

    def gates(self, seed: int, scale: str) -> List[Gate]:
        from repro.core.config import StudyConfig
        from repro.core.popstudy import PopulationStudy
        from repro.world.popularity import PopulationParameters

        params = PopulationParameters(viewers=4_000, sample_budget=2)
        one = PopulationStudy(StudyConfig(seed=seed, workers=1), params)
        two = PopulationStudy(StudyConfig(seed=seed, workers=2), params)
        a = _population_digest(one.run(shards=1))
        b = _population_digest(one.run(shards=7))
        c = _population_digest(two.run(shards=5))
        return [Gate("population_shard_worker_invariance", a == b == c,
                     f"{a[:12]} {b[:12]} {c[:12]}")]


def _population_digest(result) -> str:
    sampled = result.sampled
    return digest_of((
        result.population.n_broadcasters,
        result.population.total_viewers,
        result.world.cohorts,
        sorted((key, _plain(value))
               for key, value in result.world.totals.items()),
        [_plain(qoe) for qoe in sampled.sessions],
        list(sampled.avatar_bytes),
        list(sampled.down_bytes),
    ))


# ---------------------------------------------------------------- campaign


class CampaignWorkload:
    """A sweep campaign with causes and health on, cold then warm.

    Each unit plans a fresh grid (two seeds x two limits: four cells
    that the two workers finish together), runs it into an empty store
    through ``run_tasks``, then re-runs it, which must execute nothing.
    """

    name = "campaign_explain"
    workers = 2

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch

    def setup(self, seed: int, scale: str):
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore

        sizes = SCALES[scale]
        seeds = unit_seeds(seed, self.name)

        def spec_for_next_unit():
            return CampaignSpec(
                seeds=tuple(next(seeds)
                            for _ in range(sizes["campaign_seeds"])),
                limits_mbps=sizes["campaign_limits"],
                sessions_per_cell=sizes["campaign_sessions_per_cell"],
                causes_enabled=True,
                health_enabled=True,
            )

        return CampaignRunner, CampaignStore, spec_for_next_unit

    def unit(self, state, index: int) -> UnitResult:
        from repro.campaign.runner import (
            DATASET_NAME, METRICS_JSON_NAME, METRICS_PROM_NAME)

        runner_cls, store_cls, next_spec = state
        spec = next_spec()
        path = os.path.join(self.scratch, f"campaign-{os.getpid()}-{index}")
        shutil.rmtree(path, ignore_errors=True)
        names = (DATASET_NAME, METRICS_PROM_NAME, METRICS_JSON_NAME)
        try:
            cold = runner_cls(store_cls(path), spec, workers=2).run()
            cold_bytes = [_read(path, name) for name in names]
            warm = warm_pass(runner_cls, store_cls, path, spec)
            warm_bytes = [_read(path, name) for name in names]
        finally:
            shutil.rmtree(path, ignore_errors=True)
        dataset = pickle.loads(cold_bytes[0])
        sessions = sum(len(cell["dataset"].sessions)
                       for cell in dataset["cells"])
        requested = cold.planned * spec.sessions_per_cell
        failed = requested - sessions
        failed += 0 if cold.executed == cold.planned else 1
        failed += 0 if warm.executed == 0 else 1
        failed += 0 if warm_bytes == cold_bytes else 1
        return UnitResult(
            items=sessions, attempted=requested + 3, failed=failed,
            digest=digest_of([hashlib.sha256(b).hexdigest()
                              for b in cold_bytes]),
            extra={"memo_hit_ratio": warm.memoized / warm.planned},
        )

    def gates(self, seed: int, scale: str) -> List[Gate]:
        # The warm-pass checks run inside every unit and count as
        # failures there; nothing further to check outside the loop.
        return []


def warm_pass(runner_cls, store_cls, path, spec):
    """The warm re-run (a separate function so the trace can time it)."""
    return runner_cls(store_cls(path), spec, workers=2).run()


def _read(path: str, name: str) -> bytes:
    with open(os.path.join(path, name), "rb") as handle:
        return handle.read()


# -------------------------------------------------------------------- lint


class LintWorkload:
    """``repro.lint`` over the package tree, in a seed-shuffled order."""

    name = "lint_tree"

    def __init__(self, root: str) -> None:
        self.root = root

    def setup(self, seed: int, scale: str):
        from repro.lint import runner
        from repro.lint.baseline import load_baseline
        from repro.lint.discovery import discover_files

        files = discover_files(self.root, SCALES[scale]["lint_roots"])
        baseline = load_baseline(
            os.path.join(self.root, "lint-baseline.json"))
        return runner, files, baseline, random.Random(f"{seed}:lint")

    def unit(self, state, index: int) -> UnitResult:
        from repro.lint.baseline import apply_baseline

        runner, files, baseline, rng = state
        order = list(files)
        rng.shuffle(order)
        modules, errors = runner.parse_files(self.root, order)
        findings = runner.lint_modules(modules)
        new, _, _ = apply_baseline(findings, baseline)
        failed = len(errors) + len(new)
        digest = digest_of((len(modules), sorted(
            (f.rule, f.path, f.line, f.col, f.message, f.occurrence)
            for f in list(findings) + list(errors))))
        return UnitResult(items=len(modules), attempted=len(order),
                          failed=failed, digest=digest,
                          extra={"findings": len(findings)})

    def gates(self, seed: int, scale: str) -> List[Gate]:
        # "No new findings" is checked on every unit (counted as failed
        # modules there).
        return []


def registry(root: str, scratch: str) -> Dict[str, object]:
    return {
        "sweep_serial": SweepWorkload("sweep_serial", workers=1),
        "sweep_parallel": SweepWorkload("sweep_parallel", workers=2),
        "population_fluid": PopulationWorkload(),
        "campaign_explain": CampaignWorkload(scratch),
        "lint_tree": LintWorkload(root),
    }


#: Reference-digest family: both sweeps run the same units, so they
#: share one reference list.
REFERENCE_KEY = {
    "sweep_serial": "sweep",
    "sweep_parallel": "sweep",
    "population_fluid": "population_fluid",
    "campaign_explain": "campaign_explain",
    "lint_tree": "lint_tree",
}

#: Units the traced run executes (fixed, so its counts repeat exactly).
TRACE_UNITS = {
    "sweep_serial": 1,
    "sweep_parallel": 2,
    "population_fluid": 1,
    "campaign_explain": 1,
    "lint_tree": 1,
}
