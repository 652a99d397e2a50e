"""Unit tests for the mesoscale world: popularity, cohorts, sampling."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.popstudy import PopulationStudy
from repro.media.content import CONTENT_PROFILES, pick_profile
from repro.service.broadcast import (
    _ID_ALPHABET,
    BROADCAST_ID_LENGTH,
    BroadcastState,
    make_broadcast_id,
)
from repro.service.geo import POPULATION_CENTERS, GeoPoint, sample_location
from repro.service.selection import DeliveryProtocol
from repro.world.cohorts import (
    BANDWIDTH_CLASSES,
    build_cohorts,
    cohort_aggregate,
    effective_stream_rate_bps,
    peak_viewers,
)
from repro.world.popularity import (
    PopulationParameters,
    Population,
    apportion,
    build_broadcast,
    sample_population,
)
from repro.world.sampler import (
    END_MARGIN_S,
    MIN_JOIN_AGE_S,
    joinable_min_duration_s,
    plan_expansions,
)
from repro.world.shards import shard_bounds

SEED = 2016


class TestApportionment:
    def test_sums_to_total(self):
        for weights in ([1.0], [3.0, 1.0], [0.2] * 7, [5.0, 0.0, 2.5]):
            for total in (0, 1, 10, 997):
                counts = apportion(total, weights)
                assert sum(counts) == total

    def test_proportionality(self):
        counts = apportion(100, [3.0, 1.0])
        assert counts == [75, 25]

    def test_zero_weight_gets_nothing(self):
        counts = apportion(50, [1.0, 0.0, 1.0])
        assert counts[1] == 0

    def test_all_zero_weights_degenerate(self):
        assert apportion(7, [0.0, 0.0, 0.0]) == [7, 0, 0]

    def test_empty_weights(self):
        assert apportion(5, []) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])


class TestPopulation:
    def test_viewer_budget_is_exact(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=12_345)
        )
        assert population.total_viewers == 12_345

    def test_mean_audience_matches_empirical(self):
        params = PopulationParameters(viewers=200_000)
        population = sample_population(SEED, params)
        empirical = population.total_viewers / population.n_broadcasters
        assert empirical == pytest.approx(params.mean_audience(), rel=0.15)

    def test_zero_audience_share_near_nominal(self):
        params = PopulationParameters(viewers=50_000)
        population = sample_population(SEED, params)
        share = population.zero_audience_count() / population.n_broadcasters
        assert share == pytest.approx(params.zero_viewer_fraction, abs=0.03)

    def test_heavy_tail_concentration(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=50_000)
        )
        # The defining mesoscale property: a thin head carries a fat
        # share of all viewers.
        assert population.top_share(0.01) > 0.25
        assert population.top_share(0.10) > population.top_share(0.01)

    def test_audience_cdf_monotone(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=5_000)
        )
        grid = [0, 1, 5, 20, 100, 10_000]
        values = [population.audience_cdf(x) for x in grid]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PopulationParameters(viewers=0)
        with pytest.raises(ValueError):
            PopulationParameters(sample_budget=-1)
        with pytest.raises(ValueError):
            PopulationParameters(zero_viewer_fraction=1.0)
        with pytest.raises(ValueError):
            Population(SEED, PopulationParameters(),
                       [1, 2, 3]).top_share(0.0)

    def test_build_broadcast_deterministic(self):
        a = build_broadcast(SEED, 17, audience=40, min_duration_s=30.0)
        b = build_broadcast(SEED, 17, audience=40, min_duration_s=30.0)
        assert a.broadcast_id == b.broadcast_id
        assert a.duration_s == b.duration_s
        assert a.mean_viewers == 40.0
        assert a.duration_s >= 30.0


class TestCohorts:
    def _broadcast(self, audience=50):
        return build_broadcast(SEED, 3, audience=audience,
                               min_duration_s=120.0)

    def test_members_sum_to_audience(self):
        broadcast = self._broadcast(audience=37)
        cohorts = build_cohorts(broadcast, 3, 37, hls_viewer_threshold=100)
        assert sum(c.members for c in cohorts) == 37

    def test_zero_audience_no_cohorts(self):
        broadcast = self._broadcast()
        assert build_cohorts(broadcast, 3, 0, hls_viewer_threshold=100) == []

    def test_protocol_follows_peak_threshold(self):
        broadcast = self._broadcast(audience=500)
        peak = peak_viewers(broadcast)
        hls = build_cohorts(broadcast, 3, 500, hls_viewer_threshold=peak / 2)
        rtmp = build_cohorts(broadcast, 3, 500, hls_viewer_threshold=peak * 2)
        assert {c.protocol for c in hls} == {DeliveryProtocol.HLS}
        assert {c.protocol for c in rtmp} == {DeliveryProtocol.RTMP}

    def test_aggregate_member_seconds_tracks_audience_curve(self):
        broadcast = self._broadcast(audience=60)
        cohorts = build_cohorts(broadcast, 3, 60, hls_viewer_threshold=1e9)
        total = sum(
            cohort_aggregate(broadcast, c, watch_seconds=60.0).member_seconds
            for c in cohorts
        )
        # The audience curve integrates to ~ mean_viewers * duration.
        assert total == pytest.approx(60 * broadcast.duration_s, rel=0.15)

    def test_starved_class_stalls_fluidly(self):
        broadcast = self._broadcast(audience=400)
        cohorts = build_cohorts(broadcast, 3, 400, hls_viewer_threshold=1)
        rate_bps = effective_stream_rate_bps(broadcast)
        for cohort in cohorts:
            aggregate = cohort_aggregate(broadcast, cohort, watch_seconds=60.0)
            capacity_bps = cohort.bandwidth.downlink_mbps * 1e6
            if capacity_bps >= rate_bps:
                assert aggregate.stall_seconds == 0.0
            else:
                expected = 1.0 - capacity_bps / rate_bps
                assert aggregate.stall_ratio() == pytest.approx(expected)

    def test_joins_and_leaves_balance(self):
        broadcast = self._broadcast(audience=80)
        cohort = build_cohorts(broadcast, 3, 80, hls_viewer_threshold=1e9)[0]
        aggregate = cohort_aggregate(broadcast, cohort, watch_seconds=60.0)
        # Everyone who joins eventually leaves (the end drains the room).
        assert aggregate.joins == pytest.approx(aggregate.leaves)
        assert aggregate.peak_members <= cohort.members * 3

    def test_class_weights_cover_population(self):
        assert sum(c.weight for c in BANDWIDTH_CLASSES) == pytest.approx(1.0)

    def test_invalid_watch_rejected(self):
        broadcast = self._broadcast()
        cohort = build_cohorts(broadcast, 3, 50, hls_viewer_threshold=1e9)[0]
        with pytest.raises(ValueError):
            cohort_aggregate(broadcast, cohort, watch_seconds=0.0)

    def test_invalid_steps_rejected(self):
        # ``steps=0`` used to divide by zero and ``steps=-1`` returned an
        # aggregate with no member mass but a non-zero buffer level.
        broadcast = self._broadcast()
        cohort = build_cohorts(broadcast, 3, 50, hls_viewer_threshold=1e9)[0]
        for steps in (0, -1):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                cohort_aggregate(broadcast, cohort, watch_seconds=60.0,
                                 steps=steps)
            with pytest.raises(ValueError, match="steps must be >= 1"):
                broadcast.audience_curve(steps)

    def test_curve_length_must_match_steps(self):
        broadcast = self._broadcast()
        cohort = build_cohorts(broadcast, 3, 50, hls_viewer_threshold=1e9)[0]
        with pytest.raises(ValueError):
            cohort_aggregate(broadcast, cohort, watch_seconds=60.0, steps=8,
                             curve=broadcast.audience_curve(4))


# ------------------------------------------------- exactness of the curve
#
# The oracles below copy the per-step code the world ran before the
# audience curve was evaluated once per broadcaster: ``viewers_at`` with
# its per-call normalisation integral, and the cohort loop calling it at
# every midpoint.  The kernel must reproduce them bit for bit.


def _reference_viewers_at(broadcast, t):
    if (broadcast.state_at(t) != BroadcastState.LIVE
            or broadcast.mean_viewers <= 0):
        return 0.0
    x = (t - broadcast.start_time) / broadcast.duration_s
    ramp = 0.15
    decay = 1.2
    if x < ramp:
        shape = x / ramp
    else:
        shape = math.exp(-decay * (x - ramp) / (1.0 - ramp))
    integral = ramp / 2.0 + (1.0 - ramp) / decay * (1.0 - math.exp(-decay))
    return broadcast.mean_viewers * shape / integral


def _reference_aggregate(broadcast, cohort, watch_seconds, steps):
    share = cohort.members / cohort.audience if cohort.audience else 0.0
    dt_s = broadcast.duration_s / steps
    member_seconds = joins = leaves = peak_members = previous = 0.0
    for step in range(steps):
        t_s = broadcast.start_time + (step + 0.5) * dt_s
        members_now = share * _reference_viewers_at(broadcast, t_s)
        member_seconds += members_now * dt_s
        delta = members_now - previous
        if delta >= 0.0:
            joins += delta
        else:
            leaves -= delta
        peak_members = max(peak_members, members_now)
        previous = members_now
    leaves += previous
    # Everything past the curve integral is unchanged code; take it from
    # the kernel with the loop's outputs patched in.
    rest = cohort_aggregate(broadcast, cohort, watch_seconds, steps=steps)
    return dataclasses.replace(
        rest, member_seconds=member_seconds,
        sessions=member_seconds / watch_seconds,
        joins=joins, leaves=leaves, peak_members=peak_members,
    )


_curve_broadcasts = st.builds(
    dict,
    start_time=st.one_of(st.just(0.0),
                         st.floats(min_value=1e-3, max_value=5e7)),
    duration_s=st.one_of(st.floats(min_value=1e-6, max_value=1.0),
                         st.floats(min_value=1.0, max_value=5 * 86400.0)),
    mean_viewers=st.one_of(st.just(0.0),
                           st.floats(min_value=1e-3, max_value=20_000.0)),
)


def _curve_broadcast(traits):
    base = build_broadcast(SEED, 11, audience=10, min_duration_s=1.0)
    return dataclasses.replace(base, **traits)


class TestAudienceCurveExactness:
    @settings(max_examples=300, deadline=None)
    @given(traits=_curve_broadcasts, steps=st.integers(1, 64))
    def test_curve_equals_viewers_at_midpoints(self, traits, steps):
        broadcast = _curve_broadcast(traits)
        curve = broadcast.audience_curve(steps)
        assert len(curve) == steps
        dt_s = broadcast.duration_s / steps
        for i, value in enumerate(curve):
            t = broadcast.start_time + (i + 0.5) * dt_s
            assert value == broadcast.viewers_at(t)
            assert value == _reference_viewers_at(broadcast, t)

    @settings(max_examples=200, deadline=None)
    @given(traits=_curve_broadcasts, steps=st.integers(1, 64),
           audience=st.integers(1, 5_000),
           watch_seconds=st.floats(min_value=0.5, max_value=600.0))
    def test_aggregate_with_and_without_curve(self, traits, steps, audience,
                                              watch_seconds):
        broadcast = _curve_broadcast(traits)
        curve = broadcast.audience_curve(steps)
        for cohort in build_cohorts(broadcast, 11, audience,
                                    hls_viewer_threshold=100):
            computed = cohort_aggregate(broadcast, cohort, watch_seconds,
                                        steps=steps)
            shared = cohort_aggregate(broadcast, cohort, watch_seconds,
                                      steps=steps, curve=curve)
            reference = _reference_aggregate(broadcast, cohort,
                                             watch_seconds, steps)
            assert computed == shared == reference

    def test_viewers_at_liveness_edges(self):
        broadcast = _curve_broadcast(
            dict(start_time=100.0, duration_s=50.0, mean_viewers=30.0))
        for t in (99.999, 100.0, 120.0, 149.999, 150.0, 1e9, -1e9,
                  float("nan"), float("inf"), float("-inf")):
            assert (broadcast.viewers_at(t) == _reference_viewers_at(
                broadcast, t)), t


# ------------------------------------------ per-broadcaster sampling helpers


def _reference_sample_location(rng):
    total = sum(c.weight for c in POPULATION_CENTERS)
    pick = rng.random() * total
    acc = 0.0
    center = POPULATION_CENTERS[-1]
    for candidate in POPULATION_CENTERS:
        acc += candidate.weight
        if pick < acc:
            center = candidate
            break
    lat = center.location.lat + rng.gauss(0.0, center.spread_deg)
    lon = center.location.lon + rng.gauss(0.0, center.spread_deg)
    lat = min(max(lat, -89.9), 89.9)
    lon = ((lon + 180.0) % 360.0) - 180.0
    return GeoPoint(lat, lon), center


def _reference_pick_profile(rng):
    profiles = list(CONTENT_PROFILES.values())
    weights = [p.weight for p in profiles]
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for profile, weight in zip(profiles, weights):
        acc += weight
        if pick < acc:
            return profile
    return profiles[-1]


def _reference_broadcast_id(rng):
    return "".join(rng.choice(_ID_ALPHABET)
                   for _ in range(BROADCAST_ID_LENGTH))


@pytest.mark.parametrize("helper, reference", [
    (sample_location, _reference_sample_location),
    (pick_profile, _reference_pick_profile),
    (make_broadcast_id, _reference_broadcast_id),
])
def test_sampling_helpers_match_reference_draws(helper, reference):
    for seed in range(200):
        rng = random.Random(seed)
        expected_rng = random.Random(seed)
        for _ in range(3):
            assert helper(rng) == reference(expected_rng), seed
        assert rng.getstate() == expected_rng.getstate(), seed


#: sha256 of a 20K-viewer, ``sample_budget=0`` world at seed 2016:
#: cohort count plus ``repr`` of the sorted per-protocol totals.  Any
#: float the fluid tier produces differently changes it.
FLUID_WORLD_20K_SHA256 = (
    "5e95d837d650b3b38909ed1433117ef43aa7bed081d53748e461717e26cd0389"
)


def test_fluid_world_golden_digest():
    result = PopulationStudy(
        StudyConfig(seed=SEED, workers=1),
        PopulationParameters(viewers=20_000, sample_budget=0),
    ).run()
    payload = repr((result.world.cohorts,
                    sorted(result.world.totals.items())))
    assert result.world.cohorts == 5211
    assert (hashlib.sha256(payload.encode()).hexdigest()
            == FLUID_WORLD_20K_SHA256)


class TestSampler:
    def _cohort(self, members=200):
        broadcast = build_broadcast(SEED, 5, audience=members,
                                    min_duration_s=600.0)
        cohorts = build_cohorts(broadcast, 5, members, hls_viewer_threshold=10)
        return max(cohorts, key=lambda c: c.members)

    def test_zero_rate_empty(self):
        assert plan_expansions(SEED, self._cohort(), 0.0, 10.0) == []

    def test_requests_are_deterministic(self):
        cohort = self._cohort()
        a = plan_expansions(SEED, cohort, 0.05, 10.0)
        b = plan_expansions(SEED, cohort, 0.05, 10.0)
        assert a == b
        assert a, "expected a non-empty sample at 5% of 100+ members"

    def test_request_fields_within_bounds(self):
        cohort = self._cohort()
        for request in plan_expansions(SEED, cohort, 0.1, 10.0):
            assert request.broadcaster_index == cohort.broadcaster_index
            assert request.protocol_value == cohort.protocol.value
            assert request.device_name in ("galaxy-s3", "galaxy-s4")
            assert request.age_at_join_s >= MIN_JOIN_AGE_S
            assert (request.age_at_join_s
                    <= cohort.duration_s - 10.0 - END_MARGIN_S + 1e-9)

    def test_expected_count_realized_within_one(self):
        cohort = self._cohort()
        expected = cohort.members * 0.04
        count = len(plan_expansions(SEED, cohort, 0.04, 10.0))
        assert abs(count - expected) <= 1.0

    def test_joinable_floor_covers_window(self):
        assert joinable_min_duration_s(60.0) == pytest.approx(
            MIN_JOIN_AGE_S + 60.0 + END_MARGIN_S)


class TestShardBounds:
    def test_cover_each_index_exactly_once(self):
        for n_items in (0, 1, 2, 5, 16, 33, 1000):
            for shards in (1, 2, 4, 7, 50):
                bounds = shard_bounds(n_items, shards)
                covered = [i for start, stop in bounds
                           for i in range(start, stop)]
                assert covered == list(range(n_items)), (n_items, shards)

    def test_shard_count_never_exceeds_request(self):
        assert len(shard_bounds(10, 100)) <= 10
        assert len(shard_bounds(0, 4)) == 0


class TestPopulationStudy:
    def test_sampled_sessions_match_requests(self):
        study = PopulationStudy(
            StudyConfig(seed=SEED, watch_seconds=4.0),
            PopulationParameters(viewers=400, sample_budget=5),
        )
        result = study.run()
        assert len(result.sampled.sessions) == len(result.world.requests)
        assert result.population.total_viewers == 400
        for qoe, request in zip(result.sampled.sessions,
                                result.world.requests):
            assert qoe.protocol == request.protocol_value
            assert qoe.device == request.device_name
            assert qoe.bandwidth_limit_mbps == request.bandwidth_limit_mbps

    def test_totals_cover_both_protocols(self):
        study = PopulationStudy(
            StudyConfig(seed=SEED, watch_seconds=4.0),
            PopulationParameters(viewers=2_000, sample_budget=0),
        )
        result = study.run()
        assert set(result.totals) == {"rtmp", "hls"}
        assert result.sampled.sessions == []
        for aggregate in result.totals.values():
            assert aggregate.member_seconds > 0.0
            assert 0.0 <= aggregate.stall_ratio() < 1.0
