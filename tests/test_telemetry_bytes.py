"""Byte-identity guard for telemetry-on output.

One small faulted sweep cell runs with metrics, causes and health on;
the Prometheus dump plus the cause and health snapshots must hash to a
pinned constant.  Speedups of the per-packet telemetry sites (link
admission, playout buffer, session teardown) must not move a single
exported byte: the metric children, their values, the cause ledger and
the health counts all feed the digest.

Re-pin ``EXPECTED_SHA256`` only in a change that is meant to alter
simulated outputs or the export format, and say so.
"""

import hashlib
import json

from repro import obs
from repro.campaign.spec import CampaignSpec, resolve_config
from repro.core.study import AutomatedViewingStudy
from repro.obs.export import render_prometheus

SEED = 2016
SESSIONS = 2
LIMIT_MBPS = 2.0
FAULTS = "loss=0.05,jitter=0.01,flap=0.05:1:3"

EXPECTED_SHA256 = (
    "f22a63aab48a4966d1c608e20592938f20abd31c2eb26a6e7f8a7e76aad94cfb"
)


def telemetry_bytes() -> bytes:
    """The exported telemetry of one faulted cell, as one byte string."""
    spec = CampaignSpec(seeds=(SEED,), limits_mbps=(LIMIT_MBPS,),
                        sessions_per_cell=SESSIONS, faults=FAULTS,
                        causes_enabled=True, health_enabled=True)
    config = resolve_config(spec, SEED)
    with obs.session(metrics=True, tracing=False, profiling=False,
                     causes=True, health=True) as telemetry:
        AutomatedViewingStudy(config).run_batch(
            SESSIONS, bandwidth_limit_mbps=LIMIT_MBPS)
        prometheus = render_prometheus(telemetry)
        causes = telemetry.causes.snapshot()
        health = telemetry.health.snapshot()
    snapshots = json.dumps({"causes": causes, "health": health},
                           sort_keys=True, default=repr)
    return (prometheus + snapshots).encode("utf-8")


def test_faulted_cell_telemetry_bytes_are_pinned():
    data = telemetry_bytes()
    # The cell must actually exercise the per-packet link telemetry.
    assert b"netsim_link_packets_total{" in data
    assert b"netsim_link_impairment_seconds_total{" in data
    assert b'"link.flap"' in data
    assert hashlib.sha256(data).hexdigest() == EXPECTED_SHA256
