"""Helpers shared by the wall-clock benchmark scripts in this directory.

``environment()`` is what every ``BENCH_*.json`` entry records about
the machine and the code, so an A/B is only read between entries that
ran on the same machine.  ``canonical_trace()`` renders a packet
capture as stable text for the fast-path trace gate.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
from typing import Dict, List, Union

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_sha() -> str:
    """The checkout's HEAD, suffixed ``-dirty`` when the tracked sources
    under ``src/`` differ from it; ``"unknown"`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "src"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if status.strip() else sha


def environment() -> Dict[str, Union[int, str, None]]:
    """``cpu_count``, ``python`` and ``git_sha`` for a benchmark entry."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def canonical_trace(capture) -> List[str]:
    """Render a :class:`~repro.netsim.trace.TraceCapture` as stable text
    lines, one per record, in capture order.

    Flow and message ids come from process-global counters, so they are
    normalized to first-appearance indices; ``_``-prefixed annotations
    carry live objects and are skipped.  The same rendering as the
    fast-path identity tests, so a gate failure here reproduces there.
    """
    flow_index: Dict[int, int] = {}
    message_index: Dict[int, int] = {}
    lines = []
    for record in capture.records:
        flow = flow_index.setdefault(record.flow_id, len(flow_index))
        if record.message_id < 0:
            message = -1
        else:
            message = message_index.setdefault(
                record.message_id, len(message_index))
        annotations = ",".join(
            f"{key}={value!r}"
            for key, value in record.annotations
            if not key.startswith("_")
            and isinstance(value, (str, int, float, bool, type(None)))
        )
        lines.append(
            f"{record.timestamp:.9f} {record.direction} flow={flow} "
            f"seq={record.seq} bytes={record.payload_bytes}/{record.wire_bytes} "
            f"ack={int(record.is_ack)} "
            f"msg={message}:{record.message_offset}:{record.message_total} "
            f"[{annotations}]"
        )
    return lines
