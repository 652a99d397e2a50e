"""Helpers shared by the wall-clock benchmark scripts in this directory.

``environment()`` is what every ``BENCH_*.json`` entry records about
the machine and the code, so an A/B is only read between entries that
ran on the same machine.  ``canonical_trace()`` (re-exported from
:mod:`repro.netsim.trace`) renders a packet capture as stable text for
the fast-path trace gate.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
from typing import Dict, Union

from repro.netsim.trace import canonical_trace

__all__ = ["canonical_trace", "environment", "git_sha"]

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
