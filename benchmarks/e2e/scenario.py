"""The benchmark input: the paper's Grid'5000 master-worker scenario.

``grid5000_platform()`` (2170 hosts) running ``paper_workload`` with
half a task per worker gives a 4423-entity trace (23,528 breakpoints,
48 s span).  It is simulated in-process, written as text and pinned by
the SHA-256 of that text: a change to the simulator, the platform model
or the text writer shows up as a fingerprint failure, not as a silently
different benchmark.  ``scale`` shrinks every cluster (the reduced
inventory the CI store-smoke job uses) for the benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

#: SHA-256 of the text trace, per cluster shrink factor.
FINGERPRINTS = {
    1: "265035c6a5a72c3628ff25e5d4d3d4ffdc5fd2f4a3c85253b2542a3a2469d2f0",
    8: "bf8eec78e4d0ae0a8a7e19df60e35822f9dbb30ee681b0e3e3b58fe2dafe39ea",
}

#: Tasks per worker of the paper workload.  The paper-like 2.0 runs
#: four times the tasks; 0.5 keeps generation to a few seconds.
TASKS_PER_WORKER = 0.5


def fingerprint(path: Path) -> str:
    """SHA-256 hex digest of the file at *path*."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(path: Path, scale: int = 1) -> None:
    """Simulate the scenario and write its text trace to *path*."""
    from repro.apps import paper_workload, run_master_worker
    from repro.platform import (
        GRID5000_SITES,
        ClusterSpec,
        SiteSpec,
        grid5000_platform,
    )
    from repro.simulation import UsageMonitor
    from repro.trace import write_trace

    sites = tuple(
        SiteSpec(site.name, tuple(
            ClusterSpec(c.name, max(2, c.n_hosts // scale), c.host_power)
            for c in site.clusters
        ))
        for site in GRID5000_SITES
    )
    platform = grid5000_platform(sites=sites)
    monitor = UsageMonitor(platform)
    apps = paper_workload(platform, tasks_per_worker=TASKS_PER_WORKER)
    run_master_worker(platform, list(apps), monitor=monitor)
    write_trace(monitor.build_trace(), path)


def text_trace(cache_dir: Path, scale: int = 1) -> Path:
    """The scenario's text trace, generated on first use and cached.

    The cached file is re-fingerprinted on every call; a mismatch
    regenerates it once, and a fresh file that still mismatches raises
    ``ValueError`` (the program's output drifted).
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"grid5000-x{scale}.trace"
    want = FINGERPRINTS[scale]
    if path.exists() and fingerprint(path) == want:
        return path
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    generate(partial, scale)
    got = fingerprint(partial)
    os.replace(partial, path)
    if got != want:
        raise ValueError(
            f"input fingerprint drifted: sha256 {got} != pinned {want} "
            f"({path.name})"
        )
    return path
