"""Shared fixtures for the figure-reproduction benchmarks.

Expensive simulations (the NAS-DT pair of Fig. 6/7, the Grid'5000
master-worker run of Fig. 8/9) run once per session and are shared by
every bench that needs their traces.  Each bench also appends the rows
it reproduces to ``benchmarks/results/<name>.txt`` so the numbers
survive the run (pytest captures stdout).  A table with a committed
golden, ``benchmarks/goldens/<name>.txt``, must equal it; a deliberate
change regenerates the goldens with ``REPRO_REGEN=1``.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

from repro.apps import paper_workload, run_master_worker
from repro.mpi import (
    locality_deployment,
    run_nas_dt,
    sequential_deployment,
    white_hole,
)
from repro.platform import grid5000_platform, two_cluster_platform
from repro.simulation import UsageMonitor

RESULTS_DIR = Path(__file__).parent / "results"
GOLDENS_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="session")
def report():
    """A factory writing (and echoing) a named results table.

    When ``goldens/<name>.txt`` exists the table must equal it, byte
    for byte; with ``REPRO_REGEN=1`` the table rewrites that golden
    instead.  A table without a golden is only written.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    regen = bool(os.environ.get("REPRO_REGEN"))

    def write(name: str, lines: list[str]) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        print(f"\n--- {name} ---\n{text}")
        golden = GOLDENS_DIR / f"{name}.txt"
        if golden.exists():
            if regen:
                golden.write_text(text, encoding="utf-8")
            want = golden.read_text(encoding="utf-8")
            assert text == want, (
                f"{name} differs from its golden (a deliberate change "
                f"regenerates it with REPRO_REGEN=1):\n"
                + "".join(difflib.unified_diff(
                    want.splitlines(True), text.splitlines(True),
                    f"goldens/{name}.txt", f"results/{name}.txt",
                ))
            )
        return path

    return write


def ordered_nasdt_hosts(platform):
    """Adonis first then Griffon, each in index order (sequential file)."""
    return sorted(
        (h.name for h in platform.hosts),
        key=lambda n: (not n.startswith("adonis"), int(n.rsplit("-", 1)[1])),
    )


@pytest.fixture(scope="session")
def nasdt_runs():
    """Both Fig. 6/7 runs: (result, trace) per deployment name."""
    graph = white_hole("A")
    runs = {}
    for name in ("sequential", "locality"):
        platform = two_cluster_platform()
        hosts = ordered_nasdt_hosts(platform)
        if name == "sequential":
            placement = sequential_deployment(hosts, graph.n_nodes)
        else:
            placement = locality_deployment(graph, platform, hosts)
        monitor = UsageMonitor(platform)
        result = run_nas_dt(platform, placement, graph, monitor)
        runs[name] = (result, monitor.build_trace(), platform)
    return {"graph": graph, "runs": runs}


@pytest.fixture(scope="session")
def grid_run():
    """The Fig. 8/9 scenario on the full 2170-host Grid'5000 model."""
    platform = grid5000_platform()
    # Enough tasks that the workload must diffuse out to distant sites
    # (the paper's site C "has to wait until t2").
    app1, app2 = paper_workload(platform, tasks_per_worker=2.0)
    monitor = UsageMonitor(platform)
    result = run_master_worker(platform, [app1, app2], monitor=monitor)
    return {
        "platform": platform,
        "apps": (app1, app2),
        "result": result,
        "trace": monitor.build_trace(),
        # The interesting window of Fig. 9: while app1 still dispatches.
        "diffusion_window": (0.0, result.app("app1").finished_at),
    }
