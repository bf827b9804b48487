"""An iterative stencil (halo-exchange) application.

A classic HPC workload complementing NAS-DT and the master-worker bag:
ranks arranged on a logical 2D torus repeatedly exchange halos with
their four neighbours and compute.  On a physical torus platform the
communication is nearest-neighbour and the topology view shows a quiet,
uniform link pattern; on a cluster platform with a poor placement, halo
traffic concentrates on shared uplinks — the same locality story as
Section 5.1, on a different workload.

The run is bulk-synchronous per iteration (each rank needs all four
halos before computing), so one slow host — e.g. one with a degraded
availability profile — stalls the whole iteration, which is exactly
what the imbalance metrics and the timeline view expose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.mpi.comm import MpiWorld
from repro.platform.topology import Platform
from repro.simulation.engine import Simulator
from repro.simulation.monitors import UsageMonitor

__all__ = ["StencilResult", "run_stencil"]


@dataclass(frozen=True)
class StencilResult:
    """Outcome of a stencil run."""

    makespan: float
    iterations: int
    grid: tuple[int, int]
    #: time at which each iteration completed (globally, max over ranks)
    iteration_ends: tuple[float, ...]


def _neighbours(rank: int, nx: int, ny: int) -> list[int]:
    x, y = rank % nx, rank // nx
    return [
        ((x + 1) % nx) + y * nx,
        ((x - 1) % nx) + y * nx,
        x + ((y + 1) % ny) * nx,
        x + ((y - 1) % ny) * nx,
    ]


def run_stencil(
    platform: Platform,
    hosts: list[str],
    grid: tuple[int, int],
    iterations: int = 10,
    halo_bytes: float = 1e5,
    flops_per_iteration: float = 1e8,
    monitor: UsageMonitor | None = None,
    category: str = "stencil",
    tracer=None,
) -> StencilResult:
    """Run a 2D periodic stencil with rank *i* on ``hosts[i]``.

    Parameters
    ----------
    grid:
        Logical rank grid ``(nx, ny)``; needs ``nx * ny`` hosts.  Both
        extents must be >= 3 so the four neighbours are distinct (a
        degenerate extent would make a rank its own neighbour).
    tracer:
        Optional :class:`~repro.simulation.tracing.CausalTracer`: the
        run then records a cross-rank span DAG, each iteration wrapped
        in an explicit ``"iteration"`` phase span.
    """
    nx, ny = grid
    if nx < 3 or ny < 3:
        raise SimulationError(f"stencil grid must be >= 3x3, got {grid}")
    n_ranks = nx * ny
    if len(hosts) < n_ranks:
        raise SimulationError(
            f"stencil {nx}x{ny} needs {n_ranks} hosts, got {len(hosts)}"
        )
    simulator = Simulator(platform, monitor, tracer=tracer)
    world = MpiWorld(
        simulator, hosts[:n_ranks], name="stencil", category=category
    )
    iteration_ends = [0.0] * iterations

    def rank_main(rank_ctx):
        me = rank_ctx.rank
        neighbours = _neighbours(me, nx, ny)
        for iteration in range(iterations):
            with rank_ctx.span("iteration", i=iteration):
                handles = []
                for neighbour in neighbours:
                    handles.append(
                        (
                            yield rank_ctx.isend(
                                neighbour, halo_bytes, tag=iteration
                            )
                        )
                    )
                for neighbour in neighbours:
                    yield rank_ctx.recv(neighbour, tag=iteration)
                yield rank_ctx.wait(handles)
                yield rank_ctx.execute(flops_per_iteration)
            iteration_ends[iteration] = max(
                iteration_ends[iteration], rank_ctx.now
            )

    world.launch(rank_main)
    makespan = simulator.run()
    return StencilResult(
        makespan=makespan,
        iterations=iterations,
        grid=(nx, ny),
        iteration_ends=tuple(iteration_ends),
    )
