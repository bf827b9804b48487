"""Host CPU model: fair sharing of computing power.

Each host runs any number of concurrent :class:`ComputeActivity`;
its power (flops/s) is split equally among them, the processor-sharing
model SimGrid applies to hosts.  Rates change only when activities start
or finish on that host, so the model tracks a per-host dirty set and
re-rates only affected hosts.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.platform.model import Host
from repro.simulation.activities import ComputeActivity

__all__ = ["CpuModel"]


class CpuModel:
    """Tracks running computations and computes their fair rates."""

    def __init__(self) -> None:
        self._running: dict[str, set[ComputeActivity]] = {}

    def add(self, activity: ComputeActivity) -> None:
        """Register a computation on its host."""
        self._running.setdefault(activity.host.name, set()).add(activity)

    def remove(self, activity: ComputeActivity) -> None:
        """Unregister a (finished or cancelled) computation."""
        running = self._running.get(activity.host.name)
        if not running or activity not in running:
            raise SimulationError(
                f"activity {activity!r} is not running on {activity.host.name}"
            )
        running.remove(activity)
        if not running:
            del self._running[activity.host.name]

    def rerate(self, host: Host, now: float) -> list[ComputeActivity]:
        """Recompute fair rates on *host*; return activities whose rate changed.

        Every returned activity has been progressed to *now* before its
        rate was updated, so remaining-work accounting stays exact.
        """
        running = self._running.get(host.name)
        changed: list[ComputeActivity] = []
        if not running:
            return changed
        fair = host.power_at(now) / len(running)
        # Deterministic order: completion events for simultaneous
        # finishers must enqueue identically across runs.
        for activity in sorted(running, key=lambda a: a.id):
            if activity.rate != fair:
                activity.progress_to(now)
                activity.rate = fair
                activity.version += 1
                changed.append(activity)
        return changed

    def rates_by_category(self, host: str) -> dict[str, float]:
        """Allocated flops/s on *host*, broken down by activity category."""
        totals: dict[str, float] = {}
        for activity in self._running.get(host, ()):
            totals[activity.category] = (
                totals.get(activity.category, 0.0) + activity.rate
            )
        return totals
