"""Flow-level network model with max-min fair sharing.

Active flows compete for the shared links of their routes; every change
to the set of active flows triggers a global re-allocation through
:func:`repro.simulation.sharing.maxmin_allocate`.  Fatpipe links on a
route do not participate in sharing but cap the flow's rate.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.simulation.activities import FlowActivity
from repro.simulation.sharing import maxmin_allocate

__all__ = ["NetworkModel"]


class NetworkModel:
    """Tracks active flows and computes their max-min fair rates."""

    def __init__(self) -> None:
        self._flows: set[FlowActivity] = set()

    def add(self, flow: FlowActivity) -> None:
        """Activate *flow* (its latency has already elapsed)."""
        flow.started = True
        self._flows.add(flow)

    def remove(self, flow: FlowActivity) -> None:
        """Deactivate a (finished or cancelled) flow."""
        if flow not in self._flows:
            raise SimulationError(f"flow {flow!r} is not active")
        self._flows.remove(flow)

    @property
    def flows(self) -> set[FlowActivity]:
        """The currently active network flows."""
        return set(self._flows)

    def rerate(self, now: float) -> list[FlowActivity]:
        """Re-run max-min sharing; return flows whose rate changed."""
        capacities: dict[str, float] = {}
        flow_links: dict[int, list[str]] = {}
        flow_bounds: dict[int, float] = {}
        by_id: dict[int, FlowActivity] = {}
        # Deterministic order (see CpuModel.rerate).
        for flow in sorted(self._flows, key=lambda f: f.id):
            by_id[flow.id] = flow
            links = []
            for link in flow.shared_links:
                capacity = link.bandwidth_at(now)
                if capacity > 0:
                    capacities[link.name] = capacity
                    links.append(link.name)
                else:
                    # A fully unavailable link stalls the flow.
                    flow_bounds[flow.id] = 0.0
            flow_links[flow.id] = links
            bound = flow.bound_at(now)
            if math.isfinite(bound):
                flow_bounds[flow.id] = min(
                    bound, flow_bounds.get(flow.id, math.inf)
                )
        rates = maxmin_allocate(capacities, flow_links, flow_bounds)
        changed: list[FlowActivity] = []
        for flow_id, rate in sorted(rates.items()):
            flow = by_id[flow_id]
            if not math.isfinite(rate):
                raise SimulationError(
                    f"flow {flow!r} has an unbounded rate: its route has "
                    "no shared link and no fatpipe bound"
                )
            if flow.rate != rate:
                flow.progress_to(now)
                flow.rate = rate
                flow.version += 1
                changed.append(flow)
        return changed

    def link_rates_by_category(self) -> dict[str, dict[str, float]]:
        """Per-link traffic broken down by flow category."""
        totals: dict[str, dict[str, float]] = {}
        for flow in self._flows:
            for link in flow.route.links:
                per_cat = totals.setdefault(link.name, {})
                per_cat[flow.category] = per_cat.get(flow.category, 0.0) + flow.rate
        return totals
