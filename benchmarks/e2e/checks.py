"""The correctness gate: every reply checked, a seeded sample re-derived.

* :class:`Replica` mirrors one server session's grouping and time slice
  on the client, applying the same ops, so each reply can be checked
  against what the session must be showing.
* :func:`check_reply` is the structural check every reply gets: the ok
  envelope, the echoed slice, finite values and positions, and a unit
  count that matches the grouping.
* :class:`Reservoir` keeps a seeded uniform sample of replies, and
  :func:`oracle_mismatch` recomputes one with the scalar Eq. 1 oracle
  ``repro.core.aggregation.aggregate_view`` over a fresh
  ``GroupingState``, at the tolerance of
  ``tests/test_aggregation_differential.py``.
"""

from __future__ import annotations

import math
import random

from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState
from repro.core.timeslice import TimeSlice

RTOL = 1e-9
ATOL = 1e-9


class Replica:
    """Client-side mirror of one session's grouping and time slice."""

    def __init__(self, trace, hierarchy, unit_counts: dict) -> None:
        self.trace = trace
        self.grouping = GroupingState(hierarchy)
        self.slice = list(trace.span())
        self._unit_counts = unit_counts

    def apply(self, msg: dict) -> None:
        """Apply request *msg* the way the server session does."""
        op = msg["op"]
        if op == "scrub":
            self.slice = [msg["start"], msg["end"]]
        elif op == "depth":
            self.grouping.expand_all()
            if msg["depth"]:
                self.grouping.collapse_depth(msg["depth"])
        elif op == "group":
            self.grouping.collapse(tuple(msg["path"]))
        elif op == "ungroup":
            self.grouping.expand(tuple(msg["path"]))

    def unit_count(self) -> int:
        """Display units of the current grouping (memoized per state)."""
        key = self.grouping.state_key
        count = self._unit_counts.get(key)
        if count is None:
            units = set()
            for entity in self.trace:
                group = self.grouping.unit_of(entity.name)
                units.add(entity.name if group is None else (group, entity.kind))
            count = self._unit_counts[key] = len(units)
        return count

    def sample(self, result: dict) -> tuple:
        """What :func:`oracle_mismatch` needs to re-derive *result*."""
        return (self.grouping.collapsed, tuple(self.slice), result["units"])


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_reply(reply: dict, msg: dict, replica: Replica) -> str | None:
    """Why *reply* to *msg* is wrong, or ``None`` when it passes.

    *replica* must already have *msg* applied.
    """
    if reply.get("ok") is not True:
        return f"{msg['op']}: error envelope {reply.get('error')!r}"
    if reply.get("id") != msg["id"] or reply.get("op") != msg["op"]:
        return f"{msg['op']}: envelope id/op mismatch"
    result = reply.get("result")
    if not isinstance(result, dict):
        return f"{msg['op']}: no result object"
    if result.get("slice") != replica.slice:
        return (
            f"{msg['op']}: slice {result.get('slice')!r} is not the "
            f"session's {replica.slice!r}"
        )
    units = result.get("units")
    if not isinstance(units, list) or len(units) != replica.unit_count():
        got = len(units) if isinstance(units, list) else units
        return (
            f"{msg['op']}: {got} units, grouping has {replica.unit_count()}"
        )
    for unit in units:
        if not all(_finite(v) for v in unit.get("values", {}).values()):
            return f"{msg['op']}: non-finite value in unit {unit.get('key')!r}"
    positions = result.get("positions")
    if not isinstance(positions, dict) or len(positions) != len(units):
        return f"{msg['op']}: positions do not cover the units"
    if not all(_finite(x) and _finite(y) for x, y in positions.values()):
        return f"{msg['op']}: non-finite node position"
    return None


def oracle_mismatch(trace, hierarchy, sample: tuple) -> str | None:
    """Compare a sampled reply against the scalar Eq. 1 oracle.

    *sample* is :meth:`Replica.sample`'s tuple.  Returns a description
    of the first disagreement, or ``None`` when every unit matches.
    """
    collapsed, (start, end), units = sample
    grouping = GroupingState(hierarchy)
    for path in collapsed:
        grouping.collapse(path)
    view = aggregate_view(trace, grouping, TimeSlice(start, end))
    if [unit["key"] for unit in units] != list(view.units):
        return "unit keys or order differ from the oracle"
    for unit in units:
        want = view.units[unit["key"]]
        if (unit["kind"], unit["weight"], unit["label"]) != (
            want.kind, want.weight, want.label
        ):
            return f"unit {unit['key']!r}: kind/weight/label differ"
        if set(unit["values"]) != set(want.values):
            return f"unit {unit['key']!r}: metric set differs"
        for metric, ref in want.values.items():
            got = unit["values"][metric]
            if abs(got - ref) > max(RTOL * abs(ref), ATOL):
                return (
                    f"unit {unit['key']!r} {metric}: {got!r} != oracle {ref!r}"
                )
    return None


class Reservoir:
    """A seeded uniform sample of *size* items from a stream."""

    def __init__(self, size: int, seed: int) -> None:
        self.size = size
        self.items: list = []
        self.seen = 0
        self._rng = random.Random(seed)

    def offer(self, item) -> None:
        """Consider one more stream item."""
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            slot = self._rng.randrange(self.seen + 1)
            if slot < self.size:
                self.items[slot] = item
        self.seen += 1
