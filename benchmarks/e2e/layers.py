"""Per-layer breakdown of a traced run: self time and calls per action.

A span's self time is its duration minus its children's (spans nest
strictly, since each traced process runs its layers on one thread).
Each action's wall time splits into the self times of the layers it
went through, plus a residual: the self time of the spans that are not
layers (the per-request and per-process roots of ``traced.py``) and
whatever no span covers.  The layers plus the residual add up to the
wall time by construction; the gate is that the residual stays small.
"""

from __future__ import annotations

#: Every layer of the breakdown, in pipeline order.
LAYERS = (
    "process.start",
    "store.open",
    "hierarchy.build",
    "server.dispatch",
    "agg.view",
    "visgraph.build",
    "layout.seeds",
    "layout.sync",
    "layout.settle",
    "render.svg",
    "protocol.payload",
    "protocol.encode",
    "transport_wait",
)

#: Largest residual share of wall time the traced run accepts.
RESIDUAL_BOUND = 0.10


class Breakdown:
    """Layer totals over a set of actions."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.wall_s = 0.0
        self.actions = 0
        self.unjoined = 0

    def add_spans(self, spans: list, keep=lambda root_row: True) -> dict:
        """Fold the spans whose root row passes *keep* into the totals.

        A root is a span without a parent or one tagged with a request
        id (a server request inside the serving process's ``main``).
        Returns ``{request id: root duration}`` of the kept request
        roots, for joining with client round trips.
        """
        n = len(spans)
        child_s = [0.0] * n
        root = list(range(n))
        for index, (_, start, end, parent, rid) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                if rid is None:
                    root[index] = root[parent]
        kept = [keep(spans[root[i]]) for i in range(n)]
        durations: dict[str, float] = {}
        for index, (name, start, end, parent, rid) in enumerate(spans):
            if not kept[root[index]]:
                continue
            if rid is not None:
                durations[rid] = end - start
            if name not in self.self_s:
                continue
            self.self_s[name] += (end - start) - child_s[index]
            if parent < 0 or spans[parent][0] != name:
                self.calls[name] += 1
        return durations

    def add_action(self, wall_s: float) -> None:
        """Count one action of *wall_s* seconds."""
        self.wall_s += wall_s
        self.actions += 1

    def add_round_trip(self, rtt_s: float, server_s: float | None) -> None:
        """Count one server request: what the client waited beyond the
        server's own request span is ``transport_wait``."""
        self.add_action(rtt_s)
        if server_s is None:
            self.unjoined += 1
            return
        self.self_s["transport_wait"] += rtt_s - server_s
        self.calls["transport_wait"] += 1

    @property
    def residual_s(self) -> float:
        """Wall time not attributed to any layer."""
        return self.wall_s - sum(self.self_s.values())

    @property
    def residual_frac(self) -> float:
        """The residual as a share of wall time."""
        return self.residual_s / self.wall_s if self.wall_s > 0 else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``name -> (value, unit)``: self ms and calls per action."""
        per = 1.0 / max(self.actions, 1)
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self.self_s[layer] * 1e3 * per,
                                       "ms/action")
            out[f"{layer}.calls"] = (self.calls[layer] * per, "calls/action")
        out["residual.self_ms"] = (self.residual_s * 1e3 * per, "ms/action")
        out["residual_frac"] = (self.residual_frac, "frac")
        return out

    def top(self, k: int = 3) -> list[tuple[str, float]]:
        """The *k* layers with the most self time, ``(layer, share)``."""
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        return [
            (layer, seconds / self.wall_s if self.wall_s else 0.0)
            for layer, seconds in ranked[:k]
        ]
