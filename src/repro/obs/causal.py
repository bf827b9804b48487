"""Causal-trace analysis: span-DAG queries, critical path, emission.

:class:`CausalTrace` is the frozen result of a
:class:`~repro.simulation.tracing.CausalTracer` run: the complete span
DAG of a simulated application, with cross-process
:class:`~repro.simulation.tracing.CausalEdge` message links.  It
supports the analyses the distributed-tracing literature builds on such
structure:

* **DAG queries** — :meth:`CausalTrace.ancestors` (structural *and*
  causal ancestry of a span), :meth:`CausalTrace.top_latency_edges`
  (the slowest message links) and :meth:`CausalTrace.slack` (how long a
  delivered message sat unconsumed — a zero-slack edge is locally on
  the critical chain);
* a **span-DAG critical path** (:meth:`CausalTrace.critical_path`)
  walking the DAG backwards from the last-finishing span, jumping
  sender-ward through causal edges — the same decomposition as the
  backward-replay :func:`repro.analysis.critical_path.critical_path`,
  against which it is cross-validated (same makespan to 1e-9 on the
  master-worker and stencil apps);
* **emission** (:meth:`CausalTrace.to_trace`) into an ordinary
  repro-format :class:`~repro.trace.trace.Trace` — spans become state
  events, causal edges become message events and communication edges —
  so ``repro render`` and ``repro timeline`` visualize a causal run
  like any other trace;
* Chrome **flow-event** export lives in
  :func:`repro.obs.export.causal_chrome_events` (message causality
  drawn as arrows in Perfetto).

The ``repro causal <app>`` CLI subcommand drives all of the above;
:func:`format_summary` is the table it prints.
"""

from __future__ import annotations

from repro.analysis.critical_path import CriticalPath, PathSegment
from repro.errors import TraceError
from repro.simulation.tracing import CausalEdge, SimSpan
from repro.trace.builder import TraceBuilder
from repro.trace.trace import CAPACITY, Trace, USAGE

__all__ = ["CausalTrace", "format_summary"]

_EPS = 1e-9

#: Leaf request-span kinds, and the state label each maps to when the
#: causal trace is emitted as a behavioral (timeline-compatible) trace.
_STATE_OF_KIND = {
    "compute": "compute",
    "send": "send",
    "recv": "wait",
    "sleep": "sleep",
    "wait": "wait",
}


class CausalTrace:
    """The frozen span DAG of one causally-traced simulation run.

    Parameters
    ----------
    spans:
        Every recorded :class:`SimSpan`, closed, in creation order
        (``span_id`` equals the list index).
    edges:
        Every recorded cross-span :class:`CausalEdge`.
    end_time:
        The final simulated time of the run.
    """

    def __init__(
        self, spans: list[SimSpan], edges: list[CausalEdge], end_time: float
    ) -> None:
        self.spans = spans
        self.edges = edges
        self.end_time = end_time
        self._by_id = {span.span_id: span for span in spans}
        #: process -> its leaf request spans, in start order
        self._leaves: dict[str, list[SimSpan]] = {}
        #: process -> its root span
        self._roots: dict[str, SimSpan] = {}
        for span in spans:
            if span.kind in _STATE_OF_KIND:
                self._leaves.setdefault(span.process, []).append(span)
            elif span.kind == "process":
                self._roots[span.process] = span
        for leaves in self._leaves.values():
            leaves.sort(key=lambda s: (s.start, s.span_id))
        #: recv span id -> the causal edge that resolved it
        self._edge_by_dst = {edge.dst_span: edge for edge in edges}

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def span(self, span_id: int) -> SimSpan:
        """The span with the given id."""
        try:
            return self._by_id[span_id]
        except KeyError:
            raise TraceError(f"unknown span id {span_id!r}") from None

    def processes(self) -> list[str]:
        """Every traced process name, sorted."""
        return sorted(self._roots)

    def host_of(self, process: str) -> str:
        """The host the traced *process* ran on."""
        try:
            return self._roots[process].host
        except KeyError:
            raise TraceError(f"unknown traced process {process!r}") from None

    def trace_ids(self) -> list[int]:
        """The distinct trace ids present (one per root spawn tree)."""
        return sorted({span.trace_id for span in self.spans})

    def counts_by_kind(self) -> dict[str, int]:
        """Number of spans per kind (``compute``, ``send``, ...)."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.kind] = counts.get(span.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # DAG queries
    # ------------------------------------------------------------------
    def _predecessors(self, span: SimSpan) -> list[int]:
        """Ids this span causally depends on (parent + message sender)."""
        preds = []
        if span.parent_id is not None and span.parent_id in self._by_id:
            preds.append(span.parent_id)
        edge = self._edge_by_dst.get(span.span_id)
        if edge is not None and edge.src_span in self._by_id:
            preds.append(edge.src_span)
        return preds

    def ancestors(self, span_id: int) -> list[SimSpan]:
        """Every span reachable backwards from *span_id*.

        Walks both structural parent links and causal message edges, so
        a worker's compute span traces back through the delivering send
        to the master's spans — cross-process ancestry, the property
        context propagation exists to provide.  Result is in start
        order and excludes the queried span itself.
        """
        seen: set[int] = set()
        stack = list(self._predecessors(self.span(span_id)))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._predecessors(self._by_id[current]))
        return sorted(
            (self._by_id[i] for i in seen), key=lambda s: (s.start, s.span_id)
        )

    def depth(self) -> int:
        """Longest dependency chain in the DAG (spans per chain).

        Counts structural parent links and causal edges alike — the
        number a span-tree aggregation would call the trace depth.
        """
        memo: dict[int, int] = {}
        for root in self._by_id:
            if root in memo:
                continue
            stack = [root]
            while stack:
                current = stack[-1]
                if current in memo:
                    stack.pop()
                    continue
                preds = self._predecessors(self._by_id[current])
                pending = [p for p in preds if p not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                memo[current] = 1 + max(
                    (memo[p] for p in preds), default=0
                )
                stack.pop()
        return max(memo.values(), default=0)

    def slack(self, edge: CausalEdge) -> float:
        """How long *edge*'s message sat delivered but unconsumed.

        Zero when the receiver was already blocked on the mailbox (the
        edge is locally tight: delivering earlier would have let the
        receiver continue earlier).  Positive when the message waited
        in the mailbox for the receiver to ask.
        """
        recv = self._by_id.get(edge.dst_span)
        if recv is None:
            return 0.0
        return max(0.0, recv.start - edge.delivered_at)

    def top_latency_edges(self, k: int = 5) -> list[CausalEdge]:
        """The *k* causal edges with the largest end-to-end latency.

        Ordering is fully deterministic: latency ties break on the
        stable ``(src_process, dst_process, sent_at, src_span)`` key,
        so two runs of the same trace always list the same edges in the
        same order regardless of recording order.
        """
        if k < 0:
            raise TraceError(f"top_latency_edges k must be >= 0, got {k}")
        return sorted(
            self.edges,
            key=lambda e: (
                -e.latency, e.src_process, e.dst_process, e.sent_at,
                e.src_span,
            ),
        )[:k]

    # ------------------------------------------------------------------
    # Critical path
    # ------------------------------------------------------------------
    def critical_path(self) -> CriticalPath:
        """The span-DAG critical path, as a backward DAG walk.

        Starts from the leaf span that finishes last and walks
        backwards through the process's request spans; whenever the
        walk enters a ``recv`` span resolved by a causal edge, the
        transfer window is charged as ``comm`` and the walk jumps to
        the sending process at the moment it sent — the same
        backward-replay contract as
        :func:`repro.analysis.critical_path.critical_path`, but driven
        by the exact per-message edges instead of time-window matching.
        """
        if not self._leaves:
            raise TraceError("no request spans to build a critical path from")
        t_min = min(s.start for leaves in self._leaves.values() for s in leaves)

        def last_end(process: str) -> float:
            return max(s.end for s in self._leaves[process])

        current = max(self._leaves, key=last_end)
        cursor = last_end(current)
        segments: list[PathSegment] = []
        guard = 0
        while cursor > t_min + _EPS:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - defensive
                raise TraceError("causal critical-path walk did not terminate")
            spans = [
                s
                for s in self._leaves.get(current, [])
                if s.start < cursor - _EPS
            ]
            if not spans:
                break
            span = max(spans, key=lambda s: (s.end, s.span_id))
            end = min(span.end, cursor)
            edge = None
            if span.kind == "recv":
                candidate = self._edge_by_dst.get(span.span_id)
                if (
                    candidate is not None
                    and span.start - _EPS <= candidate.delivered_at <= end + _EPS
                ):
                    edge = candidate
            if edge is not None:
                # Charge the transfer window on the receiver, then jump
                # to the sender at the moment it sent.
                if end > edge.sent_at + _EPS:
                    segments.append(
                        PathSegment(
                            current,
                            "comm",
                            max(edge.sent_at, span.start),
                            end,
                        )
                    )
                current = edge.src_process
                cursor = edge.sent_at
                continue
            segments.append(
                PathSegment(current, _STATE_OF_KIND[span.kind], span.start, end)
            )
            cursor = span.start
        segments.reverse()
        if not segments:
            raise TraceError("no activity found to build a critical path from")
        return CriticalPath(segments)

    # ------------------------------------------------------------------
    # Emission as an ordinary trace
    # ------------------------------------------------------------------
    def to_trace(self) -> Trace:
        """Emit the causal run as a repro-format :class:`Trace`.

        One entity of kind ``"process"`` per traced process, placed
        under ``causal/<host>/<process>`` so spatial aggregation groups
        co-located processes; a busy ``usage`` step signal (1 while a
        ``compute`` or ``send`` span is open) against a ``capacity`` of
        1; the leaf spans replayed as ``"state"`` point events (so
        ``repro timeline`` draws the Gantt view); every causal edge as
        a ``"message"`` point event carrying latency/slack/span ids;
        and ``source="communication"`` topology edges between processes
        that exchanged messages — ready for ``repro render``.
        """
        builder = TraceBuilder()
        builder.set_meta("generator", "repro.simulation.tracing")
        builder.set_meta("end_time", self.end_time)
        builder.set_meta("n_causal_edges", len(self.edges))
        builder.set_meta("n_spans", len(self.spans))
        builder.declare_metric(CAPACITY, "procs", "process concurrency budget")
        builder.declare_metric(USAGE, "procs", "busy fraction of the process")
        for process in self.processes():
            root = self._roots[process]
            builder.declare_entity(
                process, "process", ("causal", root.host, process)
            )
            builder.set_constant(process, CAPACITY, 1.0)
            builder.record_busy(
                process,
                USAGE,
                (
                    (span.start, span.end)
                    for span in self._leaves.get(process, [])
                    if span.kind in ("compute", "send")
                ),
            )
            for span in self._leaves.get(process, []):
                builder.point(
                    span.start,
                    "state",
                    process,
                    root.host,
                    state=_STATE_OF_KIND[span.kind],
                )
            builder.point(root.end, "state", process, root.host, state="end")
        connected: set[tuple[str, str]] = set()
        for edge in self.edges:
            builder.point(
                edge.delivered_at,
                "message",
                edge.src_process,
                edge.dst_process,
                size=edge.size,
                mailbox=edge.mailbox,
                sent_at=edge.sent_at,
                category=edge.category,
                latency=edge.latency,
                slack=self.slack(edge),
                src_span=edge.src_span,
                dst_span=edge.dst_span,
            )
            if edge.src_process != edge.dst_process:
                pair = tuple(sorted((edge.src_process, edge.dst_process)))
                if pair not in connected:
                    connected.add(pair)
                    builder.connect(pair[0], pair[1], source="communication")
        return builder.build()


def format_summary(causal: CausalTrace, top: int = 5) -> str:
    """The per-trace summary table ``repro causal`` prints.

    Span counts, DAG depth, the critical-path decomposition and the
    top-*k* latency edges (with their queueing slack).
    """
    lines = [
        f"{'processes':<14} {len(causal.processes())}",
        f"{'spans':<14} "
        + ", ".join(
            f"{kind} {count}"
            for kind, count in sorted(causal.counts_by_kind().items())
        ),
        f"{'causal edges':<14} {len(causal.edges)}",
        f"{'DAG depth':<14} {causal.depth()}",
        f"{'makespan':<14} {causal.end_time:g} s",
    ]
    path = causal.critical_path()
    breakdown = ", ".join(
        f"{state} {duration:.4g}s ({duration / max(path.length, 1e-12):.0%})"
        for state, duration in sorted(
            path.time_by_state().items(), key=lambda kv: -kv[1]
        )
    )
    lines.append(f"{'critical path':<14} {breakdown}")
    lines.append(
        f"{'path visits':<14} " + " <- ".join(reversed(path.processes()))
    )
    edges = causal.top_latency_edges(top)
    if edges:
        lines.append(f"top {len(edges)} latency edges:")
        for edge in edges:
            lines.append(
                f"  {edge.src_process} -> {edge.dst_process:<24} "
                f"sent {edge.sent_at:<10.4g} latency {edge.latency:<10.4g} "
                f"slack {causal.slack(edge):.4g}"
            )
    return "\n".join(lines)
