"""Trace substrate: signals, events, containers and text I/O.

The visualization pipeline consumes :class:`~repro.trace.trace.Trace`
objects.  They are produced either by the simulation monitors
(:mod:`repro.simulation.monitors`), by the synthetic generators
(:mod:`repro.trace.synthetic`), parsed from the text format
(:mod:`repro.trace.reader`) or memory-mapped from the binary columnar
store (:mod:`repro.trace.store`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".builder": ("TraceBuilder",),
    ".entities": ("EntityTable",),
    ".events": ("PointEvent", "VariableEvent"),
    ".connect": (
        "communication_matrix", "edges_from_messages",
        "with_communication_edges",
    ),
    ".filter": ("filter_trace",),
    ".reader": ("loads", "read_trace"),
    ".signal": ("Signal", "SignalBuilder", "combine", "constant"),
    ".signalbank": ("SignalBank",),
    ".store": (
        "TraceStore", "convert", "is_store_file", "open_store", "write_store",
    ),
    ".stored": ("StoredTrace",),
    ".trace": (
        "CAPACITY", "USAGE", "Entity", "MetricInfo", "Trace", "TraceEdge",
    ),
    ".writer": ("dumps", "write_trace"),
})

__all__ = [
    "CAPACITY",
    "USAGE",
    "Entity",
    "EntityTable",
    "MetricInfo",
    "PointEvent",
    "Signal",
    "SignalBank",
    "SignalBuilder",
    "StoredTrace",
    "Trace",
    "TraceBuilder",
    "TraceEdge",
    "TraceStore",
    "VariableEvent",
    "combine",
    "communication_matrix",
    "constant",
    "convert",
    "dumps",
    "edges_from_messages",
    "filter_trace",
    "is_store_file",
    "loads",
    "open_store",
    "read_trace",
    "with_communication_edges",
    "write_store",
    "write_trace",
]
