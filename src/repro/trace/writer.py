"""Text serialization of traces (Paje-inspired line format).

Trace browsers in the paper's lineage (Paje [13], ViTE [12]) exchange
traces as line-oriented text files.  This module writes the ``repro``
dialect, a self-describing format with one record per line:

.. code-block:: text

    #repro-trace 1
    META end_time 12.0
    METRIC capacity MFlops computing power available
    ENTITY HostA host grid/clusterA/HostA
    CONST HostA capacity 100
    VAR HostA usage 0.0 55
    EDGE HostA HostB LinkA topology
    POINT 1.5 message HostA HostB size=1000 tag=3

Names must not contain whitespace (enforced at write time); free-text
fields (metric descriptions) come last on their line so they may contain
spaces.  :mod:`repro.trace.reader` parses the format back.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO

from repro.constants import FORMAT_HEADER
from repro.errors import TraceError
from repro.trace.trace import Trace

__all__ = ["write_trace", "dumps"]


def _check_token(token: str, what: str) -> str:
    if not token:
        raise TraceError(f"{what} must be non-empty")
    if any(c.isspace() for c in token):
        raise TraceError(f"{what} {token!r} must not contain whitespace")
    return token


def _check_tail(text: str, what: str) -> str:
    """Validate a free-text tail field (may hold spaces, never newlines)."""
    if "\n" in text or "\r" in text:
        raise TraceError(f"{what} {text!r} must not contain line breaks")
    return text


def _check_value(token: str, what: str) -> str:
    """Validate a ``key=value`` payload value: empty is fine (it parses
    back to ``""``), embedded whitespace would shear the record apart."""
    if any(c.isspace() for c in token):
        raise TraceError(f"{what} {token!r} must not contain whitespace")
    return token


def write_trace(trace: Trace, destination: str | Path | IO[str]) -> None:
    """Serialize *trace* to a path or an open text stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as stream:
            _write(trace, stream)
    else:
        _write(trace, destination)


def dumps(trace: Trace) -> str:
    """Serialize *trace* to a string."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def _write(trace: Trace, out: IO[str]) -> None:
    out.write(FORMAT_HEADER + "\n")
    for key, value in sorted(trace.meta.items()):
        text = _check_tail(str(value), f"meta value of {key!r}")
        out.write(f"META {_check_token(key, 'meta key')} {text}\n")
    for info in trace.metrics_info:
        name = _check_token(info.name, "metric name")
        unit = info.unit if info.unit else "-"
        description = _check_tail(info.description, f"description of {name!r}")
        out.write(f"METRIC {name} {_check_token(unit, 'unit')} {description}\n")
    for entity in trace:
        name = _check_token(entity.name, "entity name")
        kind = _check_token(entity.kind, "entity kind")
        path = "/".join(_check_token(p, "path element") for p in entity.path)
        out.write(f"ENTITY {name} {kind} {path}\n")
    for entity in trace:
        for metric in sorted(entity.metrics):
            signal = entity.metrics[metric]
            metric_tok = _check_token(metric, "metric name")
            if len(signal) == 0:
                out.write(
                    f"CONST {entity.name} {metric_tok} {signal.initial!r}\n"
                )
                continue
            if signal.initial:
                out.write(
                    f"INIT {entity.name} {metric_tok} {signal.initial!r}\n"
                )
            for time, value in signal.steps():
                out.write(
                    f"VAR {entity.name} {metric_tok} {time!r} {value!r}\n"
                )
    for edge in trace.edges:
        via = _check_token(edge.via, "edge via") if edge.via else "-"
        source = _check_token(edge.source, "edge source")
        out.write(f"EDGE {edge.a} {edge.b} {via} {source}\n")
    for event in trace.events:
        kind = _check_token(event.kind, "event kind")
        source = _check_token(event.source, "event source")
        target = (
            _check_token(event.target, "event target") if event.target else "-"
        )
        fields = " ".join(
            f"{_check_token(str(k), 'payload key')}="
            f"{_check_value(str(v), f'payload value of {k!r}')}"
            for k, v in sorted(event.payload.items())
        )
        line = f"POINT {event.time!r} {kind} {source} {target}"
        out.write(line + (f" {fields}" if fields else "") + "\n")
