"""Paje trace format import/export.

The tool lineage the paper belongs to (Paje [13], ViTE [12], VIVA)
exchanges traces in the *Paje* format: a self-describing text format
whose header declares event layouts (``%EventDef``/``%EndEventDef``)
followed by one event per line.  Supporting it makes this library
interoperable with traces produced for those tools (e.g. by SimGrid's
instrumentation).

The subset implemented covers the hierarchy/variable/link core:

* ``PajeDefineContainerType`` — entity kinds and their nesting;
* ``PajeDefineVariableType`` — metrics attached to a container type;
* ``PajeCreateContainer`` / ``PajeDestroyContainer`` — entities;
* ``PajeSetVariable`` / ``PajeAddVariable`` / ``PajeSubVariable`` —
  metric step changes;
* ``PajeDefineLinkType`` + ``PajeStartLink`` / ``PajeEndLink`` —
  messages between containers (become ``message`` point events and can
  be turned into edges with :mod:`repro.trace.connect`).

State/event records (``PajeSetState``...) are skipped on import with a
count reported in ``trace.meta["skipped_records"]``.

Mapping conventions
-------------------
Containers map to entities; the container *type* name (lowercased)
becomes the entity kind; the container nesting becomes the hierarchy
path.  Intermediate containers that merely hold others (e.g. a
"Cluster" container with no variables) become metric-less entities of
their own kind — filter them out with
:func:`repro.trace.filter.filter_trace` if undesired.
"""

from __future__ import annotations

import io
import shlex
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from repro.errors import TraceError
from repro.obs.spans import span
from repro.trace.builder import TraceBuilder
from repro.trace.trace import Trace

__all__ = ["read_paje", "loads_paje", "write_paje", "dumps_paje"]


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class _EventDef:
    __slots__ = ("name", "fields")

    def __init__(self, name: str) -> None:
        self.name = name
        self.fields: list[str] = []


def read_paje(source: str | Path | IO[str]) -> Trace:
    """Parse a Paje trace from a path or open stream."""
    with span("trace.read"):
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as stream:
                return _parse(stream)
        return _parse(source)


def loads_paje(text: str) -> Trace:
    """Parse a Paje trace from a string."""
    return _parse(io.StringIO(text))


@contextmanager
def _at_line(lineno: int):
    """Prefix a :class:`TraceBuilder` error with the record's line."""
    try:
        yield
    except TraceError as error:
        raise type(error)(f"paje line {lineno}: {error}") from None


def _tokenize(line: str, lineno: int) -> list[str]:
    try:
        return shlex.split(line, comments=False)
    except ValueError as error:
        raise TraceError(f"paje line {lineno}: {error}") from None


def _parse(stream: IO[str]) -> Trace:
    defs: dict[str, _EventDef] = {}
    current: _EventDef | None = None
    current_id: str | None = None

    builder = TraceBuilder()
    # container alias/name -> (name, type alias, parent key)
    containers: dict[str, tuple[str, str, str | None]] = {}
    container_types: dict[str, str] = {}  # alias -> type name
    variable_types: dict[str, str] = {}  # alias -> metric name
    link_types: set[str] = set()
    open_links: dict[tuple[str, str], list[tuple[float, str, float]]] = {}
    variable_values: dict[tuple[str, str], float] = {}
    skipped = 0
    end_time = 0.0

    def path_of(key: str, lineno: int) -> tuple[str, ...]:
        chain: list[str] = []
        seen: set[str] = set()
        cursor: str | None = key
        while cursor is not None:
            if cursor in seen:
                raise TraceError(
                    f"paje line {lineno}: container nesting loops at "
                    f"{cursor!r}"
                )
            seen.add(cursor)
            name, __, parent = containers[cursor]
            chain.append(name)
            cursor = parent
        return tuple(reversed(chain))

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("%"):
            head = line[1:].strip()
            if head.startswith("EventDef"):
                parts = head.split()
                if len(parts) != 3:
                    raise TraceError(
                        f"paje line {lineno}: malformed EventDef {line!r}"
                    )
                current = _EventDef(parts[1])
                current_id = parts[2]
                defs[current_id] = current
            elif head.startswith("EndEventDef"):
                current = None
                current_id = None
            else:
                if current is None:
                    raise TraceError(
                        f"paje line {lineno}: field outside EventDef: {line!r}"
                    )
                parts = head.split()
                if len(parts) < 2:
                    raise TraceError(
                        f"paje line {lineno}: malformed field {line!r}"
                    )
                current.fields.append(parts[0])
            continue

        tokens = _tokenize(line, lineno)
        event_id = tokens[0]
        definition = defs.get(event_id)
        if definition is None:
            raise TraceError(
                f"paje line {lineno}: unknown event id {event_id!r}"
            )
        values = dict(zip(definition.fields, tokens[1:]))
        name = definition.name

        if name == "PajeDefineContainerType":
            alias = values.get("Alias") or values.get("Name")
            container_types[alias] = values.get("Name", alias)
        elif name == "PajeDefineVariableType":
            alias = values.get("Alias") or values.get("Name")
            variable_types[alias] = values.get("Name", alias)
        elif name == "PajeDefineLinkType":
            alias = values.get("Alias") or values.get("Name")
            link_types.add(alias)
        elif name == "PajeCreateContainer":
            alias = values.get("Alias") or values.get("Name")
            container_name = values.get("Name", alias)
            parent = values.get("Container")
            if parent in ("0", "", None) or parent not in containers:
                parent = None
            containers[alias] = (container_name, values.get("Type", ""), parent)
            if container_name != alias:
                containers.setdefault(
                    container_name, containers[alias]
                )
            kind = container_types.get(values.get("Type", ""), "container")
            path = path_of(alias, lineno)
            with _at_line(lineno):
                builder.declare_entity(container_name, kind.lower(), path)
            end_time = max(end_time, _time(values, lineno))
        elif name == "PajeDestroyContainer":
            end_time = max(end_time, _time(values, lineno))
        elif name in ("PajeSetVariable", "PajeAddVariable", "PajeSubVariable"):
            container_key = values.get("Container")
            if container_key not in containers:
                raise TraceError(
                    f"paje line {lineno}: unknown container "
                    f"{container_key!r}"
                )
            entity = containers[container_key][0]
            metric = variable_types.get(
                values.get("Type", ""), values.get("Type", "value")
            )
            time = _time(values, lineno)
            value = _number(values.get("Value", "0"), "value", lineno)
            key = (entity, metric)
            if name == "PajeAddVariable":
                value = variable_values.get(key, 0.0) + value
            elif name == "PajeSubVariable":
                value = variable_values.get(key, 0.0) - value
            variable_values[key] = value
            with _at_line(lineno):
                builder.record(entity, metric, time, value)
            end_time = max(end_time, time)
        elif name == "PajeStartLink":
            time = _time(values, lineno)
            key = (values.get("Type", ""), values.get("Key", ""))
            open_links.setdefault(key, []).append(
                (
                    time,
                    containers.get(
                        values.get("StartContainer", ""), ("?", "", None)
                    )[0],
                    _number(values.get("Value") or "0", "value", lineno),
                )
            )
            end_time = max(end_time, time)
        elif name == "PajeEndLink":
            time = _time(values, lineno)
            key = (values.get("Type", ""), values.get("Key", ""))
            pending = open_links.get(key)
            if pending:
                started, src, size = pending.pop(0)
                dst = containers.get(
                    values.get("EndContainer", ""), ("?", "", None)
                )[0]
                builder.point(
                    time, "message", src, dst, size=size, sent_at=started
                )
            end_time = max(end_time, time)
        else:
            skipped += 1

    builder.set_meta("end_time", end_time)
    builder.set_meta("format", "paje")
    if skipped:
        builder.set_meta("skipped_records", skipped)
    return builder.build()


def _number(text: str, what: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise TraceError(f"paje line {lineno}: bad {what} {text!r}") from None


def _time(values: dict[str, str], lineno: int) -> float:
    return _number(values.get("Time", "0"), "timestamp", lineno)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
_HEADER = """\
%EventDef PajeDefineContainerType 0
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeDefineVariableType 1
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeCreateContainer 2
% Time date
% Alias string
% Type string
% Container string
% Name string
%EndEventDef
%EventDef PajeSetVariable 3
% Time date
% Type string
% Container string
% Value double
%EndEventDef
"""


def write_paje(trace: Trace, destination: str | Path | IO[str]) -> None:
    """Serialize *trace* to the Paje format."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as stream:
            _write(trace, stream)
    else:
        _write(trace, destination)


def dumps_paje(trace: Trace) -> str:
    """Serialize *trace* to a Paje-format string."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def _quote(text: str) -> str:
    return '"' + text.replace('"', "'") + '"'


def _write(trace: Trace, out: IO[str]) -> None:
    out.write(_HEADER)
    kinds = trace.kinds()
    # Types: a root container type plus one type per kind under it.
    out.write(f'0 ROOT 0 {_quote("Root")}\n')
    for kind in kinds:
        out.write(f"0 T_{kind} ROOT {_quote(kind)}\n")
    metrics = trace.metric_names()
    for kind in kinds:
        for metric in metrics:
            out.write(f"1 V_{kind}_{metric} T_{kind} {_quote(metric)}\n")
    out.write(f'2 0.0 root ROOT 0 {_quote("root")}\n')
    # Group containers are not materialized: entities attach to root but
    # keep their hierarchy encoded in the name when needed.
    for entity in trace:
        out.write(
            f"2 0.0 {_quote(entity.name)} T_{entity.kind} root "
            f"{_quote(entity.name)}\n"
        )
    records: list[tuple[float, str]] = []
    for entity in trace:
        for metric, signal in entity.metrics.items():
            variable = f"V_{entity.kind}_{metric}"
            if len(signal) == 0:
                records.append(
                    (
                        0.0,
                        f"3 0.0 {variable} {_quote(entity.name)} "
                        f"{signal.initial!r}",
                    )
                )
                continue
            if signal.initial and signal.times[0] > 0.0:
                # Paje has no initial-value record: materialize it as a
                # SetVariable at time 0 so ``value_at`` agrees on
                # [0, first breakpoint).  An initial before a breakpoint
                # at or below t=0 has no representable slot and drops
                # (pinned by tests/test_roundtrip_golden.py).
                records.append(
                    (
                        0.0,
                        f"3 0.0 {variable} {_quote(entity.name)} "
                        f"{signal.initial!r}",
                    )
                )
            for time, value in signal.steps():
                records.append(
                    (
                        time,
                        f"3 {time!r} {variable} {_quote(entity.name)} "
                        f"{value!r}",
                    )
                )
    records.sort(key=lambda item: item[0])
    for __, line in records:
        out.write(line + "\n")
