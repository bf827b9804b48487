"""Parser for the ``repro`` trace text format (see :mod:`repro.trace.writer`)."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable

from repro.errors import TraceError
from repro.obs.spans import span
from repro.trace.builder import TraceBuilder
from repro.trace.trace import Trace
from repro.trace.writer import FORMAT_HEADER

__all__ = ["read_trace", "loads"]


def read_trace(source: str | Path | IO[str]) -> Trace:
    """Parse a trace from a path or an open text stream."""
    with span("trace.read"):
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as stream:
                return _parse(stream)
        return _parse(source)


def loads(text: str) -> Trace:
    """Parse a trace from a string."""
    with span("trace.read"):
        return _parse(text.splitlines())


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise TraceError(f"line {lineno}: expected a number, got {token!r}") from None


def _parse(lines: Iterable[str]) -> Trace:
    builder = TraceBuilder()
    initials: dict[tuple[str, str], float] = {}
    records: list[tuple[float, str, str, float]] = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            if line.strip() == FORMAT_HEADER:
                saw_header = True
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "META":
            if len(parts) < 3:
                raise TraceError(f"line {lineno}: malformed META record")
            builder.set_meta(parts[1], _coerce(" ".join(parts[2:])))
        elif tag == "METRIC":
            if len(parts) < 3:
                raise TraceError(f"line {lineno}: malformed METRIC record")
            unit = "" if parts[2] == "-" else parts[2]
            builder.declare_metric(parts[1], unit, " ".join(parts[3:]))
        elif tag == "ENTITY":
            if len(parts) != 4:
                raise TraceError(f"line {lineno}: malformed ENTITY record")
            builder.declare_entity(parts[1], parts[2], tuple(parts[3].split("/")))
        elif tag == "CONST":
            if len(parts) != 4:
                raise TraceError(f"line {lineno}: malformed CONST record")
            builder.set_constant(parts[1], parts[2], _parse_float(parts[3], lineno))
        elif tag == "INIT":
            if len(parts) != 4:
                raise TraceError(f"line {lineno}: malformed INIT record")
            initials[(parts[1], parts[2])] = _parse_float(parts[3], lineno)
        elif tag == "VAR":
            if len(parts) != 5:
                raise TraceError(f"line {lineno}: malformed VAR record")
            records.append(
                (
                    _parse_float(parts[3], lineno),
                    parts[1],
                    parts[2],
                    _parse_float(parts[4], lineno),
                )
            )
        elif tag == "EDGE":
            if len(parts) != 5:
                raise TraceError(f"line {lineno}: malformed EDGE record")
            via = "" if parts[3] == "-" else parts[3]
            builder.connect(parts[1], parts[2], via=via, source=parts[4])
        elif tag == "POINT":
            if len(parts) < 4:
                raise TraceError(f"line {lineno}: malformed POINT record")
            target = "" if len(parts) < 5 or parts[4] == "-" else parts[4]
            payload = {}
            for item in parts[5:]:
                if "=" not in item:
                    raise TraceError(
                        f"line {lineno}: malformed payload item {item!r}"
                    )
                key, value = item.split("=", 1)
                payload[key] = _coerce(value)
            builder.point(
                _parse_float(parts[1], lineno), parts[2], parts[3], target, **payload
            )
        else:
            raise TraceError(f"line {lineno}: unknown record tag {tag!r}")
    if not saw_header:
        raise TraceError(f"missing format header {FORMAT_HEADER!r}")
    # Variables must be replayed in time order per (entity, metric).
    records.sort(key=lambda r: (r[1], r[2], r[0]))
    for time, entity, metric, value in records:
        builder.record(entity, metric, time, value)
    trace = builder.build()
    if initials:
        # Re-thread initial values through the already-built signals.
        from repro.trace.signal import Signal
        from repro.trace.trace import Entity, Trace as TraceCls

        by_entity: dict[str, dict[str, float]] = {}
        for (ename, metric), init in initials.items():
            by_entity.setdefault(ename, {})[metric] = init
        entities = []
        for entity in trace:
            metrics = dict(entity.metrics)
            for metric, init in by_entity.get(entity.name, {}).items():
                if metric in metrics:
                    old = metrics[metric]
                    metrics[metric] = Signal(old.times, old.values, initial=init)
            entities.append(Entity(entity.name, entity.kind, entity.path, metrics))
        trace = TraceCls(
            entities,
            trace.edges,
            trace.events,
            trace.metrics_info,
            trace.meta,
        )
    return trace


def _coerce(text: str):
    """Interpret *text* as bool, int, float or keep it as a string.

    The bool arm mirrors how the writer prints python bools (``True`` /
    ``False``); without it a round trip silently turns meta flags and
    payload booleans into strings (pinned by
    ``tests/test_roundtrip_golden.py``).
    """
    if text == "True":
        return True
    if text == "False":
        return False
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text
