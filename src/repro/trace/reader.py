"""Parser for the ``repro`` trace text format (see :mod:`repro.trace.writer`).

:func:`parse_columns` makes one pass over the lines, collecting each
record's fields, then builds the columnar store layout
(:class:`~repro.trace.columnar.TraceColumns`) with NumPy.  The one
parse feeds both consumers: ``repro convert`` writes the columns
straight into a ``.rtrace`` store, and :func:`read_trace` /
:func:`loads` build a :class:`~repro.trace.trace.Trace` from them.

Signal records follow the writer's semantics:

* ``VAR entity metric time value`` — *metric* takes *value* from *time*
  on.  Records may come in any order: per (entity, metric) they replay
  in time order, the last record at a repeated timestamp wins, and a
  record equal to the value before it is dropped.
* ``INIT entity metric value`` — the value before the first ``VAR`` of
  the same entity and metric (0.0 without one); it has no effect on a
  metric without ``VAR`` records.
* ``CONST entity metric value`` — a constant metric, overridden by
  ``VAR`` records for the same entity and metric.

Every malformed input raises :class:`~repro.errors.TraceError` naming
the offending line (except a missing format header, which has none).
"""

from __future__ import annotations

import math
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from repro.constants import FORMAT_HEADER
from repro.errors import TraceError
from repro.trace.columnar import MetricColumns, TraceColumns

if TYPE_CHECKING:
    from repro.trace.trace import Trace

__all__ = ["loads", "parse_columns", "read_trace"]


def read_trace(source: str | Path | IO[str]) -> Trace:
    """Parse a trace from a path or an open text stream."""
    return _read(parse_columns, source)


def loads(text: str) -> Trace:
    """Parse a trace from a string."""
    return _read(_parse, text.splitlines())


def _read(parse, source) -> Trace:
    # The trace model and the span hook load here rather than at module
    # import, so ``repro convert`` (which needs only the columns) never
    # loads them.
    from repro.obs.spans import span
    from repro.trace.trace import Trace

    with span("trace.read"):
        return Trace.from_columns(parse(source))


def parse_columns(source: str | Path | IO[str]) -> TraceColumns:
    """Parse a text trace (a path or an open text stream) into the
    columnar store layout."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            return _parse(stream)
    return _parse(source)


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise TraceError(
            f"line {lineno}: expected a number, got {token!r}"
        ) from None


def _malformed(tag: str, lineno: int) -> TraceError:
    return TraceError(f"line {lineno}: malformed {tag} record")


def _parse(lines: Iterable[str]) -> TraceColumns:
    index: dict[str, int] = {}  # entity name -> declaration order
    entities: list[tuple[str, str, tuple[str, ...]]] = []
    infos: dict[str, tuple[str, str, str]] = {}
    meta: dict[str, object] = {}
    constants: dict[tuple[str, str], float] = {}
    initials: dict[tuple[str, str], float] = {}
    # One entry per VAR record, in line order.
    var_entity: list[str] = []
    var_metric: list[str] = []
    var_time: list[float] = []
    var_value: list[float] = []
    var_line: list[int] = []
    edges: list[tuple[str, str, str, str]] = []
    edge_lines: list[int] = []
    events: list[tuple[float, str, str, str, dict]] = []
    saw_header = False
    # Bound methods: VAR lines are most of a trace and this is their loop.
    add_entity, add_metric = var_entity.append, var_metric.append
    add_time, add_value, add_line = (
        var_time.append, var_value.append, var_line.append
    )
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "VAR":
            if len(parts) != 5:
                raise _malformed(tag, lineno)
            try:
                time, value = float(parts[3]), float(parts[4])
            except ValueError:
                time = _number(parts[3], lineno)
                value = _number(parts[4], lineno)
            add_entity(parts[1])
            add_metric(parts[2])
            add_time(time)
            add_value(value)
            add_line(lineno)
        elif tag == "CONST":
            if len(parts) != 4:
                raise _malformed(tag, lineno)
            value = _number(parts[3], lineno)
            if parts[1] not in index:
                raise TraceError(
                    f"line {lineno}: entity {parts[1]!r} must be declared "
                    f"before recording data"
                )
            constants[parts[1], parts[2]] = value
        elif tag == "ENTITY":
            if len(parts) != 4:
                raise _malformed(tag, lineno)
            name, kind, path = parts[1], parts[2], tuple(parts[3].split("/"))
            known = index.get(name)
            if known is not None:
                if entities[known][1] != kind:
                    raise TraceError(
                        f"line {lineno}: entity {name!r} redeclared with "
                        f"kind {kind!r}, was {entities[known][1]!r}"
                    )
                continue  # a redeclaration keeps the first path
            if path[-1] != name:
                raise TraceError(
                    f"line {lineno}: entity {name!r}: path must end with "
                    f"the entity name, got {path!r}"
                )
            if "" in path:
                raise TraceError(
                    f"line {lineno}: entity {name!r}: empty element in "
                    f"path {parts[3]!r}"
                )
            index[name] = len(entities)
            entities.append((name, kind, path))
        elif tag == "EDGE":
            if len(parts) != 5:
                raise _malformed(tag, lineno)
            via = "" if parts[3] == "-" else parts[3]
            edges.append((parts[1], parts[2], via, parts[4]))
            edge_lines.append(lineno)
        elif tag == "INIT":
            if len(parts) != 4:
                raise _malformed(tag, lineno)
            initials[parts[1], parts[2]] = _number(parts[3], lineno)
        elif tag == "METRIC":
            if len(parts) < 3:
                raise _malformed(tag, lineno)
            unit = "" if parts[2] == "-" else parts[2]
            infos[parts[1]] = (parts[1], unit, " ".join(parts[3:]))
        elif tag == "META":
            if len(parts) < 3:
                raise _malformed(tag, lineno)
            value = _coerce(" ".join(parts[2:]))
            if parts[1] == "end_time" and isinstance(value, str):
                raise TraceError(
                    f"line {lineno}: META end_time must be a number, "
                    f"got {value!r}"
                )
            meta[parts[1]] = value
        elif tag == "POINT":
            if len(parts) < 4:
                raise _malformed(tag, lineno)
            target = "" if len(parts) < 5 or parts[4] == "-" else parts[4]
            payload = {}
            for item in parts[5:]:
                if "=" not in item:
                    raise TraceError(
                        f"line {lineno}: malformed payload item {item!r}"
                    )
                key, text = item.split("=", 1)
                payload[key] = _coerce(text)
            time = _number(parts[1], lineno)
            events.append((time, parts[2], parts[3], target, payload))
        elif raw[0] == "#":
            saw_header = saw_header or raw.strip() == FORMAT_HEADER
        else:
            raise TraceError(f"line {lineno}: unknown record tag {tag!r}")
    if not saw_header:
        raise TraceError(f"missing format header {FORMAT_HEADER!r}")

    names = [entity[0] for entity in entities]
    entity_of = np.array(
        [index.get(name, -1) for name in var_entity], dtype=np.int64
    )
    times = np.array(var_time, dtype=float)
    bad = (entity_of < 0) | ~np.isfinite(times)
    if bad.any():
        at = int(bad.argmax())
        if entity_of[at] < 0:
            raise TraceError(
                f"line {var_line[at]}: entity {var_entity[at]!r} must be "
                f"declared before recording data"
            )
        raise TraceError(
            f"line {var_line[at]}: non-finite breakpoint {var_time[at]!r}"
        )
    for (a, b, via, _), lineno in zip(edges, edge_lines):
        for end in (a, b):
            if end not in index:
                raise TraceError(
                    f"line {lineno}: edge endpoint {end!r} is not an entity"
                )
        if via and via not in index:
            raise TraceError(
                f"line {lineno}: edge 'via' entity {via!r} is not an entity"
            )

    metrics, firsts, lasts = _metric_columns(
        names, index, var_metric, entity_of, times,
        np.array(var_value, dtype=float), constants, initials,
    )
    events.sort(key=itemgetter(0))
    return TraceColumns(
        entities=entities,
        metrics_info=list(infos.values()),
        edges=edges,
        events=events,
        meta=meta,
        span=_span(firsts, lasts, events, meta),
        metrics=metrics,
    )


def _metric_columns(
    names: list[str],
    index: dict[str, int],
    var_metric: list[str],
    entity_of: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
    constants: dict[tuple[str, str], float],
    initials: dict[tuple[str, str], float],
) -> tuple[list[tuple[str, MetricColumns]], np.ndarray, np.ndarray]:
    """Every metric's store columns, plus the first and last breakpoint
    time of every non-empty signal in ``Trace.span()`` iteration order
    (entity order, then metric name)."""
    metric_names = sorted(set(var_metric) | {m for _, m in constants})
    rank = {name: i for i, name in enumerate(metric_names)}
    # One id per signal, ordered by metric, then entity.
    signal = np.array([rank[m] for m in var_metric], dtype=np.int64)
    signal = signal * len(names) + entity_of
    # Records of one signal become adjacent and time-ordered; the sort
    # is stable, so records at one timestamp keep their line order.
    order = np.lexsort((times, signal))
    signal, times, values = signal[order], times[order], values[order]

    # The last record at each (signal, timestamp) wins.
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (signal[1:] != signal[:-1]) | (times[1:] != times[:-1])
    signal, times, values = signal[last], times[last], values[last]
    new_signal = np.ones(len(signal), dtype=bool)
    new_signal[1:] = signal[1:] != signal[:-1]

    # A record equal to the value before it (the signal's initial value
    # for its first record) is dropped.
    starts = np.flatnonzero(new_signal)
    sig_metric, sig_entity = np.divmod(signal[starts], len(names))
    sig_initial = np.zeros(len(starts))
    if initials:
        sig_initial[:] = [
            initials.get((names[e], metric_names[m]), 0.0)
            for e, m in zip(sig_entity.tolist(), sig_metric.tolist())
        ]
    before = np.empty(len(values))
    before[1:] = values[:-1]
    before[starts] = sig_initial
    keep = values != before
    counts = np.bincount(
        np.cumsum(new_signal)[keep] - 1, minlength=len(starts)
    )
    times, values = times[keep], values[keep]

    const_rows: dict[int, dict[int, float]] = {}
    for (entity, metric), value in constants.items():
        const_rows.setdefault(rank[metric], {})[index[entity]] = value
    bounds = np.searchsorted(
        sig_metric, np.arange(len(metric_names) + 1)
    ).tolist()
    metrics = []
    end = 0
    for m, metric in enumerate(metric_names):
        # Per entity: carries the metric, initial value, breakpoints.
        carried = np.zeros(len(names), dtype=bool)
        initial = np.zeros(len(names))
        count = np.zeros(len(names), dtype=np.int64)
        const = const_rows.get(m, {})
        const_at = np.fromiter(const, dtype=np.int64, count=len(const))
        carried[const_at] = True
        initial[const_at] = list(const.values())
        lo, hi = bounds[m], bounds[m + 1]
        var_at = sig_entity[lo:hi]
        carried[var_at] = True
        initial[var_at] = sig_initial[lo:hi]  # VAR overrides CONST
        count[var_at] = counts[lo:hi]
        rows = np.flatnonzero(carried)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(count[rows], out=offsets[1:])
        start, end = end, end + int(offsets[-1])
        metrics.append((metric, MetricColumns(
            rows=[names[i] for i in rows.tolist()],
            offsets=offsets,
            initials=initial[rows],
            times=times[start:end],
            values=values[start:end],
            prefix=_row_prefix(times[start:end], values[start:end], offsets),
        )))

    filled = counts > 0
    first_at = np.cumsum(counts) - counts
    span_order = np.lexsort((sig_metric[filled], sig_entity[filled]))
    firsts = times[first_at[filled]][span_order]
    lasts = times[(first_at + counts - 1)[filled]][span_order]
    return metrics, firsts, lasts


def _row_prefix(
    times: np.ndarray, values: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Every row's running integral, bit for bit what ``Signal.arrays()``
    computes for that row alone.

    ``np.cumsum`` adds strictly left to right, so a row-wise cumsum of a
    zero-padded 2-D block gives each row the bits of its own cumsum.
    Rows go into one block per power of two of their length, which
    bounds the padding to the rows' own size.
    """
    prefix = np.zeros(len(times))
    if len(times) < 2:
        return prefix
    # steps[i] integrates [times[i], times[i+1]); steps spanning two
    # rows are never read.
    steps = values[:-1] * np.diff(times)
    widths = np.diff(offsets) - 1  # steps per row
    rows = np.flatnonzero(widths > 0)
    _, exponents = np.frexp(widths[rows])  # width < 2 ** exponent
    for exponent in sorted(set(exponents.tolist())):
        block = rows[exponents == exponent]
        cols = np.arange(1 << exponent)
        inside = cols < widths[block, None]
        at = (offsets[block, None] + cols)[inside]
        padded = np.zeros(inside.shape)
        padded[inside] = steps[at]
        prefix[at + 1] = np.cumsum(padded, axis=1)[inside]
    return prefix


def _span(
    firsts: np.ndarray, lasts: np.ndarray, events: list, meta: dict
) -> tuple[float, float] | None:
    """``Trace.span()`` of the parsed trace, or ``None`` without
    timestamped data.  Ties keep the first value in ``Trace.span()``
    iteration order, as its ``min``/``max`` do (``0.0`` vs ``-0.0``)."""
    lo, hi = math.inf, -math.inf
    if len(firsts):
        lo, hi = float(firsts[firsts.argmin()]), float(lasts[lasts.argmax()])
    for event in events:
        lo, hi = min(lo, event[0]), max(hi, event[0])
    if "end_time" in meta:
        hi = max(hi, float(meta["end_time"]))
        if lo == math.inf:
            lo = 0.0
    if lo == math.inf:
        return None
    return lo, max(hi, lo)


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
