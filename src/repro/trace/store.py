"""Out-of-core columnar trace store: write once, memory-map forever.

The text formats (:mod:`repro.trace.reader`, :mod:`repro.trace.paje`)
cap trace size at RAM and pay a full re-parse on every cold load.  This
module stores a :class:`~repro.trace.trace.Trace` in the binary
columnar layout of :mod:`repro.trace.columnar` — per metric, the exact
structure-of-arrays representation
:class:`~repro.trace.signalbank.SignalBank` computes in memory
(breakpoints, values, prefix sums, row offsets, initial values) — and
reads it back through :func:`numpy.memmap` with zero-copy slices:

* :func:`write_store` / :func:`convert` — write a ``.rtrace`` file
  through the one store writer.  ``convert`` parses ``repro`` text
  straight into the store columns; ``write_store`` takes them from a
  trace's signals.  Output bytes are deterministic (no timestamps, a
  canonical JSON directory), so golden fixtures can assert byte
  stability, and a file replaces its destination only once complete.
* :func:`open_store` — validate and map a stored file into a
  :class:`TraceStore` without reading the column data (cold-open cost
  is the 64-byte header plus the JSON directory).
* :meth:`TraceStore.open_trace` — a
  :class:`~repro.trace.stored.StoredTrace` (a
  :class:`~repro.trace.trace.Trace` subclass) whose entity metrics are
  materialized lazily and which hands the aggregation engine
  mmap-backed signal banks, so :class:`~repro.core.session.AnalysisSession`
  and :class:`~repro.core.aggengine.AggregationEngine` work unchanged:
  scrubbing the time slice faults in only the byte ranges the delta
  windows cross.

Because the stored columns are the *bits* of the resident
``Signal.arrays()`` representation, an mmap-backed bank and a resident
bank run identical arithmetic on identical float64 values — the
differential suite (``tests/test_store_differential.py``) asserts exact
equality, not tolerance.  Every structural defect in a file raises
:class:`~repro.errors.TraceStoreError` before any typed memory-map view
is taken.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import TraceError, TraceStoreError
from repro.trace.columnar import (
    VERSION,
    ArrayRef,
    ColumnWriter,
    DIRECTORY_SCHEMA,
    HEADER,
    MAGIC,
    MAX_NAME_BYTES,
    Header,
    MetricColumns,
    TraceColumns,
    check_name,
    directory_crc,
    load_directory,
    pack_header,
    read_header,
    resolve_array,
    sniff_magic,
)
from repro.trace.entities import EntityTable

# The trace model, the signal classes and the span hook are imported
# where they are used: ``repro convert`` then loads only the parser, the
# writer and the reopen check, and ``repro serve`` never loads the text
# parser.
if TYPE_CHECKING:
    from repro.trace.signal import Signal
    from repro.trace.signalbank import SignalBank
    from repro.trace.stored import StoredTrace
    from repro.trace.trace import Trace

__all__ = [
    "TraceStore",
    "convert",
    "is_paje_file",
    "is_store_file",
    "open_store",
    "write_store",
]

#: Conventional file extension of the columnar store format.
STORE_SUFFIX = ".rtrace"


def is_store_file(path: str | Path) -> bool:
    """Whether *path* exists and starts with the store magic bytes."""
    try:
        with open(path, "rb") as stream:
            return sniff_magic(stream.read(len(MAGIC)))
    except OSError:
        return False


def is_paje_file(path: str | Path) -> bool:
    """Whether the text trace at *path* is in the Paje format.

    The one format sniff, called after the store-magic check by every
    command that reads a trace and by :func:`convert`: a ``.paje``
    suffix, or a Paje ``%EventDef`` preamble in the first 4 KiB (repro
    text never has one).
    """
    if Path(path).suffix == ".paje":
        return True
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        return "%EventDef" in stream.read(4096)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _plain_name(name: object) -> bool:
    """Whether *name* passes :func:`check_name` without encoding it
    (the common case, checked without building an error message)."""
    return isinstance(name, str) and 0 < len(name) <= MAX_NAME_BYTES // 4


def _json_safe(value: Any, *, what: str) -> Any:
    """Check *value* can live in the directory; raise a typed error."""
    try:
        json.dumps(value)
    except (TypeError, ValueError) as error:
        raise TraceStoreError(
            f"{what} is not storable (must be JSON-serializable): {error}"
        ) from None
    return value


def write_store(trace: Trace, destination: str | Path) -> None:
    """Serialize *trace* to the binary columnar format at *destination*.

    Feeds the store writer one metric at a time, each signal's columns
    taken from ``Signal.arrays()``, so peak memory stays near one
    metric's worth of breakpoints.  The produced bytes are a pure
    function of the trace content — no timestamps, canonical JSON — so
    re-converting an identical trace yields an identical file, and a
    failed write leaves any file already at *destination* untouched.
    """
    try:
        stored_span = trace.span()
    except TraceError:
        stored_span = None
    entities = list(trace)

    def metrics() -> Iterator[tuple[str, MetricColumns]]:
        for metric in trace.metric_names():
            rows = [e for e in entities if metric in e.metrics]
            signals = [e.metrics[metric] for e in rows]
            arrays = [s.arrays() for s in signals]
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(a[0]) for a in arrays], out=offsets[1:])
            # The empty leading chunk keeps a metric without rows valid.
            times, values, prefix = (
                np.concatenate([np.empty(0)] + [a[k] for a in arrays])
                for k in range(3)
            )
            yield metric, MetricColumns(
                rows=[e.name for e in rows],
                offsets=offsets,
                initials=np.array([s.initial for s in signals], dtype=float),
                times=times,
                values=values,
                prefix=prefix,
            )

    _write_columns(
        TraceColumns(
            entities=[(e.name, e.kind, e.path) for e in entities],
            metrics_info=[
                (m.name, m.unit, m.description) for m in trace.metrics_info
            ],
            edges=[(e.a, e.b, e.via, e.source) for e in trace.edges],
            events=[
                (ev.time, ev.kind, ev.source, ev.target, dict(ev.payload))
                for ev in trace.events
            ],
            meta=dict(trace.meta),
            span=stored_span,
            metrics=metrics(),
        ),
        destination,
    )


def _write_columns(columns: TraceColumns, destination: str | Path) -> None:
    """Write *columns* as a store file at *destination*, atomically.

    The one store writer, behind :func:`write_store` and
    :func:`convert`.  The bytes go to a partial file beside
    *destination* that replaces it only once complete; on any error the
    partial file is removed and a file already at *destination* keeps
    its bytes.
    """
    for name, kind, path in columns.entities:
        if not all(map(_plain_name, (name, kind, *path))):
            check_name(name, what=f"entity {name!r}")
            check_name(kind, what=f"kind of entity {name!r}")
            for part in path:
                check_name(part, what=f"path of entity {name!r}")
    # Process and thread ids keep concurrent writers' partial files apart.
    folder, name = os.path.split(os.fspath(destination))
    partial = os.path.join(
        folder, f".{name}.{os.getpid()}-{threading.get_ident()}.partial"
    )
    try:
        with open(partial, "wb") as stream:
            _write_file(stream, columns)
        os.replace(partial, destination)
    except BaseException:
        try:
            os.unlink(partial)
        except OSError:
            pass
        raise


def _write_file(stream, columns: TraceColumns) -> None:
    """The store bytes of *columns*: header, data section, directory."""
    stream.write(b"\0" * HEADER.size)
    writer = ColumnWriter(stream)
    refs: dict[str, dict[str, Any]] = {}
    for metric, col in columns.metrics:
        check_name(metric, what=f"metric {metric!r}")
        refs[metric] = {
            "rows": col.rows,
            "offsets": writer.put(col.offsets, "<i8").to_json(),
            "initials": writer.put(col.initials, "<f8").to_json(),
            "times": writer.put(col.times, "<f8").to_json(),
            "values": writer.put(col.values, "<f8").to_json(),
            "prefix": writer.put(col.prefix, "<f8").to_json(),
        }
    directory = {
        "schema": DIRECTORY_SCHEMA,
        "meta": _json_safe(columns.meta, what="trace meta"),
        "span": columns.span,
        "entities": columns.entities,
        "metrics_info": columns.metrics_info,
        "edges": columns.edges,
        "events": [
            (
                time, kind, source, target,
                _json_safe(payload, what=f"payload of event at t={time}"),
            )
            for time, kind, source, target, payload in columns.events
        ],
        "columns": refs,
    }
    payload = json.dumps(
        directory, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    directory_offset = HEADER.size + writer.written
    stream.write(payload)
    stream.seek(0)
    stream.write(
        pack_header(
            Header(
                version=VERSION,
                directory_offset=directory_offset,
                directory_length=len(payload),
                data_offset=HEADER.size,
                data_length=writer.written,
                file_length=directory_offset + len(payload),
                directory_crc=directory_crc(payload),
            )
        )
    )


def convert(source: str | Path, destination: str | Path) -> TraceStore:
    """Convert the text trace at *source* into a store at *destination*.

    :func:`is_paje_file` picks the format.  ``repro`` text is parsed
    straight into the store columns
    (:func:`repro.trace.reader.parse_columns`), with no
    :class:`~repro.trace.trace.Trace` in between; Paje input goes
    through its trace.  Returns the written file reopened as a
    :class:`TraceStore`, which validates it.
    """
    if is_paje_file(source):
        from repro.trace.paje import read_paje

        write_store(read_paje(source), destination)
    else:
        from repro.trace.reader import parse_columns

        _write_columns(parse_columns(source), destination)
    return TraceStore(destination)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class _MetricColumns:
    """Resolved (but unread) memory-map views of one metric's columns."""

    __slots__ = ("offsets", "initials", "times", "values", "prefix")

    def __init__(
        self,
        n_rows: int,
        offsets: np.ndarray,
        initials: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        prefix: np.ndarray,
        *,
        what: str,
    ) -> None:
        if len(offsets) != n_rows + 1:
            raise TraceStoreError(
                f"{what}: {len(offsets)} offsets for {n_rows} rows "
                f"(need rows + 1)"
            )
        if len(initials) != n_rows:
            raise TraceStoreError(
                f"{what}: {len(initials)} initial values for {n_rows} rows"
            )
        if not (len(times) == len(values) == len(prefix)):
            raise TraceStoreError(
                f"{what}: column lengths differ ({len(times)} times, "
                f"{len(values)} values, {len(prefix)} prefix)"
            )
        offs = np.ascontiguousarray(offsets, dtype=np.int64)
        if len(offs) == 0 or offs[0] != 0 or offs[-1] != len(times):
            raise TraceStoreError(
                f"{what}: offsets do not tile the breakpoint column "
                f"(span [{offs[0] if len(offs) else '?'}..."
                f"{offs[-1] if len(offs) else '?'}] over {len(times)})"
            )
        if (np.diff(offs) < 0).any():
            raise TraceStoreError(f"{what}: offsets decrease")
        self.offsets = offs
        self.initials = initials
        self.times = times
        self.values = values
        self.prefix = prefix


class TraceStore:
    """A validated, memory-mapped columnar trace file.

    Opening a store reads only the fixed header and the JSON directory,
    whose entity section becomes :attr:`entities` — the trace's one
    :class:`~repro.trace.entities.EntityTable`; the column data stays
    on disk behind :func:`numpy.memmap` views and is faulted in page by
    page as queries touch it.  Use
    :meth:`open_trace` for a drop-in :class:`~repro.trace.trace.Trace`,
    or :meth:`signal_bank` for direct mmap-backed
    :class:`~repro.trace.signalbank.SignalBank` access.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        what = f"trace store {self.path.name!r}"
        try:
            size = os.path.getsize(self.path)
            with open(self.path, "rb") as stream:
                head = stream.read(HEADER.size)
        except OSError as error:
            raise TraceStoreError(f"{what}: cannot open: {error}") from None
        self.header = read_header(head, what=what)
        if self.header.file_length != size:
            raise TraceStoreError(
                f"{what}: file is {size} bytes but the header declares "
                f"{self.header.file_length} (truncated or padded file)"
            )
        h = self.header
        directory = self._read_directory()
        # Only the data section is mapped: the directory is read once
        # with pread and never paged into this process again.
        self._data: np.ndarray = (
            np.memmap(
                self.path, dtype=np.uint8, mode="r",
                offset=h.data_offset, shape=(h.data_length,),
            )
            if h.data_length
            else np.empty(0, dtype=np.uint8)
        )
        self._columns: dict[str, _MetricColumns] = {}
        self._banks: dict[str, SignalBank] = {}
        self._decode_directory(directory, what)
        #: the directory's trace-level sections, held only until the
        #: first :class:`StoredTrace` consumes them
        self._sections: dict | None = directory

    # -- directory decoding -------------------------------------------
    def _read_directory(self) -> dict:
        """The checksum-verified, parsed JSON directory, read from the
        file with ``pread`` (the bytes are never memory-mapped)."""
        what = f"trace store {self.path.name!r}"
        h = self.header
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                payload = os.pread(fd, h.directory_length, h.directory_offset)
            finally:
                os.close(fd)
        except OSError as error:
            raise TraceStoreError(f"{what}: cannot read: {error}") from None
        if len(payload) != h.directory_length:
            raise TraceStoreError(
                f"{what}: directory truncated ({len(payload)} of "
                f"{h.directory_length} bytes)"
            )
        if directory_crc(payload) != h.directory_crc:
            raise TraceStoreError(
                f"{what}: directory checksum mismatch (file corrupted)"
            )
        return load_directory(payload, what=what)

    def _take_sections(self) -> dict:
        """The directory for a new :class:`StoredTrace` to consume.

        The first caller takes the copy parsed at open, so the store no
        longer holds it; later callers read and parse the file again.
        """
        sections, self._sections = self._sections, None
        return sections if sections is not None else self._read_directory()

    def _decode_directory(self, d: dict, what: str) -> None:
        """Decode the entity and column sections of directory *d* into
        :attr:`entities`, the trace's one :class:`EntityTable`.

        Each metric's row list becomes an int32 array of entity
        indices.  The entity and column sections are popped from *d*.
        """
        try:
            raw_entities = d.pop("entities")
            raw_columns = d.pop("columns")
        except KeyError as error:
            raise TraceStoreError(
                f"{what}: directory misses section {error}"
            ) from None
        name_what, kind_what = f"{what}: entity name", f"{what}: entity kind"

        def rows() -> Iterator[tuple[str, str, list]]:
            for row in raw_entities:
                try:
                    name, kind, path = row
                except (TypeError, ValueError):
                    raise TraceStoreError(
                        f"{what}: malformed entity row {row!r}"
                    ) from None
                check_name(name, what=name_what)
                check_name(kind, what=kind_what)
                if not isinstance(path, list):
                    raise TraceStoreError(
                        f"{what}: malformed path of entity {name!r}"
                    )
                yield name, kind, path

        #: the trace's entity table: names, kinds, groups and, per
        #: metric, the bank rows as entity indices
        self.entities = table = EntityTable.from_rows(
            rows(), error=TraceStoreError, what=what
        )
        if not isinstance(raw_columns, dict):
            raise TraceStoreError(f"{what}: 'columns' is not an object")
        index = table.index
        for metric, refs in raw_columns.items():
            check_name(metric, what=f"{what}: metric name")
            where = f"{what}: metric {metric!r}"
            if not isinstance(refs, dict):
                raise TraceStoreError(f"{where}: column entry is not an object")
            try:
                raw_rows = list(refs["rows"])
            except (KeyError, TypeError):
                raise TraceStoreError(f"{where}: missing row list") from None
            rows_of = []
            for name in raw_rows:
                i = index.get(name) if isinstance(name, str) else None
                if i is None:
                    raise TraceStoreError(
                        f"{where}: row entity {name!r} is not declared"
                    )
                rows_of.append(i)
            arrays = {}
            for column in ("offsets", "initials", "times", "values", "prefix"):
                try:
                    ref = ArrayRef.from_json(refs[column], what=where)
                except KeyError:
                    raise TraceStoreError(
                        f"{where}: missing column {column!r}"
                    ) from None
                arrays[column] = resolve_array(
                    self._data, ref, what=f"{where} column {column!r}"
                )
            self._columns[metric] = _MetricColumns(
                len(rows_of),
                arrays["offsets"],
                arrays["initials"],
                arrays["times"],
                arrays["values"],
                arrays["prefix"],
                what=where,
            )
            table.set_rows(metric, rows_of)
        self.span_hint: tuple[float, float] | None = None
        stored = d.get("span")
        if stored is not None:
            try:
                lo, hi = (float(v) for v in stored)
            except (TypeError, ValueError):
                raise TraceStoreError(
                    f"{what}: malformed span {stored!r}"
                ) from None
            self.span_hint = (lo, hi)

    # -- introspection ------------------------------------------------
    def metric_names(self) -> list[str]:
        """Metric names stored in the file, sorted."""
        return sorted(self._columns)

    def entity_names(self) -> list[str]:
        """Entity names in their stored (trace iteration) order."""
        return list(self.entities.names)

    def metrics_of(self, entity: str) -> list[str]:
        """Sorted metric names recorded for *entity*."""
        i = self.entities.index.get(entity)
        return [] if i is None else list(self.entities.metrics_of(i))

    @property
    def total_breakpoints(self) -> int:
        """Total stored (time, value) breakpoints across all metrics."""
        return sum(len(c.times) for c in self._columns.values())

    def __repr__(self) -> str:
        return (
            f"TraceStore({str(self.path)!r}: {len(self.entities)} "
            f"entities, {len(self._columns)} metrics, "
            f"{self.total_breakpoints} breakpoints)"
        )

    # -- query surfaces ------------------------------------------------
    def signal_bank(self, metric: str) -> SignalBank:
        """The mmap-backed, cached bank of *metric*.

        The bank's flat columns are zero-copy views into the mapped
        file; row ``r`` holds entity ``entities.rows[metric][r]``.
        :meth:`StoredTrace.signal_bank
        <repro.trace.stored.StoredTrace.signal_bank>` hands it to the
        aggregation engine.
        """
        bank = self._banks.get(metric)
        if bank is None:
            from repro.trace.signalbank import SignalBank

            cols = self._column(metric)
            try:
                bank = SignalBank.from_arrays(
                    cols.times,
                    cols.values,
                    cols.prefix,
                    cols.offsets,
                    cols.initials,
                    backing="mmap",
                )
            except Exception as error:
                raise TraceStoreError(
                    f"trace store {self.path.name!r}: metric {metric!r}: "
                    f"{error}"
                ) from None
            self._banks[metric] = bank
        return bank

    def _column(self, metric: str) -> _MetricColumns:
        try:
            return self._columns[metric]
        except KeyError:
            raise TraceStoreError(
                f"trace store {self.path.name!r} has no metric {metric!r}; "
                f"available: {self.metric_names()}"
            ) from None

    def signal(self, entity: str, metric: str) -> Signal:
        """Materialize one entity's signal for *metric* from the store."""
        cols = self._column(metric)
        i = self.entities.index.get(entity)
        row = -1 if i is None else int(self.entities.row_index(metric)[i])
        if row < 0:
            raise TraceStoreError(
                f"trace store {self.path.name!r}: entity {entity!r} has "
                f"no stored metric {metric!r}"
            )
        from repro.trace.signal import Signal

        lo, hi = int(cols.offsets[row]), int(cols.offsets[row + 1])
        return Signal._from_columns(
            cols.times[lo:hi],
            cols.values[lo:hi],
            cols.prefix[lo:hi],
            float(cols.initials[row]),
        )

    def open_trace(self) -> StoredTrace:
        """A lazy :class:`~repro.trace.trace.Trace` over this store."""
        from repro.trace.stored import StoredTrace

        return StoredTrace(self)


def open_store(path: str | Path) -> TraceStore:
    """Validate and map the store file at *path*.

    Runs under the same ``trace.read`` observability span as the text
    parsers, so profiles of stored and text workloads line up.
    """
    from repro.obs.spans import span

    with span("trace.read"):
        return TraceStore(path)
