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
  canonical JSON part, the entity table as arrays), so golden fixtures
  can assert byte stability, and a file replaces its destination only
  once complete.
* :func:`open_store` — validate and map a stored file into a
  :class:`TraceStore` without reading the column data (cold-open cost
  is the 64-byte header plus the directory: a JSON part of a few KB
  and the entity table's arrays, decoded without a Python object per
  entity beyond its name).
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

import io
import json
import os
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from repro.errors import TraceError, TraceStoreError
from repro.trace.columnar import (
    VERSION,
    ArrayRef,
    ColumnWriter,
    DIRECTORY_SCHEMA,
    HEADER,
    MAGIC,
    Header,
    MetricColumns,
    TraceColumns,
    check_name,
    decode_names,
    directory_crc,
    encode_names,
    index_array,
    load_directory,
    pack_directory,
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


def _indices(
    names: Iterable[str], index: dict[str, int], *, what: str
) -> np.ndarray:
    """The int32 entity indices of *names*; a typed error for a name
    *index* does not declare."""
    try:
        return np.array([index[name] for name in names], dtype=np.int32)
    except KeyError as error:
        raise TraceStoreError(
            f"{what} {error.args[0]!r} is not a declared entity"
        ) from None


def _write_file(stream, columns: TraceColumns) -> None:
    """The store bytes of *columns*: header, data section, directory.

    The entity table is built once (:meth:`EntityTable.from_rows`):
    names are checked once per entity, kinds and group-path parts once
    per distinct value, and metric rows and edge ends are written as
    indices into it.
    """
    table = EntityTable.from_rows(
        columns.entities, error=TraceStoreError, what="entity table"
    )
    names, name_offsets = encode_names(table.names, what="entity")
    for kind in table.kind_names:
        check_name(kind, what=f"entity kind {kind!r}")
    for path in table.group_paths:
        for part in path:
            check_name(part, what=f"group path {path!r}")
    sources: dict[str, int] = {}
    edge_sources = [
        sources.setdefault(source, len(sources))
        for _, _, _, source in columns.edges
    ]
    for source in sources:
        check_name(source, what=f"edge source {source!r}")
    stream.write(b"\0" * HEADER.size)
    writer = ColumnWriter(stream)
    buffer = io.BytesIO()
    tables = ColumnWriter(buffer)
    refs: dict[str, dict[str, Any]] = {}
    rows: dict[str, dict[str, Any]] = {}
    for metric, col in columns.metrics:
        check_name(metric, what=f"metric {metric!r}")
        rows[metric] = tables.put(
            _indices(col.rows, table.index, what=f"metric {metric!r} row"),
            "<i4",
        ).to_json()
        refs[metric] = {
            "offsets": writer.put(col.offsets, "<i8").to_json(),
            "initials": writer.put(col.initials, "<f8").to_json(),
            "times": writer.put(col.times, "<f8").to_json(),
            "values": writer.put(col.values, "<f8").to_json(),
            "prefix": writer.put(col.prefix, "<f8").to_json(),
        }
    ends = _indices(
        (end for edge in columns.edges for end in edge[:3]),
        {**table.index, "": -1},  # "" as via: an edge without a link
        what="edge end",
    )
    sections = {
        "schema": DIRECTORY_SCHEMA,
        "meta": _json_safe(columns.meta, what="trace meta"),
        "span": columns.span,
        "metrics_info": columns.metrics_info,
        "events": [
            (
                time, kind, source, target,
                _json_safe(payload, what=f"payload of event at t={time}"),
            )
            for time, kind, source, target, payload in columns.events
        ],
        "kind_names": table.kind_names,
        "group_paths": table.group_paths,
        "source_names": list(sources),
        "tables": {
            "names": tables.put(
                np.frombuffer(names, dtype=np.uint8), "|u1"
            ).to_json(),
            "name_offsets": tables.put(name_offsets, "<i8").to_json(),
            "kinds": tables.put(table.kinds, "<i4").to_json(),
            "groups": tables.put(table.groups, "<i4").to_json(),
            "edges": tables.put(ends, "<i4").to_json(),
            "edge_sources": tables.put(edge_sources, "<i4").to_json(),
            "rows": rows,
        },
        "columns": refs,
    }
    payload = pack_directory(sections, buffer.getvalue())
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
def _names(value: object, *, what: str) -> list[str]:
    """*value*, a JSON list of names, each checked with
    :func:`check_name`."""
    if not isinstance(value, list):
        raise TraceStoreError(f"{what}: not a list of names")
    for name in value:
        check_name(name, what=what)
    return value


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

    Opening a store reads only the fixed header and the directory,
    whose tables become :attr:`entities` — the trace's one
    :class:`~repro.trace.entities.EntityTable` — and the edge arrays
    :attr:`edge_ends` / :attr:`edge_sources`; the column data stays
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
        directory, tables = self._read_directory()
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
        self._decode_directory(directory, tables, what)
        #: the directory's trace-level sections, held only until the
        #: first :class:`StoredTrace` consumes them
        self._sections: dict | None = directory

    # -- directory decoding -------------------------------------------
    def _read_directory(self) -> tuple[dict, np.ndarray]:
        """The checksum-verified directory, read from the file with
        ``pread`` (the bytes are never memory-mapped): its parsed JSON
        part and its tables' bytes."""
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
        """The directory's JSON part for a new :class:`StoredTrace` to
        consume.

        The first caller takes the copy parsed at open, so the store no
        longer holds it; later callers read and parse the file again.
        """
        sections, self._sections = self._sections, None
        if sections is None:
            sections = self._read_directory()[0]
        return sections

    def _decode_directory(
        self, d: dict, tables: np.ndarray, what: str
    ) -> None:
        """Decode the tables and column references of directory *d*
        into :attr:`entities`, the trace's one :class:`EntityTable`,
        the edge arrays and the metric columns.

        Every table is copied out of *tables* (the directory bytes),
        checked with array operations, so the directory bytes are not
        kept.  The sections decoded here are popped from *d*.
        """
        try:
            refs = d.pop("tables")
            raw_columns = d.pop("columns")
            kind_names = d.pop("kind_names")
            group_paths = d.pop("group_paths")
            source_names = d.pop("source_names")
        except KeyError as error:
            raise TraceStoreError(
                f"{what}: directory misses section {error}"
            ) from None
        if not isinstance(refs, dict):
            raise TraceStoreError(f"{what}: 'tables' is not an object")

        def array(ref: object, dtype: str, where: str) -> np.ndarray:
            ref = ArrayRef.from_json(ref, what=where)
            if ref.dtype != dtype:
                raise TraceStoreError(
                    f"{where}: dtype {ref.dtype!r}, expected {dtype!r}"
                )
            return resolve_array(tables, ref, what=where)

        def table(key: str, dtype: str) -> np.ndarray:
            return array(refs.get(key), dtype, f"{what}: table {key!r}")

        if not isinstance(group_paths, list):
            raise TraceStoreError(f"{what}: group_paths: not a list")
        #: the trace's entity table: names, kinds, groups and, per
        #: metric, the bank rows as entity indices
        self.entities = entities = EntityTable.from_arrays(
            decode_names(
                table("names", "|u1"),
                table("name_offsets", "<i8"),
                what=f"{what}: entity names",
            ),
            _names(kind_names, what=f"{what}: kind_names"),
            table("kinds", "<i4"),
            [_names(p, what=f"{what}: group_paths") for p in group_paths],
            table("groups", "<i4"),
            what=what,
        )
        n = len(entities)
        ends = table("edges", "<i4")
        if len(ends) % 3:
            raise TraceStoreError(
                f"{what}: table 'edges' holds {len(ends)} entity indices, "
                f"not (a, b, via) triples"
            )
        ends = index_array(
            ends, n, low=-1, what=f"{what}: edge end"
        ).reshape(-1, 3)
        if len(ends) and ends[:, :2].min() < 0:
            raise TraceStoreError(
                f"{what}: edge endpoint {ends[:, :2].min()} is out of "
                f"range [0, {n})"
            )
        #: every edge's ``(a, b, via)`` entity indices as an ``(m, 3)``
        #: int32 array, ``via`` -1 for an edge without a link
        self.edge_ends = ends
        #: the names :attr:`edge_sources` codes index
        self.source_names = tuple(map(
            sys.intern, _names(source_names, what=f"{what}: source_names")
        ))
        sources = table("edge_sources", "<i4")
        if len(sources) != len(ends):
            raise TraceStoreError(
                f"{what}: {len(sources)} edge sources for {len(ends)} edges"
            )
        #: an int32 code per edge into :attr:`source_names`
        self.edge_sources = index_array(
            sources, len(self.source_names), what=f"{what}: edge source code"
        )
        rows = refs.get("rows")
        if not isinstance(rows, dict) or not isinstance(raw_columns, dict):
            raise TraceStoreError(
                f"{what}: 'rows' or 'columns' is not an object"
            )
        if rows.keys() != raw_columns.keys():
            raise TraceStoreError(
                f"{what}: metrics {sorted(rows.keys() ^ raw_columns.keys())} "
                f"lack rows or columns"
            )
        for metric, cols in raw_columns.items():
            check_name(metric, what=f"{what}: metric name")
            where = f"{what}: metric {metric!r}"
            if not isinstance(cols, dict):
                raise TraceStoreError(f"{where}: column entry is not an object")
            rows_of = index_array(
                array(rows[metric], "<i4", f"{where}: rows"), n,
                what=f"{where}: row entity",
            )
            arrays = {}
            for column in ("offsets", "initials", "times", "values", "prefix"):
                try:
                    ref = ArrayRef.from_json(cols[column], what=where)
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
            entities.set_rows(metric, rows_of)
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
