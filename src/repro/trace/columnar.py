"""The on-disk columnar trace format (the ``.rtrace`` byte layout).

This module owns the *bytes* of the out-of-core trace store; the
higher-level API (writing a :class:`~repro.trace.trace.Trace`, opening a
:class:`~repro.trace.store.TraceStore`) lives in
:mod:`repro.trace.store`.  The layout is deliberately close to the
in-memory shape of :class:`~repro.trace.signalbank.SignalBank` — per
metric, the flat float64 breakpoint/value/prefix-sum arrays plus the
row-offset table — so a memory-mapped file *is* a signal bank, with no
deserialization between the page cache and Equation 1:

.. code-block:: text

    offset 0
    +------------------------------------------------------------------+
    | header (64 bytes, little-endian, struct "<8sIIQQQQQI4x")         |
    |   magic   8s  \\x89 R T C \\r \\n \\x1a \\n  (PNG-style: catches  |
    |               text-mode mangling and truncation at byte 0)       |
    |   version u32 format major version (readers reject skew)         |
    |   endian  u32 0x01020304 read back little-endian; a byte-swapped |
    |               value means the file crossed an endianness boundary |
    |   dir_off u64 --+  byte range of the directory                   |
    |   dir_len u64 --+                                                |
    |   data_off u64 -+  byte range of the columnar data section       |
    |   data_len u64 -+                                                |
    |   file_len u64 total file size (truncation check)                |
    |   dir_crc u32  zlib.crc32 of the directory bytes                 |
    +------------------------------------------------------------------+
    | data section: 8-byte-aligned little-endian arrays, one after the |
    | other, signal columns only.  Per metric: offsets <i8 (rows+1),   |
    | initials <f8 (rows), times <f8, values <f8, prefix <f8 (flat,    |
    | row i spanning [offsets[i], offsets[i+1]) exactly as SignalBank  |
    | stores them)                                                     |
    +------------------------------------------------------------------+
    | directory (every byte under dir_crc):                            |
    |   json_len u64  length of the JSON part                          |
    |   JSON part     one object (schema "rtrace/2"): metric metadata, |
    |                 point events, meta, the time span, the kind,     |
    |                 group-path and edge-source name lists, and an    |
    |                 ArrayRef {offset, count, dtype} per table (into  |
    |                 the tables) and per signal column (into the data |
    |                 section)                                         |
    |   zero padding to an 8-byte boundary of the directory            |
    |   tables: 8-byte-aligned little-endian arrays, the entity table  |
    |     names        |u1  the entity names as one UTF-8 blob         |
    |     name_offsets <i8  byte offsets, entity i = [o[i], o[i+1])    |
    |     kinds        <i4  kind code per entity (into kind_names)     |
    |     groups       <i4  innermost-group code (into group_paths)    |
    |     rows         <i4  per metric, the entity of each bank row    |
    |     edges        <i4  (a, b, via) entity indices per edge, via   |
    |                       -1 for an edge without a link              |
    |     edge_sources <i4  source code per edge (into source_names)   |
    +------------------------------------------------------------------+

Every quantity a reader uses for addressing is validated *before* any
:func:`numpy.memmap` view is taken (magic, version, endianness, CRC,
section bounds, array-reference bounds, alignment, name lengths), and
every failure raises the typed
:class:`~repro.errors.TraceStoreError` — never garbage data, never an
out-of-range mapped read.  The tables are checked with array
operations, not a loop per entity: names that are empty, overlong or
not UTF-8, offsets that do not increase, codes and indices out of
range (:func:`decode_names`,
:meth:`~repro.trace.entities.EntityTable.from_arrays`).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import IO, Any, Iterable, NamedTuple

import numpy as np

from repro.errors import TraceStoreError

__all__ = [
    "ALIGNMENT",
    "ArrayRef",
    "ColumnWriter",
    "MetricColumns",
    "TraceColumns",
    "check_name",
    "decode_names",
    "encode_names",
    "index_array",
    "load_directory",
    "pack_directory",
    "DIRECTORY_SCHEMA",
    "ENDIAN_CHECK",
    "HEADER",
    "MAGIC",
    "MAX_NAME_BYTES",
    "VERSION",
    "Header",
    "directory_crc",
    "dtype_of",
    "pack_header",
    "read_header",
    "resolve_array",
    "sniff_magic",
]

#: Eight magic bytes opening every store file.  Modeled on PNG's: the
#: high bit catches 7-bit transport, ``\r\n`` catches newline
#: translation, ``\x1a`` stops accidental ``type`` on DOS, and the
#: trailing ``\n`` catches ``\n`` -> ``\r\n`` rewriting.
MAGIC = b"\x89RTC\r\n\x1a\n"

#: Format major version; bump on any incompatible layout change.
#: Version 2 keeps the entity table as arrays in the directory; a
#: version-1 file (a JSON list per entity) is refused.
VERSION = 2

#: Sentinel read back as a little-endian u32; the byte-swapped value
#: indicates a file written (or mangled) with the opposite endianness.
ENDIAN_CHECK = 0x01020304

#: Every array in the data section starts on a multiple of this, so
#: typed views over the memory map are always aligned.
ALIGNMENT = 8

#: Hard cap on entity/metric/kind name length (bytes of UTF-8).  A
#: directory claiming longer names is corrupt or hostile, not a trace.
MAX_NAME_BYTES = 1024

#: Schema tag stamped into (and required of) the JSON directory.
DIRECTORY_SCHEMA = "rtrace/2"

#: The fixed 64-byte little-endian header layout.
HEADER = struct.Struct("<8sIIQQQQQI4x")

#: The length of the directory's JSON part, which opens the directory.
_JSON_LENGTH = struct.Struct("<Q")

#: Dtypes an array reference may name (explicitly little-endian).
_DTYPES = {
    code: np.dtype(code) for code in ("<f8", "<i8", "<i4", "|u1")
}


@dataclass(frozen=True)
class Header:
    """The decoded fixed header of a store file."""

    version: int
    directory_offset: int
    directory_length: int
    data_offset: int
    data_length: int
    file_length: int
    directory_crc: int


def pack_header(header: Header) -> bytes:
    """Serialize *header* to its fixed 64-byte little-endian form."""
    return HEADER.pack(
        MAGIC,
        header.version,
        ENDIAN_CHECK,
        header.directory_offset,
        header.directory_length,
        header.data_offset,
        header.data_length,
        header.file_length,
        header.directory_crc,
    )


def sniff_magic(prefix: bytes) -> bool:
    """Whether *prefix* (the first bytes of a file) opens a store file."""
    return prefix[: len(MAGIC)] == MAGIC


def read_header(buffer: bytes, *, what: str = "trace store") -> Header:
    """Decode and validate the fixed header from *buffer*.

    Raises :class:`~repro.errors.TraceStoreError` on every corruption
    class the header can witness: short reads, bad magic, version skew,
    wrong endianness and nonsensical section geometry.
    """
    if len(buffer) < HEADER.size:
        raise TraceStoreError(
            f"{what}: file too short for a store header "
            f"({len(buffer)} < {HEADER.size} bytes)"
        )
    (
        magic,
        version,
        endian,
        dir_off,
        dir_len,
        data_off,
        data_len,
        file_len,
        dir_crc,
    ) = HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise TraceStoreError(
            f"{what}: bad magic {magic!r} (not a columnar trace store)"
        )
    if endian != ENDIAN_CHECK:
        swapped = int.from_bytes(
            ENDIAN_CHECK.to_bytes(4, "little"), "big"
        )
        if endian == swapped:
            raise TraceStoreError(
                f"{what}: endianness marker is byte-swapped (file written "
                f"on an opposite-endian machine or corrupted); refusing "
                f"to reinterpret the arrays"
            )
        raise TraceStoreError(
            f"{what}: corrupt endianness marker 0x{endian:08x}"
        )
    if version != VERSION:
        raise TraceStoreError(
            f"{what}: unsupported format version {version} "
            f"(this reader understands version {VERSION}; write the "
            f"store again from its text trace with `repro convert`)"
        )
    header = Header(
        version, dir_off, dir_len, data_off, data_len, file_len, dir_crc
    )
    for name, off, length in (
        ("directory", dir_off, dir_len),
        ("data section", data_off, data_len),
    ):
        if off < HEADER.size or length < 0 or off + length > file_len:
            raise TraceStoreError(
                f"{what}: {name} [{off}, {off + length}) falls outside "
                f"the declared file length {file_len}"
            )
    return header


def directory_crc(payload: bytes) -> int:
    """The checksum guarding the directory bytes."""
    return zlib.crc32(payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class ArrayRef:
    """One column's location inside the data section.

    ``offset`` is relative to the start of the data section (signal
    columns) or of the directory's tables; ``count`` is the element
    count; ``dtype`` one of the explicitly-little-endian codes in the
    format (``"<f8"``/``"<i8"``/``"<i4"``/``"|u1"``).
    """

    offset: int
    count: int
    dtype: str

    def to_json(self) -> dict:
        """The directory representation of this reference."""
        return {"offset": self.offset, "count": self.count, "dtype": self.dtype}

    @classmethod
    def from_json(cls, payload: object, *, what: str) -> "ArrayRef":
        """Decode (and type-check) a directory array reference."""
        if not isinstance(payload, dict):
            raise TraceStoreError(f"{what}: array reference is not an object")
        try:
            offset = payload["offset"]
            count = payload["count"]
            dtype = payload["dtype"]
        except KeyError as error:
            raise TraceStoreError(
                f"{what}: array reference misses key {error}"
            ) from None
        if not isinstance(offset, int) or not isinstance(count, int):
            raise TraceStoreError(
                f"{what}: array reference offset/count must be integers"
            )
        return cls(offset, count, str(dtype))


def dtype_of(ref: ArrayRef, *, what: str) -> np.dtype:
    """The numpy dtype of *ref*, rejecting unknown codes."""
    try:
        return _DTYPES[ref.dtype]
    except KeyError:
        raise TraceStoreError(
            f"{what}: unknown array dtype {ref.dtype!r} "
            f"(known: {sorted(_DTYPES)})"
        ) from None


def resolve_array(
    data: np.ndarray, ref: ArrayRef, *, what: str
) -> np.ndarray:
    """A typed view of *ref* inside *data*, the bytes of the mapped
    data section or of the directory's tables.

    Validates bounds, sign and alignment against the actual section
    length before taking the view, so a corrupt reference can never
    reach past the mapping.
    """
    dtype = dtype_of(ref, what=what)
    if ref.count < 0 or ref.offset < 0:
        raise TraceStoreError(
            f"{what}: negative array bounds (offset={ref.offset}, "
            f"count={ref.count})"
        )
    if ref.offset % ALIGNMENT:
        raise TraceStoreError(
            f"{what}: array offset {ref.offset} is not {ALIGNMENT}-byte "
            f"aligned"
        )
    end = ref.offset + ref.count * dtype.itemsize
    if end > data.size:
        raise TraceStoreError(
            f"{what}: array [{ref.offset}, {end}) overruns the data "
            f"section ({data.size} bytes)"
        )
    return data[ref.offset : end].view(dtype)


class MetricColumns(NamedTuple):
    """One metric of a trace in the store layout.

    ``rows`` names the entities carrying the metric, in entity order;
    row *i* spans ``[offsets[i], offsets[i+1])`` of the flat float64
    ``times``/``values``/``prefix`` columns (``prefix`` is the running
    integral ``Signal.arrays()`` computes) and takes ``initials[i]``
    before its first breakpoint.  A row without breakpoints is a
    constant.
    """

    rows: list[str]
    offsets: np.ndarray
    initials: np.ndarray
    times: np.ndarray
    values: np.ndarray
    prefix: np.ndarray


class TraceColumns(NamedTuple):
    """A whole trace in the store layout, ready for the store writer.

    The text parser (:func:`repro.trace.reader.parse_columns`) produces
    one from a ``repro`` text trace and
    :func:`repro.trace.store.write_store` one from a
    :class:`~repro.trace.trace.Trace`.  Sections hold plain tuples in
    their directory order: ``entities`` as ``(name, kind, path)``,
    ``metrics_info`` as ``(name, unit, description)``, ``edges`` as
    ``(a, b, via, source)`` and ``events`` as ``(time, kind, source,
    target, payload)`` sorted by time.  ``span`` is what
    ``Trace.span()`` returns, or ``None`` when the trace has no
    timestamped data; ``metrics`` yields ``(metric, MetricColumns)``
    pairs in metric-name order and may be a one-shot iterator.
    """

    entities: list[tuple[str, str, tuple[str, ...]]]
    metrics_info: list[tuple[str, str, str]]
    edges: list[tuple[str, str, str, str]]
    events: list[tuple[float, str, str, str, dict]]
    meta: dict[str, Any]
    span: tuple[float, float] | None
    metrics: Iterable[tuple[str, MetricColumns]]


class ColumnWriter:
    """Sequential, aligned writer of the data section.

    Wraps the (binary) output stream positioned at the start of the
    data section; :meth:`put` appends one array — converted to the
    format's little-endian dtype, padded to :data:`ALIGNMENT` — and
    returns its :class:`ArrayRef`.  The store writer puts one metric's
    columns at a time, so peak memory stays near one metric's worth of
    breakpoints.
    """

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self._written = 0

    @property
    def written(self) -> int:
        """Bytes emitted into the data section so far."""
        return self._written

    def put(self, array: np.ndarray, dtype: str) -> ArrayRef:
        """Append *array* as *dtype*; return its directory reference."""
        data = np.ascontiguousarray(array, dtype=_DTYPES[dtype])
        offset = self._written
        self._stream.write(data.data)
        self._written += data.nbytes
        pad = (-self._written) % ALIGNMENT
        if pad:  # only the name blob is not a whole number of words
            self._stream.write(b"\x00" * pad)
            self._written += pad
        return ArrayRef(offset, int(data.size), dtype)


def check_name(name: str, *, what: str) -> str:
    """Reject absent or overlong names (used on both write and read)."""
    if not isinstance(name, str) or not name:
        raise TraceStoreError(f"{what}: name must be a non-empty string")
    # A character takes at most 4 bytes, so only long names need encoding.
    if (
        len(name) > MAX_NAME_BYTES // 4
        and len(name.encode("utf-8", "surrogatepass")) > MAX_NAME_BYTES
    ):
        raise TraceStoreError(
            f"{what}: name of {len(name)} characters exceeds the "
            f"{MAX_NAME_BYTES}-byte format cap"
        )
    return name


def encode_names(names: list[str], *, what: str) -> tuple[bytes, np.ndarray]:
    """*names* as one UTF-8 blob and its ``len(names) + 1`` byte offsets.

    Each name is encoded once; a name that is not a string, cannot be
    encoded, is empty or exceeds :data:`MAX_NAME_BYTES` raises the
    typed error (its message prefixed with *what*).
    """
    try:
        encoded = [name.encode("utf-8") for name in names]
    except (AttributeError, UnicodeEncodeError) as error:
        raise TraceStoreError(
            f"{what}: names must be strings encodable as UTF-8 ({error})"
        ) from None
    lengths = np.fromiter(map(len, encoded), np.int64, count=len(names))
    bad = (lengths == 0) | (lengths > MAX_NAME_BYTES)
    if bad.any():
        check_name(names[int(bad.argmax())], what=what)
    offsets = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return b"".join(encoded), offsets


def decode_names(
    blob: np.ndarray, offsets: np.ndarray, *, what: str
) -> list[str]:
    """The names of a UTF-8 *blob*: name ``i`` is bytes
    ``[offsets[i], offsets[i+1])``.

    The checks run on whole arrays: offsets start at 0, increase and
    end at the blob's end; no name is empty or longer than
    :data:`MAX_NAME_BYTES`; the blob is UTF-8 and no offset splits a
    character.  The blob is decoded once and cut at character offsets.
    """
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(blob):
        raise TraceStoreError(
            f"{what}: name offsets do not span the {len(blob)}-byte name "
            f"blob"
        )
    lengths = np.diff(offsets)
    if len(lengths) and lengths.min() <= 0:
        at = int(np.flatnonzero(lengths <= 0)[0])
        raise TraceStoreError(
            f"{what}: name offsets decrease at entity {at}"
            if lengths[at] < 0
            else f"{what}: entity {at} has an empty name"
        )
    if len(lengths) and lengths.max() > MAX_NAME_BYTES:
        at = int(lengths.argmax())
        raise TraceStoreError(
            f"{what}: name of entity {at} ({lengths[at]} bytes) exceeds "
            f"the {MAX_NAME_BYTES}-byte format cap"
        )
    try:
        text = str(memoryview(blob), "utf-8")
    except UnicodeDecodeError as error:
        raise TraceStoreError(
            f"{what}: names are not UTF-8 ({error.reason} at byte "
            f"{error.start})"
        ) from None
    if len(text) == len(blob):  # ASCII: byte offsets are character offsets
        bounds = offsets.tolist()
    else:
        starts = (blob & 0xC0) != 0x80  # bytes that begin a character
        if not starts[offsets[:-1]].all():
            at = int(np.flatnonzero(~starts[offsets[:-1]])[0])
            raise TraceStoreError(
                f"{what}: name of entity {at} is not UTF-8 (its offset "
                f"splits a character)"
            )
        chars = np.zeros(len(blob) + 1, dtype=np.int64)
        np.cumsum(starts, out=chars[1:])
        bounds = chars[offsets].tolist()
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def index_array(
    values: np.ndarray, high: int, *, low: int = 0, what: str
) -> np.ndarray:
    """The stored indices *values* copied into an int32 array; a typed
    error unless every one lies in ``[low, high)`` (checked with
    ``min``/``max``), its message prefixed with *what*."""
    array = np.array(values, dtype=np.int32)
    if array.size and (array.min() < low or array.max() >= high):
        bad = array[(array < low) | (array >= high)].flat[0]
        raise TraceStoreError(f"{what} {bad} is out of range [{low}, {high})")
    return array


def pack_directory(sections: dict, tables: bytes) -> bytes:
    """The directory bytes: the length of the canonical JSON of
    *sections*, that JSON, zero padding to an 8-byte boundary, then
    the *tables* its array references point into."""
    text = json.dumps(
        sections, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    pad = (-(_JSON_LENGTH.size + len(text))) % ALIGNMENT
    return _JSON_LENGTH.pack(len(text)) + text + b"\0" * pad + tables


def load_directory(payload: bytes, *, what: str) -> tuple[dict, np.ndarray]:
    """Split the directory bytes: ``(sections, tables)``.

    *sections* is the parsed, schema-checked JSON part; *tables* the
    bytes after it, as a ``uint8`` array for :func:`resolve_array`.
    """
    size = _JSON_LENGTH.size
    if len(payload) < size:
        raise TraceStoreError(
            f"{what}: directory of {len(payload)} bytes has no JSON length"
        )
    (length,) = _JSON_LENGTH.unpack_from(payload)
    if length > len(payload) - size:
        raise TraceStoreError(
            f"{what}: JSON part of {length} bytes overruns the "
            f"{len(payload)}-byte directory"
        )
    tables_at = size + length + (-(size + length)) % ALIGNMENT
    if tables_at > len(payload):
        raise TraceStoreError(
            f"{what}: directory ends inside the padding after its JSON part"
        )
    try:
        directory = json.loads(payload[size : size + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceStoreError(f"{what}: corrupt directory: {error}") from None
    if not isinstance(directory, dict):
        raise TraceStoreError(f"{what}: directory is not a JSON object")
    schema = directory.get("schema")
    if schema != DIRECTORY_SCHEMA:
        raise TraceStoreError(
            f"{what}: unknown directory schema {schema!r} "
            f"(expected {DIRECTORY_SCHEMA!r})"
        )
    return directory, np.frombuffer(payload, dtype=np.uint8)[tables_at:]
