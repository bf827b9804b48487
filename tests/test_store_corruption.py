"""Corruption battery for the columnar trace store.

Every structurally broken ``.rtrace`` file must fail with the typed
:class:`~repro.errors.TraceStoreError` — never garbage data, never an
uncaught decode error, and never an out-of-range :func:`numpy.memmap`
view (the "segfault-adjacent" class: a directory that references bytes
past the end of the mapping).  The battery covers truncation at every
interesting boundary, bad magic, wrong endianness, version skew,
checksum damage, malformed directories, a defect of each kind in the
entity tables (names, offsets, codes, rows, edges), out-of-bounds and
misaligned array references, plus seeded random byte-flip fuzz sweeps
asserting that *no* corruption escapes the typed error contract — one
of them inside the tables with the checksum fixed, so the semantic
checks alone hold it.
"""

import io
import random
import struct
import zlib

import numpy as np
import pytest

from repro.errors import SignalError, TraceStoreError
from repro.trace.columnar import (
    ENDIAN_CHECK,
    HEADER,
    MAGIC,
    VERSION,
    ArrayRef,
    ColumnWriter,
    load_directory,
    pack_directory,
)
from repro.trace.store import is_store_file, open_store, write_store
from repro.trace.synthetic import random_hierarchical_trace

#: The entity tables of a store directory, with their dtypes.
TABLES = {
    "names": "|u1",
    "name_offsets": "<i8",
    "kinds": "<i4",
    "groups": "<i4",
    "edges": "<i4",
    "edge_sources": "<i4",
}


@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory):
    """The bytes of a healthy store file over a small synthetic trace."""
    trace = random_hierarchical_trace(
        n_sites=2, clusters_per_site=2, hosts_per_cluster=2, seed=3
    )
    path = tmp_path_factory.mktemp("valid") / "ok.rtrace"
    write_store(trace, path)
    return path.read_bytes()


@pytest.fixture()
def reopen(tmp_path):
    """Write *payload* bytes to a file and open it as a store."""

    def _reopen(payload: bytes):
        path = tmp_path / "case.rtrace"
        path.write_bytes(payload)
        return open_store(path)

    return _reopen


def _unpack(payload: bytes):
    return HEADER.unpack_from(payload)


def _repack(payload: bytes, **overrides) -> bytes:
    """The file with selected header fields replaced."""
    fields = list(_unpack(payload))
    names = [
        "magic", "version", "endian", "dir_off", "dir_len",
        "data_off", "data_len", "file_len", "dir_crc",
    ]
    for key, value in overrides.items():
        fields[names.index(key)] = value
    return HEADER.pack(*fields) + payload[HEADER.size :]


def _read_tables(payload: bytes):
    """The directory's JSON part and a copy of every table in it:
    ``(sections, tables)``, ``tables["rows"]`` holding one array per
    metric."""
    (_, _, _, dir_off, dir_len, *_rest) = _unpack(payload)
    sections, raw = load_directory(
        payload[dir_off : dir_off + dir_len], what="test"
    )

    def array(ref):
        ref = ArrayRef.from_json(ref, what="test")
        dtype = np.dtype(ref.dtype)
        end = ref.offset + ref.count * dtype.itemsize
        return raw[ref.offset : end].view(dtype).copy()

    refs = sections["tables"]
    tables = {key: array(refs[key]) for key in TABLES}
    tables["rows"] = {
        metric: array(ref) for metric, ref in refs["rows"].items()
    }
    return sections, tables


def _rewrite_directory(payload: bytes, mutate) -> bytes:
    """The file with its directory transformed by *mutate*.

    *mutate* gets the parsed JSON part and the decoded tables (see
    :func:`_read_tables`) and edits them in place.  The tables are
    re-encoded, the CRC recomputed and every header length fixed, so
    the *only* defect in the result is the one *mutate* introduced —
    the battery tests the semantic validators, not the checksum.
    """
    (_, _, _, dir_off, *_rest) = _unpack(payload)
    sections, tables = _read_tables(payload)
    mutate(sections, tables)
    buffer = io.BytesIO()
    writer = ColumnWriter(buffer)
    refs = sections.setdefault("tables", {})
    for key, dtype in TABLES.items():
        if key in tables:
            refs[key] = writer.put(tables[key], dtype).to_json()
    refs["rows"] = {
        metric: writer.put(rows, "<i4").to_json()
        for metric, rows in tables["rows"].items()
    }
    blob = pack_directory(sections, buffer.getvalue())
    return _with_directory(payload[:dir_off], blob)


def _with_directory(head: bytes, blob: bytes) -> bytes:
    """*head* (header and data section) followed by directory bytes
    *blob*, the header's lengths and CRC fixed to match."""
    return _repack(
        head + blob,
        dir_len=len(blob),
        file_len=len(head) + len(blob),
        dir_crc=zlib.crc32(blob) & 0xFFFFFFFF,
    )


def _names(tables) -> list[str]:
    """The entity names a (valid) name blob holds."""
    blob, offsets = tables["names"].tobytes(), tables["name_offsets"]
    return [
        blob[a:b].decode("utf-8") for a, b in zip(offsets[:-1], offsets[1:])
    ]


def _set_names(tables, names) -> None:
    """Replace the name blob and its offsets with *names*, as given."""
    encoded = [name.encode("utf-8") for name in names]
    tables["names"] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    tables["name_offsets"] = np.concatenate(
        ([0], np.cumsum([len(e) for e in encoded]))
    ).astype(np.int64)


def _assert_rejected(reopen, payload: bytes, match: str | None = None):
    with pytest.raises(TraceStoreError, match=match):
        reopen(payload)


class TestTruncation:
    @pytest.mark.parametrize("keep", [0, 1, 7, 8, 32, HEADER.size - 1])
    def test_shorter_than_header(self, reopen, valid_bytes, keep):
        _assert_rejected(reopen, valid_bytes[:keep])

    def test_truncated_mid_data(self, reopen, valid_bytes):
        _assert_rejected(reopen, valid_bytes[: HEADER.size + 16])

    def test_one_byte_missing(self, reopen, valid_bytes):
        _assert_rejected(reopen, valid_bytes[:-1], match="truncated|outside")

    def test_trailing_garbage(self, reopen, valid_bytes):
        _assert_rejected(reopen, valid_bytes + b"junk", match="declares")


class TestHeader:
    def test_bad_magic(self, reopen, valid_bytes):
        _assert_rejected(
            reopen, b"NOTRTRC\n" + valid_bytes[8:], match="magic"
        )

    def test_text_file_is_not_a_store(self, reopen):
        _assert_rejected(
            reopen, b"#repro-trace 1\nMETA end_time 1.0\n" * 20, match="magic"
        )

    def test_wrong_endianness(self, reopen, valid_bytes):
        swapped = struct.unpack("<I", struct.pack(">I", ENDIAN_CHECK))[0]
        _assert_rejected(
            reopen, _repack(valid_bytes, endian=swapped), match="endian"
        )

    def test_garbage_endian_marker(self, reopen, valid_bytes):
        _assert_rejected(
            reopen, _repack(valid_bytes, endian=0xDEADBEEF), match="endian"
        )

    @pytest.mark.parametrize("version", [0, 1, VERSION + 1, 2**31])
    def test_version_skew(self, reopen, valid_bytes, version):
        """A version-1 file (its entity table as JSON lists) is refused
        like any other skew, and the message says how to rewrite it."""
        _assert_rejected(
            reopen,
            _repack(valid_bytes, version=version),
            match=f"version {version} .*`repro convert`",
        )

    def test_directory_outside_file(self, reopen, valid_bytes):
        _assert_rejected(
            reopen,
            _repack(valid_bytes, dir_off=2**40),
            match="outside|declares",
        )

    def test_data_section_outside_file(self, reopen, valid_bytes):
        _assert_rejected(
            reopen,
            _repack(valid_bytes, data_len=2**40),
            match="outside|declares",
        )


class TestDirectory:
    def test_crc_mismatch_on_flipped_byte(self, reopen, valid_bytes):
        (_, _, _, dir_off, dir_len, *_rest) = _unpack(valid_bytes)
        corrupt = bytearray(valid_bytes)
        corrupt[dir_off + dir_len // 2] ^= 0xFF
        _assert_rejected(reopen, bytes(corrupt), match="checksum")

    def test_non_json_directory_with_valid_crc(self, reopen, valid_bytes):
        (_, _, _, dir_off, _, _, _, _, _) = _unpack(valid_bytes)
        text = b"this is not json{{{"
        blob = struct.pack("<Q", len(text)) + text + b"\0" * 5
        payload = _with_directory(valid_bytes[:dir_off], blob)
        _assert_rejected(reopen, payload, match="corrupt directory")

    def test_json_length_overruns_directory(self, reopen, valid_bytes):
        (_, _, _, dir_off, dir_len, *_rest) = _unpack(valid_bytes)
        blob = struct.pack("<Q", dir_len) + valid_bytes[dir_off + 8 :]
        payload = _with_directory(valid_bytes[:dir_off], blob)
        _assert_rejected(reopen, payload, match="overruns")

    def test_unknown_schema(self, reopen, valid_bytes):
        def mutate(d, tables):
            d["schema"] = "rtrace/999"

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="schema"
        )

    def test_missing_columns_section(self, reopen, valid_bytes):
        def mutate(d, tables):
            del d["columns"]

        _assert_rejected(reopen, _rewrite_directory(valid_bytes, mutate))

    def test_missing_table(self, reopen, valid_bytes):
        def mutate(d, tables):
            del tables["kinds"], d["tables"]["kinds"]

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="kinds"
        )

    def test_table_of_the_wrong_dtype(self, reopen, valid_bytes):
        def mutate(d, tables):
            del tables["groups"]
            d["tables"]["groups"] = {"offset": 0, "count": 13, "dtype": "<i8"}

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="'groups'.*dtype",
        )

    def test_rewrite_alone_is_no_defect(self, reopen, valid_bytes):
        """The helper's re-encoding opens cleanly: each case below
        fails for its own defect only."""
        store = reopen(_rewrite_directory(valid_bytes, lambda d, t: None))
        assert len(store.entities) == 13

    # -- one defect per case in the entity tables, checksum fixed -------
    @staticmethod
    def _rewrite_names(valid_bytes, edit):
        def mutate(d, tables):
            names = _names(tables)
            edit(names)
            _set_names(tables, names)

        return _rewrite_directory(valid_bytes, mutate)

    def test_overlong_entity_name(self, reopen, valid_bytes):
        def edit(names):
            names[0] = "x" * 5000

        _assert_rejected(
            reopen, self._rewrite_names(valid_bytes, edit), match="cap"
        )

    def test_empty_entity_name(self, reopen, valid_bytes):
        def edit(names):
            names[3] = ""

        _assert_rejected(
            reopen,
            self._rewrite_names(valid_bytes, edit),
            match="entity 3 has an empty name",
        )

    def test_duplicate_entity(self, reopen, valid_bytes):
        def edit(names):
            names[1] = names[0]

        _assert_rejected(
            reopen, self._rewrite_names(valid_bytes, edit), match="duplicate"
        )

    def test_non_ascii_names_round_trip(self, reopen, valid_bytes):
        """Offsets are byte offsets: multi-byte names come back whole."""
        renamed = ["nœud-é", "ホスト", "\U0001d565", "a\u00e9b"]

        def edit(names):
            names[: len(renamed)] = renamed

        store = reopen(self._rewrite_names(valid_bytes, edit))
        assert store.entity_names()[: len(renamed)] == renamed
        assert store.entities.index["ホスト"] == 1

    def test_invalid_utf8(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["names"][2] = 0xFF

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="UTF-8"
        )

    def test_offset_splits_a_character(self, reopen, valid_bytes):
        """Each name valid UTF-8 on its own only if the offset falls
        between characters."""

        def mutate(d, tables):
            names = _names(tables)
            names[:2] = ["é", "é"]
            _set_names(tables, names)
            tables["name_offsets"][1] = 1  # inside the first "é"

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="entity 1 is not UTF-8",
        )

    def test_offsets_out_of_order(self, reopen, valid_bytes):
        def mutate(d, tables):
            offsets = tables["name_offsets"]
            offsets[2] = offsets[3] + 1

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="decrease at entity 2",
        )

    def test_offsets_past_the_blob(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["name_offsets"][-1] += 1

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="span"
        )

    @pytest.mark.parametrize(
        "key, code",
        [("kinds", -1), ("kinds", 2), ("groups", -1), ("groups", 10**6)],
    )
    def test_code_out_of_range(self, reopen, valid_bytes, key, code):
        def mutate(d, tables):
            tables[key][4] = code

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match=f"{key[:-1]} code {code} is out of range",
        )

    def test_code_table_of_another_length(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["kinds"] = tables["kinds"][:-1]

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="12 kind codes for 13 entities",
        )

    def test_undeclared_row_entity(self, reopen, valid_bytes):
        """A bank row naming an entity past the table."""

        def mutate(d, tables):
            rows = next(iter(tables["rows"].values()))
            rows[0] = 13

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="row entity 13 is out of range",
        )

    def test_metric_rows_without_columns(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["rows"]["ghost"] = np.zeros(1, dtype=np.int32)

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="ghost"
        )

    @pytest.mark.parametrize("end, index", [(0, 13), (1, -1), (2, -2)])
    def test_edge_end_out_of_range(self, reopen, valid_bytes, end, index):
        def mutate(d, tables):
            tables["edges"][3 + end] = index

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match=f"edge .* {index} is out of range",
        )

    def test_edges_not_in_triples(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["edges"] = tables["edges"][:-1]

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="triples"
        )

    def test_source_code_out_of_range(self, reopen, valid_bytes):
        def mutate(d, tables):
            tables["edge_sources"][0] = len(d["source_names"])

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="source code 1 is out of range",
        )

    def test_duplicate_group_path(self, reopen, valid_bytes):
        def mutate(d, tables):
            d["group_paths"].append(d["group_paths"][0])

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="duplicate group path",
        )

    def test_malformed_name_list(self, reopen, valid_bytes):
        def mutate(d, tables):
            d["group_paths"][0] = "grid"

        _assert_rejected(
            reopen,
            _rewrite_directory(valid_bytes, mutate),
            match="group_paths",
        )


class TestArrayReferences:
    """The segfault-adjacent class: refs must never escape the mapping."""

    @staticmethod
    def _patch_ref(valid_bytes, column, **changes):
        def mutate(d, tables):
            metric = next(iter(d["columns"]))
            d["columns"][metric][column].update(changes)

        return _rewrite_directory(valid_bytes, mutate)

    def test_count_overruns_data_section(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "times", count=2**40)
        _assert_rejected(reopen, payload, match="overruns")

    def test_offset_overruns_data_section(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "values", offset=2**40)
        _assert_rejected(reopen, payload, match="overruns")

    def test_negative_count(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "times", count=-8)
        _assert_rejected(reopen, payload, match="negative")

    def test_misaligned_offset(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "prefix", offset=4)
        _assert_rejected(reopen, payload, match="aligned")

    def test_unknown_dtype(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "times", dtype="<c16")
        _assert_rejected(reopen, payload, match="dtype")

    def test_non_integer_bounds(self, reopen, valid_bytes):
        payload = self._patch_ref(valid_bytes, "times", offset="zero")
        _assert_rejected(reopen, payload, match="integer")

    def test_offsets_do_not_tile_column(self, reopen, valid_bytes):
        def mutate(d, tables):
            for metric, cols in d["columns"].items():
                if cols["times"]["count"] > 0:
                    cols["times"]["count"] -= 1
                    cols["values"]["count"] -= 1
                    cols["prefix"]["count"] -= 1
                    return

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="tile"
        )

    def test_column_length_mismatch(self, reopen, valid_bytes):
        def mutate(d, tables):
            for metric, cols in d["columns"].items():
                if cols["values"]["count"] > 0:
                    cols["values"]["count"] -= 1
                    return

        _assert_rejected(reopen, _rewrite_directory(valid_bytes, mutate))


class TestFuzz:
    def test_random_byte_flips_never_escape_typed_errors(
        self, reopen, valid_bytes
    ):
        """Flip bytes anywhere; open + query must stay inside the
        typed-error contract (TraceStoreError, or SignalError when a
        flipped *data* byte breaks breakpoint monotonicity) — and must
        never raise anything else or touch memory out of range."""
        rng = random.Random(20130423)
        for _ in range(60):
            corrupt = bytearray(valid_bytes)
            for _ in range(rng.randint(1, 4)):
                corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            try:
                store = reopen(bytes(corrupt))
                mirror = store.open_trace()
                for metric in store.metric_names():
                    bank = store.signal_bank(metric)
                    bank.window_means(0.0, 50.0)
                for entity in mirror:
                    dict(entity.metrics)
            except (TraceStoreError, SignalError):
                pass  # the typed contract

    def test_table_byte_flips_with_a_fixed_checksum(
        self, reopen, valid_bytes
    ):
        """Flip bytes inside the entity tables only and fix the CRC, so
        the checksum cannot catch them: every open must still raise the
        typed error or give a store whose trace, edges and hierarchy
        read cleanly."""
        from repro.core.hierarchy import Hierarchy

        (_, _, _, dir_off, dir_len, *_rest) = _unpack(valid_bytes)
        (json_len,) = struct.unpack_from("<Q", valid_bytes, dir_off)
        start = dir_off + 8 + json_len + (-(8 + json_len)) % 8
        assert start < dir_off + dir_len
        rng = random.Random(24)
        outcomes = {"rejected": 0, "opened": 0}
        for _ in range(200):
            corrupt = bytearray(valid_bytes)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(start, len(corrupt))
                corrupt[at] ^= 1 << rng.randrange(8)
            payload = _with_directory(
                bytes(corrupt[:dir_off]), bytes(corrupt[dir_off:])
            )
            try:
                store = reopen(payload)
            except TraceStoreError:
                outcomes["rejected"] += 1
                continue
            mirror = store.open_trace()
            for entity in mirror:
                dict(entity.metrics)
            assert len(mirror.edges) == len(mirror.edge_segments()) - sum(
                edge.via != "" for edge in mirror.edges
            )
            Hierarchy.from_trace(mirror)
            outcomes["opened"] += 1
        assert outcomes["rejected"] > 50 and outcomes["opened"] > 10

    def test_truncation_sweep_never_escapes_typed_errors(
        self, reopen, valid_bytes
    ):
        """Every prefix of a valid file is rejected (or, once the file
        is whole, accepted) without untyped exceptions."""
        step = max(1, len(valid_bytes) // 97)
        for keep in range(0, len(valid_bytes), step):
            with pytest.raises(TraceStoreError):
                reopen(valid_bytes[:keep])


class TestSniffing:
    def test_is_store_file(self, tmp_path, valid_bytes):
        good = tmp_path / "good.rtrace"
        good.write_bytes(valid_bytes)
        assert is_store_file(good)
        text = tmp_path / "plain.trace"
        text.write_text("#repro-trace 1\n")
        assert not is_store_file(text)
        assert not is_store_file(tmp_path / "missing.rtrace")
        empty = tmp_path / "empty.rtrace"
        empty.write_bytes(b"")
        assert not is_store_file(empty)

    def test_unknown_metric_is_typed(self, reopen, valid_bytes):
        store = reopen(valid_bytes)
        with pytest.raises(TraceStoreError, match="no metric"):
            store.signal_bank("no-such-metric")
        with pytest.raises(TraceStoreError, match="no metric"):
            store.signal(store.entity_names()[0], "capacity-of-nothing")
