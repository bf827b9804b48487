"""Corruption battery for the columnar trace store.

Every structurally broken ``.rtrace`` file must fail with the typed
:class:`~repro.errors.TraceStoreError` — never garbage data, never an
uncaught decode error, and never an out-of-range :func:`numpy.memmap`
view (the "segfault-adjacent" class: a directory that references bytes
past the end of the mapping).  The battery covers truncation at every
interesting boundary, bad magic, wrong endianness, version skew,
checksum damage, malformed directories, overlong names, out-of-bounds
and misaligned array references, plus a seeded random byte-flip fuzz
sweep asserting that *no* corruption escapes the typed error contract.
"""

import json
import random
import struct
import zlib

import pytest

from repro.errors import SignalError, TraceStoreError
from repro.trace.columnar import (
    ENDIAN_CHECK,
    HEADER,
    MAGIC,
    VERSION,
)
from repro.trace.store import is_store_file, open_store, write_store
from repro.trace.synthetic import random_hierarchical_trace


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


def _rewrite_directory(payload: bytes, mutate) -> bytes:
    """The file with its JSON directory transformed by *mutate*.

    Re-encodes the directory, recomputes the CRC and fixes every header
    length, so the *only* defect in the result is the one *mutate*
    introduced — the battery tests the semantic validators, not the
    checksum.
    """
    (_, _, _, dir_off, dir_len, data_off, data_len, _, _) = _unpack(payload)
    directory = json.loads(payload[dir_off : dir_off + dir_len])
    directory = mutate(directory) or directory
    blob = json.dumps(directory, sort_keys=True, separators=(",", ":")).encode()
    head = payload[:dir_off]
    return _repack(
        head + blob,
        dir_len=len(blob),
        file_len=dir_off + len(blob),
        dir_crc=zlib.crc32(blob) & 0xFFFFFFFF,
    )


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

    @pytest.mark.parametrize("version", [0, VERSION + 1, 2**31])
    def test_version_skew(self, reopen, valid_bytes, version):
        _assert_rejected(
            reopen, _repack(valid_bytes, version=version), match="version"
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
        blob = b"this is not json{{{"
        payload = _repack(
            valid_bytes[:dir_off] + blob,
            dir_len=len(blob),
            file_len=dir_off + len(blob),
            dir_crc=zlib.crc32(blob) & 0xFFFFFFFF,
        )
        _assert_rejected(reopen, payload, match="corrupt directory")

    def test_unknown_schema(self, reopen, valid_bytes):
        def mutate(d):
            d["schema"] = "rtrace/999"

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="schema"
        )

    def test_missing_columns_section(self, reopen, valid_bytes):
        def mutate(d):
            del d["columns"]

        _assert_rejected(reopen, _rewrite_directory(valid_bytes, mutate))

    def test_overlong_entity_name(self, reopen, valid_bytes):
        def mutate(d):
            d["entities"][0][0] = "x" * 5000

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="cap"
        )

    def test_empty_entity_name(self, reopen, valid_bytes):
        def mutate(d):
            d["entities"][0][0] = ""

        _assert_rejected(reopen, _rewrite_directory(valid_bytes, mutate))

    def test_duplicate_entity(self, reopen, valid_bytes):
        def mutate(d):
            d["entities"].append(list(d["entities"][0]))

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="duplicate"
        )

    def test_undeclared_row_entity(self, reopen, valid_bytes):
        def mutate(d):
            metric = next(iter(d["columns"]))
            d["columns"][metric]["rows"][0] = "never-declared"

        _assert_rejected(
            reopen, _rewrite_directory(valid_bytes, mutate), match="declared"
        )


class TestArrayReferences:
    """The segfault-adjacent class: refs must never escape the mapping."""

    @staticmethod
    def _patch_ref(valid_bytes, column, **changes):
        def mutate(d):
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
        def mutate(d):
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
        def mutate(d):
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
