"""The columnar text parser: differential, fuzz and regression nets.

:func:`repro.trace.reader.parse_columns` replaced a reader that replayed
every ``VAR`` record through ``TraceBuilder``/``SignalBuilder``.  That
reader lives on here as :func:`oracle`, with one fix: an ``INIT`` value
is the signal's initial value from its first record on (it used to be
re-threaded after the replay, which dropped a first step back to 0.0).
Every generated text must give

* from ``convert``, the bytes ``write_store(oracle(text))`` writes;
* from ``read_trace``, the oracle's trace, bit for bit, prefix sums
  included.

The fuzz net mutates and truncates lines of a valid trace: every input
gives a trace or a :class:`~repro.errors.TraceError`, the same one from
``read_trace`` and ``convert``, and a failed ``convert`` leaves no file.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import FORMAT_HEADER
from repro.errors import TraceError, TraceStoreError
from repro.trace.builder import TraceBuilder
from repro.trace.columnar import MAX_NAME_BYTES, MetricColumns, TraceColumns
from repro.trace.reader import _coerce, loads, read_trace
from repro.trace.signal import Signal, SignalBuilder
from repro.trace.store import _write_columns, convert, open_store, write_store
from repro.trace.synthetic import figure1_trace, random_hierarchical_trace
from repro.trace.trace import Entity, Trace
from repro.trace.writer import dumps, write_trace
from tests.test_roundtrip_golden import golden_trace
from tests.test_store_properties import traces


def oracle(text: str) -> Trace:
    """The record-by-record reader the columnar parser replaced.

    Valid input only: VAR records are sorted by (entity, metric, time)
    and replayed through one ``SignalBuilder`` per signal, whose initial
    value is the signal's INIT value (the fix).
    """
    builder = TraceBuilder()
    initials: dict[tuple[str, str], float] = {}
    records = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or raw.startswith("#"):
            continue
        tag = parts[0]
        if tag == "META":
            builder.set_meta(parts[1], _coerce(" ".join(parts[2:])))
        elif tag == "METRIC":
            unit = "" if parts[2] == "-" else parts[2]
            builder.declare_metric(parts[1], unit, " ".join(parts[3:]))
        elif tag == "ENTITY":
            builder.declare_entity(parts[1], parts[2], parts[3].split("/"))
        elif tag == "CONST":
            builder.set_constant(parts[1], parts[2], float(parts[3]))
        elif tag == "INIT":
            initials[parts[1], parts[2]] = float(parts[3])
        elif tag == "VAR":
            records.append(
                (float(parts[3]), parts[1], parts[2], float(parts[4]))
            )
        elif tag == "EDGE":
            via = "" if parts[3] == "-" else parts[3]
            builder.connect(parts[1], parts[2], via=via, source=parts[4])
        elif tag == "POINT":
            target = "" if len(parts) < 5 or parts[4] == "-" else parts[4]
            payload = dict(item.split("=", 1) for item in parts[5:])
            builder.point(
                float(parts[1]), parts[2], parts[3], target,
                **{k: _coerce(v) for k, v in payload.items()},
            )
    records.sort(key=lambda r: (r[1], r[2], r[0]))
    signals: dict[str, dict[str, SignalBuilder]] = {}
    for time, entity, metric, value in records:
        per_entity = signals.setdefault(entity, {})
        if metric not in per_entity:
            per_entity[metric] = SignalBuilder(
                initials.get((entity, metric), 0.0)
            )
        per_entity[metric].set(time, value)
    trace = builder.build()
    entities = [
        Entity(e.name, e.kind, e.path, {
            **e.metrics,  # constants; VAR records override them
            **{m: s.build() for m, s in signals.get(e.name, {}).items()},
        })
        for e in trace
    ]
    return Trace(
        entities, trace.edges, trace.events, trace.metrics_info, trace.meta
    )


def signal_bits(signal: Signal) -> tuple[bytes, ...]:
    """Every bit of a signal, signed zeros and prefix sums included."""
    return (
        np.float64(signal.initial).tobytes(),
        *(column.tobytes() for column in signal.arrays()),
    )


def assert_same_trace(got: Trace, want: Trace) -> None:
    assert [(e.name, e.kind, e.path) for e in got] == [
        (e.name, e.kind, e.path) for e in want
    ]
    for a, b in zip(got, want):
        assert sorted(a.metrics) == sorted(b.metrics), a.name
        for metric, signal in b.metrics.items():
            assert signal_bits(a.metrics[metric]) == signal_bits(signal), (
                a.name, metric,
            )
    assert got.edges == want.edges
    assert [
        (ev.time, ev.kind, ev.source, ev.target,
         json.dumps(ev.payload, sort_keys=True))
        for ev in got.events
    ] == [
        (ev.time, ev.kind, ev.source, ev.target,
         json.dumps(ev.payload, sort_keys=True))
        for ev in want.events
    ]
    assert got.metrics_info == want.metrics_info
    assert json.dumps(got.meta, sort_keys=True) == json.dumps(
        want.meta, sort_keys=True
    )


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    """One scratch directory reused (overwritten) across examples."""
    return tmp_path_factory.mktemp("text-columns")


def assert_matches_oracle(text: str, work_dir) -> None:
    source = work_dir / "t.trace"
    source.write_text(text, encoding="utf-8")
    want = oracle(text)
    convert(source, work_dir / "got.rtrace")
    write_store(want, work_dir / "want.rtrace")
    assert (work_dir / "got.rtrace").read_bytes() == (
        work_dir / "want.rtrace"
    ).read_bytes()
    assert_same_trace(read_trace(source), want)
    assert_same_trace(loads(text), want)


EXAMPLES = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Few distinct values, so repeats and returns to a previous value are
#: common (-0.0 included: it equals 0.0 and must be dropped like it).
VALUES = st.sampled_from((0.0, -0.0, 1.0, 2.5, -1.0, 1e300))


@st.composite
def record_texts(draw):
    """Hand-rolled record soups: INIT'd signals, records sharing a
    timestamp, repeated values, CONST and VAR on one (entity, metric),
    shuffled record order, POINT payloads."""
    names = [f"h{i}" for i in range(draw(st.integers(1, 4)))]
    head = [FORMAT_HEADER, "METRIC usage flops/s current load"]
    if draw(st.booleans()):
        head.append(f"META end_time {draw(st.integers(0, 20))}.5")
    head += [f"ENTITY {name} host grid/site/{name}" for name in names]
    records = []
    for name in names:
        for metric in draw(
            st.lists(st.sampled_from(("usage", "power")), unique=True)
        ):
            form = draw(st.sampled_from(("var", "const", "both")))
            if form != "var":
                records.append(f"CONST {name} {metric} {draw(VALUES)!r}")
            if form != "const":
                if draw(st.booleans()):
                    records.append(f"INIT {name} {metric} {draw(VALUES)!r}")
                for _ in range(draw(st.integers(0, 8))):
                    # A small pool of times: shared timestamps are common.
                    time = float(draw(st.integers(-2, 6)))
                    records.append(
                        f"VAR {name} {metric} {time!r} {draw(VALUES)!r}"
                    )
    for _ in range(draw(st.integers(0, 3))):
        source, target = draw(st.sampled_from(names)), draw(
            st.sampled_from(names + ["-"])
        )
        payload = draw(st.sampled_from(
            ("", " size=100", " tag=x urgent=True ratio=0.5", " n=-3")
        ))
        records.append(
            f"POINT {float(draw(st.integers(0, 9)))!r} message "
            f"{source} {target}{payload}"
        )
    records = draw(st.permutations(records))
    return "\n".join(head + records) + "\n"


@given(traces())
@EXAMPLES
def test_written_traces_match_the_oracle(work_dir, trace):
    assert_matches_oracle(dumps(trace), work_dir)


@given(record_texts())
@EXAMPLES
def test_record_soups_match_the_oracle(work_dir, text):
    assert_matches_oracle(text, work_dir)


def test_long_rows_keep_the_prefix_bits(work_dir):
    """Rows from 1 to 700 breakpoints, blocked by length in the parser,
    carry the prefix sums ``Signal.arrays()`` computes row by row."""
    rng = np.random.default_rng(7)
    entities = []
    for i, n in enumerate((1, 2, 3, 5, 16, 17, 64, 65, 300, 700)):
        times = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        values = rng.normal(0.0, 1e3, n)
        entities.append(Entity(f"e{i}", "host", (f"e{i}",), {
            "usage": Signal(times, values, initial=float(rng.normal())),
        }))
    assert_matches_oracle(dumps(Trace(entities)), work_dir)


def test_golden_text_matches_the_oracle(work_dir):
    assert_matches_oracle(dumps(golden_trace()), work_dir)


class TestInitBeforeAStepToZero:
    """A first breakpoint equal to the default initial (0.0) used to be
    dropped before the INIT value was re-threaded onto the signal."""

    SIGNAL = Signal([1.0, 2.0], [0.0, 3.0], initial=5.0)

    def trace(self):
        return Trace([Entity("h", "host", ("h",), {"u": self.SIGNAL})])

    def test_text_round_trip(self):
        back = loads(dumps(self.trace())).entity("h").signal("u")
        assert back == self.SIGNAL
        assert back.mean(0.0, 4.0) == 2.75

    def test_convert(self, tmp_path):
        write_trace(self.trace(), tmp_path / "t.trace")
        convert(tmp_path / "t.trace", tmp_path / "t.rtrace")
        stored = open_store(tmp_path / "t.rtrace").open_trace()
        assert stored.entity("h").signal("u") == self.SIGNAL
        assert stored.entity("h").signal("u").mean(0.0, 4.0) == 2.75


class TestAtomicReplace:
    """A failed write keeps the file it would have replaced."""

    def test_failed_write_store_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_store(figure1_trace(), path)
        before = path.read_bytes()
        bad = Trace([Entity("h", "host")], meta={"handle": object()})
        with pytest.raises(TraceStoreError, match="not storable"):
            write_store(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.rtrace"]
        assert len(open_store(path).entity_names()) == 3

    def test_failed_convert_keeps_the_old_bytes(self, tmp_path):
        """The metric name passes the text parser but not the store's
        name cap, so the write fails halfway through."""
        path = tmp_path / "t.rtrace"
        write_store(figure1_trace(), path)
        before = path.read_bytes()
        metric = "m" * (MAX_NAME_BYTES + 1)
        source = tmp_path / "t.trace"
        source.write_text(
            f"{FORMAT_HEADER}\nENTITY h host h\nVAR h a 1.0 2.0\n"
            f"VAR h {metric} 1.0 2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceStoreError, match="format cap"):
            convert(source, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "t.rtrace", "t.trace",
        ]

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path):
        """Threads writing different traces to one path: the file ends
        up holding exactly one of the writes, with no partial file."""
        traces = [
            random_hierarchical_trace(n_sites=1 + i % 3, seed=i)
            for i in range(6)
        ]
        complete = set()
        for i, trace in enumerate(traces):
            write_store(trace, tmp_path / f"ref{i}.rtrace")
            complete.add((tmp_path / f"ref{i}.rtrace").read_bytes())
        path = tmp_path / "shared.rtrace"
        errors = []

        def write(trace):
            try:
                for _ in range(5):
                    write_store(trace, path)
            except Exception as error:  # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write, args=(t,)) for t in traces
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes() in complete
        assert not list(tmp_path.glob(".*.partial"))

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        bad = Trace([Entity("h", "host")], meta={"handle": object()})
        with pytest.raises(TraceStoreError):
            write_store(bad, tmp_path / "t.rtrace")
        assert list(tmp_path.iterdir()) == []


class TestWriterEntityTable:
    """The writer writes rows and edge ends as indices into the entity
    table it builds, so a name the table lacks fails the write."""

    @staticmethod
    def columns(rows=("h",), edges=()):
        return TraceColumns(
            entities=[("h", "host", ("g", "h")), ("k", "host", ("g", "k"))],
            metrics_info=[],
            edges=list(edges),
            events=[],
            meta={},
            span=None,
            metrics=[("m", MetricColumns(
                rows=list(rows),
                offsets=np.zeros(len(rows) + 1, dtype=np.int64),
                initials=np.zeros(len(rows)),
                times=np.empty(0),
                values=np.empty(0),
                prefix=np.empty(0),
            ))],
        )

    @pytest.mark.parametrize("rows, edges, match", [
        (("ghost",), (), "metric 'm' row 'ghost' is not a declared entity"),
        (("h",), [("h", "ghost", "", "topology")], "edge end 'ghost'"),
        (("h",), [("h", "k", "ghost", "topology")], "edge end 'ghost'"),
        (("h",), [("h", "k", "", "")], "edge source ''"),
    ])
    def test_undeclared_names_fail_the_write(
        self, tmp_path, rows, edges, match
    ):
        with pytest.raises(TraceStoreError, match=match):
            _write_columns(self.columns(rows, edges), tmp_path / "t.rtrace")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, path, match", [
        (5, ("g", "h"), "kind must be a string"),
        ("host", (5, "h"), "path parts must be strings"),
        ("host", ("", "h"), "group path"),
    ])
    def test_kinds_and_paths_are_checked(self, tmp_path, kind, path, match):
        with pytest.raises(TraceStoreError, match=match):
            write_store(Trace([Entity("h", kind, path)]), tmp_path / "t")
        assert list(tmp_path.iterdir()) == []

    def test_indices_round_trip(self, tmp_path):
        _write_columns(
            self.columns(("k",), [("k", "h", "", "analyst")]),
            tmp_path / "t.rtrace",
        )
        store = open_store(tmp_path / "t.rtrace")
        assert store.entities.rows["m"].tolist() == [1]
        assert store.edge_ends.tolist() == [[1, 0, -1]]
        assert store.source_names == ("analyst",)
        assert store.entities.group_paths == (("g",),)


# ----------------------------------------------------------------------
# Fuzz: mutated and truncated lines
# ----------------------------------------------------------------------
BASE_LINES = dumps(golden_trace()).splitlines()
CHARACTERS = " \t-=/#.0123456789eEnaifVARxyz"
TOKENS = (
    "nan", "inf", "-inf", "1e309", "-0.0", "0", "abc", "master", "worker0",
    "link01", "ghost", "usage", "-", "True", "x=1", "=", "end_time",
    "grid//master", "#repro-trace", "VAR", "INIT", "CONST", "ENTITY",
)


@st.composite
def mutated_texts(draw, bases=(BASE_LINES,), characters=CHARACTERS,
                  tokens=TOKENS):
    """One of *bases* with one to three line edits, perhaps truncated."""
    lines = list(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        pos = draw(st.integers(0, len(line)))
        how = draw(st.sampled_from(
            ("delete", "insert", "replace", "cut", "token", "drop", "copy")
        ))
        if how == "delete":
            line = line[:pos] + line[pos + 1:]
        elif how == "insert":
            line = line[:pos] + draw(st.sampled_from(characters)) + line[pos:]
        elif how == "replace":
            line = (
                line[:pos] + draw(st.sampled_from(characters)) + line[pos + 1:]
            )
        elif how == "cut":
            line = line[:pos]
        elif how == "token":
            words = line.split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(tokens)
            )
            line = " ".join(words)
        elif how == "copy":
            lines.insert(at, line)
        if how == "drop":
            del lines[at]
        else:
            lines[at] = line
        if not lines:
            lines = [""]
    if draw(st.booleans()):
        lines = lines[: draw(st.integers(0, len(lines)))]
    return "\n".join(lines) + "\n"


def _error(action) -> str | None:
    try:
        action()
    except TraceError as error:
        return str(error)
    return None


@given(mutated_texts())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_lines_fail_alike_or_not_at_all(work_dir, text):
    source = work_dir / "fuzz.trace"
    out = work_dir / "fuzz.rtrace"
    out.unlink(missing_ok=True)
    source.write_text(text, encoding="utf-8")
    read_error = _error(lambda: read_trace(source))
    convert_error = _error(lambda: convert(source, out))
    assert read_error == convert_error
    if read_error is None:
        write_store(read_trace(source), work_dir / "fuzz-resident.rtrace")
        assert out.read_bytes() == (
            work_dir / "fuzz-resident.rtrace"
        ).read_bytes()
    else:
        assert read_error.startswith("line ") or (
            read_error == f"missing format header {FORMAT_HEADER!r}"
        ), read_error
        assert not out.exists()
    assert not list(work_dir.glob(".*.partial"))
