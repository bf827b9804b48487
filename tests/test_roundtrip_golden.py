"""Golden-trace round trips: text writer/reader, Paje, and the store.

One deterministic hand-built trace exercises every serializable field —
bool/int/float/str meta, INIT'd signals, constants, negative values,
metric-less entities, edges with and without ``via``, point events with
mixed payload types.  Three round trips are pinned against it:

* ``repro`` text: full fidelity — everything must come back equal,
  including the bool meta and payload values the reader historically
  turned into strings.
* Paje: a lossy dialect.  The tests pin exactly *what* is lost (paths
  flatten to ``root``, edges and point events drop, meta is replaced)
  and assert that nothing else is — in particular non-zero initial
  values now materialize as a ``SetVariable`` at time 0.
* The binary store: byte-for-byte stability against the committed
  fixture ``tests/data/golden.rtrace``.  ``write_store`` is
  deterministic, so any byte difference is a format change; regenerate
  deliberately with ``REPRO_REGEN=1 python -m pytest
  tests/test_roundtrip_golden.py``.
"""

import os
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.trace.events import PointEvent
from repro.trace.paje import dumps_paje, loads_paje
from repro.trace.reader import loads
from repro.trace.signal import Signal, constant
from repro.trace.store import convert, open_store, write_store
from repro.trace.trace import Entity, MetricInfo, Trace, TraceEdge
from repro.trace.writer import dumps

GOLDEN = Path(__file__).parent / "data" / "golden.rtrace"


def golden_trace() -> Trace:
    """A deterministic trace touching every serializable field."""
    entities = [
        Entity(
            "master",
            "host",
            ("grid", "lyon", "master"),
            {
                "usage": Signal(
                    [1.0, 2.5, 4.0], [10.0, -2.5, 0.0], initial=5.0
                ),
                "capacity": constant(100.0),
            },
        ),
        Entity(
            "worker0",
            "host",
            ("grid", "nancy", "worker0"),
            {"usage": Signal([0.0, 3.0], [1.5, 2.5])},
        ),
        Entity("link01", "link", ("grid", "link01"), {"latency": constant(-0.75)}),
        Entity("idle", "host", ("grid", "idle"), {}),
    ]
    edges = [
        TraceEdge("master", "worker0", via="link01", source="topology"),
        TraceEdge("worker0", "idle"),
    ]
    events = [
        PointEvent(
            1.5,
            "message",
            "master",
            "worker0",
            {"size": 1000, "tag": "req", "urgent": True, "ratio": 0.5},
        ),
        PointEvent(2.0, "fault", "worker0", "", {}),
    ]
    infos = [
        MetricInfo("usage", "flops", "computing load in flops"),
        MetricInfo("capacity", "MFlops", "nominal computing power"),
        MetricInfo("latency", "", ""),
    ]
    meta = {
        "end_time": 20.0,
        "calibrated": True,
        "runs": 3,
        "label": "Grid 5000 run",
    }
    return Trace(entities, edges, events, infos, meta)


def assert_traces_equal(got: Trace, want: Trace) -> None:
    assert list(got) == list(want)  # Entity __eq__: name, kind, path, metrics
    assert got.edges == want.edges
    assert got.events == want.events
    assert got.metrics_info == want.metrics_info
    assert got.meta == want.meta
    assert got.span() == want.span()


class TestTextRoundTrip:
    def test_full_fidelity(self):
        trace = golden_trace()
        assert_traces_equal(loads(dumps(trace)), trace)

    def test_meta_types_survive(self):
        """bool/int/float/str meta come back typed, not stringified."""
        meta = loads(dumps(golden_trace())).meta
        assert meta["calibrated"] is True
        assert meta["runs"] == 3
        assert isinstance(meta["runs"], int)
        assert meta["end_time"] == 20.0
        assert meta["label"] == "Grid 5000 run"

    def test_payload_types_survive(self):
        event = loads(dumps(golden_trace())).events[0]
        assert event.payload == {
            "size": 1000,
            "tag": "req",
            "urgent": True,
            "ratio": 0.5,
        }
        assert event.payload["urgent"] is True

    def test_second_pass_is_stable(self):
        """write -> read -> write reproduces the same text."""
        text = dumps(golden_trace())
        assert dumps(loads(text)) == text


class TestWriterRejectsCorruptingFields:
    """Fields that used to pass through unchecked and shear lines apart."""

    def _write(self, **kwargs):
        base = dict(
            entities=[Entity("a", "host", ("a",), {})],
            edges=[],
            events=[],
            metrics_info=[],
            meta={},
        )
        base.update(kwargs)
        return dumps(Trace(**base))

    def test_meta_value_with_newline(self):
        with pytest.raises(TraceError, match="line breaks"):
            self._write(meta={"note": "two\nlines"})

    def test_metric_description_with_newline(self):
        with pytest.raises(TraceError, match="line breaks"):
            self._write(metrics_info=[MetricInfo("m", "u", "bad\ndesc")])

    def test_event_kind_with_whitespace(self):
        with pytest.raises(TraceError, match="whitespace"):
            self._write(events=[PointEvent(0.0, "two words", "a", "", {})])

    def test_payload_value_with_whitespace(self):
        with pytest.raises(TraceError, match="whitespace"):
            self._write(
                events=[PointEvent(0.0, "msg", "a", "", {"k": "v w"})]
            )

    def test_edge_source_with_whitespace(self):
        """`via` must name an entity (checked by Trace itself), but
        `source` is free-form and used to pass through unvalidated."""
        with pytest.raises(TraceError, match="whitespace"):
            self._write(
                entities=[
                    Entity("a", "host", ("a",), {}),
                    Entity("b", "host", ("b",), {}),
                ],
                edges=[TraceEdge("a", "b", source="hand edited")],
            )


class TestPajeRoundTrip:
    """Paje is lossy by design; pin exactly what survives and what drops."""

    @pytest.fixture(scope="class")
    def mirror(self):
        return loads_paje(dumps_paje(golden_trace()))

    def test_entities_and_kinds_survive(self, mirror):
        trace = golden_trace()
        assert sorted(e.name for e in mirror if e.name != "root") == sorted(
            e.name for e in trace
        )
        for entity in trace:
            assert mirror.entity(entity.name).kind == entity.kind

    def test_values_survive_including_initials(self, mirror):
        """value_at agrees on [0, end] — the initial-value fix: before
        it, master.usage read 0.0 (not 5.0) on [0, 1)."""
        trace = golden_trace()
        probes = [i * 0.25 for i in range(81)]  # 0.0 .. 20.0
        for entity in trace:
            twin = mirror.entity(entity.name)
            for metric, signal in entity.metrics.items():
                back = twin.metrics[metric]
                for t in probes:
                    assert back.value_at(t) == signal.value_at(t), (
                        entity.name,
                        metric,
                        t,
                    )

    def test_pinned_losses(self, mirror):
        """The lossy rest: flattened paths, dropped edges/events/meta."""
        for entity in mirror:
            if entity.name != "root":
                assert entity.path == ("root", entity.name)
        assert mirror.edges == ()
        assert mirror.events == ()
        assert mirror.meta["format"] == "paje"
        assert "calibrated" not in mirror.meta


class TestGoldenStoreFixture:
    def test_fixture_exists(self):
        assert GOLDEN.is_file(), (
            "missing committed fixture; regenerate with "
            "REPRO_REGEN=1 python -m pytest tests/test_roundtrip_golden.py"
        )

    def test_bytes_are_stable(self, tmp_path):
        """write_store over the golden trace reproduces the committed
        bytes exactly — the on-disk format has not drifted."""
        fresh = tmp_path / "golden.rtrace"
        write_store(golden_trace(), fresh)
        assert fresh.read_bytes() == GOLDEN.read_bytes(), (
            "store bytes changed; if the format change is intentional, "
            "bump the version and regenerate with REPRO_REGEN=1"
        )

    def test_fixture_opens_and_matches(self):
        """The committed binary decodes back to the golden trace."""
        assert_traces_equal(open_store(GOLDEN).open_trace(), golden_trace())

    def test_convert_of_the_text_form_reproduces_the_bytes(self, tmp_path):
        """The text parser's columns, written by the same writer, give
        the committed bytes too."""
        text = tmp_path / "golden.trace"
        text.write_text(dumps(golden_trace()), encoding="utf-8")
        convert(text, tmp_path / "golden.rtrace")
        assert (tmp_path / "golden.rtrace").read_bytes() == GOLDEN.read_bytes()


@pytest.mark.skipif(
    not os.environ.get("REPRO_REGEN"),
    reason="fixture regeneration is explicit: set REPRO_REGEN=1",
)
def test_regenerate_golden_fixture():
    """Not a test: rewrites tests/data/golden.rtrace deliberately."""
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    write_store(golden_trace(), GOLDEN)
    assert GOLDEN.is_file()
