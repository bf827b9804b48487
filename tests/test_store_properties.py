"""Hypothesis round-trip properties of the columnar trace store.

Arbitrary signal sets — constants, negative values, non-zero initials,
degenerate empty metrics — are written to a store file, reopened
through :func:`numpy.memmap`, and must come back *exactly*: identical
breakpoint bits, identical bank columns, identical window integrals.
No tolerance anywhere: the store persists the very float64 arrays
``Signal.arrays()`` computes, so any inequality is a format bug, not
roundoff.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.events import PointEvent
from repro.trace.signal import Signal
from repro.trace.signalbank import SignalBank
from repro.trace.store import open_store, write_store
from repro.trace.trace import Entity, MetricInfo, Trace, TraceEdge

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

METRICS = ("usage", "capacity", "power")


@st.composite
def signals(draw, max_steps: int = 10):
    """A random step function; may be constant, may have initial != 0."""
    n = draw(st.integers(min_value=0, max_value=max_steps))
    start = draw(st.floats(min_value=-50.0, max_value=50.0))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=n, max_size=n
        )
    )
    times = []
    t = start
    for gap in gaps:
        times.append(t)
        t += gap
    values = draw(st.lists(finite_values, min_size=n, max_size=n))
    initial = draw(finite_values)
    return Signal(times[:n], values, initial=initial)


@st.composite
def traces(draw, max_entities: int = 6):
    """A random trace: entities, metric subsets, meta, edges, events."""
    n = draw(st.integers(min_value=1, max_value=max_entities))
    names = [f"e{i}" for i in range(n)]
    entities = []
    for name in names:
        carried = draw(
            st.lists(st.sampled_from(METRICS), unique=True, max_size=3)
        )
        metrics = {metric: draw(signals()) for metric in carried}
        entities.append(Entity(name, "host", (name,), metrics))
    edges = [
        TraceEdge(draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    events = [
        PointEvent(
            draw(st.floats(min_value=0.0, max_value=100.0)),
            "message",
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
            {"size": draw(st.integers(min_value=0, max_value=10**9))},
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    meta = {"end_time": draw(st.floats(min_value=100.0, max_value=200.0))}
    infos = [MetricInfo(m, "u", f"metric {m}") for m in METRICS]
    return Trace(entities, edges, events, infos, meta)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """One scratch directory reused (overwritten) across examples."""
    return tmp_path_factory.mktemp("prop-store")


ROUND_TRIP = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _round_trip(trace, store_dir):
    path = store_dir / "t.rtrace"
    write_store(trace, path)
    return path, open_store(path)


@given(traces())
@ROUND_TRIP
def test_signals_round_trip_exactly(store_dir, trace):
    """Every signal comes back == (bits, not approx), initials included."""
    _, store = _round_trip(trace, store_dir)
    mirror = store.open_trace()
    assert len(mirror) == len(trace)
    for entity in trace:
        twin = mirror.entity(entity.name)
        assert twin.kind == entity.kind
        assert twin.path == entity.path
        assert sorted(twin.metrics) == sorted(entity.metrics)
        for metric, signal in entity.metrics.items():
            back = twin.metrics[metric]
            assert back == signal
            assert back.initial == signal.initial


@given(traces())
@ROUND_TRIP
def test_bank_columns_are_bit_identical(store_dir, trace):
    """The mmap bank holds the same bytes the resident bank computes."""
    _, store = _round_trip(trace, store_dir)
    for metric in trace.metric_names():
        rows = [e.name for e in trace if metric in e.metrics]
        resident = SignalBank(
            [trace.entity(name).metrics[metric] for name in rows]
        )
        mapped = store.signal_bank(metric)
        assert mapped.backing == "mmap"
        table = store.entities
        assert [table.names[i] for i in table.rows[metric].tolist()] == rows
        for column in ("times", "values", "prefix", "offsets", "initials"):
            np.testing.assert_array_equal(
                getattr(mapped, column),
                getattr(resident, column),
                err_msg=f"{metric}.{column}",
            )


@given(traces(), st.lists(finite_values, min_size=2, max_size=8))
@ROUND_TRIP
def test_window_queries_are_bit_identical(store_dir, trace, points):
    """means / integrals / values_at: exact equality across backings."""
    _, store = _round_trip(trace, store_dir)
    points = sorted(points)
    for metric in trace.metric_names():
        rows = [e.name for e in trace if metric in e.metrics]
        resident = SignalBank(
            [trace.entity(name).metrics[metric] for name in rows]
        )
        mapped = store.signal_bank(metric)
        for a, b in zip(points, points[1:]):
            assert (
                mapped.window_integrals(a, b) == resident.window_integrals(a, b)
            ).all()
            assert (
                mapped.window_means(a, b) == resident.window_means(a, b)
            ).all()
            assert (mapped.values_at(a) == resident.values_at(a)).all()


@given(traces(), st.lists(finite_values, min_size=1, max_size=6))
@ROUND_TRIP
def test_mmap_advance_equals_mmap_locate(store_dir, trace, stops):
    """Incremental cursors on a mapped bank land where a bisect does."""
    _, store = _round_trip(trace, store_dir)
    for metric in trace.metric_names():
        mapped = store.signal_bank(metric)
        idx = mapped.locate(stops[0])
        for t in stops[1:]:
            rounds = mapped.advance(idx, t, max_rounds=10_000)
            assert rounds is not None
            np.testing.assert_array_equal(idx, mapped.locate(t))


@given(traces())
@ROUND_TRIP
def test_write_is_deterministic(store_dir, trace):
    """Same trace in, same bytes out — the golden-fixture guarantee."""
    a, b = store_dir / "a.rtrace", store_dir / "b.rtrace"
    write_store(trace, a)
    write_store(trace, b)
    assert a.read_bytes() == b.read_bytes()


@given(traces())
@ROUND_TRIP
def test_structure_round_trips(store_dir, trace):
    """Meta, edges, events and metric metadata survive the store."""
    _, store = _round_trip(trace, store_dir)
    mirror = store.open_trace()
    assert mirror.meta == trace.meta
    assert mirror.edges == trace.edges
    assert mirror.events == trace.events
    for metric in METRICS:
        assert mirror.metric_info(metric) == trace.metric_info(metric)
    assert mirror.span() == trace.span()
