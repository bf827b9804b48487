"""A stored trace answers like the resident trace of the same text.

:class:`~repro.trace.stored.StoredTrace` keeps no per-entity object: it
answers every entity question from the store's one
:class:`~repro.trace.entities.EntityTable` and materializes an
:class:`~repro.trace.trace.Entity` on each access.  Here the stored
trace of a converted text file is held against the resident
``read_trace`` of the same file, question by question: iteration order,
``entity``, ``entities(kind)``, ``kinds``, edges, metric membership,
signal values, the hierarchy built over it, and the typed error for an
unknown entity.
"""

import gc

import numpy as np
import pytest

from repro.core.hierarchy import Hierarchy
from repro.errors import TraceError
from repro.trace.reader import read_trace
from repro.trace.store import convert, open_store
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace
from repro.trace.trace import TraceEdge
from repro.trace.writer import write_trace


@pytest.fixture(
    scope="module",
    params=["figure3", "random"],
)
def pair(request, tmp_path_factory):
    """``(resident, stored, store)`` of one text trace."""
    trace = (
        figure3_trace() if request.param == "figure3"
        else random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=4, seed=9
        )
    )
    folder = tmp_path_factory.mktemp(request.param)
    write_trace(trace, folder / "t.trace")
    convert(folder / "t.trace", folder / "t.rtrace")
    store = open_store(folder / "t.rtrace")
    return read_trace(folder / "t.trace"), store.open_trace(), store


def test_iteration_order_and_entities(pair):
    resident, stored, _ = pair
    assert len(stored) == len(resident)
    assert [e.name for e in stored] == [e.name for e in resident]
    for want, got in zip(resident, stored):
        assert (got.name, got.kind, got.path) == (want.name, want.kind, want.path)
        again = stored.entity(want.name)
        assert (again.name, again.kind, again.path) == (
            want.name, want.kind, want.path,
        )
        assert want.name in stored


def test_kinds_and_entities_of_kind(pair):
    resident, stored, _ = pair
    assert stored.kinds() == resident.kinds()
    for kind in resident.kinds():
        assert [e.name for e in stored.entities(kind)] == [
            e.name for e in resident.entities(kind)
        ]
    assert stored.entities("no-such-kind") == resident.entities("no-such-kind") == []
    assert [e.name for e in stored.entities()] == [
        e.name for e in resident.entities()
    ]


def test_edges_events_and_metric_names(pair):
    resident, stored, _ = pair
    assert stored.edges == resident.edges
    assert stored.events == resident.events
    assert stored.metric_names() == resident.metric_names()
    assert stored.span() == resident.span()


def test_edges_are_kept_as_entity_index_arrays(pair):
    """Opening a stored trace builds no edge record; its edge segments,
    ``edges`` and ``edges_of`` answer like the resident trace's."""
    resident, _, store = pair
    assert resident.edges

    def records() -> int:
        gc.collect()
        return sum(isinstance(o, TraceEdge) for o in gc.get_objects())

    before = records()
    stored = store.open_trace()
    assert records() == before
    np.testing.assert_array_equal(
        stored.edge_segments(), resident.edge_segments()
    )
    assert stored.edge_segments().dtype == np.int32
    assert stored.edges == resident.edges
    for name in resident.table.names:
        assert stored.edges_of(name) == resident.edges_of(name)
    assert stored.edges_of("ghost") == resident.edges_of("ghost") == []


def test_metric_membership_and_signal_values(pair):
    resident, stored, store = pair
    for want in resident:
        got = stored.entity(want.name)
        assert sorted(got.metrics) == sorted(want.metrics)
        assert store.metrics_of(want.name) == sorted(want.metrics)
        for metric in store.metric_names():
            assert (metric in got.metrics) == (metric in want.metrics)
        for metric, signal in want.metrics.items():
            assert got.metrics[metric] == signal
            assert got.signal(metric) == signal


def test_unknown_entity_is_a_typed_error(pair):
    resident, stored, store = pair
    assert "ghost" not in stored
    for trace in (resident, stored):
        with pytest.raises(TraceError, match="unknown entity 'ghost'"):
            trace.entity("ghost")
    assert store.metrics_of("ghost") == []


def test_hierarchy_over_the_table_matches(pair):
    resident, stored, store = pair
    assert stored.table is store.entities
    mine, theirs = Hierarchy.from_trace(stored), Hierarchy.from_trace(resident)
    assert mine.table is stored.table
    assert mine.groups() == theirs.groups()
    assert mine.max_depth() == theirs.max_depth()
    assert list(mine) == list(theirs)
    for group in [()] + theirs.groups():
        assert mine.leaves(group) == theirs.leaves(group)
        assert mine.children(group) == theirs.children(group)
        assert mine.is_group(group)
    for name in theirs:
        assert mine.path_of(name) == theirs.path_of(name)
        assert mine.kind_of(name) == theirs.kind_of(name)


def test_bank_rows_are_entity_indices(pair):
    resident, stored, store = pair
    table = store.entities
    for metric in store.metric_names():
        bank = store.signal_bank(metric)
        rows = table.rows[metric]
        assert rows.dtype == np.int32 and len(rows) == len(bank)
        for row, i in enumerate(rows.tolist()):
            assert table.row_index(metric)[i] == row
        carriers = [e.name for e in resident if metric in e.metrics]
        assert sorted(table.names[i] for i in rows.tolist()) == sorted(carriers)


def test_directory_is_read_not_mapped(pair):
    """Only the data section is mapped; a second ``open_trace`` reads
    the directory from the file again."""
    _, stored, store = pair
    header = store.header
    assert isinstance(store._data, np.memmap)
    assert store._data.offset == header.data_offset
    assert len(store._data) == header.data_length
    again = store.open_trace()
    assert again.edges == stored.edges
    assert again.meta == stored.meta
