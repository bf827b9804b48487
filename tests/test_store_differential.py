"""Differential oracle for the columnar trace store.

An mmap-backed :class:`~repro.trace.signalbank.SignalBank` must be
indistinguishable — *bit for bit*, not to tolerance — from the resident
bank built from the same trace, because the store writes the exact
float64 arrays ``Signal.arrays()`` produces (breakpoints, values and
prefix sums) and both backings run identical arithmetic on them.  These
tests drive two :class:`~repro.core.aggengine.AggregationEngine`
instances — one over the in-memory trace, one over the converted,
reopened store — through the acceptance scenario: a 200-move scrub
storm plus a grouping storm on the (reduced) Grid'5000 master-worker
model of Section 5.2, asserting exact equality of every aggregated
value, and that the mmap engine actually rode the incremental delta
paths while doing so.
"""

import random

import pytest

from repro.apps import paper_workload, run_master_worker
from repro.core import AggregationEngine, TimeSlice
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.platform import GRID5000_SITES, ClusterSpec, SiteSpec, grid5000_platform
from repro.simulation import UsageMonitor
from repro.trace.store import open_store, write_store

from tests.test_aggregation_differential import scrub_sequence


def _reduced_sites(factor=8):
    """The Grid'5000 inventory with every cluster shrunk by *factor*."""
    return tuple(
        SiteSpec(
            site.name,
            tuple(
                ClusterSpec(c.name, max(2, c.n_hosts // factor), c.host_power)
                for c in site.clusters
            ),
        )
        for site in GRID5000_SITES
    )


@pytest.fixture(scope="module")
def grid_trace():
    """The reduced Grid'5000 trace of the paper's Section 5.2 workload."""
    platform = grid5000_platform(sites=_reduced_sites())
    monitor = UsageMonitor(platform)
    app1, app2 = paper_workload(platform, tasks_per_worker=0.5)
    run_master_worker(platform, [app1, app2], monitor=monitor)
    return monitor.build_trace()


@pytest.fixture(scope="module")
def stored_trace(grid_trace, tmp_path_factory):
    """The same trace converted to a store and reopened through mmap."""
    path = tmp_path_factory.mktemp("store") / "grid.rtrace"
    write_store(grid_trace, path)
    return open_store(path).open_trace()


def assert_views_identical(resident, mapped):
    """Exact (==) structural and numerical equality of two views."""
    assert list(resident.units) == list(mapped.units)
    for key, want in resident.units.items():
        got = mapped.units[key]
        assert got.members == want.members
        assert got.kind == want.kind
        assert got.values == want.values  # exact float equality, no approx
    assert mapped.edges == resident.edges
    assert mapped.tslice == resident.tslice


class TestScrubStorm:
    def test_200_move_scrub_storm_is_bit_identical(self, grid_trace, stored_trace):
        """The acceptance scenario: 200 slice moves, exact equality."""
        resident = AggregationEngine(grid_trace)
        mapped = AggregationEngine(stored_trace)
        g_res = GroupingState(Hierarchy.from_trace(grid_trace))
        g_map = GroupingState(Hierarchy.from_trace(stored_trace))
        for tslice in scrub_sequence(grid_trace.span(), seed=42, moves=200):
            assert_views_identical(
                resident.view(g_res, tslice), mapped.view(g_map, tslice)
            )
        # Both engines must have ridden the incremental paths — the
        # mmap bank cannot silently degrade to full re-bisection.
        for engine in (resident, mapped):
            assert engine.stats["slice_delta"] > engine.stats["slice_full"]
            assert engine.stats["advance_rounds"] > 0
            assert engine.stats["slice_hits"] > 0

    def test_grouping_storm_is_bit_identical(self, grid_trace, stored_trace):
        resident = AggregationEngine(grid_trace)
        mapped = AggregationEngine(stored_trace)
        h_res = Hierarchy.from_trace(grid_trace)
        g_res = GroupingState(h_res)
        g_map = GroupingState(Hierarchy.from_trace(stored_trace))
        start, end = grid_trace.span()
        rng = random.Random(17)
        groups = h_res.groups()
        tslices = scrub_sequence((start, end), seed=17, moves=40)
        for i, tslice in enumerate(tslices):
            if i % 3 == 2:
                group = rng.choice(groups)
                for grouping in (g_res, g_map):
                    if group in grouping.collapsed:
                        grouping.expand(group)
                    else:
                        grouping.collapse(group)
            assert_views_identical(
                resident.view(g_res, tslice), mapped.view(g_map, tslice)
            )

    def test_zero_width_and_boundary_slices(self, grid_trace, stored_trace):
        resident = AggregationEngine(grid_trace)
        mapped = AggregationEngine(stored_trace)
        g_res = GroupingState(Hierarchy.from_trace(grid_trace))
        g_map = GroupingState(Hierarchy.from_trace(stored_trace))
        start, end = grid_trace.span()
        mid = (start + end) / 2.0
        for tslice in (
            TimeSlice(start, start),
            TimeSlice(mid, mid),
            TimeSlice(end, end),
            TimeSlice(start, end),
            TimeSlice(end - 1e-9, end),
        ):
            assert_views_identical(
                resident.view(g_res, tslice), mapped.view(g_map, tslice)
            )


class TestStoredTraceFacade:
    def test_span_and_shape_match(self, grid_trace, stored_trace):
        assert stored_trace.span() == grid_trace.span()
        assert len(stored_trace) == len(grid_trace)
        assert stored_trace.metric_names() == grid_trace.metric_names()
        assert stored_trace.kinds() == grid_trace.kinds()
        assert len(stored_trace.edges) == len(grid_trace.edges)

    def test_signals_round_trip_exactly(self, grid_trace, stored_trace):
        """Lazily materialized signals equal the originals (==)."""
        for entity in list(grid_trace)[::25]:  # sample across the trace
            mirror = stored_trace.entity(entity.name)
            assert sorted(mirror.metrics) == sorted(entity.metrics)
            for metric, signal in entity.metrics.items():
                assert mirror.metrics[metric] == signal

    def test_engine_uses_mmap_banks(self, stored_trace):
        bank = stored_trace.signal_bank("usage")
        assert bank.backing == "mmap"
        assert len(stored_trace.store.entities.rows["usage"]) == len(bank)
        engine = AggregationEngine(stored_trace)
        # the provider hook, not a rebuild
        assert engine.shared.bank("usage") is bank
