"""Differential-testing net for the aggregation engine.

The fast incremental :class:`AggregationEngine` must produce views
identical (to roundoff) to the scalar oracle
:func:`aggregate_view` across random traces, groupings and slice-scrub
sequences — the aggregation analogue of
``tests/test_layout_differential.py``.  The suite also asserts the
engine's stats counters show the *delta* paths were actually taken, so
the caches cannot silently degrade into from-scratch recomputation.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggregationEngine, AnalysisSession, TimeSlice
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.trace import CAPACITY, USAGE
from repro.trace.store import open_store, write_store
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace

RTOL = 1e-9


def assert_same_rows(fast, slow):
    """The same member rows and offsets, over the same entity table,
    array for array (dtype included)."""
    assert fast.entities is slow.entities
    for name in ("member_rows", "member_offsets"):
        got, want = getattr(fast, name), getattr(slow, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_views_equal(fast, slow):
    """Structural equality + value agreement to roundoff."""
    assert list(fast.units) == list(slow.units)
    assert_same_rows(fast, slow)
    for key, want in slow.units.items():
        got = fast.units[key]
        assert got.members == want.members
        assert got.kind == want.kind
        assert got.group == want.group
        assert got.label == want.label
        assert set(got.values) == set(want.values)
        for metric, ref in want.values.items():
            assert got.values[metric] == pytest.approx(ref, rel=RTOL, abs=1e-9)
    assert fast.edges == slow.edges
    assert fast.tslice == slow.tslice


def scrub_sequence(span, seed, moves=30):
    """A mix of small shifts, zoom changes, jumps and repeats."""
    rng = random.Random(seed)
    start, end = span
    width = (end - start) / 8.0 or 1.0
    a = start
    slices = []
    for _ in range(moves):
        kind = rng.random()
        if kind < 0.55:  # small scrub step (the dominant query)
            a += rng.uniform(-0.1, 0.25) * width
        elif kind < 0.7:  # zoom in/out around the same start
            width = max(1e-6, width * rng.uniform(0.5, 2.0))
        elif kind < 0.8:  # jump far away
            a = rng.uniform(start - width, end)
        elif kind < 0.9:  # repeat the previous slice (cache hit)
            pass
        else:  # degenerate zero-width cursor
            slices.append(TimeSlice(a, a))
            continue
        slices.append(TimeSlice(a, a + width))
    return slices


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scrub_sequence_matches_oracle(seed):
    trace = random_hierarchical_trace(
        n_sites=3, clusters_per_site=2, hosts_per_cluster=4, seed=seed
    )
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    engine = AggregationEngine(trace)
    for tslice in scrub_sequence(trace.span(), seed):
        assert_views_equal(
            engine.view(grouping, tslice),
            aggregate_view(trace, grouping, tslice),
        )
    stats = engine.stats
    # The scrub must actually ride the incremental paths: most moves
    # are deltas, and repeated slices reuse the slice cache's means.
    assert stats["slice_delta"] > stats["slice_full"]
    assert stats["slice_hits"] > 0
    assert stats["advance_rounds"] > 0


@pytest.mark.parametrize("seed", [3, 4])
def test_grouping_changes_match_oracle_and_reuse_units(seed):
    trace = random_hierarchical_trace(n_sites=4, seed=seed)
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    engine = AggregationEngine(trace)
    start, end = trace.span()
    tslice = TimeSlice(start, end)
    rng = random.Random(seed)
    groups = hierarchy.groups()
    engine.view(grouping, tslice)  # prime the caches
    for _ in range(25):
        group = rng.choice(groups)
        if group in grouping.collapsed:
            grouping.expand(group)
        else:
            grouping.collapse(group)
        assert_views_equal(
            engine.view(grouping, tslice),
            aggregate_view(trace, grouping, tslice),
        )
    stats = engine.stats
    # Same slice throughout: every grouping change combines the units
    # over the slice means the slice cache already holds.
    assert stats["slice_hits"] > 0


def test_interleaved_scrub_and_grouping(seed=7):
    trace = random_hierarchical_trace(n_sites=3, seed=seed)
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    engine = AggregationEngine(trace)
    rng = random.Random(seed)
    groups = hierarchy.groups()
    tslices = scrub_sequence(trace.span(), seed, moves=20)
    for i, tslice in enumerate(tslices):
        if i % 4 == 3:
            group = rng.choice(groups)
            if group in grouping.collapsed:
                grouping.expand(group)
            else:
                grouping.collapse(group)
        assert_views_equal(
            engine.view(grouping, tslice),
            aggregate_view(trace, grouping, tslice),
        )


def test_metric_subset_matches_oracle():
    trace = random_hierarchical_trace(n_sites=2, seed=11)
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    engine = AggregationEngine(trace)
    tslice = TimeSlice(10.0, 60.0)
    for metrics in ([CAPACITY], [USAGE], [CAPACITY, USAGE], []):
        assert_views_equal(
            engine.view(grouping, tslice, metrics=metrics),
            aggregate_view(trace, grouping, tslice, metrics=metrics),
        )


def test_zero_width_slice_matches_oracle():
    trace = figure3_trace()
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    grouping.collapse(("GroupB",))
    engine = AggregationEngine(trace)
    for t in (0.0, 0.5, 1.0):
        tslice = TimeSlice(t, t)
        assert_views_equal(
            engine.view(grouping, tslice),
            aggregate_view(trace, grouping, tslice),
        )


def test_session_engines_agree():
    """A session's engine agrees with the oracle for the session's
    grouping and slice, and counts one view."""
    trace = random_hierarchical_trace(n_sites=2, seed=13)
    session = AnalysisSession(trace, seed=1)
    session.aggregate_depth(2)
    session.set_time_slice(20.0, 70.0)
    view = session.view(settle=False)
    oracle = aggregate_view(trace, session.grouping, session.time_slice)
    assert_views_equal(view.aggregated, oracle)
    assert session.aggregation_stats["views"] == 1
    assert view.agg_stats["views"] == 1


@pytest.mark.parametrize("backing", ["resident", "stored"])
def test_unknown_metric_view_matches_oracle(backing, tmp_path):
    """A metric no entity carries gives every unit empty values on a
    resident and on a stored trace alike, as the oracle does."""
    trace = random_hierarchical_trace(n_sites=2, seed=3)
    if backing == "stored":
        write_store(trace, tmp_path / "t.rtrace")
        trace = open_store(tmp_path / "t.rtrace").open_trace()
    session = AnalysisSession(trace)
    view = session.view(settle=False, metrics=["bogus"])
    oracle = aggregate_view(
        trace, session.grouping, session.time_slice, metrics=["bogus"]
    )
    assert_views_equal(view.aggregated, oracle)
    assert all(not u.values for u in view.aggregated.units.values())


def test_grouping_revision_counts_effective_changes_only():
    hierarchy = Hierarchy.from_trace(figure3_trace())
    grouping = GroupingState(hierarchy)
    assert grouping.revision == 0
    grouping.collapse(("GroupB",))
    assert grouping.revision == 1
    grouping.collapse(("GroupB",))  # no-op
    assert grouping.revision == 1
    grouping.expand(("GroupB", "GroupA"))  # not collapsed: no-op
    assert grouping.revision == 1
    grouping.expand(("GroupB",))
    assert grouping.revision == 2
    grouping.expand_all()  # already empty: no-op
    assert grouping.revision == 2


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=100, max_value=300),
            st.integers(min_value=2000, max_value=4423),
        ),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grouped_combine_equals_the_per_unit_loop(counts, seed):
    """One reduce per member count over a (units, count) gather sums
    every unit's members bit for bit as one 1-D np.add.reduce per unit
    does, pairwise order and signed zeros included; a view of
    single-member units only takes the values as they are."""
    from repro.core.aggengine import _combine, _count_order

    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    values = rng.standard_normal(int(offsets[-1])) * 10.0 ** rng.integers(
        -8, 9, int(offsets[-1])
    )
    values[rng.random(len(values)) < 0.05] = -0.0
    want = values if max(counts) == 1 else np.array([
        np.add.reduce(values[a:b]) for a, b in zip(offsets[:-1], offsets[1:])
    ])
    order, gather, spans = _count_order(np.asarray(counts))
    got = np.empty(len(counts))
    got[order] = _combine(values[gather], spans)
    assert got.tobytes() == want.tobytes()
