"""Concurrent sessions are byte-identical to isolated ones (ISSUE 7).

The center-of-gravity differential: N concurrent WebSocket sessions
each replay the same deterministic 100-move scrub storm (group/ungroup
toggles included) against one shared server, and every reply payload is
compared — as canonical JSON **bytes** — against a fresh, fully
isolated :class:`~repro.core.session.AnalysisSession` replaying the
same storm.  Sharing (one ``SharedTraceData``, one result cache) must
be a pure optimization: same bytes, fewer computations.

The cross-session proof rides along: the run must record cache hits
from sessions other than the one that populated the entry
(``cross_hits > 0``), or the "shared" cache never actually shared.
"""

import asyncio
import json

import pytest

from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import Hierarchy
from repro.server.app import ReproServer
from repro.server.client import WsClient
from repro.server.load import (
    default_group_paths,
    make_storm,
    replay_storm_local,
    run_load,
)
from repro.server.protocol import canonical_json
from repro.server.state import ServerConfig, SessionState, SharedServerState
from repro.trace.synthetic import random_hierarchical_trace


@pytest.fixture(scope="module")
def trace():
    return random_hierarchical_trace(
        n_sites=3, clusters_per_site=2, hosts_per_cluster=4, seed=29
    )


class TestConcurrentDifferential:
    def test_eight_sessions_hundred_moves_byte_identical(self, trace):
        """The acceptance criterion: 8 simultaneous sessions, a
        100-move storm each, zero byte mismatches, and cross-session
        cache traffic > 0."""
        report = run_load(
            trace=trace,
            sessions=8,
            moves=100,
            seed=7,
            settle_steps=1,
            differential=True,
        )
        diff = report["differential"]
        assert diff["checked"] == 8 * 100
        assert diff["mismatches"] == 0
        assert diff["ok"] is True
        # Work crossed session boundaries: hits attributed to sessions
        # that did not populate the entry.
        assert report["cache"]["cross_hits"] > 0
        assert report["cache"]["hits"] + report["cache"]["misses"] == (
            report["cache"]["lookups"]
        )
        assert report["server"]["errors"] == 0

    def test_interleaved_clients_match_oracle(self, trace):
        """Two clients strictly alternating single moves — the finest
        interleaving the single-loop server allows — still match the
        oracle move for move: each request applies atomically to its
        own session."""
        storm = make_storm(
            trace.span(),
            moves=24,
            seed=5,
            group_paths=default_group_paths(trace),
        )
        oracle = replay_storm_local(trace, storm, seed=0, settle_steps=1)

        async def alternate(port: int) -> list[list[str]]:
            clients = [
                await WsClient.connect(config.host, port) for _ in range(2)
            ]
            payloads: list[list[str]] = [[], []]
            try:
                for client in clients:
                    await client.request("hello")
                for move in storm:
                    for i, client in enumerate(clients):
                        reply = await client.request(**move)
                        assert reply["ok"], reply
                        payloads[i].append(canonical_json(reply["result"]))
            finally:
                for client in clients:
                    await client.close()
            return payloads

        config = ServerConfig(port=0, settle_steps=1)
        with ReproServer(trace, config) as server:
            per_session = asyncio.run(alternate(server.port))
        for session_payloads in per_session:
            assert session_payloads == oracle

    def test_sessions_agree_with_each_other(self, trace):
        """All concurrent sessions see the same bytes, not just the
        oracle: per-session p95 lists confirm every session completed
        the full storm."""
        report = run_load(
            trace=trace, sessions=4, moves=30, settle_steps=1,
            differential=True,
        )
        assert report["differential"]["ok"]
        assert len(report["per_session_p95_s"]) == 4
        assert report["requests"] == 4 * 30


def regroup_storm(trace, start: float, end: float) -> list[dict]:
    """One slice, then every depth-2 group expanded and collapsed again,
    then depth flips 1 -> 2 -> 3 -> 2 -> 1."""
    storm = [
        {"op": "scrub", "start": start, "end": end},
        {"op": "depth", "depth": 2},
    ]
    for path in Hierarchy.from_trace(trace).groups_at_depth(2):
        storm.append({"op": "ungroup", "path": list(path)})
        storm.append({"op": "group", "path": list(path)})
    storm += [{"op": "depth", "depth": depth} for depth in (1, 2, 3, 2, 1)]
    return storm


def replay_shared(trace, storm: list[dict]) -> tuple[list[str], list[str]]:
    """*storm* through a server session that shares its result cache
    with a second session replaying the same storm; the two take turns
    going first.  Returns the first session's payloads and cache tiers."""
    state = SharedServerState(trace, ServerConfig(settle_steps=1))
    first, second = state.create_session(), state.create_session()
    payloads, tiers = [], []
    for i, move in enumerate(storm):
        if i % 2:
            second.apply(dict(move))
        envelope, meta = state.handle_frame(
            first, json.dumps(dict(move, id=i))
        )
        assert envelope["ok"], envelope
        payloads.append(canonical_json(envelope["result"]))
        tiers.append(meta["tier"])
        if not i % 2:
            second.apply(dict(move))
    return payloads, tiers


class TestFixedSliceRegrouping:
    """Regrouping under an unchanged slice combines every unit afresh
    over the slice cache's means, or reads the result cache."""

    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.25, 0.75)])
    def test_matches_the_isolated_session_and_the_scalar_oracle(
        self, trace, window
    ):
        """Byte-identical to an isolated session.  Against the scalar
        oracle, ``aggregate_view`` for the isolated session's grouping
        and slice at each move, every unit field but the values and
        every edge is equal, and the values agree to roundoff:
        ``np.add.reduce`` sums eight or more members pairwise, the
        oracle's built-in ``sum`` left to right."""
        start, end = trace.span()
        width = end - start
        storm = regroup_storm(
            trace, start + window[0] * width, start + window[1] * width
        )
        payloads, tiers = replay_shared(trace, storm)
        assert payloads == replay_storm_local(trace, storm, settle_steps=1)
        assert {"fresh", "local", "shared"} <= set(tiers)
        local = SessionState.local(trace, settle_steps=1)
        for payload, move in zip(payloads, storm):
            local.apply(dict(move))
            session = local.session
            want = aggregate_view(trace, session.grouping, session.time_slice)
            got = json.loads(payload)
            assert [u["key"] for u in got["units"]] == list(want.units)
            for unit, oracle_unit in zip(got["units"], want.units.values()):
                assert unit["label"] == oracle_unit.label
                assert unit["kind"] == oracle_unit.kind
                assert unit["group"] == (
                    None if oracle_unit.group is None
                    else list(oracle_unit.group)
                )
                assert unit["weight"] == oracle_unit.weight
                assert unit["values"] == pytest.approx(
                    oracle_unit.values, rel=1e-9
                )
            assert got["edges"] == [
                [e.a, e.b, e.multiplicity] for e in want.edges
            ]


class TestStatsOp:
    def test_layout_counts_equal_the_local_replay(self, trace):
        """The ``stats`` op's ``layout`` counts repeat for a seed: a
        server session that shares its structures and result cache with
        another session reports, after the same ops, the counts of its
        isolated ``SessionState.local`` replay."""
        server = SharedServerState(trace, ServerConfig(settle_steps=2))
        other, state = server.create_session(), server.create_session()
        local = SessionState.local(trace, settle_steps=2)
        storm = make_storm(
            trace.span(), moves=20, seed=5,
            group_paths=default_group_paths(trace),
        )
        for move in storm:
            other.apply(dict(move))  # puts first, so `state` hits
            state.apply(dict(move))
            local.apply(dict(move))
        assert server.cache.stats["cross_hits"] > 0
        got = state.apply({"op": "stats"})["layout"]
        assert got == local.apply({"op": "stats"})["layout"]
        assert set(got) == {"evals", "builds", "cells", "p2p_pairs"}
        assert got["evals"] > 0


class TestStormDeterminism:
    def test_same_seed_same_storm(self, trace):
        span = trace.span()
        paths = default_group_paths(trace)
        a = make_storm(span, moves=50, seed=7, group_paths=paths)
        b = make_storm(span, moves=50, seed=7, group_paths=paths)
        assert a == b

    def test_different_seed_different_storm(self, trace):
        span = trace.span()
        a = make_storm(span, moves=50, seed=7)
        b = make_storm(span, moves=50, seed=8)
        assert a != b

    def test_storm_mixes_scrubs_and_grouping_ops(self, trace):
        storm = make_storm(
            trace.span(),
            moves=100,
            seed=7,
            group_paths=default_group_paths(trace),
        )
        ops = {move["op"] for move in storm}
        assert "scrub" in ops
        assert ops & {"group", "ungroup", "depth"}
        assert len(storm) == 100

    def test_oracle_replay_is_deterministic(self, trace):
        storm = make_storm(trace.span(), moves=20, seed=3)
        first = replay_storm_local(trace, storm, settle_steps=1)
        second = replay_storm_local(trace, storm, settle_steps=1)
        assert first == second
