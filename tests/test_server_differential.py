"""Concurrent sessions are byte-identical to isolated ones (ISSUE 7).

The center-of-gravity differential: N concurrent WebSocket sessions
each replay the same deterministic 100-move scrub storm (group/ungroup
toggles included) against one shared server, and every reply is
compared as received — **bytes**, envelope and all — against the
canonical JSON of a fresh, fully isolated
:class:`~repro.core.session.AnalysisSession` replaying the same storm.
Sharing (one ``SharedTraceData``, one result cache) must be a pure
optimization: same bytes, fewer computations.  The comparison is of the
text the server wrote, not of a decoded and re-encoded result, so it
also catches key-order and escaping drift in the one-pass view writer.

The cross-session proof rides along: the run must record cache hits
from sessions other than the one that populated the entry
(``cross_hits > 0``), or the "shared" cache never actually shared.
"""

import asyncio
import json

import pytest

from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import Hierarchy
from repro.core.session import AnalysisSession
from repro.server.app import ReproServer, _ephemeral_session
from repro.server.client import WsClient
from repro.server.load import (
    default_group_paths,
    make_storm,
    replay_storm_local,
    run_load,
)
from repro.server.protocol import canonical_json
from repro.server.state import (
    SESSION_SEED,
    ServerConfig,
    SessionState,
    SharedServerState,
)
from repro.trace.synthetic import random_hierarchical_trace

from tests.test_store_differential import grid_trace  # noqa: F401 (fixture)


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
        oracle = replay_storm_local(trace, storm, settle_steps=1)

        async def alternate(port: int) -> list[list[str]]:
            clients = [
                await WsClient.connect(config.host, port) for _ in range(2)
            ]
            replies: list[list[str]] = [[], []]
            try:
                for client in clients:
                    await client.request("hello")
                for index, move in enumerate(storm):
                    request = canonical_json({"id": index, **move})
                    for i, client in enumerate(clients):
                        replies[i].append(await client.exchange(request))
            finally:
                for client in clients:
                    await client.close()
            return replies

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
    going first.  Returns the first session's reply frames (move *i*
    sent as request id *i*) and cache tiers."""
    state = SharedServerState(trace, ServerConfig(settle_steps=1))
    first, second = state.create_session(), state.create_session()
    replies, tiers = [], []
    for i, move in enumerate(storm):
        if i % 2:
            second.apply(dict(move))
        reply, meta = state.handle_frame(
            first, json.dumps(dict(move, id=i))
        )
        assert meta["ok"], reply
        replies.append(reply)
        tiers.append(meta["tier"])
        if not i % 2:
            second.apply(dict(move))
    return replies, tiers


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
        replies, tiers = replay_shared(trace, storm)
        assert replies == replay_storm_local(trace, storm, settle_steps=1)
        assert {"fresh", "local", "shared"} <= set(tiers)
        local = SessionState.local(trace, settle_steps=1)
        for reply, move in zip(replies, storm):
            local.apply(dict(move))
            session = local.session
            want = aggregate_view(trace, session.grouping, session.time_slice)
            got = json.loads(reply)["result"]
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


def drill_storm(hierarchy) -> list[dict]:
    """The drill shape of the end-to-end benchmark: from the depth-2
    view, expand and collapse every site in turn, flipping to depth 3
    or 1 and back to 2 after each."""
    storm = [{"op": "depth", "depth": 2}]
    for i, site in enumerate(hierarchy.groups_at_depth(2)):
        storm += [
            {"op": "ungroup", "path": list(site)},
            {"op": "group", "path": list(site)},
            {"op": "depth", "depth": 1 if i % 2 else 3},
            {"op": "depth", "depth": 2},
        ]
    return storm


class TestDrillBesideScrubs:
    def test_both_sessions_match_their_local_replays(
        self, grid_trace  # noqa: F811
    ):
        """On the reduced Grid'5000 trace, a session drilling into
        every site shares its structures, seeds and result cache with a
        session scrubbing at depth 2, one move each in turn: each
        session's reply bytes equal its ``SessionState.local``
        replay."""
        drill = drill_storm(Hierarchy.from_trace(grid_trace))
        start, end = grid_trace.span()
        width = (end - start) / 8
        step = (end - start - width) / len(drill)
        scrubs = [{"op": "depth", "depth": 2}] + [
            {"op": "scrub", "start": start + i * step,
             "end": start + i * step + width}
            for i in range(1, len(drill))
        ]
        state = SharedServerState(grid_trace, ServerConfig(settle_steps=1))
        sessions = state.create_session(), state.create_session()
        replies: tuple[list[str], list[str]] = ([], [])
        for i, moves in enumerate(zip(drill, scrubs)):
            for session, move, got in zip(sessions, moves, replies):
                got.append(session.reply(dict(move, id=i))[0])
        assert len(drill) > 40
        assert state.shared.stats["structure_builds"] == (
            len(drill) - 1) // 4 + 3
        assert replies[0] == replay_storm_local(
            grid_trace, drill, settle_steps=1
        )
        assert replies[1] == replay_storm_local(
            grid_trace, scrubs, settle_steps=1
        )


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


class TestOneLayoutSeed:
    """Server sessions, ``/render``'s one-shot session and the oracle
    lay out from one seed, which no caller sets."""

    def test_every_server_session_takes_the_session_seed(
        self, trace, monkeypatch
    ):
        seeds = []
        real_init = AnalysisSession.__init__

        def spying(self, *args, **kwargs):
            seeds.append(kwargs["seed"])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisSession, "__init__", spying)
        server = SharedServerState(trace, ServerConfig(settle_steps=1))
        server.create_session()
        _ephemeral_session(server)
        SessionState.local(trace)
        assert seeds == [SESSION_SEED] * 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda trace: ServerConfig(seed=0),
            lambda trace: run_load(
                trace=trace, sessions=1, moves=1, layout_seed=0
            ),
            lambda trace: replay_storm_local(trace, [], seed=0),
            lambda trace: SessionState.local(trace, seed=0),
            lambda trace: SessionState.local(trace, session_id="x"),
            lambda trace: make_storm(trace.span(), start_depth=2),
            lambda trace: make_storm(trace.span(), group_every=8),
            lambda trace: default_group_paths(trace, limit=2),
        ],
        ids=[
            "ServerConfig-seed",
            "run_load-layout_seed",
            "replay_storm_local-seed",
            "SessionState.local-seed",
            "SessionState.local-session_id",
            "make_storm-start_depth",
            "make_storm-group_every",
            "default_group_paths-limit",
        ],
    )
    def test_removed_settings_raise_type_error(self, trace, call):
        with pytest.raises(TypeError):
            call(trace)
